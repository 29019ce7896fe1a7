"""Classifier system mechanics: covering, updates, GA, action selection."""

import random

import pytest

from ams.xcs import Classifier, XcsError, XcsParams, XcsPopulation

BITS = "010010110001000011"


def make_pop(**overrides) -> XcsPopulation:
    return XcsPopulation(XcsParams(**overrides), random.Random(1))


def test_covering_reaches_all_actions():
    pop = make_pop()
    match = pop.match_set(BITS)
    assert len({cl.action for cl in match}) == 8
    for cl in match:
        assert cl.matches(BITS)
        assert cl.prediction == pop.params.init_prediction


def test_covering_respects_wildcard_rate():
    pop = make_pop(wildcard_prob=0.0)
    match = pop.match_set(BITS)
    assert all(cl.condition == BITS for cl in match)


def test_input_validation():
    pop = make_pop()
    with pytest.raises(XcsError):
        pop.match_set("01")
    with pytest.raises(XcsError):
        pop.match_set("2" * 18)


def test_widrow_hoff_update_math():
    pop = make_pop()
    cl = Classifier(condition="#" * 18, action=0, prediction=0.5,
                    error=0.1, fitness=0.5)
    pop.classifiers.append(cl)
    pop.update([cl], reward=1.0)
    # error uses the pre-update prediction
    assert cl.error == pytest.approx(0.1 + 0.2 * (abs(1.0 - 0.5) - 0.1))
    assert cl.prediction == pytest.approx(0.5 + 0.2 * (1.0 - 0.5))
    assert cl.experience == 1


def test_accuracy_is_one_below_error_threshold():
    pop = make_pop()
    accurate = Classifier("#" * 18, 0, 1.0, 0.0, 0.5)
    sloppy = Classifier("#" * 18, 0, 1.0, 0.0, 0.5)
    pop.classifiers += [accurate, sloppy]
    sloppy.error = 0.12  # 10x the threshold
    pop.update([accurate, sloppy], reward=1.0)
    # accurate classifier absorbs nearly all fitness share
    assert accurate.fitness > sloppy.fitness


def test_system_prediction_fitness_weighted():
    pop = make_pop()
    a = Classifier("#" * 18, 2, 0.4, 0.0, 0.5)
    b = Classifier("#" * 18, 2, 0.8, 0.0, 0.5)
    assert pop.system_predictions([a, b])[2] == pytest.approx(0.6)


def test_exploit_breaks_ties_to_lowest_action():
    pop = make_pop()
    a = Classifier("#" * 18, 5, 0.7, 0.0, 0.5)
    b = Classifier("#" * 18, 1, 0.7, 0.0, 0.5)
    action, _ = pop.select_action([a, b])
    assert action == 1


def test_explore_uses_rng():
    pop = make_pop()
    cls = [Classifier("#" * 18, i, 0.1 * i, 0.0, 0.5) for i in range(8)]
    actions = {pop.select_action(cls, 1.0)[0] for _ in range(100)}
    assert len(actions) > 4


def test_rng_is_drawn_only_when_exploring():
    pop = make_pop()
    cls = [Classifier("#" * 18, i, 0.1 * i, 0.0, 0.5) for i in range(8)]
    state = pop.rng.getstate()
    assert pop.select_action(cls, 0.0)[0] == 7
    assert pop.rng.getstate() == state
    pop.select_action(cls, 0.5)
    assert pop.rng.getstate() != state


def test_is_more_general():
    general = Classifier("##0010110001000011", 0, 0, 0, 0)
    specific = Classifier("010010110001000011", 0, 0, 0, 0)
    assert general.is_more_general(specific)
    assert not specific.is_more_general(general)
    assert not general.is_more_general(general)


def test_population_cap_enforced():
    pop = make_pop(population_cap=50)
    rng = random.Random(2)
    for _ in range(300):
        bits = "".join(rng.choice("01") for _ in range(18))
        match = pop.match_set(bits)
        action, _ = pop.select_action(match, 0.1)
        pop.update(pop.action_set(match, action), rng.random())
    assert pop.total_numerosity <= 50


def test_ga_runs_and_subsumes():
    pop = make_pop(ga_threshold=5.0)
    for step in range(200):
        match = pop.match_set(BITS)
        action, _ = pop.select_action(match, 0.1)
        pop.update(pop.action_set(match, action), 0.1 * action)
    # stable rewards: population remains bounded and contains macroclassifiers
    assert pop.total_numerosity >= len(pop.classifiers)
    assert any(cl.numerosity > 1 for cl in pop.classifiers)
