"""Classifier system mechanics: covering, updates, GA, action selection."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ams.xcs import CONDITION_LENGTH, Classifier, XcsError, XcsParams, XcsPopulation

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


@pytest.mark.parametrize("bits", [
    "0b" + BITS[2:],                # a base prefix
    "+" + BITS[1:],                 # a sign
    BITS[:8] + "_" + BITS[9:],      # a digit separator
    " " + BITS[1:],                 # surrounding whitespace
    BITS[:17] + "\t",
    "\u0661" * CONDITION_LENGTH,    # ARABIC-INDIC DIGIT ONE
    BITS[:5] + "\u0660" + BITS[6:],  # ARABIC-INDIC DIGIT ZERO
    BITS + "\n",                    # 19 characters
])
def test_input_validation_precedes_parsing(bits):
    int(bits, 2)  # each is a number to int(), but not an input
    pop = make_pop()
    with pytest.raises(XcsError):
        pop.match_set(bits)
    assert pop.classifiers == [] and pop.time == 0


# the symbol-by-symbol forms the bit masks replace
def reference_matches(condition: str, bits: str) -> bool:
    return all(c == "#" or c == b for c, b in zip(condition, bits))


def reference_is_more_general(general: str, specific: str) -> bool:
    more_wildcards = False
    for mine, theirs in zip(general, specific):
        if mine != "#":
            if mine != theirs:
                return False
        elif theirs != "#":
            more_wildcards = True
    return more_wildcards


inputs = st.text("01", min_size=CONDITION_LENGTH, max_size=CONDITION_LENGTH)
conditions = st.text("01#", min_size=CONDITION_LENGTH, max_size=CONDITION_LENGTH)


def changed_at(draw, symbols: list[str]) -> str:
    """`symbols` with a different symbol at up to two drawn positions."""
    for i in draw(st.sets(st.integers(0, CONDITION_LENGTH - 1), max_size=2)):
        symbols[i] = draw(st.sampled_from([c for c in "01#" if c != symbols[i]]))
    return "".join(symbols)


@st.composite
def matching(draw, bits: str) -> str:
    """A condition that matches `bits` unless a drawn position changed."""
    return changed_at(draw, [draw(st.sampled_from([b, "#"])) for b in bits])


@st.composite
def specialised(draw, condition: str) -> str:
    """A condition `condition` is more general than, or equal to, unless a
    drawn position changed."""
    return changed_at(draw, [draw(st.sampled_from("#01")) if c == "#" else c
                             for c in condition])


@settings(max_examples=200, deadline=None)
@given(st.data(), inputs)
def test_masks_match_as_the_symbols_do(data, bits):
    condition = data.draw(st.one_of(conditions, matching(bits)))
    cl = Classifier(condition, 0, 0.0, 0.0, 0.0)
    assert cl.matches(bits) == reference_matches(condition, bits)


@settings(max_examples=200, deadline=None)
@given(st.data(), conditions)
def test_masks_order_generality_as_the_symbols_do(data, a):
    b = data.draw(st.one_of(conditions, specialised(a)))
    ca, cb = Classifier(a, 0, 0.0, 0.0, 0.0), Classifier(b, 0, 0.0, 0.0, 0.0)
    assert ca.is_more_general(cb) == reference_is_more_general(a, b)
    assert cb.is_more_general(ca) == reference_is_more_general(b, a)


@settings(max_examples=100, deadline=None)
@given(st.data(), inputs)
def test_match_set_is_the_symbolwise_filter(data, bits):
    drawn = data.draw(st.lists(st.tuples(st.one_of(conditions, matching(bits)),
                                         st.integers(0, 7)), max_size=40))
    pop = make_pop()
    pop.classifiers = [Classifier(c, a, 0.0, 0.0, 0.0) for c, a in drawn]
    match = pop.match_set(bits)
    # covering may add classifiers; the filter runs over the final population
    expected = [cl for cl in pop.classifiers if reference_matches(cl.condition, bits)]
    assert [id(cl) for cl in match] == [id(cl) for cl in expected]


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
