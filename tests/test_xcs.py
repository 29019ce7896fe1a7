"""Classifier system mechanics: covering, updates, GA, action selection.

Conditions are (care, value) masks; the tests write them in the ternary
alphabet "01#", first symbol most significant, and `StringPopulation`
keeps the symbol-by-symbol covering and GA the masks replaced, as the
reference they must agree with exactly.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ams.xcs import CONDITION_LENGTH, N_ACTIONS, Classifier, XcsError, XcsParams, XcsPopulation

BITS = "010010110001000011"
X = int(BITS, 2)


def masks(condition: str) -> tuple[int, int]:
    """The (care, value) form of a "01#" condition."""
    return (int(condition.replace("0", "1").replace("#", "0"), 2),
            int(condition.replace("#", "0"), 2))


def symbols(care: int, value: int) -> str:
    """The "01#" form of a (care, value) condition."""
    return "".join("#" if not care >> shift & 1 else str(value >> shift & 1)
                   for shift in reversed(range(CONDITION_LENGTH)))


def classifier(condition: str, action: int = 0, prediction: float = 0.0,
               error: float = 0.0, fitness: float = 0.0) -> Classifier:
    return Classifier(*masks(condition), action, prediction, error, fitness)


def make_pop(**overrides) -> XcsPopulation:
    return XcsPopulation(XcsParams(**overrides), random.Random(1))


def test_covering_reaches_all_actions():
    pop = make_pop()
    match = pop.match_set(X)
    assert len({cl.action for cl in match}) == 8
    for cl in match:
        assert reference_matches(symbols(cl.care, cl.value), BITS)
        assert cl.prediction == pop.params.init_prediction


def test_covering_respects_wildcard_rate():
    pop = make_pop(wildcard_prob=0.0)
    match = pop.match_set(X)
    assert all(symbols(cl.care, cl.value) == BITS for cl in match)


def test_input_validation():
    pop = make_pop()
    assert pop.match_set(0) and pop.match_set((1 << CONDITION_LENGTH) - 1)
    with pytest.raises(XcsError):
        pop.match_set(1 << CONDITION_LENGTH)
    with pytest.raises(XcsError):
        pop.match_set(BITS)


@pytest.mark.parametrize("x", [
    True, -1, 1 << CONDITION_LENGTH, 1.0, BITS,
    # strings int(s, 2) reads as a number are no input either
    "0b" + BITS[2:],                # a base prefix
    "+" + BITS[1:],                 # a sign
    BITS[:8] + "_" + BITS[9:],      # a digit separator
    " " + BITS[1:],                 # surrounding whitespace
    BITS[:17] + "\t",
    "\u0661" * CONDITION_LENGTH,    # ARABIC-INDIC DIGIT ONE
    BITS[:5] + "\u0660" + BITS[6:],  # ARABIC-INDIC DIGIT ZERO
    BITS + "\n",                    # 19 characters
])
def test_input_validation_precedes_parsing(x):
    pop = make_pop()
    with pytest.raises(XcsError):
        pop.match_set(x)
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


def changed_at(draw, condition: list[str]) -> str:
    """`condition` with a different symbol at up to two drawn positions."""
    for i in draw(st.sets(st.integers(0, CONDITION_LENGTH - 1), max_size=2)):
        condition[i] = draw(st.sampled_from([c for c in "01#" if c != condition[i]]))
    return "".join(condition)


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
    care, value = masks(condition)
    assert symbols(care, value) == condition and value & ~care == 0
    assert (int(bits, 2) & care == value) == reference_matches(condition, bits)


@settings(max_examples=200, deadline=None)
@given(st.data(), conditions)
def test_masks_order_generality_as_the_symbols_do(data, a):
    b = data.draw(st.one_of(conditions, specialised(a)))
    ca, cb = classifier(a), classifier(b)
    assert ca.is_more_general(cb) == reference_is_more_general(a, b)
    assert cb.is_more_general(ca) == reference_is_more_general(b, a)


@settings(max_examples=100, deadline=None)
@given(st.data(), inputs)
def test_match_set_is_the_symbolwise_filter(data, bits):
    drawn = data.draw(st.lists(st.tuples(st.one_of(conditions, matching(bits)),
                                         st.integers(0, 7)), max_size=40))
    pop = make_pop()
    pop.classifiers = [classifier(c, a) for c, a in drawn]
    match = pop.match_set(int(bits, 2))
    # covering may add classifiers; the filter runs over the final population
    expected = [cl for cl in pop.classifiers
                if reference_matches(symbols(cl.care, cl.value), bits)]
    assert [id(cl) for cl in match] == [id(cl) for cl in expected]


def test_widrow_hoff_update_math():
    pop = make_pop()
    cl = classifier("#" * 18, action=0, prediction=0.5, error=0.1, fitness=0.5)
    pop.classifiers.append(cl)
    pop.update([cl], reward=1.0)
    # error uses the pre-update prediction
    assert cl.error == pytest.approx(0.1 + 0.2 * (abs(1.0 - 0.5) - 0.1))
    assert cl.prediction == pytest.approx(0.5 + 0.2 * (1.0 - 0.5))
    assert cl.experience == 1


def test_accuracy_is_one_below_error_threshold():
    pop = make_pop()
    accurate = classifier("#" * 18, 0, 1.0, 0.0, 0.5)
    sloppy = classifier("#" * 18, 0, 1.0, 0.0, 0.5)
    pop.classifiers += [accurate, sloppy]
    sloppy.error = 0.12  # 10x the threshold
    pop.update([accurate, sloppy], reward=1.0)
    # accurate classifier absorbs nearly all fitness share
    assert accurate.fitness > sloppy.fitness


def test_system_prediction_fitness_weighted():
    pop = make_pop()
    a = classifier("#" * 18, 2, 0.4, 0.0, 0.5)
    b = classifier("#" * 18, 2, 0.8, 0.0, 0.5)
    assert pop.system_predictions([a, b])[2] == pytest.approx(0.6)


def test_exploit_breaks_ties_to_lowest_action():
    pop = make_pop()
    a = classifier("#" * 18, 5, 0.7, 0.0, 0.5)
    b = classifier("#" * 18, 1, 0.7, 0.0, 0.5)
    action, _ = pop.select_action([a, b])
    assert action == 1


def test_explore_uses_rng():
    pop = make_pop()
    cls = [classifier("#" * 18, i, 0.1 * i, 0.0, 0.5) for i in range(8)]
    actions = {pop.select_action(cls, 1.0)[0] for _ in range(100)}
    assert len(actions) > 4


def test_rng_is_drawn_only_when_exploring():
    pop = make_pop()
    cls = [classifier("#" * 18, i, 0.1 * i, 0.0, 0.5) for i in range(8)]
    state = pop.rng.getstate()
    assert pop.select_action(cls, 0.0)[0] == 7
    assert pop.rng.getstate() == state
    pop.select_action(cls, 0.5)
    assert pop.rng.getstate() != state


def test_is_more_general():
    general = classifier("##0010110001000011", 0, 0, 0, 0)
    specific = classifier("010010110001000011", 0, 0, 0, 0)
    assert general.is_more_general(specific)
    assert not specific.is_more_general(general)
    assert not general.is_more_general(general)


def test_population_cap_enforced():
    pop = make_pop(population_cap=50)
    rng = random.Random(2)
    for _ in range(300):
        match = pop.match_set(rng.getrandbits(CONDITION_LENGTH))
        action, _ = pop.select_action(match, 0.1)
        pop.update(pop.action_set(match, action), rng.random())
    assert pop.total_numerosity <= 50


def test_ga_runs_and_subsumes():
    pop = make_pop(ga_threshold=5.0)
    for step in range(200):
        match = pop.match_set(X)
        action, _ = pop.select_action(match, 0.1)
        pop.update(pop.action_set(match, action), 0.1 * action)
    # stable rewards: population remains bounded and contains macroclassifiers
    assert pop.total_numerosity >= len(pop.classifiers)
    assert any(cl.numerosity > 1 for cl in pop.classifiers)


# -- the string form the masks replace ---------------------------------------


@dataclass
class StringClassifier:
    condition: str
    action: int
    prediction: float
    error: float
    fitness: float
    experience: int = 0
    numerosity: int = 1
    action_set_size: float = 1.0
    ga_timestamp: int = 0


class StringPopulation(XcsPopulation):
    """Covering, matching, the GA and duplicate checks on "01#" strings,
    symbol by symbol, as they ran before conditions became masks; updates,
    tournaments and deletion are inherited.  `events` counts what ran."""

    def __init__(self, params, rng):
        super().__init__(params, rng)
        self.events = Counter()

    def match_set(self, bits: str) -> list[StringClassifier]:
        self.time += 1
        matches = [cl for cl in self.classifiers if reference_matches(cl.condition, bits)]
        while len({cl.action for cl in matches}) < N_ACTIONS:
            covered = {cl.action for cl in matches}
            missing = [a for a in range(N_ACTIONS) if a not in covered]
            condition = "".join(
                "#" if self.rng.random() < self.params.wildcard_prob else b for b in bits)
            self._insert(StringClassifier(
                condition, missing[0], self.params.init_prediction, self.params.init_error,
                self.params.init_fitness, ga_timestamp=self.time))
            self._enforce_cap()
            matches = [cl for cl in self.classifiers if reference_matches(cl.condition, bits)]
        return matches

    def _maybe_run_ga(self, action_set):
        numerosity = sum(cl.numerosity for cl in action_set)
        mean_age = sum((self.time - cl.ga_timestamp) * cl.numerosity
                       for cl in action_set) / numerosity
        if mean_age <= self.params.ga_threshold:
            return
        for cl in action_set:
            cl.ga_timestamp = self.time
        parent_a = self._tournament(action_set)
        parent_b = self._tournament(action_set)
        child_a, child_b = list(parent_a.condition), list(parent_b.condition)
        if self.rng.random() < self.params.crossover_prob:
            self.events["crossover"] += 1
            x = self.rng.randrange(CONDITION_LENGTH + 1)
            y = self.rng.randrange(CONDITION_LENGTH + 1)
            lo, hi = min(x, y), max(x, y)
            child_a[lo:hi], child_b[lo:hi] = child_b[lo:hi], child_a[lo:hi]
            prediction = (parent_a.prediction + parent_b.prediction) / 2
            error = (parent_a.error + parent_b.error) / 2
            fitness = (parent_a.fitness + parent_b.fitness) / 2
            seeds = [(child_a, prediction, error, fitness),
                     (child_b, prediction, error, fitness)]
        else:
            seeds = [(child_a, parent_a.prediction, parent_a.error, parent_a.fitness),
                     (child_b, parent_b.prediction, parent_b.error, parent_b.fitness)]
        for condition, prediction, error, fitness in seeds:
            for i, symbol in enumerate(condition):
                if self.rng.random() < self.params.mutation_prob:
                    self.events["mutation"] += 1
                    condition[i] = "#" if symbol != "#" else self.rng.choice("01")
            child = StringClassifier("".join(condition), parent_a.action, prediction,
                                     error, fitness * 0.1, ga_timestamp=self.time)
            self._insert_with_subsumption(child, parent_a, parent_b)
        self._enforce_cap()

    def _insert_with_subsumption(self, child, *parents):
        for parent in parents:
            if (parent.action == child.action and self._could_subsume(parent)
                    and (reference_is_more_general(parent.condition, child.condition)
                         or parent.condition == child.condition)):
                self.events["subsumption"] += 1
                parent.numerosity += 1
                return
        self._insert(child)

    def _insert(self, child):
        for cl in self.classifiers:
            if cl.condition == child.condition and cl.action == child.action:
                cl.numerosity += child.numerosity
                return
        self.classifiers.append(child)

    def _delete_one(self):
        self.events["deletion"] += 1
        super()._delete_one()


def _state(cl) -> tuple:
    return (cl.action, cl.prediction, cl.error, cl.fitness, cl.experience,
            cl.numerosity, cl.action_set_size, cl.ga_timestamp)


@pytest.mark.parametrize("overrides", [
    # small niches revisited often: every operator runs
    dict(population_cap=24, ga_threshold=1.0, subsumption_experience=0,
         error_threshold=0.5, mutation_prob=0.2),
    # mostly wildcards, so generality orders many pairs
    dict(population_cap=40, ga_threshold=3.0, subsumption_experience=2,
         error_threshold=0.3, mutation_prob=0.1, wildcard_prob=0.7),
])
def test_masks_evolve_as_the_strings_did(overrides):
    pop = XcsPopulation(XcsParams(**overrides), random.Random(5))
    reference = StringPopulation(XcsParams(**overrides), random.Random(5))
    world = random.Random(6)
    niches = [world.getrandbits(CONDITION_LENGTH) for _ in range(5)]
    for _ in range(400):
        x = world.choice(niches)
        reward = world.random()
        match = pop.match_set(x)
        reference_match = reference.match_set(format(x, f"0{CONDITION_LENGTH}b"))
        action, prediction = pop.select_action(match, 0.3)
        assert reference.select_action(reference_match, 0.3) == (action, prediction)
        pop.update(pop.action_set(match, action), reward)
        reference.update(reference.action_set(reference_match, action), reward)
        assert [(symbols(cl.care, cl.value), *_state(cl)) for cl in pop.classifiers] == \
            [(cl.condition, *_state(cl)) for cl in reference.classifiers]
        assert pop.rng.getstate() == reference.rng.getstate()
    assert {"crossover", "mutation", "subsumption", "deletion"} <= set(reference.events)


# -- invariants --------------------------------------------------------------


def _counting(events: Counter, name: str, method):
    def counted(*args):
        events[name] += 1
        return method(*args)
    return counted


def test_invariants_hold_through_random_steps():
    """Any inputs, actions and rewards keep the population within its cap,
    its numbers finite and its conditions well formed and distinct.  Most
    inputs revisit a few niches, so that over all runs the GA breeds
    children, subsumes some and deletes others."""
    events = Counter()

    @settings(max_examples=40, deadline=None)
    @given(cap=st.integers(8, 20), ga_threshold=st.integers(0, 5),
           subsumption_experience=st.integers(0, 2), error_threshold=st.floats(0.5, 2.0),
           niches=st.lists(st.integers(0, (1 << CONDITION_LENGTH) - 1), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def run(cap, ga_threshold, subsumption_experience, error_threshold, niches, seed):
        pop = XcsPopulation(XcsParams(
            population_cap=cap, ga_threshold=ga_threshold,
            subsumption_experience=subsumption_experience,
            error_threshold=error_threshold), random.Random(seed))
        pop._insert = _counting(events, "inserted", pop._insert)
        pop._delete_one = _counting(events, "deletion", pop._delete_one)
        breed = pop._insert_with_subsumption

        def insert_or_subsume(child, *parents):
            inserted = events["inserted"]
            breed(child, *parents)
            events["child"] += 1
            events["subsumption"] += events["inserted"] == inserted

        pop._insert_with_subsumption = insert_or_subsume
        world = random.Random(seed + 1)
        for _ in range(100):
            x = (world.choice(niches) if world.random() < 0.9
                 else world.getrandbits(CONDITION_LENGTH))
            match = pop.match_set(x)
            pop.update(pop.action_set(match, world.randrange(N_ACTIONS)),
                       world.uniform(-1.0, 1.0))
            assert pop.total_numerosity <= cap
            keys = set()
            for cl in pop.classifiers:
                assert all(map(math.isfinite, (cl.prediction, cl.error, cl.fitness)))
                assert cl.error >= 0 and cl.fitness >= 0
                assert cl.value & ~cl.care == 0 and 0 <= cl.care < 1 << CONDITION_LENGTH
                keys.add((cl.care, cl.value, cl.action))
            assert len(keys) == len(pop.classifiers)

    run()
    assert events["child"] and events["subsumption"] and events["deletion"]
