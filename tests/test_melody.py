"""Melody operators, features, rewards, encoding, search and evolution."""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ams.chord_model import parse_chord
from ams.config import ASSET_ROOT
from ams.context_graph import AffectSnapshot
from ams.harmonic_context import ResourceMatrix
from ams.melody import (
    MAX_FRAGMENT_MEASURES,
    THEME_MUTATION_PROB,
    Abstention,
    Key,
    MelodicFragment,
    MelodyAgent,
    OPERATORS,
    MelodyError,
    Note,
    OperatorError,
    Proposal,
    RangeConstraint,
    admissible_transpositions,
    apply_operator,
    compute_features,
    encode_environment,
    evolve_theme,
    max_range,
    placed_fragment,
    reward,
    style_score,
    _invert,
    _length_from_span,
    _reverse,
    _scale_time,
)
from ams.render import MIDI_MAX, MEASURE_TICKS, TICKS_PER_CELL, TICKS_PER_QUARTER
from ams.themes import load_themes
from ams.osc_gateway import THEME_IDS
from ams.xcs import CONDITION_LENGTH, N_ACTIONS, XcsParams, XcsPopulation

KEY = Key(0, "major")


def frag(notes, measures=2, key=KEY):
    return MelodicFragment(tuple(Note(*n) for n in notes), measures, key)


# -- operators ---------------------------------------------------------------


def test_reverse_mirrors_onsets():
    f = frag([(60, 0, 480), (64, 480, 960)])
    r = apply_operator(f, 0)
    # L = 3840: note at 480+960 ends 1440 -> new onset 2400
    assert [(n.pitch, n.onset, n.duration) for n in r.notes] == [
        (64, 2400, 960), (60, 3360, 480)]


def test_diminish_halves_time():
    f = frag([(60, 0, 480), (64, 960, 480)])
    d = apply_operator(f, 1)
    assert [(n.onset, n.duration) for n in d.notes] == [(0, 240), (480, 240)]
    assert d.length_measures == 1


def test_augment_doubles_time():
    f = frag([(60, 0, 1920)], measures=1)
    a = apply_operator(f, 2)
    assert a.notes[0].duration == 3840
    assert a.length_measures == 2


def test_augment_beyond_four_measures_rejects():
    f = frag([(60, 0, 5760)], measures=3)
    with pytest.raises(OperatorError):
        apply_operator(f, 2)


def test_diminish_below_one_tick_rejects():
    f = frag([(60, 0, 1)], measures=1)
    with pytest.raises(OperatorError):
        apply_operator(f, 1)


def test_invert_negates_steps_from_anchor():
    f = frag([(60, 0, 480), (64, 480, 480), (67, 960, 480)])
    i = apply_operator(f, 3)
    assert [n.pitch for n in i.notes] == [60, 56, 53]


def test_invert_clamps_and_flags():
    f = frag([(10, 0, 480), (120, 480, 480)])
    i = apply_operator(f, 3)
    assert i.notes[1].pitch == 0


def test_compound_applies_time_scaling_first():
    f = frag([(60, 0, 480), (64, 480, 480)], measures=1)
    rd = apply_operator(f, 4)  # reverse-diminish
    d = apply_operator(f, 1)
    assert rd.notes == apply_operator(d, 0).notes


def test_unknown_operator():
    with pytest.raises(Exception):
        apply_operator(frag([(60, 0, 480)]), 8)


# -- features and reward -----------------------------------------------------


def test_compute_features():
    f = frag([(60, 0, 480), (64, 480, 480), (61, 960, 480), (67, 1440, 480)])
    feats = compute_features(f, tempo_bpm=120.0)
    assert feats.notes_per_second == pytest.approx(4 / 4.0)
    assert feats.mean_interval == pytest.approx((4 + 3 + 6) / 3)
    assert feats.diatonic_fraction == pytest.approx(3 / 4)  # 61 is chromatic
    assert feats.notes_per_beat == pytest.approx(0.5)
    assert feats.off_beat_start == 0


def test_off_beat_start_flag():
    f = frag([(60, 120, 240)], measures=1)
    assert compute_features(f, 120.0).off_beat_start == 1


def test_reward_happiness_normalization_toggle():
    f = frag([(60, 0, 480), (62, 480, 480)])
    feats = compute_features(f, 120.0)
    # activations are 0-100 while d is 0-1: with d = 1, happiness 100
    # scores |1.0 - d| = 0, a full point above happiness 0
    happy = reward(AffectSnapshot(happiness=100.0), feats)
    neutral = reward(AffectSnapshot(), feats)
    assert happy - neutral == pytest.approx(1.0)


def test_reward_prefers_matching_density():
    # identical pitch content, so only note density differs
    sad = AffectSnapshot(sadness=100.0)
    slow = compute_features(frag([(60, 0, 3840)], measures=2), 120.0)
    fast = compute_features(
        frag([(60, i * 240, 240) for i in range(16)], measures=2), 120.0)
    assert reward(sad, slow) > reward(sad, fast)


# -- encoding ----------------------------------------------------------------


def test_encoding_length_and_theme_bits():
    snap = AffectSnapshot()
    assert encode_environment(snap, 63) == 0b111111
    assert encode_environment(AffectSnapshot(100, 100, 100, 100, 100, 100), 0) == \
        (1 << CONDITION_LENGTH) - (1 << 6)
    with pytest.raises(Exception):
        encode_environment(snap, 64)


def test_encoding_is_the_classifier_input_and_operators_are_its_actions():
    for theme_id in (0, THEME_IDS - 1):
        x = encode_environment(AffectSnapshot(), theme_id)
        assert type(x) is int and 0 <= x < 1 << CONDITION_LENGTH
    assert len(OPERATORS) == N_ACTIONS


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, max_value=100, allow_nan=False),
       st.integers(min_value=0, max_value=63))
def test_encoding_bins_are_monotone(level, theme_id):
    x = encode_environment(AffectSnapshot(happiness=level), theme_id)
    assert 0 <= x < 1 << 18
    expected = 0 if level < 25 else 1 if level < 50 else 2 if level < 75 else 3
    assert x >> 16 == expected  # happiness, the first affect, in the top bits
    assert x & 0b111111 == theme_id
    assert x >> 6 & 0b1111111111 == 0  # the other affects at zero


# -- style score and range ---------------------------------------------------


def test_style_scores():
    feats = compute_features(
        frag([(60, i * 480, 480) for i in range(8)], measures=2), 120.0)
    assert style_score(feats, "jazz", 3) == pytest.approx(0.0)  # n_b = 1, on-beat
    assert style_score(feats, "rock", 2) == pytest.approx(0.5)
    assert style_score(feats, "folk", 3) == pytest.approx(0.0)
    with pytest.raises(Exception):
        style_score(feats, "salsa", 3)


def test_max_range_overrides():
    assert max_range(2, "pop") == 19  # floor(12 * 0.8 * 2)
    assert max_range(2, "pop", {"pop": 1.0}) == 24


# -- placement search and agent steps ----------------------------------------


def agent(**kw) -> MelodyAgent:
    pop = XcsPopulation(XcsParams(init_prediction=1.0), random.Random(3))
    return MelodyAgent(1, pop, **kw)


def test_search_finds_chord_tones():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    a = agent()
    f = frag([(60, 0, 960), (64, 960, 960)], measures=1)
    found = a.search_placement(f, m, "folk", 1, RangeConstraint(40, 90))
    assert found is not None
    transposition, _shift, h, p = found
    assert h >= 0.9  # both notes land on chord tones
    realized = [(n.pitch + transposition) % 12 for n in f.notes]
    assert set(realized) <= {0, 4, 7}


def test_search_respects_range_constraint():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    a = agent()
    f = frag([(60, 0, 960)], measures=1)
    found = a.search_placement(f, m, "folk", 1, RangeConstraint(70, 80))
    transposition, _, _, _ = found
    assert 70 <= 60 + transposition <= 80


def test_search_returns_none_below_h_min():
    m = ResourceMatrix()  # all cells 0.3
    a = agent(h_min=0.5)
    f = frag([(60, 0, 960)], measures=1)
    assert a.search_placement(f, m, "folk", 1, RangeConstraint(0, 127)) is None


def test_fitness_floor_is_checked_on_the_best_placement_only():
    # jazz scores an off-beat start a point higher, so the argmax lands off
    # the beat at H 0.3 and the floor rejects it, although the on-beat
    # placements reach H 0.9
    m = ResourceMatrix()
    cells_per_beat = TICKS_PER_QUARTER // TICKS_PER_CELL
    m.cells[:] = 0.3
    m.cells[:, ::cells_per_beat] = 0.9
    f = frag([(60, 0, 120)], measures=1)
    assert m.fitness_by_transposition(f).max() == 0.9
    assert agent(h_min=0.5).search_placement(f, m, "jazz", 1, RangeConstraint()) is None
    _t, shift, h, p = agent(h_min=0.0).search_placement(f, m, "jazz", 1, RangeConstraint())
    assert shift % cells_per_beat != 0
    assert (h, p) == (0.3, 1.75)


def test_propose_gate_abstains_without_update():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    a = agent(reward_gate=2.0)  # above any possible prediction
    theme = frag([(60, 0, 960)], measures=1)
    result = a.propose(theme, AffectSnapshot(), 0, m, "folk", 1,
                       RangeConstraint(0, 127))
    assert isinstance(result, Abstention)
    assert result.reason == "gate"


def test_propose_commits_when_open():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    a = agent(reward_gate=0.0)
    theme = frag([(60, 0, 960), (64, 960, 960)], measures=1)
    result = a.propose(theme, AffectSnapshot(), 0, m, "folk", 1,
                       RangeConstraint(0, 127))
    assert isinstance(result, Proposal)
    assert result.harmonic_fitness >= a.h_min


def test_admissible_transpositions_are_what_the_search_may_place():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    a = agent(h_min=0.0)
    region_ticks = m.region_cells * TICKS_PER_CELL
    cases = [
        (frag([]), RangeConstraint(0, 127), []),
        # one tick longer than the region
        (frag([(60, 0, region_ticks + 1)], measures=3), RangeConstraint(0, 127), []),
        # a 20-semitone phrase in a 10-semitone range
        (frag([(60, 0, 480), (80, 480, 480)]), RangeConstraint(60, 70), []),
        (frag([(60, 0, 480), (67, 480, 480)]), RangeConstraint(60, 72), list(range(6))),
    ]
    for fragment, constraint, expected in cases:
        assert admissible_transpositions(fragment, constraint) == expected
        found = a.search_placement(fragment, m, "folk", 1, constraint)
        if expected:
            assert found[0] in expected
        else:
            assert found is None


def test_range_constraint_bounds_stay_in_the_midi_range():
    assert RangeConstraint() == RangeConstraint(0, 127)
    assert RangeConstraint().allows(0, 127)
    assert not RangeConstraint(60, 50).allows(55, 55)  # crossed bounds allow nothing
    for lo, hi in [(-1, 127), (0, 128), (200, 60)]:
        with pytest.raises(MelodyError):
            RangeConstraint(lo, hi)


def test_placed_fragment_moves_notes_and_key_in_one_pass():
    f = MelodicFragment((Note(60, 0, 480, 90), Note(67, 480, 240)), 1, Key(9, "minor"))
    placed = placed_fragment(f, 5, 3)
    assert placed.notes == (Note(65, 3 * TICKS_PER_CELL, 480, 90),
                            Note(72, 480 + 3 * TICKS_PER_CELL, 240))
    assert placed.key == Key(2, "minor")
    assert placed.length_measures == 1
    with pytest.raises(MelodyError):  # no clamp: a placement outside 0..127 is an error
        placed_fragment(f, 61, 0)


def test_search_is_deterministic():
    m = ResourceMatrix()
    m.extend([parse_chord("G7")] * 2)
    a = agent()
    f = frag([(60, 0, 480), (62, 480, 480)], measures=1)
    first = a.search_placement(f, m, "jazz", 2, RangeConstraint(40, 90))
    second = a.search_placement(f, m, "jazz", 2, RangeConstraint(40, 90))
    assert first[:2] == second[:2]


# -- evolution ---------------------------------------------------------------


def test_evolve_theme_bounds():
    rng = random.Random(9)
    a = frag([(60, i * 480, 480) for i in range(8)], measures=2)
    b = frag([(72, i * 240, 240) for i in range(16)], measures=2)
    for _ in range(50):
        child = evolve_theme(a, b, rng)
        assert 1 <= child.length_measures <= 4
        assert child.notes
        onsets = [n.onset for n in child.notes]
        assert onsets == sorted(onsets)
        assert all(0 <= n.pitch <= 127 for n in child.notes)


def test_evolve_theme_deterministic_with_seed():
    a = frag([(60, i * 480, 480) for i in range(8)], measures=2)
    b = frag([(72, i * 240, 240) for i in range(16)], measures=2)
    c1 = evolve_theme(a, b, random.Random(4))
    c2 = evolve_theme(a, b, random.Random(4))
    assert c1.notes == c2.notes


BUNDLED_THEMES = load_themes(ASSET_ROOT / "themes")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUNDLED_THEMES)), st.sampled_from(sorted(BUNDLED_THEMES)),
       st.integers(0, 2**32 - 1))
# a note sounding past the four-measure cap, which reverse then moved to -1920
@example(0, 7, 6)
def test_evolved_notes_lie_inside_the_evolved_theme(a, b, seed):
    """Every note of an evolved theme lies in 0..length * MEASURE_TICKS, so
    the operators, and the themes bred from it, keep their notes inside too."""
    child = evolve_theme(BUNDLED_THEMES[a], BUNDLED_THEMES[b], random.Random(seed))
    end = child.length_measures * MEASURE_TICKS
    assert all(0 <= n.onset and n.onset + n.duration <= end for n in child.notes)


# the operators as composed before each became a (name, time factor,
# reshape) row, and the evolution that built every operator image of both
# parents before drawing two
REFERENCE_OPERATORS = (
    _reverse,
    lambda f: _scale_time(f, 0.5),
    lambda f: _scale_time(f, 2.0),
    _invert,
    lambda f: _reverse(_scale_time(f, 0.5)),
    lambda f: _reverse(_scale_time(f, 2.0)),
    lambda f: _invert(_scale_time(f, 0.5)),
    lambda f: _invert(_scale_time(f, 2.0)),
)


def reference_evolve_theme(parent_a, parent_b, rng):
    pool = [parent_a, parent_b]
    for parent in (parent_a, parent_b):
        for operate in REFERENCE_OPERATORS:
            try:
                pool.append(operate(parent))
            except OperatorError:
                continue

    first = pool[rng.randrange(len(pool))]
    second = pool[rng.randrange(len(pool))]
    boundary = rng.randrange(0, first.length_measures) * MEASURE_TICKS
    notes = [n for n in first.notes if n.onset < boundary]
    notes += [n for n in second.notes if n.onset >= boundary]
    if not notes:
        notes = list(first.notes)

    mutated = []
    for n in notes:
        if rng.random() < THEME_MUTATION_PROB:
            if rng.random() < 0.5:
                delta = rng.choice([1, 2, 3, 4]) * rng.choice([-1, 1])
                n = replace(n, pitch=min(MIDI_MAX, max(0, n.pitch + delta)))
            else:
                factor = rng.choice([0.5, 2.0])
                n = replace(n, duration=max(1, int(round(n.duration * factor))))
        mutated.append(n)

    cap = MAX_FRAGMENT_MEASURES * MEASURE_TICKS
    mutated = [n if n.onset + n.duration <= cap else replace(n, duration=cap - n.onset)
               for n in mutated if n.onset < cap]
    if not mutated:
        mutated = list(first.notes)
    mutated.sort(key=lambda n: (n.onset, n.pitch))
    length = _length_from_span(max(n.onset + n.duration for n in mutated), 1)
    return MelodicFragment(tuple(mutated), length, first.key)


@st.composite
def parent_themes(draw):
    """1-6 notes inside 1-4 measures; 1-tick notes make diminish fail, and
    notes sounding past two measures make augment fail."""
    measures = draw(st.integers(1, MAX_FRAGMENT_MEASURES))
    end = measures * MEASURE_TICKS
    notes = []
    for _ in range(draw(st.integers(1, 6))):
        onset = draw(st.integers(0, end - 1))
        duration = draw(st.one_of(st.sampled_from([1, 60, 480, 1920]),
                                  st.integers(1, end - onset)))
        notes.append(Note(draw(st.integers(0, MIDI_MAX)), onset, min(duration, end - onset)))
    notes.sort(key=lambda n: (n.onset, n.pitch))
    return MelodicFragment(tuple(notes), measures, Key(draw(st.integers(0, 11)), "minor"))


ONE_TICK = frag([(60, 0, 1), (64, 480, 480)], measures=1)
PAST_TWO_MEASURES = frag([(60, 0, 480), (67, 3840, 960)], measures=3)


@settings(max_examples=300, deadline=None)
@given(parent_themes(), parent_themes(), st.integers(0, 2**32 - 1))
@example(ONE_TICK, PAST_TWO_MEASURES, 0)
@example(PAST_TWO_MEASURES, ONE_TICK, 1)
@example(ONE_TICK, ONE_TICK, 2)
def test_operators_and_evolution_match_the_composed_eager_forms(a, b, seed):
    """`apply_operator` gives what the composed operator gave, and
    `evolve_theme`, which reshapes only the two members it draws, gives the
    child and leaves the RNG where the eager pool of every image did."""
    for op, operate in enumerate(REFERENCE_OPERATORS):
        for parent in (a, b):
            try:
                expected = operate(parent)
            except OperatorError:
                with pytest.raises(OperatorError):
                    apply_operator(parent, op)
                continue
            assert apply_operator(parent, op) == expected
    ours, theirs = random.Random(seed), random.Random(seed)
    assert evolve_theme(a, b, ours) == reference_evolve_theme(a, b, theirs)
    assert ours.getstate() == theirs.getstate()


def test_the_examples_make_the_scalings_fail():
    with pytest.raises(OperatorError):
        apply_operator(ONE_TICK, 1)  # diminish
    apply_operator(ONE_TICK, 2)
    with pytest.raises(OperatorError):
        apply_operator(PAST_TWO_MEASURES, 2)  # augment
    apply_operator(PAST_TWO_MEASURES, 1)
