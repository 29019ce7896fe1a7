"""Percussion phrase generation."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ams.percussion import (
    GM_NOTES,
    LANES,
    ORNAMENT_PROB,
    PercussionError,
    _TEMPLATES,
    generate_percussion,
)
from ams.render import BLOCK_MEASURES, BLOCK_TICKS, MEASURE_TICKS, TICKS_PER_CELL


def lane(hits, name):
    return [(onset, velocity) for hit_lane, onset, velocity in hits if hit_lane == name]


def onsets(hits, name):
    return [onset for onset, _ in lane(hits, name)]


def test_kick_doubles_input_onsets():
    rng = random.Random(0)
    kicks = [0, 480, 1920, 2400]
    hits = generate_percussion(kicks, "rock", rng)
    assert onsets(hits, "kick") == kicks


def test_rock_template_backbeat():
    hits = generate_percussion([], "rock", random.Random(1))
    assert onsets(hits, "snare") == [480, 1440, 2400, 3360]


def test_jazz_ride_pattern():
    hits = generate_percussion([], "jazz", random.Random(1))
    ride = onsets(hits, "hat")
    assert ride[:6] == [0, 480, 840, 960, 1440, 1800]
    assert len(ride) >= 12


def test_folk_uses_aux_lane():
    hits = generate_percussion([], "folk", random.Random(1))
    assert onsets(hits, "aux") == [0, 960, 1920, 2880]
    assert lane(hits, "snare") == []


def test_unknown_style():
    with pytest.raises(PercussionError):
        generate_percussion([], "polka", random.Random(0))


def test_out_of_window_onset():
    with pytest.raises(PercussionError):
        generate_percussion([4000], "rock", random.Random(0))


def test_deterministic_given_seed():
    a = generate_percussion([0, 960], "pop", random.Random(5))
    b = generate_percussion([0, 960], "pop", random.Random(5))
    assert a == b


def test_ornaments_are_rare_and_on_grid():
    extra = 0
    for seed in range(200):
        # folk plays no hat, so the hat lane holds only the ornament
        hat = onsets(generate_percussion([], "folk", random.Random(seed)), "hat")
        if hat:
            extra += 1
            assert len(hat) == 1 and hat[0] % TICKS_PER_CELL == 0
    assert 0 < extra < 60  # roughly the 10% ornament rate


def test_lane_constants():
    assert set(LANES) == set(GM_NOTES)
    assert GM_NOTES["kick"] == 36
    assert {name for hits in _TEMPLATES.values() for name, _, _ in hits} <= set(LANES)


def _phrase_then_merge(lowest_line_onsets, style, rng):
    """The percussion of one block as a per-lane phrase built first and
    merged by the engine afterwards: the kick onsets deduplicated and
    sorted, each lane's hits appended and sorted, then one hit per onset
    at the loudest velocity.  The reference for `generate_percussion`."""
    lanes = {name: [] for name in LANES}
    for onset in sorted(set(lowest_line_onsets)):
        if not 0 <= onset < BLOCK_TICKS:
            raise PercussionError(f"onset {onset} outside the two-measure window")
        lanes["kick"].append((onset, 100))
    for measure in range(BLOCK_MEASURES):
        base = measure * MEASURE_TICKS
        for name, onset, velocity in _TEMPLATES[style]:
            lanes[name].append((base + onset, velocity))
    if rng.random() < ORNAMENT_PROB:
        cell = rng.randrange(BLOCK_TICKS // TICKS_PER_CELL)
        lanes["hat"].append((cell * TICKS_PER_CELL, 60))
    merged = []
    for name, hits in lanes.items():
        best_velocity = {}
        for onset, velocity in sorted(hits):
            best_velocity[onset] = max(best_velocity.get(onset, 0), velocity)
        merged.extend((name, onset, best_velocity[onset]) for onset in sorted(best_velocity))
    return merged


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, BLOCK_TICKS // TICKS_PER_CELL - 1).map(
           lambda cell: cell * TICKS_PER_CELL) | st.integers(0, BLOCK_TICKS - 1),
           max_size=24),
       st.sampled_from(sorted(_TEMPLATES)), st.integers(0, 2**32 - 1))
# repeated kick onsets; seeds whose ornament (velocity 60) lands on a
# rock or pop eighth-note hat (80, 75) and on a jazz ride pickup (70)
@example([0, 0, 480, 480, 3360], "rock", 49)
@example([120, 120], "pop", 49)
@example([], "jazz", 31)
def test_hits_equal_the_phrase_merged_afterwards(lowest_line_onsets, style, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert (generate_percussion(lowest_line_onsets, style, ours)
            == _phrase_then_merge(lowest_line_onsets, style, theirs))
    assert ours.getstate() == theirs.getstate()  # the same draws
