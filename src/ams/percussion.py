"""Percussion agent: the lowest melodic line's rhythm is doubled on the
lowest percussion lane; the remaining kit lanes come from deterministic
style templates with seeded ornaments.  A block's percussion is one list of
(lane, onset, velocity) hits, one per lane and onset, ready to score."""

from __future__ import annotations

import random

from .render import BLOCK_MEASURES, BLOCK_TICKS, MEASURE_TICKS, TICKS_PER_CELL
from .render import TICKS_PER_QUARTER as Q

# General MIDI channel-10 note numbers, used by the renderer
GM_NOTES = {"kick": 36, "snare": 38, "hat": 42, "aux": 46}

LANES = tuple(GM_NOTES)

ORNAMENT_PROB = 0.1

_TEMPLATES = {
    # per-measure (lane, onset_ticks, velocity) hits
    "rock": [("snare", Q, 110), ("snare", 3 * Q, 110)]
            + [("hat", t, 80) for t in range(0, MEASURE_TICKS, Q // 2)],
    "pop": [("snare", Q, 105), ("snare", 3 * Q, 105)]
           + [("hat", t, 75) for t in range(0, MEASURE_TICKS, Q // 2)],
    # swung ride: beats 1..4 with pickups before 2 and 4
    "jazz": [("hat", 0, 90), ("hat", Q, 80), ("hat", 7 * Q // 4, 70),
             ("hat", 2 * Q, 90), ("hat", 3 * Q, 80), ("hat", 15 * Q // 4, 70)],
    "folk": [("aux", 0, 90), ("aux", 2 * Q, 80)],
}


class PercussionError(ValueError):
    pass


def generate_percussion(lowest_line_onsets: list[int], style: str,
                        rng: random.Random) -> list[tuple[str, int, int]]:
    """Two measures of kit hits as (lane, onset ticks, velocity), in LANES
    order and by ascending onset within a lane.

    The kick lane doubles the lowest melodic line's onsets; other lanes
    come from the style template plus a rare seeded ornament on the cell
    grid.  Hits that land on the same lane and onset merge into one at
    the loudest velocity.
    """
    if style not in _TEMPLATES:
        raise PercussionError(f"unknown style {style!r}")
    loudest: dict[str, dict[int, int]] = {lane: {} for lane in LANES}  # onset -> velocity

    def hit(lane: str, onset: int, velocity: int) -> None:
        onsets = loudest[lane]
        onsets[onset] = max(onsets.get(onset, 0), velocity)

    for onset in lowest_line_onsets:
        if not 0 <= onset < BLOCK_TICKS:
            raise PercussionError(f"onset {onset} outside the two-measure window")
        hit("kick", onset, 100)
    for measure in range(BLOCK_MEASURES):
        base = measure * MEASURE_TICKS
        for lane, onset, velocity in _TEMPLATES[style]:
            hit(lane, base + onset, velocity)
    if rng.random() < ORNAMENT_PROB:
        cell = rng.randrange(BLOCK_TICKS // TICKS_PER_CELL)
        hit("hat", cell * TICKS_PER_CELL, 60)
    return [(lane, onset, onsets[onset])
            for lane, onsets in loudest.items() for onset in sorted(onsets)]
