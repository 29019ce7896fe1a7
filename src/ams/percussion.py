"""Percussion agent: the lowest melodic line's rhythm is doubled on the
lowest percussion lane; the remaining kit lanes come from deterministic
style templates with seeded ornaments."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .render import BLOCK_MEASURES, BLOCK_TICKS, MEASURE_TICKS, TICKS_PER_CELL
from .render import TICKS_PER_QUARTER as Q

LANES = ("kick", "snare", "hat", "aux")

# General MIDI channel-10 note numbers, used by the renderer
GM_NOTES = {"kick": 36, "snare": 38, "hat": 42, "aux": 46}

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


@dataclass
class PercussionPhrase:
    """Two measures of kit hits: lane -> list of (onset ticks, velocity)."""

    lanes: dict[str, list[tuple[int, int]]] = field(
        default_factory=lambda: {lane: [] for lane in LANES})


def generate_percussion(lowest_line_onsets: list[int], style: str,
                        rng: random.Random) -> PercussionPhrase:
    """Two-measure percussion phrase.

    The kick lane doubles the lowest melodic line's onsets verbatim; other
    lanes come from the style template plus rare seeded ornaments on the
    cell grid.
    """
    if style not in _TEMPLATES:
        raise PercussionError(f"unknown style {style!r}")
    phrase = PercussionPhrase()
    for onset in lowest_line_onsets:
        if not 0 <= onset < BLOCK_TICKS:
            raise PercussionError(f"onset {onset} outside the two-measure window")
        phrase.lanes["kick"].append((onset, 100))
    for measure in range(BLOCK_MEASURES):
        base = measure * MEASURE_TICKS
        for lane, onset, velocity in _TEMPLATES[style]:
            phrase.lanes[lane].append((base + onset, velocity))
    if rng.random() < ORNAMENT_PROB:
        cell = rng.randrange(BLOCK_TICKS // TICKS_PER_CELL)
        phrase.lanes["hat"].append((cell * TICKS_PER_CELL, 60))
    for lane in LANES:
        phrase.lanes[lane].sort()
    return phrase
