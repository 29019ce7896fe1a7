"""Harmonic resource matrix: 12 pitch-class rows by time-cell columns.

Chord choices populate resources (root 1.0, chord tones 0.8, carryover
clamped to 0.5), a phrase is scored by the mean resource value of the cells
its notes inhabit, and committed notes consume resources at their own pitch
class plus half of the semitone neighbors and the tritone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .chord_model import ChordSymbol
from .render import BLOCK_MEASURES, MEASURE_TICKS, TICKS_PER_CELL

if TYPE_CHECKING:  # melody imports this module
    from .melody import MelodicFragment

ROOT_VALUE = 1.0
CHORD_TONE_VALUE = 0.8
INITIAL_VALUE = 0.3
CARRYOVER_CLAMP = 0.5


class HarmonyError(ValueError):
    pass


class ResourceMatrix:
    """12 x region_cells grid of harmonic resource values in [0, 1]: the
    active block, where phrases land from its first cell on.  Each extend
    replaces it with the next block, carrying over its own last column."""

    cells_per_measure = MEASURE_TICKS // TICKS_PER_CELL
    region_cells = BLOCK_MEASURES * cells_per_measure

    def __init__(self):
        self.cells = np.full((12, self.region_cells), INITIAL_VALUE)

    def copy(self) -> "ResourceMatrix":
        clone = ResourceMatrix()
        clone.cells = self.cells.copy()
        return clone

    # -- extension ----------------------------------------------------------

    def extend(self, chords: list[ChordSymbol]) -> None:
        """Fill the next block from the given chords, one per measure
        (BLOCK_MEASURES of them), carrying over this block's last column."""
        if len(chords) != BLOCK_MEASURES:
            raise HarmonyError(f"extend takes {BLOCK_MEASURES} chords, one per measure, "
                               f"got {len(chords)}")
        for chord in chords:
            if not isinstance(chord, ChordSymbol):
                raise HarmonyError(f"not a chord symbol: {chord!r}")

        # clipping is idempotent, so every column of a measure equals its first
        width = self.cells_per_measure
        column = self.cells[:, -1]
        for col, chord in zip(range(0, self.region_cells, width), chords):
            column = np.clip(column, 0.0, CARRYOVER_CLAMP)
            for tone in chord.tones:
                column[tone] = CHORD_TONE_VALUE
            column[chord.root] = ROOT_VALUE
            self.cells[:, col:col + width] = column[:, None]

    # -- phrase geometry ----------------------------------------------------

    @classmethod
    def fragment_cells(cls, fragment: MelodicFragment, transposition: int = 0,
                       time_shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(pitch-class rows, columns) for every cell the phrase's notes
        inhabit, transposed by `transposition` semitones and shifted by
        `time_shift` cells: the phrase's own cells (`phrase_cells`, kept
        with it), offset.  Raises when a cell lies outside the block."""
        rows, cols = fragment.cells
        start = cols.item(0) + time_shift  # notes are sorted by onset
        end = int(cols.max()) + 1 + time_shift
        if start < 0 or end > cls.region_cells:
            raise HarmonyError(f"note cells [{start}, {end}) outside the block's "
                               f"[0, {cls.region_cells})")
        if transposition == time_shift == 0:
            return rows, cols
        return (rows + transposition) % 12, cols + time_shift

    # -- scoring and consumption --------------------------------------------

    def fitness_by_transposition(self, fragment: MelodicFragment) -> np.ndarray:
        """(shift x 12) harmonic-fitness grid of an unplaced phrase: a row per
        time shift (in cells) that fits the active region, shift 0 first (none
        if it is longer); transposition t reads column t % 12.  One gather
        through the phrase's kept `fitness_index` and one mean."""
        index = fragment.fitness_index
        if not len(index):
            return np.empty((0, 12))
        return self.cells.take(index).mean(axis=-1)

    def consume(self, fragment: MelodicFragment, transposition: int = 0,
                time_shift: int = 0) -> None:
        """Zero the cells a phrase placed at (`transposition`, `time_shift`)
        inhabits, halve their semitone neighbors and the tritone."""
        rows, cols = self.fragment_cells(fragment, transposition, time_shift)
        for offset in (1, -1, 6):  # a cell hit twice is halved twice
            np.multiply.at(self.cells, ((rows + offset) % 12, cols), 0.5)
        self.cells[rows, cols] = 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def phrase_cells(fragment: MelodicFragment) -> tuple[np.ndarray, np.ndarray]:
    """(pitch-class rows, columns) for every cell the phrase's notes inhabit,
    at their own pitches and onsets, as read-only arrays; unchecked against
    the block (`ResourceMatrix.fragment_cells` checks)."""
    rows: list[int] = []
    cols: list[int] = []
    for note in fragment.notes:
        start = note.onset // TICKS_PER_CELL
        end = -(-(note.onset + note.duration) // TICKS_PER_CELL)
        rows += [note.pitch % 12] * (end - start)
        cols += range(start, end)
    if not rows:
        raise HarmonyError("phrase inhabits no cells")
    return _read_only(np.array(rows)), _read_only(np.array(cols))


def fitness_index(fragment: MelodicFragment) -> np.ndarray:
    """Read-only (shift x 12 x cell) flat indices into a block's cells: for
    each time shift that fits the region and each pitch-class offset, the
    cells of the phrase placed there.  No shift fits a phrase longer than
    the region; one whose cells start before the region raises."""
    region = ResourceMatrix.region_cells
    shifts = region - -(-fragment.span_ticks // TICKS_PER_CELL) + 1
    if shifts <= 0:
        return _read_only(np.empty((0, 12, 0), dtype=np.intp))
    rows, cols = ResourceMatrix.fragment_cells(fragment)  # checked at shift 0
    flat = ((rows + np.arange(12)[:, None]) % 12) * region + cols
    return _read_only(flat + np.arange(shifts)[:, None, None])
