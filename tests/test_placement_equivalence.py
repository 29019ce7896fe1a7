"""The whole-grid placement search against the per-shift reference loop.

`reference_search` is the search the grid replaced: for every time shift it
collects the placement's cells in a Python loop over the notes, scores the
12 pitch-class offsets from them, and builds the shifted fragment and its
full features to read the off-beat flag.  A placement here is a (fragment,
transposition, time shift) triple, and `harmonic_fitness` is the
one-placement fitness the search was checked against.  The search and the
reference must return the same (transposition, shift, H, P), compared by
repr, and make the same range-constraint calls, for any matrix, fragment,
style, agent count, range constraint and fitness floor.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ams.chord_model import parse_chord
from ams.harmonic_context import HarmonyError, ResourceMatrix
from ams.melody import (
    TRANSPOSITION_LIMIT,
    Key,
    MelodicFragment,
    MelodyAgent,
    Note,
    RangeConstraint,
    compute_features,
    placed_fragment,
    style_score,
)
from ams.render import TICKS_PER_CELL
from ams.xcs import XcsPopulation


def note_cells(onset_ticks, duration_ticks):
    """Cell indices (fragment-relative) a note occupies."""
    start = onset_ticks // TICKS_PER_CELL
    end = -(-(onset_ticks + duration_ticks) // TICKS_PER_CELL)
    return range(start, end)


def reference_cells(matrix, fragment, transposition, shift):
    """(pitch-class rows, columns) for every cell the fragment inhabits,
    transposed and shifted."""
    rows: list[int] = []
    cols: list[int] = []
    for note in fragment.notes:
        pc = (note.pitch + transposition) % 12
        for cell in note_cells(note.onset, note.duration):
            col = shift + cell
            if col < 0 or col >= matrix.region_cells:
                raise HarmonyError(f"placement cell {col} outside active region")
            rows.append(pc)
            cols.append(col)
    if not rows:
        raise HarmonyError("placement inhabits no cells")
    return np.array(rows), np.array(cols)


def harmonic_fitness(matrix, fragment, transposition, shift) -> float:
    """Mean resource value over all inhabited cells."""
    rows, cols = reference_cells(matrix, fragment, transposition, shift)
    return float(matrix.cells[rows, cols].mean())


def reference_fitness_by_pc(matrix, fragment, shift):
    """Harmonic fitness for the fragment at a shift, at each of the 12
    pitch-class offsets."""
    rows, cols = reference_cells(matrix, fragment, 0, shift)
    offsets = np.arange(12)[:, None]
    return matrix.cells[(rows[None, :] + offsets) % 12, cols[None, :]].mean(axis=1)


def reference_search(agent, fragment, matrix, style, n_agents, constraint):
    if not fragment.notes:
        return None
    span_cells = -(-fragment.span_ticks // TICKS_PER_CELL)
    max_shift = matrix.region_cells - span_cells
    if max_shift < 0:
        return None
    lo = min(n.pitch for n in fragment.notes)
    hi = max(n.pitch for n in fragment.notes)

    best = None
    for shift in range(max_shift + 1):
        fitness_by_pc = reference_fitness_by_pc(matrix, fragment, shift)
        ticks = shift * TICKS_PER_CELL
        shifted = replace(fragment, notes=tuple(
            replace(n, onset=n.onset + ticks) for n in fragment.notes))
        p_score = style_score(compute_features(shifted, 120.0), style, n_agents)
        for transposition in range(-TRANSPOSITION_LIMIT, TRANSPOSITION_LIMIT + 1):
            if not constraint.allows(lo + transposition, hi + transposition):
                continue
            h_score = float(fitness_by_pc[transposition % 12])
            m_score = h_score + p_score
            if best is None or m_score > best[0]:
                best = (m_score, transposition, shift, h_score, p_score)
    if best is None or best[3] < agent.h_min:
        return None
    return best[1:]


class CountingConstraint(RangeConstraint):
    calls = 0

    def allows(self, lo, hi):
        self.calls += 1
        return super().allows(lo, hi)


CHORDS = [parse_chord(c) for c in ("C", "G7", "Am", "F", "Bdim", "E7", "Dm7", "Csus4")]
REGION_TICKS = ResourceMatrix.region_cells * TICKS_PER_CELL


@st.composite
def fragments(draw):
    """1-6 notes with onsets at any tick (on and off the beat, inside a
    cell, a few before the fragment's start), some phrases longer than the
    region; length 1-4 measures."""
    notes, onset = [], draw(st.integers(-120, 600))
    for _ in range(draw(st.integers(1, 6))):
        duration = draw(st.one_of(st.sampled_from([60, 120, 240, 480, 960]),
                                  st.integers(1, 1200)))
        notes.append(Note(draw(st.integers(30, 100)), onset, duration))
        onset += draw(st.one_of(st.sampled_from([0, 120, 480]), st.integers(0, 700)))
    if draw(st.booleans()):  # a phrase longer than the region
        notes.append(Note(draw(st.integers(30, 100)), onset, REGION_TICKS))
    return MelodicFragment(tuple(notes), draw(st.integers(1, 4)), Key(0, "major"))


@st.composite
def matrices(draw):
    """Extends (the engine's tied 1.0/0.8/0.5 levels), consumes, or
    arbitrary cell values."""
    matrix = ResourceMatrix()
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        digits = draw(st.sampled_from([1, 2, 9]))
        matrix.cells = rng.random((12, matrix.region_cells)).round(digits)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            matrix.extend(draw(st.lists(st.sampled_from(CHORDS), min_size=2, max_size=2)))
        else:
            note = Note(draw(st.integers(40, 80)), draw(st.integers(0, 600)),
                        draw(st.integers(1, 480)))
            placed = placed_fragment(MelodicFragment((note,), 1, Key(0, "major")),
                                     draw(st.integers(-12, 12)),
                                     draw(st.integers(0, matrix.region_cells - 1)))
            try:
                matrix.consume(placed)
            except HarmonyError:  # ran past the region
                pass
    return matrix


pitch_bounds = st.one_of(st.sampled_from([0, 127]), st.integers(20, 110))


@settings(max_examples=400, deadline=None)
@given(matrices(), fragments(), st.sampled_from(["jazz", "pop", "rock", "folk"]),
       st.integers(1, 6), pitch_bounds, pitch_bounds,
       st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0)))
def test_grid_search_matches_the_per_shift_loop(matrix, fragment, style, n_agents,
                                                low, high, h_min):
    agent = MelodyAgent(1, XcsPopulation(), h_min=h_min)
    ours, theirs = CountingConstraint(low, high), CountingConstraint(low, high)
    try:
        expected = reference_search(agent, fragment, matrix, style, n_agents, theirs)
    except HarmonyError:  # a note before the fragment's start leaves the region
        with pytest.raises(HarmonyError):
            agent.search_placement(fragment, matrix, style, n_agents, ours)
        return
    found = agent.search_placement(fragment, matrix, style, n_agents, ours)
    assert repr(found) == repr(expected)
    assert ours.calls == theirs.calls



@settings(max_examples=200, deadline=None)
@given(fragments(), st.lists(st.tuples(matrices(), st.sampled_from(["jazz", "pop", "rock", "folk"]),
                                       st.integers(1, 6), pitch_bounds, pitch_bounds),
                             min_size=2, max_size=4))
def test_a_phrase_searched_again_reads_facts_of_its_own(fragment, searches):
    """One phrase searched on several matrices, styles, agent counts and
    ranges gives what a fresh copy of it gives each time: the facts it
    keeps (pitch bounds, P per style and agent count, cells, gather index)
    depend on the phrase alone."""
    agent = MelodyAgent(1, XcsPopulation(), h_min=0.0)
    for matrix, style, n_agents, low, high in searches:
        fresh = MelodicFragment(fragment.notes, fragment.length_measures, fragment.key)
        constraint = RangeConstraint(low, high)
        try:
            expected = agent.search_placement(fresh, matrix, style, n_agents, constraint)
        except HarmonyError:
            with pytest.raises(HarmonyError):
                agent.search_placement(fragment, matrix, style, n_agents, constraint)
            continue
        found = agent.search_placement(fragment, matrix, style, n_agents, constraint)
        assert repr(found) == repr(expected)
