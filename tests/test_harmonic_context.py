"""Resource matrix: fill constants, carry-over, scoring, consumption."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ams.chord_model import parse_chord
from ams.harmonic_context import (
    CARRYOVER_CLAMP,
    CHORD_TONE_VALUE,
    ROOT_VALUE,
    HarmonyError,
    ResourceMatrix,
    TICKS_PER_CELL,
)
from ams.melody import Key, MelodicFragment, Note, placed_fragment
from test_placement_equivalence import harmonic_fitness, note_cells, reference_cells

KEY = Key(0, "major")


def frag(notes):
    return MelodicFragment(tuple(Note(*n) for n in notes), 2, KEY)


def test_initial_state():
    m = ResourceMatrix()
    assert m.cells.shape == (12, 32)
    assert np.all(m.cells == 0.3)


def test_extend_fills_and_slides():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    m.extend([parse_chord("G")] * 2)
    # G-maj block: G row 1.0, B and D rows 0.8
    assert np.all(m.cells[7] == 1.0)
    assert np.all(m.cells[11] == 0.8)
    assert np.all(m.cells[2] == 0.8)
    # carried over from the C-maj block's last column, clamped: C and E
    # (1.0 and 0.8) to 0.5, the rest stay 0.3
    assert np.all(m.cells[[0, 4]] == 0.5)
    assert np.all(m.cells[[1, 3, 5, 6, 8, 9, 10]] == 0.3)


def test_carryover_clamp():
    m = ResourceMatrix()
    m.extend([parse_chord("C7"), parse_chord("E7")])
    # C was 1.0 under C7, clamps to 0.5 under E7's columns
    assert np.all(m.cells[0, 16:] == 0.5)
    assert np.all(m.cells[4, 16:] == 1.0)   # E7 root
    assert np.all(m.cells[8, 16:] == 0.8)   # G# chord tone


def test_extend_validates_measure_total():
    m = ResourceMatrix()
    c = parse_chord("C")
    with pytest.raises(HarmonyError, match="extend takes 2 chords, one per measure, got 1"):
        m.extend([c])
    with pytest.raises(HarmonyError, match="got 3"):
        m.extend([c] * 3)
    with pytest.raises(HarmonyError, match="not a chord symbol"):
        m.extend([(c, 1), (c, 1)])  # chord durations are gone


def test_fragment_cells_cover_partial_cells():
    m = ResourceMatrix()
    for note, cells in [((60, 0, 480), [0, 1, 2, 3]),
                        ((61, 60, 120), [0, 1]),  # straddles a boundary
                        ((62, 120, 120), [1])]:
        rows, cols = m.fragment_cells(frag([note]))
        assert rows.tolist() == [note[0] % 12] * len(cells)
        assert cols.tolist() == cells


def test_fitness_mean_of_two_equal_notes():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    f = frag([(60, 0, 480), (62, 480, 480)])  # C row 1.0, D row 0.3
    assert harmonic_fitness(m, f, 0, 0) == pytest.approx(0.65)


def test_fitness_by_transposition_octave_invariant():
    m = ResourceMatrix()
    m.extend([parse_chord("C7"), parse_chord("E7")])
    m.consume(placed_fragment(frag([(64, 0, 960)]), 0, 12))
    region_ticks = m.region_cells * TICKS_PER_CELL
    cases = [
        # an off-beat onset inside a cell: cells 1..7, 25 shifts
        (frag([(60, 150, 480), (67, 630, 270)]), 25),
        (frag([(60, 0, region_ticks)]), 1),  # exactly fills the region
        (frag([(60, 0, region_ticks + 1)]), 0),  # one tick longer
    ]
    for f, shifts in cases:
        grid = m.fitness_by_transposition(f)
        assert grid.shape == (shifts, 12)
        for shift, row in enumerate(grid):
            for t in range(-24, 25):
                assert row[t % 12] == harmonic_fitness(m, f, t, shift)


def test_placement_outside_region_raises():
    m = ResourceMatrix()
    f = frag([(60, 0, 480)])
    with pytest.raises(HarmonyError):
        m.fragment_cells(placed_fragment(f, 0, 31))  # runs past the final column
    with pytest.raises(HarmonyError):
        m.fragment_cells(frag([(60, -1, 480)]))  # starts before the region
    long = frag([(60, 0, 3840)])
    m.fragment_cells(long)  # exactly fills the region
    with pytest.raises(HarmonyError):
        m.fragment_cells(placed_fragment(long, 0, 1))


def test_consume_zeroes_and_halves_neighbors():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    f = frag([(60, 0, 480)])  # pitch class 0, cells 0..3 of the region
    m.consume(f)
    cols = slice(0, 4)
    assert np.all(m.cells[0, cols] == 0.0)
    assert np.all(m.cells[1, cols] == 0.15)   # 0.3 halved
    assert np.all(m.cells[11, cols] == 0.15)
    assert np.all(m.cells[6, cols] == 0.15)   # tritone
    assert np.all(m.cells[4, cols] == 0.8)    # untouched chord tone


def test_consume_then_refitness_drops():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    f = frag([(60, 0, 960)])
    before = harmonic_fitness(m, f, 0, 0)
    m.consume(f)
    assert harmonic_fitness(m, f, 0, 0) == 0.0
    assert before > 0.0


def test_copy_is_independent():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    clone = m.copy()
    clone.consume(frag([(60, 0, 480)]))
    assert np.all(m.cells[0, 0:4] == 1.0)


def test_brute_force_oracle_small():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = ResourceMatrix()
        m.cells = rng.random((12, 32))
        f = frag([(60, 0, 480), (67, 480, 240), (64, 840, 960)])
        shift = int(rng.integers(0, 10))
        trans = int(rng.integers(-12, 12))
        total, count = 0.0, 0
        for n in f.notes:
            pc = (n.pitch + trans) % 12
            for cell in note_cells(n.onset, n.duration):
                total += m.cells[pc, shift + cell]
                count += 1
        assert harmonic_fitness(m, f, trans, shift) == pytest.approx(
            total / count, abs=1e-12)


def reference_extend(matrix, chords):
    """The per-column fill that `extend` replaced: each new column is the
    clipped previous column with the chord's tones and root set, and the
    first one's previous column is the old block's last."""
    column = matrix.cells[:, -1].copy()
    col = 0
    for chord in chords:
        for _ in range(matrix.cells_per_measure):
            column = np.clip(column, 0.0, CARRYOVER_CLAMP)
            for tone in chord.tones:
                column[tone] = CHORD_TONE_VALUE
            column[chord.root] = ROOT_VALUE
            matrix.cells[:, col] = column
            col += 1


def reference_consume(matrix, fragment, transposition, shift):
    """The per-cell loop that `consume` replaced."""
    rows, cols = reference_cells(matrix, fragment, transposition, shift)
    for pc, col in zip(rows.tolist(), cols.tolist()):
        matrix.cells[(pc + 1) % 12, col] *= 0.5
        matrix.cells[(pc - 1) % 12, col] *= 0.5
        matrix.cells[(pc + 6) % 12, col] *= 0.5
    matrix.cells[rows, cols] = 0.0


CHORDS = [parse_chord(c) for c in ("C", "G7", "Am", "F#m7", "Bdim", "E7", "Dm7", "Csus4")]

blocks = st.lists(st.sampled_from(CHORDS), min_size=2, max_size=2)

# a placement: (fragment, transposition, shift)
placements = st.tuples(
    st.lists(st.builds(Note, st.integers(40, 80), st.integers(0, 1800),
                       st.integers(1, 960)), min_size=1, max_size=5).map(
        lambda notes: MelodicFragment(tuple(sorted(notes, key=lambda n: n.onset)), 2, KEY)),
    st.integers(-12, 12), st.integers(0, ResourceMatrix.region_cells - 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.one_of(blocks, placements), max_size=8))
def test_extend_and_consume_match_the_per_cell_loops(seed, steps):
    """Bitwise-equal cells after any sequence of extends and consumes,
    from arbitrary cell values (subnormals included, where halving rounds).
    A consume takes the placed phrase, or the unplaced one and its
    placement, as the engine passes it."""
    ours, theirs, offset = ResourceMatrix(), ResourceMatrix(), ResourceMatrix()
    cells = np.random.default_rng(seed).random((12, ResourceMatrix.region_cells))
    cells[cells < 0.1] *= 1e-310
    ours.cells, theirs.cells, offset.cells = cells.copy(), cells.copy(), cells.copy()
    for step in steps:
        if isinstance(step, tuple):
            try:
                reference_consume(theirs, *step)
            except HarmonyError:  # ran past the region
                with pytest.raises(HarmonyError):
                    ours.consume(placed_fragment(*step))
                with pytest.raises(HarmonyError):
                    offset.consume(*step)
                continue
            ours.consume(placed_fragment(*step))
            offset.consume(*step)
        else:
            reference_extend(theirs, step)
            ours.extend(step)
            offset.extend(step)
        assert ours.cells.tobytes() == theirs.cells.tobytes() == offset.cells.tobytes()
