"""Tests of the benchmark's own logic.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ams.harmonic_context import ResourceMatrix  # noqa: E402
from ams.melody import Key, MelodicFragment, MelodyAgent, Note, RangeConstraint  # noqa: E402
from ams.xcs import XcsPopulation  # noqa: E402
from ams.osc_gateway import ActivateConcept, AssignTheme, SetEdge, decode_packet  # noqa: E402
from ams.render import Score, ScoreNote, Track, score_to_midi_bytes  # noqa: E402

from measure import SpeedProbe, Work, paced_schedule, roundtrip_ok, scores_match  # noqa: E402
from tracing import placements_evaluated, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CROWD_EDGE_WEIGHT,
    CROWD_EDGES,
    CROWD_OBJECTS,
    WORKLOADS,
    make_workload,
)


def test_paced_schedule_stall_then_catch_up():
    # ticks every 30 ms taking 1 ms; tick 3 stalls for 100 ms
    work = [Work(k * 30, k * 30 + 30, 100.0 if k == 3 else 1.0) for k in range(8)]
    # block 0 cannot be late; block 1 is composed at 0 and plays at 4000
    work = [Work(0, None, 5.0), Work(0, 4000, 5.0)] + work
    misses, lag = paced_schedule(work)
    # tick 0 starts at 10 and ends at 11; tick 3 ends at 190 (due by 120),
    # tick 4 (due 120) runs 190-191 past 150, tick 5 (due 150) runs 191-192
    # past 180, tick 6 (due 180) ends at 193, inside its period: caught up
    assert misses == 3
    assert lag == 190 - 120


def test_paced_schedule_late_block():
    # a block composed one block ahead that takes longer than the lead-in
    work = [Work(0, None, 1.0), Work(0, 50, 60.0), Work(30, 60, 1.0)]
    misses, lag = paced_schedule(work)
    assert misses == 2  # the block (ends at 61) and the tick behind it (62)
    assert lag == 61 - 30


def test_paced_schedule_on_time():
    assert paced_schedule([Work(k * 30, k * 30 + 30, 29.0) for k in range(100)]) == (0, 0.0)


def test_speed_probe_samples_once_per_period_and_counts_its_time():
    probe = SpeedProbe()
    probe.sample()  # the period has not passed yet
    assert len(probe.speeds) == 0 and probe.spent_s == 0.0
    probe.last -= 1.0
    probe.sample()
    probe.sample()  # the period starts again after a sample
    assert len(probe.speeds) == 1 and probe.speeds[0] > 0.0
    assert 0.0 < probe.spent_s < 1.0


def _score(notes):
    return Score(tempo_bpm=120.0, tracks=[Track("melody-1", 0, list(notes)),
                                          Track("percussion", 9, [ScoreNote(36, 0, 60, 90)])])


def test_roundtrip_accepts_clean_score():
    score = _score([ScoreNote(60, 0, 480, 100), ScoreNote(64, 480, 240, 90)])
    assert roundtrip_ok(score, score_to_midi_bytes(score))


def test_roundtrip_flags_changed_or_overlapping_notes():
    score = _score([ScoreNote(60, 0, 480, 100)])
    other = _score([ScoreNote(60, 0, 240, 100)])
    assert not scores_match(score, other)
    assert not roundtrip_ok(other, score_to_midi_bytes(score))
    # same-pitch overlap in one voice: on/on/off/off in the SMF
    overlap = _score([ScoreNote(60, 0, 480, 100), ScoreNote(60, 240, 480, 100)])
    assert not roundtrip_ok(overlap, score_to_midi_bytes(overlap))


def test_self_times_subtract_children():
    spans = [
        ["conductor.cycle", 0.0, 10.0, -1, None],
        ["chord.next_chord", 1.0, 4.0, 0, None],
        ["melody.search", 5.0, 9.0, 0, None],
        ["matrix.fitness", 6.0, 7.5, 2, None],
    ]
    assert self_times(spans) == [3.0, 3.0, 2.5, 1.5]


class CountingConstraint(RangeConstraint):
    """Counts the (shift, transposition) pairs the search goes on to score."""

    def allows(self, lo, hi):
        ok = super().allows(lo, hi)
        COUNTED[0] += ok
        return ok


COUNTED = [0]


def test_placements_evaluated_counts_the_search_grid():
    fragment = MelodicFragment((Note(60, 0, 480, 100), Note(67, 480, 480, 100)), 1,
                               Key(0, "major"))
    matrix = ResourceMatrix()
    # 32 region cells, the fragment spans 8: 25 shifts
    assert placements_evaluated(fragment, matrix.region_cells, RangeConstraint()) == 25 * 49
    # pitches 60..67 shifted by t must stay inside 60..72: t in 0..5
    assert placements_evaluated(fragment, matrix.region_cells,
                                RangeConstraint(60, 72)) == 25 * 6
    agent = MelodyAgent(1, XcsPopulation())
    for constraint in (CountingConstraint(), CountingConstraint(60, 72)):
        COUNTED[0] = 0
        agent.search_placement(fragment, matrix, "jazz", 3, constraint)
        assert COUNTED[0] == placements_evaluated(fragment, matrix.region_cells, constraint)


def test_workloads_are_a_function_of_the_seed(tmp_path):
    for name in ("session", "crowd", "ensemble"):
        a = make_workload(name, 3, tmp_path / f"{name}-a")
        b = make_workload(name, 3, tmp_path / f"{name}-b")
        c = make_workload(name, 4, tmp_path / f"{name}-c")
        assert a.input_digest == b.input_digest != c.input_digest
        assert a.config.seed == 3 and c.config.seed == 4


def test_crowd_shape(tmp_path):
    workload = make_workload("crowd", 1, tmp_path)
    msgs = [m for _, data in workload.datagrams for m in decode_packet(data)]
    assert len(msgs) == workload.messages_sent
    edges = [m for m in msgs if isinstance(m, SetEdge)]
    assert len(edges) == CROWD_EDGES
    assert all(CROWD_EDGE_WEIGHT[0] <= e.weight <= CROWD_EDGE_WEIGHT[1] + 1e-6 for e in edges)
    themed = {m.concept for m in msgs if isinstance(m, AssignTheme)}
    linked = {n for e in edges for n in (e.a, e.b)}
    activated = {m.name for m in msgs if isinstance(m, ActivateConcept)}
    assert len(themed | linked | activated) == CROWD_OBJECTS
    # every unthemed object gains an edge, always to a themed one
    assert all(e.a in themed or e.b in themed for e in edges)
    assert (activated | linked) - themed <= linked


def test_layer_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]
    listed = [m for layer in layers for m in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in spec["per_layer"])
    assert len(listed) == len(set(listed))
    # the untraced run also prints these, though BENCHMARK.json does not declare them
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {
        "cycle_ms_p50", "tick_ms_p50", "tick_ms_p99", "deadline_miss_frac"}
    for layer in layers:
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["on"]) <= set(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
