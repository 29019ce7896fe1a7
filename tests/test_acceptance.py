"""End-to-end acceptance suite: constants, oracles and system properties.

Each test prints a one-line verdict so a full run doubles as a checklist.
"""

import json
import random
import time

import numpy as np
import pytest

from ams.chord_model import parse_chord
from ams.cli import main as cli_main
from ams.config import ASSET_ROOT
from ams.context_graph import AffectSnapshot, ConceptGraph, GraphParams
from ams.harmonic_context import ResourceMatrix, TICKS_PER_CELL
from ams.melody import (
    FragmentFeatures,
    Key,
    MelodicFragment,
    Note,
    apply_operator,
    encode_environment,
    max_range,
    reward,
)
from ams.osc_gateway import ActivateConcept, SetAffect, SetEdge
from ams.xcs import XcsParams, XcsPopulation
from test_placement_equivalence import harmonic_fitness

THREAT_TRACE = ASSET_ROOT / "traces" / "threat_ramp.jsonl"
SADNESS_TRACE = ASSET_ROOT / "traces" / "sadness_plateau.jsonl"
DEMO_CFG = ASSET_ROOT / "demo.cfg"
SADNESS_CFG = ASSET_ROOT / "sadness.cfg"


def _no_fade_graph() -> ConceptGraph:
    return ConceptGraph(GraphParams(vertex_fade_per_s=0.0, edge_fade_per_s=0.0))


def test_01_spread_arithmetic():
    g = _no_fade_graph()
    g.apply_message(ActivateConcept("a", "object", 50.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 0.0, "set"))
    g.apply_message(SetEdge("a", "b", 0.25))
    g.tick(30)
    assert g.vertices["b"].activation == 12.5

    g2 = _no_fade_graph()
    g2.apply_message(ActivateConcept("a", "object", 50.0, "set"))
    g2.apply_message(ActivateConcept("b", "object", 40.0, "set"))
    g2.apply_message(SetEdge("a", "b", 0.25))
    g2.tick(30)
    assert g2.vertices["b"].activation == 40.0
    print("PASS 1: spread arithmetic (50 x 0.25 -> 12.5, no downgrade at 40)")


def test_02_fading_rates():
    g = ConceptGraph()
    g.apply_message(ActivateConcept("a", "object", 100.0, "set"))
    for _ in range(1000):  # 30 s of 30 ms ticks
        g.tick(30)
    assert abs(g.vertices["a"].activation - 97.0) < 1e-9

    g2 = ConceptGraph()
    g2.apply_message(ActivateConcept("a", "object", 0.0, "set"))
    g2.apply_message(ActivateConcept("b", "object", 0.0, "set"))
    g2._set_edge(g2.ids.index("a"), g2.ids.index("b"), 0.5, explicit=False)
    for _ in range(1000):
        g2.tick(30)
    assert abs(g2.edges[("a", "b")].weight - 0.2) < 1e-9
    print("PASS 2: fading (100 -> 97.0 vertex, 0.5 -> 0.2 inferred edge over 30 s)")


def test_03_matrix_constants():
    m = ResourceMatrix()
    m.extend([parse_chord("C")] * 2)
    region = m.cells
    assert np.all(region[0] == 1.0)
    assert np.all(region[4] == 0.8) and np.all(region[7] == 0.8)
    for row in (1, 2, 3, 5, 6, 8, 9, 10, 11):
        assert np.all(region[row] == 0.3)

    m2 = ResourceMatrix()
    m2.extend([parse_chord("C7"), parse_chord("E7")])
    e7_cols = m2.cells[:, m2.cells_per_measure:]
    assert np.all(e7_cols[0] == 0.5)  # C carried over, clamped
    print("PASS 3: matrix constants (1.0/0.8/0.3 fill, 0.5 carryover clamp)")


def test_04_fitness_oracle():
    rng = random.Random(42)
    key = Key(0, "major")
    for _ in range(1000):
        m = ResourceMatrix()
        cells = np.random.default_rng(rng.randrange(2**31)).random((12, m.region_cells))
        m.cells = np.round(cells, 6)
        notes = []
        onset = 0
        for _ in range(rng.randrange(1, 7)):
            dur = rng.choice([120, 240, 360, 480])
            if onset + dur > 2 * 1920:
                break
            notes.append(Note(rng.randrange(30, 100), onset, dur))
            onset += dur + rng.choice([0, 120, 240])
        if not notes:
            notes = [Note(60, 0, 480)]
        frag = MelodicFragment(tuple(n for n in notes if n.onset + n.duration <= 3840),
                               2, key)
        shift = rng.randrange(0, 4)
        trans = rng.randrange(-12, 13)
        try:
            h = harmonic_fitness(m, frag, trans, shift)
        except Exception:
            continue
        values = []
        for n in frag.notes:
            pc = (n.pitch + trans) % 12
            start = n.onset // TICKS_PER_CELL
            end = -(-(n.onset + n.duration) // TICKS_PER_CELL)
            for cell in range(start, end):
                values.append(m.cells[pc, shift + cell])
        assert abs(h - sum(values) / len(values)) < 1e-9
    print("PASS 4: harmonic fitness matches brute-force enumeration (1000 cases)")


def _random_even_fragment(rng: random.Random) -> MelodicFragment:
    # later pitches stay within +/- 20 of the first note (the inversion
    # anchor) so mirroring never clamps
    anchor = rng.randrange(50, 81)
    notes = []
    onset = 0
    for index in range(rng.randrange(1, 9)):
        dur = rng.choice([120, 240, 480, 960])
        if onset + dur > 2 * 1920:
            break
        pitch = anchor if index == 0 else anchor + rng.randrange(-20, 21)
        notes.append(Note(pitch, onset, dur))
        onset += dur
    if not notes:
        notes = [Note(60, 0, 480)]
    return MelodicFragment(tuple(notes), 2, Key(rng.randrange(12), "major"))


def test_05_operator_algebra():
    rng = random.Random(7)
    for _ in range(1000):
        f = _random_even_fragment(rng)
        assert apply_operator(apply_operator(f, 0), 0).notes == f.notes
        assert apply_operator(apply_operator(f, 3), 3).notes == f.notes
        diminished = apply_operator(f, 1)
        assert apply_operator(diminished, 2).notes == f.notes
    print("PASS 5: operator algebra (Reverse/Invert involutions, Augment-Diminish identity)")


def test_06_reward_hand_cases():
    neutral = AffectSnapshot()
    f = FragmentFeatures(notes_per_second=0.5, mean_interval=0.0,
                         diatonic_fraction=0.0, notes_per_beat=1.0, off_beat_start=0)
    assert reward(neutral, f) == pytest.approx(0.6, abs=1e-12)

    excited = AffectSnapshot(excitement=100.0)
    f2 = FragmentFeatures(5.5, 0.0, 0.0, 1.0, 0)
    # R_e = 0.2 exactly; R_s and R_te both read 0.2 off the same tempo term
    assert reward(excited, f2) == pytest.approx(0.2 + 0.2 + 0.2 + 0.2 + 0.2, abs=1e-12)

    threat = AffectSnapshot(threat=100.0)
    f3 = FragmentFeatures(0.5, 6.0, 0.0, 1.0, 0)
    # R_th = 0.2 exactly with p-bar = 6
    assert reward(threat, f3) == pytest.approx(0.2 + 0.2 + 0.0 + 0.0 + 0.2, abs=1e-12)

    sad = AffectSnapshot(sadness=100.0)
    f4 = FragmentFeatures(0.5, 0.0, 0.0, 1.0, 0)
    # R_s = 0.2 exactly at the slow-tempo extreme
    assert reward(sad, f4) == pytest.approx(0.2 + 0.2 + 0.2 + 0.0 + 0.2, abs=1e-12)
    print("PASS 6: reward block hand-substitution cases")


def test_07_span_table():
    assert max_range(1, "jazz") == 12
    assert max_range(2, "jazz") == 24
    assert max_range(3, "jazz") == 36
    assert max_range(4, "folk") == 33
    print("PASS 7: span limits 12/24/36 jazz, 33 folk N=4")


def test_08_environment_encoding():
    snap = AffectSnapshot(happiness=10, excitement=80, anger=0,
                          sadness=30, tenderness=0, threat=60)
    assert encode_environment(snap, 5) == 0b001100010010_000101
    assert encode_environment(AffectSnapshot(happiness=25), 0) >> 16 == 0b01
    assert encode_environment(AffectSnapshot(happiness=75), 0) >> 16 == 0b11
    print("PASS 8: 18-bit encoding worked example and bin boundaries")


def test_09_xcs_convergence():
    pop = XcsPopulation(XcsParams(), random.Random(11))
    x = 0b010010110001000011
    for _ in range(4000):
        match = pop.match_set(x)
        action, _ = pop.select_action(match, 0.25)
        pop.update(pop.action_set(match, action), 0.1 * action)
    for _ in range(1000):
        match = pop.match_set(x)
        action, prediction = pop.select_action(match)
        assert action == 7
        assert abs(prediction - 0.7) < 0.05
        pop.update(pop.action_set(match, action), 0.7)
    print("PASS 9: XCS converges to the best action with accurate prediction")


def _replay(trace, config, seed, tmp_path, tag):
    midi = tmp_path / f"{tag}.mid"
    cycles = tmp_path / f"{tag}.cycles"
    score = tmp_path / f"{tag}.score"
    rc = cli_main(["replay", str(trace), "--config", str(config),
                   "--seed", str(seed), "--out", str(midi),
                   "--cycle-log", str(cycles), "--score-log", str(score)])
    assert rc == 0
    return midi.read_bytes(), cycles.read_bytes(), score.read_bytes()


def _committed(record):
    return {a["agent"]: a for a in record["agents"] if not a["abstained"]}


def test_10_replay_determinism_and_constraints(tmp_path):
    first = _replay(THREAT_TRACE, DEMO_CFG, 7, tmp_path, "a")
    second = _replay(THREAT_TRACE, DEMO_CFG, 7, tmp_path, "b")
    assert first == second

    records = [json.loads(line) for line in first[1].decode().splitlines()]
    assert records
    for record in records:
        by_agent = _committed(record)
        for agent in by_agent.values():
            assert agent["harmonic_fitness"] >= 0.5 - 1e-9
        if 1 in by_agent and 2 in by_agent:
            top, bottom = by_agent[1], by_agent[2]
            assert min(top["pitches"]) >= max(bottom["pitches"])
            assert max(top["pitches"]) - min(bottom["pitches"]) <= record["span_limit"]
        for mid_id in by_agent:
            if mid_id < 3 or 1 not in by_agent:
                continue
            assert min(by_agent[1]["pitches"]) >= max(by_agent[mid_id]["pitches"])
    print("PASS 10: byte-identical replay; H floor, voice order and span hold")


def _cycle_stat(records, key):
    values = [a[key] for a in records["agents"] if not a["abstained"]]
    return sum(values) / len(values) if values else None


def test_11_directional_affect_response(tmp_path):
    threat_ok = 0
    for seed in range(1, 11):
        _, cycles, _ = _replay(THREAT_TRACE, DEMO_CFG, seed, tmp_path, f"t{seed}")
        records = [json.loads(line) for line in cycles.decode().splitlines()]
        first = _cycle_stat(records[0], "mean_interval")
        last = _cycle_stat(records[-1], "mean_interval")
        if first is not None and last is not None and last > first:
            threat_ok += 1
    assert threat_ok >= 8

    sadness_ok = 0
    for seed in range(1, 11):
        _, cycles, _ = _replay(SADNESS_TRACE, SADNESS_CFG, seed, tmp_path, f"s{seed}")
        records = [json.loads(line) for line in cycles.decode().splitlines()]
        first = _cycle_stat(records[0], "notes_per_second")
        last = _cycle_stat(records[-1], "notes_per_second")
        if first is not None and last is not None and last < first:
            sadness_ok += 1
    assert sadness_ok >= 8
    print(f"PASS 11: directional response (threat {threat_ok}/10, sadness {sadness_ok}/10)")


def test_12_real_time_budget():
    from ams.cli import build_engine
    from ams.config import load_config

    config = load_config(DEMO_CFG)
    config.melody_agents = 4
    engine = build_engine(config)
    snapshot = AffectSnapshot(happiness=60, threat=40)
    durations = []
    for _ in range(100):
        start = time.perf_counter()
        engine.composition_cycle(snapshot, 0)
        durations.append(time.perf_counter() - start)
    durations.sort()
    p99 = durations[98]
    assert p99 < 0.5

    tick = _min_tick_s(_random_graph(1000, 5000), 20)
    assert tick < 0.005
    print(f"PASS 12: budgets (cycle p99 {p99 * 1000:.1f} ms, tick {tick * 1000:.2f} ms)")


def test_12_graph_tick_at_10k_vertices_fits_the_tick_period():
    tick = _min_tick_s(_random_graph(10_000, 50_000), 5)
    assert tick < 0.030
    print(f"PASS 12 (scale): 10k vertices / 50k edges tick in {tick * 1000:.2f} ms")


def _random_graph(n_vertices: int, n_edges: int) -> ConceptGraph:
    """Objects below the co-activation threshold and random explicit edges."""
    graph = ConceptGraph()
    rng = random.Random(3)
    for i in range(n_vertices):
        graph.apply_message(ActivateConcept(f"v{i}", "object", rng.uniform(0, 45), "set"))
    for _ in range(n_edges):
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if a != b:
            graph.apply_message(SetEdge(f"v{a}", f"v{b}", rng.uniform(0.1, 1.0)))
    return graph


def _min_tick_s(graph: ConceptGraph, n_ticks: int) -> float:
    ticks = []
    for _ in range(n_ticks):
        start = time.perf_counter()
        graph.tick(30)
        ticks.append(time.perf_counter() - start)
    return min(ticks)
