"""Engine loop: cycle records, determinism, theme evolution, timing."""

import json
from collections import Counter

import pytest

from ams.chord_model import ChordSequenceModel
from ams.cli import build_engine, parse_trace, trace_feed
from ams import conductor
from ams.config import ASSET_ROOT, EngineConfig, load_config
from ams.context_graph import ConceptGraph
from ams.melody import MelodicFragment, OperatorError
from ams.osc_gateway import ActivateConcept, AssignTheme, SetAffect, SetEdge
from ams.render import score_to_midi_bytes
from ams.xcs import XcsPopulation


def make_engine(**overrides):
    defaults = dict(seed=7, reward_gate=0.0, explore_prob=0.0, h_min=0.5)
    defaults.update(overrides)
    return build_engine(EngineConfig(**defaults))


@pytest.fixture(scope="module")
def ran_engine():
    engine = make_engine()
    for _ in range(6):
        engine.compose_block()
    return engine


def test_block_timing_constants():
    engine = make_engine(tempo_bpm=120.0)
    assert engine.block_ticks == 3840
    assert engine.block_ms == pytest.approx(4000.0)


def test_cycle_record_structure(ran_engine):
    record = ran_engine.cycle_log[0]
    assert record["cycle"] == 0
    assert record["leader"] in ("harmony", "melody")
    assert len(record["chords"]) == 2
    assert len(record["agents"]) == 3
    assert 0.0 <= record["confidence_harmony"] <= 1.0
    for agent_record in record["agents"]:
        if not agent_record["abstained"]:
            assert agent_record["harmonic_fitness"] >= 0.5
            assert agent_record["pitches"]
        else:
            assert agent_record["reason"] in ("gate", "operator", "search")


def test_chord_history_grows_two_per_cycle(ran_engine):
    assert len(ran_engine.chord_history) == 2 * ran_engine.cycle_index


def test_voice_ordering(ran_engine):
    for record in ran_engine.cycle_log:
        by_agent = {r["agent"]: r for r in record["agents"] if not r["abstained"]}
        if 1 in by_agent and 2 in by_agent:
            assert min(by_agent[1]["pitches"]) >= max(by_agent[2]["pitches"])
        if 2 in by_agent and 3 in by_agent:
            assert max(by_agent[2]["pitches"]) <= min(by_agent[3]["pitches"])


def test_percussion_kick_doubles_lowest_voice(ran_engine):
    for record in ran_engine.cycle_log:
        by_agent = {r["agent"]: r for r in record["agents"] if not r["abstained"]}
        kick = sorted(t for lane, t in record["percussion"] if lane == "kick")
        if 2 in by_agent:
            assert kick == sorted(set(by_agent[2]["onsets"]))
        else:
            assert kick == []


def test_every_voice_settles_through_one_path(monkeypatch):
    rewards = []
    update = XcsPopulation.update

    def recording_update(population, action_set, reward):
        rewards.append(reward)
        update(population, action_set, reward)

    def failing_operator(theme, operator):
        raise OperatorError("forced")

    monkeypatch.setattr(XcsPopulation, "update", recording_update)
    monkeypatch.setattr(conductor, "apply_operator", failing_operator)
    # failed actions, the lead's included, are reinforced with zero reward
    record = make_engine().compose_block()
    assert [(a["agent"], a["reason"]) for a in record["agents"]] == [
        (1, "operator"), (2, "operator"), (3, "operator")]
    assert record["leader"] == "harmony"
    assert rewards == [0.0, 0.0, 0.0]
    # a gate abstention leaves the population untouched
    rewards.clear()
    record = make_engine(reward_gate=1.2).compose_block()
    assert [a["reason"] for a in record["agents"]] == ["gate"] * 3
    assert rewards == []


def test_same_seed_same_output():
    scores = []
    for _ in range(2):
        engine = make_engine()
        engine.run(12_000)
        scores.append(score_to_midi_bytes(engine.score()))
    assert scores[0] == scores[1]


def test_different_seed_differs():
    a = make_engine(seed=1, explore_prob=0.4)
    b = make_engine(seed=2, explore_prob=0.4)
    a.run(12_000)
    b.run(12_000)
    assert score_to_midi_bytes(a.score()) != score_to_midi_bytes(b.score())


def test_run_composes_ahead_of_playback():
    engine = make_engine()
    engine.run(9_000)  # 9 s at 4 s blocks: blocks 0..2 due
    assert engine.cycle_index == 3


def test_default_theme_when_graph_silent():
    engine = make_engine(default_theme=5)
    record = engine.compose_block()
    assert record["theme_id"] == 5


def test_dominant_theme_selected():
    engine = make_engine()
    engine.queue.put(ActivateConcept("cavern", "object", 90.0, "set"))
    engine.queue.put(AssignTheme("cavern", 4))
    engine.ingest()
    assert engine.compose_block()["theme_id"] == 4


def test_bad_messages_logged_not_raised():
    engine = make_engine()
    engine.queue.put(AssignTheme("missing-object", 3))
    engine.queue.put(SetAffect("fear", 50.0, "set"))
    engine.queue.put(SetAffect("happiness", 50.0, "set"))
    engine.ingest()  # must not raise
    assert engine.graph.affect_snapshot().happiness == 50.0


def test_ingest_does_not_swallow_program_errors(monkeypatch):
    def broken(graph, msg):
        raise KeyError("bug")

    engine = make_engine()
    monkeypatch.setattr(ConceptGraph, "apply_message", broken)
    engine.queue.put(SetAffect("happiness", 50.0, "set"))
    with pytest.raises(KeyError):
        engine.ingest()


def test_theme_evolution_on_first_edge():
    engine = make_engine()
    engine.queue.put(ActivateConcept("hero", "object", 80.0, "set"))
    engine.queue.put(AssignTheme("hero", 0))
    engine.queue.put(ActivateConcept("sidekick", "object", 80.0, "set"))
    engine.ingest()
    n_before = len(engine.themes)
    engine.tick()
    assert len(engine.themes) == n_before  # no edge yet
    engine.queue.put(SetEdge("hero", "sidekick", 0.9))
    engine.tick()
    assert len(engine.themes) == n_before + 1
    new_id = engine.graph.vertices["sidekick"].theme
    assert new_id is not None and new_id in engine.themes
    child = engine.themes.get(new_id)
    assert 1 <= child.length_measures <= 4 and child.notes


def test_score_log_lines_sorted_json(ran_engine):
    lines = ran_engine.score_log_lines()
    rows = [json.loads(line) for line in lines]
    assert rows == sorted(rows, key=lambda r: (r["t_ticks"], r["instrument"], r["pitch"]))
    assert {"t_ticks", "instrument", "pitch", "dur", "vel"} <= set(rows[0])


def test_score_has_melody_and_percussion_tracks(ran_engine):
    score = ran_engine.score()
    assert [t.name for t in score.tracks] == [
        "melody-1", "melody-2", "melody-3", "percussion"]
    assert score.tracks[-1].channel == 9
    assert any(t.notes for t in score.tracks)


def test_replay_ranks_each_chord_context_once(monkeypatch):
    ranked = Counter()
    rank = ChordSequenceModel._rank

    def counting_rank(model, context):
        ranked[context] += 1
        return rank(model, context)

    monkeypatch.setattr(ChordSequenceModel, "_rank", counting_rank)
    engine = build_engine(load_config(ASSET_ROOT / "demo.cfg"))
    events = parse_trace((ASSET_ROOT / "traces" / "mixed_session.jsonl").read_text())
    engine.run(events[-1][0] + int(2 * engine.block_ms),
               message_feed=trace_feed(events), clock=None)
    # each cycle asks for at least two rankings, so contexts repeat
    assert 0 < len(ranked) < 2 * engine.cycle_index
    assert set(ranked.values()) == {1}


def test_replay_realizes_each_committed_placement_once(monkeypatch):
    transposed = MelodicFragment.transposed
    calls = [0]

    def counting_transposed(fragment, semitones):
        calls[0] += 1
        return transposed(fragment, semitones)

    # only placed_fragment transposes a fragment
    monkeypatch.setattr(MelodicFragment, "transposed", counting_transposed)
    engine = build_engine(load_config(ASSET_ROOT / "demo.cfg"))
    events = parse_trace((ASSET_ROOT / "traces" / "mixed_session.jsonl").read_text())
    engine.run(events[-1][0] + int(2 * engine.block_ms),
               message_feed=trace_feed(events), clock=None)
    committed = sum(1 for record in engine.cycle_log
                    for agent in record["agents"] if not agent["abstained"])
    assert committed > 0
    assert calls[0] == committed
