"""Engine loop: cycle records, determinism, theme evolution, timing."""

import json
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ams.chord_model import STYLES, ChordSequenceModel, ingest_corpus, train
from ams.cli import build_engine, bundled_corpus, parse_trace, trace_feed
from ams import conductor
from ams.config import ASSET_ROOT, EngineConfig, load_config
from ams.context_graph import ConceptGraph, GraphParams, VertexKind
from ams.melody import (
    SCALES,
    Key,
    MelodicFragment,
    MelodyAgent,
    Note,
    OperatorError,
    admissible_transpositions,
    evolve_theme,
)
from ams.osc_gateway import THEME_IDS, ActivateConcept, AssignTheme, SetAffect, SetEdge
from ams.render import BLOCK_TICKS, MEASURE_TICKS, read_midi_bytes, score_to_midi_bytes
from ams.themes import add_theme, load_themes
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
    assert BLOCK_TICKS == 3840
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


def test_chord_history_holds_the_last_order_chords(ran_engine):
    """Two chords per cycle, of which the engine keeps the last `order`,
    as many as the model reads."""
    order = ran_engine.chord_model.order
    played = [chord for record in ran_engine.cycle_log for chord in record["chords"]]
    assert len(played) == 2 * ran_engine.cycle_index > order
    assert [str(chord) for chord in ran_engine.chord_history] == played[-order:]


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


def test_run_calls_tick_and_compose_block_through_the_instance():
    # timing wrappers installed on the instance see every tick and block,
    # and the feed is asked at each tick's start time before the tick runs
    engine = make_engine()
    tick, compose_block = engine.tick, engine.compose_block
    tick_starts, feed_times, blocks = [], [], []

    def counted_tick():
        tick_starts.append(engine.time_ms)
        tick()

    def counted_compose_block():
        blocks.append(engine.cycle_index)
        return compose_block()

    def feed(t_ms):
        feed_times.append(t_ms)
        return []

    engine.tick, engine.compose_block = counted_tick, counted_compose_block
    tick_ms, duration_ms = engine.config.tick_ms, 9_000
    engine.run(duration_ms, message_feed=feed)
    assert duration_ms % tick_ms == 0
    assert tick_starts == list(range(0, duration_ms, tick_ms))
    assert feed_times == tick_starts
    assert blocks == [0, 1, 2]  # 9 s at 4 s blocks


def test_run_ingests_a_feed_larger_than_the_queue():
    # 70,000 events due at one tick overflow the 65,536-message queue,
    # which drops the oldest; the run ingests before a put would overflow
    engine = make_engine()
    n = 70_000
    assert n > engine.queue.capacity
    msgs = [ActivateConcept(f"o{i}", "object", 50.0, "set") for i in range(n)]
    engine.run(engine.config.tick_ms, message_feed=lambda t_ms: msgs if t_ms == 0 else [])
    assert engine.queue.dropped == 0
    objects = [vid for vid in engine.graph.ids
               if engine.graph.vertices[vid].kind is VertexKind.OBJECT]
    assert objects == [f"o{i}" for i in range(n)]


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
    child = engine.themes[new_id]
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
               message_feed=trace_feed(events))
    # each cycle asks for at least two rankings, so contexts repeat
    assert 0 < len(ranked) < 2 * engine.cycle_index
    assert set(ranked.values()) == {1}


def test_chord_context_holds_as_many_chords_as_the_model_order(monkeypatch):
    lengths = []
    next_chord = ChordSequenceModel.next_chord

    def recording(model, history, style, rank=1):
        lengths.append(len(history))
        return next_chord(model, history, style, rank)

    monkeypatch.setattr(ChordSequenceModel, "next_chord", recording)
    engine = make_engine(chord_order=20)
    for _ in range(10):
        engine.compose_block()
    # the tenth cycle's follow-up chord sees all 18 earlier chords and the first
    assert max(lengths) == 19


_CORPUS_MODEL = train(bundled_corpus(), order=3)


@st.composite
def drawn_themes(draw):
    """A theme whose notes share few pitches, so that notes of one pitch
    overlap, and whose onsets lie off the cell grid, so that kicks doubling
    them overlap."""
    length = draw(st.integers(1, 2))
    end = length * MEASURE_TICKS
    notes = []
    for _ in range(draw(st.integers(1, 8))):
        onset = draw(st.integers(0, end // 30 - 1)) * 30
        notes.append(Note(draw(st.sampled_from((55, 60, 62, 64))), onset,
                          draw(st.integers(1, end - onset)), draw(st.integers(1, 127))))
    notes.sort(key=lambda n: (n.onset, n.pitch))
    key = Key(draw(st.integers(0, 11)), draw(st.sampled_from(sorted(SCALES))))
    return MelodicFragment(tuple(notes), length, key)


def _compose_midi(themes, config, schedule):
    """SMF bytes and score of four blocks over `themes` (ids 0..), with the
    object of theme `schedule[i]` activated at the start of block i; object
    `evolved` takes a theme bred from theme 0's on the first tick."""
    engine = conductor.Engine(config, dict(enumerate(themes)), _CORPUS_MODEL)
    events = [(0, AssignTheme(f"o{i}", i)) for i in range(len(themes))]
    events.append((0, SetEdge("o0", "evolved", 0.9)))
    for block, choice in enumerate(schedule):
        name = "evolved" if choice == len(themes) else f"o{choice}"
        events.append((int(block * engine.block_ms), ActivateConcept(name, "object", 100.0, "set")))
    engine.run(int(len(schedule) * engine.block_ms), message_feed=trace_feed(events))
    return score_to_midi_bytes(engine.score()), engine.score()


@settings(max_examples=40, deadline=None)
@given(themes=st.lists(drawn_themes(), min_size=1, max_size=3), data=st.data(),
       seed=st.integers(0, 2**16), agents=st.integers(1, 4), style=st.sampled_from(STYLES))
def test_composed_scores_round_trip_through_the_smf_reader(themes, data, seed, agents, style):
    schedule = data.draw(st.lists(st.integers(0, len(themes)), min_size=4, max_size=4))
    config = EngineConfig(seed=seed, melody_agents=agents, style=style, h_min=0.0,
                          reward_gate=0.0)
    blob, score = _compose_midi(themes, config, schedule)
    parsed = read_midi_bytes(blob)
    assert [t.notes for t in parsed.tracks] == [
        sorted(t.notes, key=lambda n: (n.onset, n.pitch)) for t in score.tracks]
    assert _compose_midi(themes, config, schedule)[0] == blob


def test_engine_time_is_the_graph_clock():
    engine = make_engine()
    for _ in range(3):
        engine.tick()
    assert engine.time_ms == engine.graph.clock == 3 * engine.config.tick_ms
    with pytest.raises(AttributeError):
        engine.time_ms = 0


def test_engine_ticks_at_its_configured_length():
    """The graph is built with `config.tick_ms`: each tick advances the
    clock by it and fades a vertex by that many ms of its fade rate."""
    engine = make_engine(tick_ms=20, graph=GraphParams(vertex_fade_per_s=0.5))
    engine.queue.put(ActivateConcept("torch", "object", 80.0, "set"))
    fade = 0.5 * 20 / 1000
    engine.tick()
    activation = engine.graph.vertices["torch"].activation
    assert (engine.time_ms, activation) == (20, 80.0 - fade)
    for ticks in range(2, 5):
        engine.tick()
        assert engine.time_ms == 20 * ticks
        expected = activation - (ticks - 1) * fade
        assert engine.graph.vertices["torch"].activation == pytest.approx(expected)


def test_replay_realizes_each_committed_placement_once(monkeypatch):
    placed_fragment = conductor.placed_fragment
    calls = [0]

    def counting_placed_fragment(fragment, transposition, time_shift):
        calls[0] += 1
        return placed_fragment(fragment, transposition, time_shift)

    monkeypatch.setattr(conductor, "placed_fragment", counting_placed_fragment)
    engine = build_engine(load_config(ASSET_ROOT / "demo.cfg"))
    events = parse_trace((ASSET_ROOT / "traces" / "mixed_session.jsonl").read_text())
    engine.run(events[-1][0] + int(2 * engine.block_ms),
               message_feed=trace_feed(events))
    committed = sum(1 for record in engine.cycle_log
                    for agent in record["agents"] if not agent["abstained"])
    assert committed > 0
    assert calls[0] == committed


BUNDLED_TRACES = ("happiness_plateau", "mixed_session", "sadness_plateau", "threat_ramp")


def _replay(engine, trace):
    events = parse_trace((ASSET_ROOT / "traces" / f"{trace}.jsonl").read_text())
    engine.run(events[-1][0] + int(2 * engine.block_ms), message_feed=trace_feed(events))


def _output_bytes(engine):
    cycle_log = "".join(json.dumps(r, sort_keys=True) + "\n" for r in engine.cycle_log)
    return score_to_midi_bytes(engine.score()), cycle_log.encode()


def test_each_phrase_is_made_once_per_engine(monkeypatch):
    """The engine's memo runs `apply_operator` once per distinct (theme,
    operator); a second engine makes its own phrases."""
    calls = _count_calls(monkeypatch, conductor, "apply_operator")
    config = load_config(ASSET_ROOT / "demo.cfg")
    for trace in BUNDLED_TRACES:
        per_engine = []
        for _ in range(2):
            calls.clear()
            engine = build_engine(config)
            _replay(engine, trace)
            keys = list(calls)  # (theme, operator) per run
            assert len(keys) == len(set(keys)) == len(engine._phrases)
            # turns past the reward gate apply an operator
            turns = sum(1 for record in engine.cycle_log for agent in record["agents"]
                        if agent.get("reason") != "gate")
            assert turns > len(keys)
            per_engine.append(keys)
        assert per_engine[0] == per_engine[1]


def test_a_failed_operator_runs_once_and_abstains_every_cycle(monkeypatch):
    calls = []

    def failing_operator(theme, operator):
        calls.append((theme, operator))
        raise OperatorError("forced")

    monkeypatch.setattr(conductor, "apply_operator", failing_operator)
    engine = make_engine()
    for _ in range(8):
        record = engine.compose_block()
        assert [(a["agent"], a["reason"]) for a in record["agents"]] == [
            (1, "operator"), (2, "operator"), (3, "operator")]
    assert len(calls) == len(set(calls)) < 8 * 3
    # each hit raises a fresh exception, so no traceback grows across raises
    theme, operator = calls[0]
    raised = []
    for _ in range(2):
        with pytest.raises(OperatorError, match="forced") as info:
            engine._phrase(theme, operator)
        raised.append(info.value)
    assert raised[0] is not raised[1]
    assert len(calls) == len(set(calls))


def _run_in_turns(engines, trace):
    """Replay `trace` on each engine in one process, one composed block at a
    time in turn: each engine runs `Engine.run` in its own thread, and only
    the thread whose turn it is runs."""
    events = parse_trace((ASSET_ROOT / "traces" / f"{trace}.jsonl").read_text())
    n = len(engines)
    turn = threading.Condition()
    state = {"next": 0, "done": set(), "errors": []}

    def pass_turn(i):
        with turn:
            state["next"] = next((j % n for j in range(i + 1, i + n + 1)
                                  if j % n not in state["done"]), None)
            turn.notify_all()

    def wait_turn(i):
        with turn:
            turn.wait_for(lambda: state["next"] == i)

    def worker(i):
        engine = engines[i]

        def on_block(_record):
            pass_turn(i)
            wait_turn(i)

        wait_turn(i)
        try:
            engine.run(events[-1][0] + int(2 * engine.block_ms),
                       message_feed=trace_feed(events), on_block=on_block)
        except Exception as exc:  # surfaced below
            state["errors"].append(exc)
        finally:
            state["done"].add(i)
            pass_turn(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not state["errors"], state["errors"]


@pytest.mark.parametrize("trace", ["mixed_session", "threat_ramp"])
def test_engines_composing_in_turns_match_each_alone(trace):
    """Two engines from one config, composing block by block in turn, give
    the bytes each gives alone: no phrase state is shared between engines
    or changed by composing, and every kept array is read-only."""
    config = load_config(ASSET_ROOT / "demo.cfg")
    alone = build_engine(config)
    _replay(alone, trace)
    expected = _output_bytes(alone)
    engines = [build_engine(config) for _ in range(2)]
    _run_in_turns(engines, trace)
    for engine in engines:
        assert _output_bytes(engine) == expected
        phrases = [p for p in engine._phrases.values() if isinstance(p, MelodicFragment)]
        assert phrases
        for phrase in phrases:
            for array in (*phrase.cells, phrase.fitness_index):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
    assert not set(map(id, engines[0]._phrases.values())) & set(
        map(id, engines[1]._phrases.values()))


def test_chord_candidates_are_bounded_by_the_vocabulary():
    # two chords in the vocabulary: ranks 1 and 2 are the only candidates
    engine = make_engine(top_chord_ranks=8)
    engine.chord_model = train(ingest_corpus("C G | C G C", "pop"), order=2)
    for _ in range(6):
        assert engine.compose_block()["chord_rank"] in (1, 2)
    # no chord at all: no candidate, so the cycle cannot compose
    engine.chord_model = ChordSequenceModel(order=2, vocabulary=["pop"])
    with pytest.raises(conductor.ConductorError):
        engine.compose_block()


def _replay_counting_lead_searches(monkeypatch, chord_model=None, **overrides):
    """Replay the bundled traces with demo.cfg, changed by `overrides` and,
    if given, with `chord_model`; yields each engine with the lead's
    searches per cycle, as (cycle -> [admissible, ...]), and the chord
    model's calls per cycle, as (cycle -> [(rank, history length), ...])."""
    search = MelodyAgent.search_placement
    next_chord = ChordSequenceModel.next_chord
    calls: list[tuple[int, int, bool]] = []  # (cycle, agent, admissible)
    chord_calls: list[tuple[int, int, int]] = []  # (cycle, rank, history length)
    engines = []

    def counting_search(agent, fragment, matrix, style, n_agents, constraint):
        admissible = bool(admissible_transpositions(fragment, constraint))
        calls.append((engines[-1].cycle_index, agent.agent_id, admissible))
        return search(agent, fragment, matrix, style, n_agents, constraint)

    def recording_next_chord(model, history, style, rank=1):
        chord_calls.append((engines[-1].cycle_index, rank, len(history)))
        return next_chord(model, history, style, rank)

    monkeypatch.setattr(MelodyAgent, "search_placement", counting_search)
    monkeypatch.setattr(ChordSequenceModel, "next_chord", recording_next_chord)
    for trace in ("happiness_plateau", "mixed_session", "sadness_plateau", "threat_ramp"):
        calls.clear()
        chord_calls.clear()
        engine = build_engine(replace(load_config(ASSET_ROOT / "demo.cfg"), **overrides))
        if chord_model is not None:
            engine.chord_model = chord_model
        engines.append(engine)
        events = parse_trace((ASSET_ROOT / "traces" / f"{trace}.jsonl").read_text())
        engine.run(events[-1][0] + int(2 * engine.block_ms),
                   message_feed=trace_feed(events))
        lead_searches: dict[int, list[bool]] = {}
        for cycle, agent, admissible in calls:
            if agent == 1:
                lead_searches.setdefault(cycle, []).append(admissible)
        chord_ranks: dict[int, list[tuple[int, int]]] = {}
        for cycle, rank, length in chord_calls:
            chord_ranks.setdefault(cycle, []).append((rank, length))
        yield engine, lead_searches, chord_ranks


def test_melody_led_walk_skips_a_lead_phrase_that_fits_nowhere(monkeypatch):
    # a lead phrase with no admissible transposition, or longer than the
    # region, fits no trial matrix: the walk is skipped and rank 1 kept
    skipped = 0
    for engine, lead_searches, _ in _replay_counting_lead_searches(monkeypatch):
        for record in engine.cycle_log:
            if record["leader"] != "melody":
                continue
            lead = record["agents"][0]
            searches = lead_searches.get(record["cycle"], [])
            assert all(searches)
            if not lead["abstained"]:
                assert len(searches) == record["chord_rank"]
            elif lead["reason"] == "search":
                assert len(searches) in (0, engine.config.top_chord_ranks)
                assert record["chord_rank"] == 1
                skipped += not searches
    # 20 of the 82 melody-led cycles lead with a phrase that fits nowhere;
    # walking all 8 ranks for them cost 160 futile searches
    assert skipped == 20


def test_harmony_led_walk_searches_rank_one_only_for_an_admissible_lead(monkeypatch):
    # harmony leading is the same walk cut to rank 1: the lead is searched
    # once when it has a phrase that fits some transposition, else never
    searched = skipped = 0
    for engine, lead_searches, _ in _replay_counting_lead_searches(monkeypatch):
        for record in engine.cycle_log:
            if record["leader"] != "harmony":
                continue
            assert record["chord_rank"] == 1
            lead = record["agents"][0]
            searches = lead_searches.get(record["cycle"], [])
            assert searches in ([], [True])
            if not lead["abstained"]:
                assert searches == [True]
            elif lead["reason"] != "search":
                assert searches == []
            searched += len(searches)
            skipped += lead["abstained"] and lead["reason"] == "search" and not searches
    # over the bundled replays, 43 harmony-led searches; 3 leads that fit
    # nowhere, each searched in vain before the walk was shared, are not
    assert (searched, skipped) == (43, 3)


@pytest.mark.parametrize("two_chords", [False, True], ids=["bundled-model", "two-chord-model"])
def test_a_cycle_fetches_the_continuations_its_walk_reaches(monkeypatch, two_chords):
    # rank 1's continuation is fetched for leader election, rank r's only
    # when the walk reaches r: up to the adopted rank, every rank after a
    # melody-led walk that failed, and rank 1 alone otherwise.  The
    # two-chord model, a low reward_max and a high h_min make melody lead,
    # fail at rank 1 and fit at rank 2
    overrides = dict(chord_model=train(ingest_corpus("C G | C G C", "jazz"), order=2),
                     reward_max=0.05, h_min=0.7) if two_chords else {}
    cases = Counter()
    for engine, lead_searches, chord_ranks in _replay_counting_lead_searches(
            monkeypatch, **overrides):
        n_ranks = min(engine.config.top_chord_ranks, len(engine.chord_model.chord_vocabulary))
        for record in engine.cycle_log:
            calls = chord_ranks[record["cycle"]]
            # a first chord is asked with the cycle's history, its
            # follow-up, at rank 1, with one chord more
            shortest = min(length for _, length in calls)
            firsts = [rank for rank, length in calls if length == shortest]
            assert [(rank, length) for rank, length in calls if length != shortest] == [
                (1, shortest + 1)] * len(firsts)
            if not record["agents"][0]["abstained"]:
                case, reached = "adopted", record["chord_rank"]
            elif record["leader"] == "melody" and lead_searches.get(record["cycle"]):
                case, reached = "failed walk", n_ranks
            else:
                case, reached = "no walk", 1
            assert firsts == list(range(1, reached + 1))
            cases[case, reached] += 1
    # the bundled replays adopt rank 1 or skip the walk in all 128 cycles,
    # where each fetched 8 continuations; the two-chord replays reach rank 2
    reached = ({("adopted", 2), ("failed walk", 2), ("no walk", 1)} if two_chords
               else {("adopted", 1), ("no walk", 1)})
    assert reached <= set(cases)


def _evolve_scanning_every_vertex(engine):
    """Theme evolution as a scan of all vertices per tick, with a set of
    the checked ones: the reference for evolution from `first_edges`."""
    for vid in list(engine.graph.vertices):
        vertex = engine.graph.vertices[vid]
        if (vertex.kind is not VertexKind.OBJECT or vertex.theme is not None
                or vid in engine.checked or engine.graph.degree(vid) == 0):
            continue
        engine.checked.add(vid)
        parent_ids = engine.graph.nearest_themed(vid, 2)
        parents = [engine.themes[t] for t in parent_ids if t in engine.themes]
        if not parents:
            continue
        if len(parents) == 1:
            parents.append(parents[0])
        child = evolve_theme(parents[0], parents[1], engine.evolution_rng)
        new_id = add_theme(engine.themes, child)
        if new_id is not None:
            engine.graph.apply_message(AssignTheme(vid, new_id))


def _run_with_both_evolutions(steps, build=make_engine, same_rng=True):
    """Feed `steps` (a list of message lists, one per tick) to an engine
    from `build` and to one with the reference scan.  Both must give every
    vertex the same theme and hold the same themes, and, if `same_rng`,
    have drawn the same evolution numbers."""
    engine, reference = build(), build()
    reference.checked = set()
    reference._maybe_evolve_themes = lambda: _evolve_scanning_every_vertex(reference)
    for messages in steps:
        for e in (engine, reference):
            for msg in messages:
                e.queue.put(msg)
            e.tick()
    themes = {vid: v.theme for vid, v in engine.graph.vertices.items()}
    assert themes == {vid: v.theme for vid, v in reference.graph.vertices.items()}
    assert engine.themes == reference.themes
    if same_rng:
        assert engine.evolution_rng.getstate() == reference.evolution_rng.getstate()
    return engine


# a small name pool, so that edges meet: objects, an environment and an
# affect; theme ids 0-7 are bundled, the others are not loaded
_NAMES = st.sampled_from(("a", "b", "c", "d", "cave", "threat"))
_ACTIVATIONS = st.builds(
    lambda name, level: ActivateConcept(
        name, "environment" if name == "cave" else "object", level, "set"),
    _NAMES, st.sampled_from((10.0, 90.0, 90.0)))
# activations come twice as often as the others, since edges are inferred
# between two hot concepts
_MESSAGES = st.one_of(
    _ACTIVATIONS, _ACTIVATIONS,
    st.builds(AssignTheme, _NAMES, st.sampled_from((0, 7, 8, 63))),
    st.builds(SetEdge, _NAMES, _NAMES, st.sampled_from((0.0, 0.3, 0.9))),
)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.lists(_MESSAGES, max_size=4), min_size=1, max_size=8),
       edge_fade=st.one_of(st.just(GraphParams().edge_fade_per_s),
                           st.floats(4.0, 16.0), st.floats(17.0, 100.0)),
       theme_at=st.integers(0, 8), last_edges=st.permutations(("b", "c", "d", "cave")))
@example(steps=[[ActivateConcept("b", "object", 90.0, "set"),
                 ActivateConcept("c", "object", 90.0, "set")], []],
         edge_fade=10.0, theme_at=2, last_edges=("b", "c", "d", "cave"))
@example(steps=[[ActivateConcept("b", "object", 90.0, "set"),
                 ActivateConcept("c", "object", 90.0, "set")], []],
         edge_fade=17.0, theme_at=0, last_edges=("b", "c", "d", "cave"))
def test_evolution_from_first_edges_matches_a_scan_of_every_vertex(steps, edge_fade, theme_at,
                                                                    last_edges):
    """Object `a` takes a bundled theme before step `theme_at`, and at the
    end every other concept gets an edge to it, in a drawn order, so that
    an object checked too early, too late or twice shows.  An inferred
    edge fades out within a few ticks at an edge fade of 4-16/s, so that
    an object checked while no vertex had a theme can get its first edge
    again; from 17/s an inferred edge is made and pruned in one tick, so
    an object can be reported with no edge left.  The two explicit
    examples are these cases."""
    config = EngineConfig(seed=7, graph=GraphParams(edge_fade_per_s=edge_fade))
    themes, model = load_themes(config.theme_path), _CORPUS_MODEL
    steps = [*steps[:theme_at], [AssignTheme("a", 0)], *steps[theme_at:],
             [SetEdge(n, "a", 0.9) for n in last_edges], [], []]
    _run_with_both_evolutions(steps, lambda: conductor.Engine(config, dict(themes), model))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_edgeless_objects_cost_evolution_no_degree_call(monkeypatch):
    engine = make_engine()
    for i in range(10_000):
        engine.queue.put(ActivateConcept(f"o{i}", "object", 10.0, "set"))
    calls = _count_calls(monkeypatch, ConceptGraph, "degree")
    for _ in range(3):
        engine.tick()
    assert len(engine.graph.ids) > 10_000 and not engine.graph.edges
    assert calls == []


def test_hot_objects_without_a_themed_vertex_start_no_search(monkeypatch):
    engine = make_engine()
    for i in range(100):
        engine.queue.put(ActivateConcept(f"o{i}", "object", 90.0, "set"))
    calls = _count_calls(monkeypatch, ConceptGraph, "nearest_themed")
    for _ in range(3):
        engine.tick()
    assert len(engine.graph.edges) == 100 * 99 // 2
    assert calls == []
    # each was checked all the same: a themed neighbour arriving later
    # breeds nothing
    engine.queue.put(AssignTheme("hero", 0))
    engine.queue.put(SetEdge("hero", "o0", 0.9))
    engine.tick()
    assert engine.graph.vertices["o0"].theme is None


def test_hot_objects_beside_an_unloaded_theme_start_no_search(monkeypatch):
    # 63 is a valid theme id that no bundled theme file defines
    engine = make_engine()
    assert 63 not in engine.themes
    for i in range(100):
        engine.queue.put(ActivateConcept(f"o{i}", "object", 90.0, "set"))
    engine.queue.put(AssignTheme("o0", 63))
    calls = _count_calls(monkeypatch, ConceptGraph, "nearest_themed")
    for _ in range(3):
        engine.tick()
    assert len(engine.graph.edges) == 100 * 99 // 2
    assert calls == []
    assert len(engine.themes) == len(make_engine().themes)


def test_nothing_evolves_once_every_theme_id_is_taken(monkeypatch):
    def full_engine():
        engine = make_engine()
        for theme_id in range(THEME_IDS):
            engine.themes.setdefault(theme_id, engine.themes[0])
        return engine

    calls = _count_calls(monkeypatch, conductor, "evolve_theme")
    engine = _run_with_both_evolutions([
        [ActivateConcept("hero", "object", 80.0, "set"), AssignTheme("hero", 0)],
        [SetEdge("hero", "sidekick", 0.9)],
        [],
    ], full_engine, same_rng=False)
    assert calls == []
    assert engine.graph.vertices["sidekick"].theme is None


def test_same_tick_evolutions_follow_vertex_insertion_order():
    world = [ActivateConcept("hero", "object", 80.0, "set"), AssignTheme("hero", 0),
             ActivateConcept("villain", "object", 20.0, "set"), AssignTheme("villain", 1),
             SetEdge("hero", "villain", 0.4)]
    # inserted in non-alphabetical order; all get their first edge together
    newcomers = [ActivateConcept(n, "object", 10.0, "set") for n in ("zulu", "alpha", "mike")]
    edges = [SetEdge("mike", "hero", 0.3), SetEdge("alpha", "villain", 0.9),
             SetEdge("hero", "zulu", 0.6)]
    engine = _run_with_both_evolutions([world, newcomers, [], edges])
    themes = [engine.graph.vertices[n].theme for n in ("zulu", "alpha", "mike")]
    assert None not in themes and themes == sorted(themes)


def test_object_themed_by_message_after_creation_never_evolves():
    engine = _run_with_both_evolutions([
        [ActivateConcept("hero", "object", 80.0, "set"), AssignTheme("hero", 0),
         ActivateConcept("guard", "object", 10.0, "set")],
        [],
        [AssignTheme("guard", 5), SetEdge("hero", "guard", 0.9)],
        [],
    ])
    assert engine.graph.vertices["guard"].theme == 5
    assert len(engine.themes) == len(make_engine().themes)


def test_edgeless_object_evolves_on_the_tick_its_first_edge_arrives():
    engine = make_engine()
    engine.queue.put(ActivateConcept("hero", "object", 80.0, "set"))
    engine.queue.put(AssignTheme("hero", 0))
    engine.queue.put(ActivateConcept("sidekick", "object", 10.0, "set"))
    for _ in range(5):
        engine.tick()
        assert engine.graph.vertices["sidekick"].theme is None
    engine.queue.put(SetEdge("hero", "sidekick", 0.9))
    engine.tick()
    assert engine.graph.vertices["sidekick"].theme is not None


def test_object_is_checked_for_evolution_once():
    # the first edge leads to no themed object: no parents, and the object
    # is not checked again when a themed neighbour arrives later
    engine = _run_with_both_evolutions([
        [ActivateConcept("hero", "object", 80.0, "set"), AssignTheme("hero", 0),
         SetEdge("stray", "rock", 0.5)],
        [SetEdge("stray", "hero", 0.9)],
        [],
    ])
    assert engine.graph.vertices["stray"].theme is None
