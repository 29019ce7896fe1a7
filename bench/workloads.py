"""Seeded inputs for the three benchmark workloads.

Each workload is a pure function of its seed: a config file (plus a chord
model file for `ensemble`) written into a work directory, and one session
of input that ends at a fixed engine time.  `session` and `ensemble` are
trace replays; `crowd` is a list of OSC datagrams that the measured run
decodes and queues as the live server does.

Why these three:

- session: the shipped use, the bundled traces replayed back to back with
  the demo calibration.  Composition-bound (chord prediction leads).
- crowd: about 1k object concepts and 5k explicit edges, so the graph tick
  is the dominant cost.  The only workload through the OSC codec.
- ensemble: six agents in pop style with exploration on, so placement
  search, the resource matrix and the XCS genetic algorithm all do more
  work per cycle than in `session`.  Not in BENCHMARK.json (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ams.cli import load_chord_model, parse_trace
from ams.config import ASSET_ROOT, EngineConfig, load_config
from ams.osc_gateway import (
    AFFECT_CATEGORIES,
    ActivateConcept,
    AssignTheme,
    GameMessage,
    SetAffect,
    SetEdge,
    encode_bundle,
    message_to_osc,
)

WORKLOADS = ("session", "crowd", "ensemble")

SESSION_TRACES = ("happiness_plateau", "mixed_session", "sadness_plateau", "threat_ramp")
ENSEMBLE_LOOPS = 4

# crowd shape.  The world loads first: themes, then edges among themed
# objects.  Unthemed objects then enter one at a time over the rest of the
# session, each with its edges, and evolve a theme as they arrive (an
# unthemed object caught in a scene before it enters evolves then).  Hot
# scene objects sit just above the co-activation threshold (50) and fade
# below it (0.1 per second) at least 5 s before the next scene.  Explicit
# weights stay at or below 0.8, so one-hop spread from a hot object
# (51.5 * 0.8) and over the previous scene's inferred edges (51.5 * 0.95
# after the gap) stays below 50: the hot set is the scene, not a cascade.
CROWD_OBJECTS = 1000
CROWD_EDGES = 5000
CROWD_THEMED_SHARE = 0.925
CROWD_THEMES_END_MS = 500
CROWD_EDGES_END_MS = 2_000
CROWD_ENTRIES_END_MS = 29_000
CROWD_SCENES_START_MS = 5_000
CROWD_SCENE_PERIOD_MS = 20_000
CROWD_SCENE_SIZE = 20
CROWD_SCENE_LEVEL = (50.5, 51.5)
CROWD_EDGE_WEIGHT = (0.05, 0.8)
CROWD_BACKGROUND_LEVEL = (5.0, 40.0)
CROWD_DURATION_MS = 30_000
CROWD_TEMPO_BPM = 600           # 0.8 s blocks: >= 100 cycles in a run
BUNDLE_MESSAGES = 20


@dataclass
class Workload:
    """Inputs of one workload and seed, ready to drive an engine."""

    name: str
    seed: int
    config: EngineConfig
    duration_ms: int
    trace: list[tuple[int, GameMessage]] = field(default_factory=list)
    datagrams: list[tuple[int, bytes]] = field(default_factory=list)
    messages_sent: int = 0
    files: list[Path] = field(default_factory=list)  # config, trace, model

    @property
    def input_digest(self) -> str:
        """sha256 of everything the engine is given: files and datagrams."""
        h = hashlib.sha256()
        for path in self.files:
            h.update(path.name.encode() + path.read_bytes())
        for t_ms, data in self.datagrams:
            h.update(t_ms.to_bytes(8, "big") + data)
        return h.hexdigest()


def _trace_line(t_ms: int, obj: dict) -> str:
    return json.dumps({"t_ms": t_ms, **obj}, sort_keys=True)


def _concatenate_traces(names, block_ms: float) -> tuple[str, int]:
    """Bundled traces back to back.  Each occupies what `ams replay` would
    run for it: its last event plus two blocks."""
    lines: list[str] = []
    offset = 0
    for name in names:
        text = (ASSET_ROOT / "traces" / f"{name}.jsonl").read_text()
        last = 0
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            obj = json.loads(raw)
            last = int(obj.pop("t_ms"))
            lines.append(_trace_line(offset + last, obj))
        offset += last + int(2 * block_ms)
    return "\n".join(lines) + "\n", offset


def _write_config(workdir: Path, lines: list[str]) -> EngineConfig:
    path = workdir / "engine.cfg"
    path.write_text("\n".join(lines) + "\n")
    return load_config(path)


def _calibration(seed: int) -> list[str]:
    """The demo calibration (open reward gate), with the benchmark's seed."""
    kept = [line for line in (ASSET_ROOT / "demo.cfg").read_text().splitlines()
            if line.strip() and not line.startswith("#")
            and not line.startswith("engine.seed")]
    return kept + [f"engine.seed = {seed}"]


def make_session(seed: int, workdir: Path) -> Workload:
    config = _write_config(workdir, _calibration(seed))
    block_ms = 2 * config.beats_per_measure * 60_000.0 / config.tempo_bpm
    text, duration = _concatenate_traces(SESSION_TRACES, block_ms)
    (workdir / "session.jsonl").write_text(text)
    trace = parse_trace(text, "session.jsonl")
    return Workload("session", seed, config, duration, trace=trace,
                    messages_sent=len(trace),
                    files=[workdir / "engine.cfg", workdir / "session.jsonl"])


def make_ensemble(seed: int, workdir: Path) -> Workload:
    model_path = workdir / "chords.model"
    load_chord_model(EngineConfig()).save(model_path)
    lines = [line for line in _calibration(seed)
             if not line.startswith(("engine.style", "engine.melody_agents",
                                     "engine.explore_prob"))]
    config = _write_config(workdir, lines + [
        "engine.style = pop",
        "engine.melody_agents = 6",
        "engine.explore_prob = 0.1",
        f"engine.chord_model = {model_path.name}",
    ])
    block_ms = 2 * config.beats_per_measure * 60_000.0 / config.tempo_bpm
    text, duration = _concatenate_traces(("mixed_session",) * ENSEMBLE_LOOPS, block_ms)
    (workdir / "ensemble.jsonl").write_text(text)
    trace = parse_trace(text, "ensemble.jsonl")
    return Workload("ensemble", seed, config, duration, trace=trace,
                    messages_sent=len(trace),
                    files=[workdir / "engine.cfg", workdir / "ensemble.jsonl", model_path])


def _crowd_messages(rng: random.Random) -> list[tuple[int, GameMessage]]:
    """Timed game messages of one crowd session, in time order."""
    names = [f"obj{i:04d}" for i in range(CROWD_OBJECTS)]
    themed = sorted(rng.sample(names, int(CROWD_THEMED_SHARE * CROWD_OBJECTS)))
    entering: dict[str, list[GameMessage]] = {n: [] for n in sorted(set(names) - set(themed))}
    # every unthemed object gets at least one edge; none joins two of them
    pairs = {tuple(sorted((n, rng.choice(themed)))) for n in entering}
    while len(pairs) < CROWD_EDGES:
        a, b = rng.sample(names, 2)
        if a not in entering or b not in entering:
            pairs.add((a, b) if a < b else (b, a))
    among_themed: list[GameMessage] = []
    for a, b in sorted(pairs):
        edge = SetEdge(a, b, round(rng.uniform(*CROWD_EDGE_WEIGHT), 3))
        owner = a if a in entering else b if b in entering else None
        (entering[owner] if owner else among_themed).append(edge)
    unthemed = sorted(entering)
    rng.shuffle(unthemed)
    rng.shuffle(among_themed)

    timed: list[tuple[int, GameMessage]] = []

    def spread(msgs: list[GameMessage], start: int, end: int) -> None:
        for i, msg in enumerate(msgs):
            timed.append((start + (end - start) * i // max(1, len(msgs)), msg))

    spread([AssignTheme(n, rng.randrange(8)) for n in themed], 0, CROWD_THEMES_END_MS)
    spread(among_themed, CROWD_THEMES_END_MS, CROWD_EDGES_END_MS)
    entry_ms = (CROWD_ENTRIES_END_MS - CROWD_EDGES_END_MS) // len(unthemed)
    for i, name in enumerate(unthemed):
        timed.extend((CROWD_EDGES_END_MS + i * entry_ms, msg) for msg in entering[name])

    # steady background: one low activation per tick, an affect every second
    for t in range(0, CROWD_DURATION_MS, 30):
        timed.append((t, ActivateConcept(rng.choice(names), "object",
                                         round(rng.uniform(*CROWD_BACKGROUND_LEVEL), 2),
                                         "set")))
        if t % 1000 == 0:
            timed.append((t, SetAffect(rng.choice(AFFECT_CATEGORIES),
                                       round(rng.uniform(0.0, 100.0), 2), "set")))

    # scene changes: a burst that makes a fresh hot set and resets affect
    for t in range(CROWD_SCENES_START_MS, CROWD_DURATION_MS, CROWD_SCENE_PERIOD_MS):
        scene = rng.sample(names, CROWD_SCENE_SIZE)
        burst: list[GameMessage] = [
            ActivateConcept(n, "object", round(rng.uniform(*CROWD_SCENE_LEVEL), 2), "set")
            for n in scene]
        burst += [SetAffect(c, round(rng.uniform(0.0, 100.0), 2), "set")
                  for c in AFFECT_CATEGORIES]
        burst += [ActivateConcept(rng.choice(names), "object",
                                  round(rng.uniform(*CROWD_BACKGROUND_LEVEL), 2), "set")
                  for _ in range(4 * CROWD_SCENE_SIZE)]
        timed.extend((t, msg) for msg in burst)

    timed.sort(key=lambda item: item[0])  # stable: same-time order is kept
    return timed


def _datagrams(timed: list[tuple[int, GameMessage]]) -> list[tuple[int, bytes]]:
    """Messages due at the same tick travel in bundles of BUNDLE_MESSAGES;
    a lone message goes as a plain OSC message."""
    out: list[tuple[int, bytes]] = []
    i = 0
    while i < len(timed):
        t = timed[i][0]
        j = i
        while j < len(timed) and timed[j][0] == t and j - i < BUNDLE_MESSAGES:
            j += 1
        encoded = [message_to_osc(msg) for _, msg in timed[i:j]]
        out.append((t, encoded[0] if len(encoded) == 1 else encode_bundle(encoded)))
        i = j
    return out


def make_crowd(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    config = _write_config(workdir, [
        line for line in _calibration(seed)
        if not line.startswith("engine.tempo_bpm")
    ] + [f"engine.tempo_bpm = {CROWD_TEMPO_BPM}"])
    timed = _crowd_messages(rng)
    return Workload("crowd", seed, config, CROWD_DURATION_MS,
                    datagrams=_datagrams(timed), messages_sent=len(timed),
                    files=[workdir / "engine.cfg"])


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return {"session": make_session, "crowd": make_crowd,
            "ensemble": make_ensemble}[name](seed, workdir)
