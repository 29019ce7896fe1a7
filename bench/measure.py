"""Untraced measurement: engine set-up, one replayed session, the paced
deadline schedule and the output checks.

A session is one workload input replayed through `Engine.run` as fast as
it goes, followed by writing the SMF and the cycle log as
`ams replay --out --cycle-log` does.  The only instrumentation is a
perf_counter pair around each `Engine.tick` and `Engine.compose_block`
call, installed on the engine instance, and a `SpeedProbe` sample between
ticks every SPEED_PERIOD_S, whose time the session's wall time leaves
out.  Program functions are looked up
through their modules at call time (as `cli.build_engine`), so the traced
run's wrappers see these calls too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import logging
import math
import random
import resource
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ams import cli, render
from ams.conductor import Engine
from ams.osc_gateway import OscDecodeError, decode_packet
from ams.render import RenderError, Score

from workloads import Workload


SETUP_BUILDS = 8  # per session
SPEED_PERIOD_S = 0.25  # wall time between machine-speed samples in a session
REFERENCE_S = 0.0005  # `reference_work` wall time that defines the reference speed


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def reference_work(rounds: int = 300) -> float:
    """A fixed pure-Python computation that runs no program code: dict
    updates, float arithmetic, tuple building and small sorts, the kind of
    work the engine does.  Its wall time tells how fast the machine runs
    Python at the moment."""
    rng = random.Random(20240501)
    table: dict[int, float] = {}
    items: list[tuple[int, int, int]] = []
    acc = 0.0
    for i in range(rounds):
        k = rng.randrange(4099)
        table[k] = table.get(k, 0.0) * 0.5 + i
        acc += math.sqrt(k + 1.0) * 0.25
        items.append((k % 13, -k, i))
        if len(items) == 24:
            items.sort()
            acc += items[0][1] + sum(t[0] for t in items)
            items = []
    return acc + len(table)


class SpeedProbe:
    """Samples the machine's speed every SPEED_PERIOD_S of wall time, as
    REFERENCE_S over the wall time of `reference_work`, and adds up the
    time the samples took so the session's wall time can leave it out."""

    def __init__(self):
        self.speeds = array("d")
        self.spent_s = 0.0
        self.last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        if start - self.last < SPEED_PERIOD_S:
            return
        reference_work()
        self.last = time.perf_counter()
        self.speeds.append(REFERENCE_S / (self.last - start))
        self.spent_s += self.last - start


def build_times(config, builds: int) -> list[float]:
    """Wall time of `build_engine` (config to ready engine: theme load,
    chord model train or load, construction), `builds` times."""
    times = []
    for _ in range(builds):
        start = time.perf_counter()
        cli.build_engine(config)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# paced schedule


class Work(NamedTuple):
    """One piece of engine work in execution order: released at `due_ms`,
    late when it finishes after `deadline_ms` (None: cannot be late)."""

    due_ms: float
    deadline_ms: float | None
    duration_ms: float


def paced_schedule(work) -> tuple[int, float]:
    """Replay measured durations on the real-time schedule.

    Each piece starts at max(due, previous finish), so one stall delays the
    work queued behind it until the schedule catches up.  Returns (misses,
    largest lag in ms between a piece's due time and its start).
    """
    now = 0.0
    misses = 0
    lag = 0.0
    for due, deadline, duration in work:
        start = max(due, now)
        lag = max(lag, start - due)
        now = start + duration
        if deadline is not None and now > deadline:
            misses += 1
    return misses, lag


def _instrument(engine: Engine, work: list, ticks_ms: array, cycles_ms: array,
                probe: SpeedProbe) -> None:
    """Time every tick and block on this engine instance, and sample the
    machine's speed between ticks.

    Tick k is due at k*tick_ms and late after the next tick is due.  A block
    is due at the tick where `Engine.run` composes it and late after its
    playback start, cycle*block_ms.  Block 0 has no lead-in: playback
    begins once it exists, so it cannot be late.  Work is recorded as plain
    (due, deadline, duration) tuples to keep the timed path cheap.
    """
    tick, compose_block = engine.tick, engine.compose_block
    tick_ms, block_ms = engine.config.tick_ms, engine.block_ms
    clock = time.perf_counter

    def timed_tick():
        probe.sample()
        due = engine.time_ms
        start = clock()
        tick()
        elapsed = (clock() - start) * 1e3
        ticks_ms.append(elapsed)
        work.append((due, due + tick_ms, elapsed))

    def timed_compose_block():
        due, cycle = engine.time_ms, engine.cycle_index
        start = clock()
        record = compose_block()
        elapsed = (clock() - start) * 1e3
        cycles_ms.append(elapsed)
        work.append((due, cycle * block_ms if cycle else None, elapsed))
        return record

    engine.tick = timed_tick
    engine.compose_block = timed_compose_block


# ---------------------------------------------------------------------------
# output checks


def scores_match(expected: Score, parsed: Score) -> bool:
    """The SMF round-trip reproduces the engine's score: tempo, and per
    track its name, channel and notes."""
    if abs(expected.tempo_bpm - parsed.tempo_bpm) > 1e-6 * expected.tempo_bpm:
        return False
    if len(expected.tracks) != len(parsed.tracks):
        return False
    for want, got in zip(expected.tracks, parsed.tracks):
        notes = sorted(want.notes, key=lambda n: (n.onset, n.pitch, n.duration, n.velocity))
        parsed_notes = sorted(got.notes, key=lambda n: (n.onset, n.pitch, n.duration, n.velocity))
        if want.name != got.name or notes != parsed_notes:
            return False
        if notes and want.channel != got.channel:
            return False
    return True


def roundtrip_ok(score: Score, smf: bytes) -> bool:
    """`smf` parses back into `score`."""
    try:
        return scores_match(score, render.read_midi_bytes(smf))
    except (RenderError, IndexError, ValueError):
        return False


class RejectionCounter(logging.Handler):
    """Counts the warnings `Engine.ingest` logs for rejected messages."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("rejecting message"):
            self.count += 1


# ---------------------------------------------------------------------------
# one session


@dataclass
class Session:
    engine_s: float
    wall_s: float
    ticks_ms: array = field(default_factory=lambda: array("d"))
    cycles_ms: array = field(default_factory=lambda: array("d"))
    misses: int = 0  # on the paced schedule; timed sessions only
    scheduled: int = 0  # ticks and blocks on the paced schedule
    lag_ms: float = 0.0
    peak_rss_mb: float = 0.0  # of the process, when the session ended
    speeds: array = field(default_factory=lambda: array("d"))  # SpeedProbe samples
    n_ticks: int = 0
    n_cycles: int = 0
    messages: int = 0
    decoded: int = 0  # messages decoded from datagrams (crowd only)
    rejected: int = 0
    roundtrip_ok: bool = True
    digest: str = ""
    smf_bytes: int = 0
    notes: int = 0
    engine: Engine | None = None

    @property
    def realtime_factor(self) -> float:
        return self.engine_s / self.wall_s

    @property
    def ops(self) -> int:
        """Input messages, ticks, cycles and the final score."""
        return self.messages + self.n_ticks + self.n_cycles + 1


def datagram_feed(engine: Engine, datagrams, decode=decode_packet):
    """message_feed for Engine.run that takes OSC datagrams the way the live
    receiver does: decode, then `MessageQueue.put_many`.  Returns the feed
    and a one-element list holding the number of messages decoded."""
    index = 0
    decoded = [0]

    def feed(t_ms: int) -> list:
        nonlocal index
        while index < len(datagrams) and datagrams[index][0] <= t_ms:
            try:
                msgs = decode(datagrams[index][1])
            except OscDecodeError:
                msgs = []
            decoded[0] += len(msgs)
            engine.queue.put_many(msgs)
            index += 1
        return []

    return feed, decoded


def run_session(workload: Workload, outdir: Path, rejections: RejectionCounter,
                timed: bool = True, decode=decode_packet, keep_engine: bool = False) -> Session:
    """Build an engine (not timed), replay the workload, write the SMF and
    the cycle log, then check the score's round-trip."""
    engine = cli.build_engine(workload.config)
    session = Session(engine_s=workload.duration_ms / 1000.0, wall_s=0.0)
    work: list = []
    probe = SpeedProbe()
    if timed:
        _instrument(engine, work, session.ticks_ms, session.cycles_ms, probe)
    decoded = None
    if workload.datagrams:
        feed, decoded = datagram_feed(engine, workload.datagrams, decode)
    else:
        feed = cli.trace_feed(workload.trace)
    paths = argparse.Namespace(out=str(outdir / "score.mid"),
                               cycle_log=str(outdir / "cycles.jsonl"), score_log=None)
    rejected_before = rejections.count
    gc.collect()

    start = probe.last = time.perf_counter()
    engine.run(workload.duration_ms, message_feed=feed)
    cli.write_outputs(engine, paths)
    session.wall_s = time.perf_counter() - start - probe.spent_s
    session.speeds = probe.speeds

    session.misses, session.lag_ms = paced_schedule(work)
    session.scheduled = len(work)
    smf = Path(paths.out).read_bytes()
    cycle_log = Path(paths.cycle_log).read_bytes()
    session.digest = hashlib.sha256(smf + cycle_log).hexdigest()
    session.roundtrip_ok = roundtrip_ok(engine.score(), smf)
    session.smf_bytes = len(smf)
    session.notes = sum(len(t.notes) for t in engine.score().tracks)
    session.messages = workload.messages_sent
    if decoded is not None:
        session.decoded = decoded[0]
        session.rejected = workload.messages_sent - decoded[0]
    session.rejected += rejections.count - rejected_before
    session.n_ticks = engine.time_ms // engine.config.tick_ms
    session.n_cycles = engine.cycle_index
    session.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if keep_engine:
        session.engine = engine
    return session


def run_sessions(workload: Workload, outdir: Path, rejections: RejectionCounter,
                 seconds: float, setup: list[float], **kwargs) -> list[Session]:
    """Whole sessions for about `seconds`: at least one, and no further one
    once the last would overrun the budget.  SETUP_BUILDS timed engine
    builds precede each session, so set-up is sampled across the run; their
    times are appended to `setup`."""
    sessions: list[Session] = []
    cli.build_engine(workload.config)  # warm-up, discarded
    start = time.perf_counter()
    while True:
        setup.extend(build_times(workload.config, SETUP_BUILDS))
        sessions.append(run_session(workload, outdir, rejections, **kwargs))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(sessions) > seconds:
            return sessions
