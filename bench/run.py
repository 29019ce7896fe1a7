"""Benchmark of the adaptive music engine.

    python3 bench/run.py --workload session|crowd|ensemble --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: the engine is imported from `src/`
there, and inputs, outputs and results go to `.bench_out/`.  The seed
makes the workload's inputs (trace, datagrams, config); the engine sees
only those.  Whole sessions are replayed until `--seconds` is used up
(at least one).  BENCHMARK.json lists `session` and `crowd`; `ensemble`
runs the same way by hand.  Two workloads leave room for longer runs.

`--trace 0` prints the end-to-end metrics: engine set-up time, real-time
factor, cycle (two-measure block) p50/p90 and tick p50/p99 latency, peak
memory and the deadline-miss share of the paced schedule.  Times are
given at a reference machine speed: each is scaled by `machine_speed`,
the run's mean of `measure.SpeedProbe` samples, which time a fixed
Python computation that runs no program code every quarter second during
the sessions.  On a shared VM the machine runs up to ~1.8x faster or
slower for seconds to minutes at a time, and the unscaled real-time
factor of the same code moved by that much between runs; scaled, it
moved by a few percent.  `machine_speed` is printed: a time as measured
is the printed one over it (the real-time factor: times it).  The result
line carries those declared in BENCHMARK.json; the latency medians, the
tick tail and the miss share are printed only, because on a shared 2-CPU
VM they spread by more than the largest bound a metric may have.
`--trace 1` spends half the time untraced and half traced, and prints
the per-layer metrics named in `bench/layers.json`, which also records
the end-to-end metric and workload each one is predicted to move.

Every session's score must survive an SMF round-trip, and every session
of one workload and seed must give the same SMF and cycle-log bytes, in
the run and across runs in the checkout (`.bench_out/digests.json`); the
exit code is 1 when either check fails.  For seeds 0-9 the bytes are
also compared with `bench/reference_digests.json` (reported, not
checked: an intended output change is not an error).  The last line of
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  An op is an input message, a tick, a cycle or a final score;
it fails when a message is rejected or a score fails its round-trip.

Deadline misses are reported as `deadline_miss_frac`, not as failed ops:
on every workload a composition cycle now and then outlasts the 30 ms
tick period (a melody-led cycle that walks all chord ranks) and makes the
tick behind it late, and how often depends on the machine's load, so as
failures they would make the failure count noise.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def locate_program() -> None:
    """Import the engine from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ams" / "__init__.py").is_file():
        sys.exit(f"bench: no engine sources at {src / 'ams'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import ams
    if not Path(ams.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported ams from {ams.__file__}, not from {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("session", "crowd", "ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference(workload: str, seed: int, input_digest: str, digest: str) -> str:
    """How the output compares with bench/reference_digests.json, recorded
    for a few seeds so a speedup can show it left the bytes unchanged."""
    known = json.loads((ROOT / "bench" / "reference_digests.json").read_text())
    entry = known.get(f"{workload}/{seed}")
    if entry is None:
        return "no reference for this seed"
    if entry["input"] != input_digest:
        return "input differs from the reference's"
    return "matches" if entry["output"] == digest else "DIFFERS"


def check_digests(key: str, digests: set[str]) -> bool:
    """All sessions agree, and agree with earlier runs on the same input."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    consistent = len(digests) == 1 and known.get(key, next(iter(digests))) in digests
    if consistent and key not in known:
        known[key] = next(iter(digests))
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)
    return consistent


def realtime_factor(sessions) -> float:
    """Engine seconds per wall second over all the sessions."""
    return sum(s.engine_s for s in sessions) / sum(s.wall_s for s in sessions)


def machine_speed(sessions) -> float:
    """The machine's mean speed during the sessions, as a share of the
    reference speed (`measure.SpeedProbe`)."""
    return statistics.fmean(v for s in sessions for v in s.speeds)


def end_to_end(sessions, setup_s: float, miss_frac: float) -> dict[str, tuple[float, str]]:
    """Times at the reference machine speed; the miss share as measured."""
    from measure import percentile
    speed = machine_speed(sessions)
    ticks = [t for s in sessions for t in s.ticks_ms]
    cycles = [c for s in sessions for c in s.cycles_ms]
    return {
        "setup_s": (setup_s * speed, "s"),
        "realtime_factor": (realtime_factor(sessions) / speed, "s/s"),
        "cycle_ms_p50": (percentile(cycles, 50) * speed, "ms"),
        "cycle_ms_p90": (percentile(cycles, 90) * speed, "ms"),
        "tick_ms_p50": (percentile(ticks, 50) * speed, "ms"),
        "tick_ms_p99": (percentile(ticks, 99) * speed, "ms"),
        # after the first session: later ones only add the benchmark's own
        # timing arrays, more of them the faster the machine runs
        "peak_rss_mb": (sessions[0].peak_rss_mb, "MiB"),
        "deadline_miss_frac": (miss_frac, "ratio"),
        "machine_speed": (speed, "ratio"),
    }


def declared(kind: str) -> dict[str, str]:
    """Name to unit of the `end_to_end` or `per_layer` metrics in
    BENCHMARK.json, the metrics the result line carries."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_program()
    import numpy
    from measure import RejectionCounter, run_sessions
    from workloads import make_workload

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0]}
    workdir = OUT / f"{args.workload}-{args.seed}"
    workload = make_workload(args.workload, args.seed, workdir)
    rejections = RejectionCounter()
    logging.getLogger("ams").addHandler(rejections)

    setup: list[float] = []
    if args.trace == 0:
        sessions = run_sessions(workload, workdir, rejections, args.seconds, setup)
        measured = sessions
    else:
        from tracing import Tracer, layer_metrics
        untraced = run_sessions(workload, workdir, rejections, args.seconds / 2, setup)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_sessions(workload, workdir, rejections, args.seconds / 2, [],
                                  timed=False, decode=tracer.decoder(), keep_engine=True)
        finally:
            tracer.uninstall()
        tracer.write(workdir / "spans.jsonl")
        sessions = untraced + traced
        measured = untraced

    misses = sum(s.misses for s in measured)
    miss_frac = misses / sum(s.scheduled for s in measured)
    lag_ms = max(s.lag_ms for s in measured)
    roundtrip_failures = sum(not s.roundtrip_ok for s in sessions)
    digests = {s.digest for s in sessions}
    input_key = f"{args.workload}/{args.seed}/{workload.input_digest}"
    correct = roundtrip_failures == 0 and check_digests(input_key, digests)
    attempted = sum(s.ops for s in sessions)
    failed = sum(s.rejected for s in sessions) + roundtrip_failures

    if args.trace == 0:
        shown = end_to_end(sessions, statistics.median(setup), miss_frac)
        metrics = {name: shown[name] for name in declared("end_to_end")}
    else:
        values = layer_metrics(tracer, traced, sum(s.wall_s for s in traced))
        values["deadline_miss_frac"] = miss_frac
        values["conductor.lag_ms_max"] = lag_ms
        values["trace_overhead_frac"] = 1.0 - realtime_factor(traced) / realtime_factor(untraced)
        metrics = {name: (values[name], unit) for name, unit in declared("per_layer").items()}
        shown = metrics
    env["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"env {json.dumps(env, sort_keys=True)}")
    versus = reference(args.workload, args.seed, workload.input_digest, sorted(digests)[0])
    print(f"{args.workload} seed {args.seed}: {len(sessions)} sessions of "
          f"{workload.duration_ms / 1000:.0f} engine s, output sha256 {sorted(digests)[0]} "
          f"(reference: {versus})")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  ops attempted {attempted}, failed {failed} ({misses} deadline misses, "
          f"{roundtrip_failures} round-trip failures)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, input=input_key, digests=sorted(digests),
                        reference=versus, printed={k: v for k, (v, _) in shown.items()}),
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
