"""Traced run: spans around the calls into each layer, and the per-layer
metrics computed from them.

The wrappers are installed from here on the program's classes and modules
at run time; the program itself is unchanged.  Functions the conductor
imports by name are wrapped where the conductor looks them up, and
`ResourceMatrix` methods on the class, because the melody-led path
replaces `engine.matrix` with a copy.  A span is (name, start, end,
parent, unit), where the unit is the tick or cycle it belongs to.  A
layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from ams import cli, conductor, render
from ams.chord_model import ChordSequenceModel
from ams.context_graph import CO_ACTIVATION_THRESHOLD, ConceptGraph, VertexKind
from ams.conductor import Engine
from ams.harmonic_context import TICKS_PER_CELL, ResourceMatrix
from ams.melody import TRANSPOSITION_LIMIT, MelodyAgent
from ams.osc_gateway import MessageQueue, decode_packet
from ams.xcs import XcsPopulation

from measure import percentile

LAYERS = ("osc", "graph", "chord", "matrix", "xcs", "melody", "percussion",
          "conductor", "render")

# (owner, attribute, span name); the layer is the name's first part
SPANS = (
    (MessageQueue, "put_many", "osc.put_many"),
    (ConceptGraph, "tick", "graph.tick"),
    (ConceptGraph, "apply_message", "graph.apply"),
    (ConceptGraph, "affect_snapshot", "graph.query"),
    (ConceptGraph, "dominant_theme", "graph.query"),
    (ConceptGraph, "nearest_themed", "graph.query"),
    (cli, "load_chord_model", "chord.setup"),
    (ChordSequenceModel, "next_chord", "chord.next_chord"),
    (ResourceMatrix, "extend", "matrix.extend"),
    (ResourceMatrix, "copy", "matrix.copy"),
    (ResourceMatrix, "consume", "matrix.consume"),
    (ResourceMatrix, "fitness_by_transposition", "matrix.fitness"),
    (XcsPopulation, "match_set", "xcs.match"),
    (XcsPopulation, "select_action", "xcs.select"),
    (XcsPopulation, "update", "xcs.update"),
    (MelodyAgent, "decide", "melody.decide"),
    (MelodyAgent, "propose", "melody.propose"),
    (MelodyAgent, "search_placement", "melody.search"),
    (conductor, "apply_operator", "melody.operator"),
    (conductor, "placed_fragment", "melody.placed"),
    (conductor, "realize_reward", "melody.reward"),
    (conductor, "evolve_theme", "melody.evolve"),
    (conductor, "generate_percussion", "percussion.generate"),
    (Engine, "run", "conductor.run"),
    (Engine, "tick", "conductor.tick"),
    (Engine, "compose_block", "conductor.cycle"),
    (Engine, "composition_cycle", "conductor.compose"),
    (cli, "write_outputs", "render.write_outputs"),
    (render, "score_to_midi_bytes", "render.encode"),
    (render, "read_midi_bytes", "render.parse"),
)

HOT_SAMPLE_TICKS = 10  # counting hot vertices is O(V); sample it


class Tracer:
    """In-memory span recorder plus the counters kept at the same
    boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, unit]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.searches: list[tuple] = []  # (fragment, region cells, constraint, found)
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, unit_of=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            unit = unit_of(args) if unit_of else (spans[parent][4] if parent >= 0 else None)
            span = [name, 0.0, 0.0, parent, unit]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, fn, key_of):
        counts = self.counts

        def counted(*args, **kwargs):
            key = key_of(args, kwargs)
            if key:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # -- after-hooks, run outside the span --------------------------------

    def _after_put_many(self, args, _result):
        self.maxima["queue_depth"] = max(self.maxima["queue_depth"], len(args[0]))

    def _after_graph_tick(self, args, _result):
        graph = args[0]
        self.maxima["vertices"] = max(self.maxima["vertices"], len(graph.vertices))
        self.maxima["edges"] = max(self.maxima["edges"], len(graph.edges))
        self.counts["graph_ticks"] += 1
        if self.counts["graph_ticks"] % HOT_SAMPLE_TICKS == 0:
            hot = sum(1 for v in graph.vertices.values()
                      if v.activation > CO_ACTIVATION_THRESHOLD
                      and v.kind is not VertexKind.AFFECT)
            self.maxima["hot"] = max(self.maxima["hot"], hot)

    def _after_search(self, args, result):
        _agent, fragment, matrix, _style, _n_agents, constraint = args
        self.searches.append((fragment, matrix.region_cells, constraint, result is not None))

    def _insert_key(self, _args, _kwargs):
        top = self.spans[self.stack[-1]][0] if self.stack else ""
        return {"xcs.match": "covered", "xcs.update": "ga_inserts"}.get(top)

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary in SPANS and the counters."""
        units = {
            "conductor.tick": lambda args: ("tick", args[0].time_ms // args[0].config.tick_ms),
            "conductor.cycle": lambda args: ("cycle", args[0].cycle_index),
        }
        afters = {
            "osc.put_many": self._after_put_many,
            "graph.tick": self._after_graph_tick,
            "melody.search": self._after_search,
        }
        for owner, attribute, name in SPANS:
            original = getattr(owner, attribute)
            self._patch(owner, attribute, self.wrap(name, original, units.get(name),
                                                    afters.get(name)))
        self._patch(ConceptGraph, "_set_edge", self._count(
            ConceptGraph._set_edge,
            lambda args, kwargs: "edges_inferred" if not kwargs.get("explicit", True) else None))
        self._patch(ConceptGraph, "_remove_edge", self._count(
            ConceptGraph._remove_edge, lambda args, kwargs: "edges_pruned"))
        self._patch(XcsPopulation, "_insert", self._count(XcsPopulation._insert, self._insert_key))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def decoder(self):
        """decode_packet as the benchmark's datagram feed calls it, traced.
        The module global is left alone so bundle recursion is one span."""
        return self.wrap("osc.decode", decode_packet)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end (s), parent index, unit."""
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent,
                                     list(unit) if unit else None]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def placements_evaluated(fragment, region_cells: int, constraint) -> int:
    """(shift, transposition) pairs `MelodyAgent.search_placement` scores:
    every time shift that fits the region, times every transposition within
    the limit that the range constraint allows."""
    if not fragment.notes:
        return 0
    span_cells = -(-fragment.span_ticks // TICKS_PER_CELL)
    shifts = region_cells - span_cells + 1
    if shifts <= 0:
        return 0
    lo = min(n.pitch for n in fragment.notes)
    hi = max(n.pitch for n in fragment.notes)
    allowed = sum(1 for t in range(-TRANSPOSITION_LIMIT, TRANSPOSITION_LIMIT + 1)
                  if constraint.allows(lo + t, hi + t))
    return shifts * allowed


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _unit in spans]
    for _name, start, end, parent, _unit in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, sessions, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced sessions (see layers.json)."""
    spans = tracer.spans
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    unit_self: dict[tuple, float] = defaultdict(float)
    for (name, start, end, _parent, unit), self_s in zip(spans, own):
        durations[name].append(end - start)
        layer = name.split(".", 1)[0]
        if name not in ("chord.setup", "render.parse"):  # outside the sessions
            layer_self[layer] += self_s
        if layer == "conductor" and unit is not None:
            unit_self[unit] += self_s

    def busy(name: str) -> float:
        return sum(durations[name])

    def us(name: str, q: float) -> float:
        return percentile(durations[name], q) * 1e6

    cycles = sum(s.n_cycles for s in sessions)
    osc = bool(durations["osc.decode"])  # only crowd sends datagrams
    agents = [r for s in sessions for rec in s.engine.cycle_log for r in rec["agents"]]
    abstained = Counter(r["reason"] for r in agents if r["abstained"])
    leaders = Counter(rec["leader"] for s in sessions for rec in s.engine.cycle_log)
    found = sum(1 for *_, ok in tracer.searches if ok)
    last = sessions[-1]
    populations = [agent.population for agent in last.engine.agents]
    cycle_self = [v for k, v in unit_self.items() if k[0] == "cycle"]
    tick_self = [v for k, v in unit_self.items() if k[0] == "tick"]

    metrics = {
        "osc.datagrams": len(durations["osc.decode"]),
        "osc.messages_decoded": sum(s.decoded for s in sessions),
        "osc.messages_rejected": sum(s.messages - s.decoded for s in sessions) if osc else 0,
        "osc.decode_us_p50": us("osc.decode", 50),
        "osc.decode_busy_s": busy("osc.decode"),
        "osc.queue_depth_max": tracer.maxima["queue_depth"],
        "osc.queue_dropped": sum(s.engine.queue.dropped for s in sessions),
        "graph.tick_us_p50": us("graph.tick", 50),
        "graph.tick_us_p99": us("graph.tick", 99),
        "graph.tick_busy_s": busy("graph.tick"),
        "graph.apply_busy_s": busy("graph.apply"),
        "graph.query_busy_s": busy("graph.query"),
        "graph.vertices_max": tracer.maxima["vertices"],
        "graph.edges_max": tracer.maxima["edges"],
        "graph.hot_max": tracer.maxima["hot"],
        "graph.edges_inferred": tracer.counts["edges_inferred"],
        "graph.edges_pruned": tracer.counts["edges_pruned"],
        "chord.next_chord_calls": len(durations["chord.next_chord"]),
        "chord.calls_per_cycle": len(durations["chord.next_chord"]) / cycles,
        "chord.next_chord_us_p50": us("chord.next_chord", 50),
        "chord.busy_s": busy("chord.next_chord"),
        "chord.setup_s": percentile(durations["chord.setup"], 50),
        "matrix.extend_calls": len(durations["matrix.extend"]),
        "matrix.copy_calls": len(durations["matrix.copy"]),
        "matrix.consume_calls": len(durations["matrix.consume"]),
        "matrix.fitness_calls": len(durations["matrix.fitness"]),
        "matrix.extend_busy_s": busy("matrix.extend"),
        "matrix.consume_busy_s": busy("matrix.consume"),
        "matrix.fitness_busy_s": busy("matrix.fitness"),
        "xcs.match_us_p50": us("xcs.match", 50),
        "xcs.match_busy_s": busy("xcs.match"),
        "xcs.update_busy_s": busy("xcs.update"),
        "xcs.population_macro": sum(len(p.classifiers) for p in populations),
        "xcs.population_micro": sum(p.total_numerosity for p in populations),
        "xcs.covered": tracer.counts["covered"],
        "xcs.ga_inserts": tracer.counts["ga_inserts"],
        "melody.search_calls": len(tracer.searches),
        "melody.search_us_p50": us("melody.search", 50),
        "melody.search_us_p90": us("melody.search", 90),
        "melody.search_busy_s": busy("melody.search"),
        "melody.placements_evaluated": sum(
            placements_evaluated(frag, cells, constraint)
            for frag, cells, constraint, _ok in tracer.searches),
        "melody.search_found_ratio": found / len(tracer.searches) if tracer.searches else 0.0,
        "melody.abstain_gate": abstained["gate"],
        "melody.abstain_operator": abstained["operator"],
        "melody.abstain_search": abstained["search"],
        "melody.leader_melody_frac": leaders["melody"] / cycles,
        "melody.rank_trials_per_cycle": len(durations["matrix.copy"]) / cycles,
        "melody.evolved_themes": len(durations["melody.evolve"]),
        "percussion.busy_s": busy("percussion.generate"),
        "conductor.cycle_self_ms_p50": percentile(cycle_self, 50) * 1e3,
        "conductor.tick_self_us_p50": percentile(tick_self, 50) * 1e6,
        "render.encode_ms": percentile(durations["render.encode"], 50) * 1e3,
        "render.parse_ms": percentile(durations["render.parse"], 50) * 1e3,
        "render.smf_bytes": last.smf_bytes,
        "render.notes": last.notes,
        "trace_accounted_frac": sum(layer_self.values()) / traced_wall_s,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / traced_wall_s
    return metrics
