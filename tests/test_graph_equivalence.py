"""The array-backed ConceptGraph against a dict-of-objects reference.

`ReferenceGraph` is the scalar implementation the array graph replaced:
one Python object per vertex and edge, loops over all of them per tick,
and a full Dijkstra per `nearest_themed`.  Both must agree exactly, down
to the sign of zero, after any sequence of messages and ticks.
"""

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ams.context_graph import (
    CO_ACTIVATION_THRESHOLD,
    EDGE_REMOVAL_THRESHOLD,
    AffectSnapshot,
    ConceptGraph,
    GraphError,
    GraphParams,
    VertexKind,
)
from ams.osc_gateway import (
    AFFECT_CATEGORIES,
    ActivateConcept,
    AssignTheme,
    SetAffect,
    SetEdge,
)


@dataclass
class _Vertex:
    id: str
    kind: VertexKind
    activation: float = 0.0
    theme: int | None = None
    last_activated: int = 0


@dataclass
class _Edge:
    a: str
    b: str
    weight: float
    explicit: bool


def _edge_key(a, b):
    return (a, b) if a <= b else (b, a)


class ReferenceGraph:
    """The scalar spreading-activation graph, kept as the reference."""

    def __init__(self, params=None):
        self.params = params or GraphParams()
        self.clock = 0
        self.vertices = {}
        self.edges = {}
        self._adjacency = {}
        self.pruned = 0
        self.boosted = 0
        self.saturated = 0  # boosts that min(1.0, ...) cut back to 1.0
        self.taken = Counter()  # (from, to) -> offers that raised an activation
        # offers of -0.0 to a vertex at 0.0, which the arrays make and the
        # scalar rule skips
        self.negative_zero_offers = 0
        for category in AFFECT_CATEGORIES:
            self._add_vertex(_Vertex(category, VertexKind.AFFECT))

    def _add_vertex(self, vertex):
        self.vertices[vertex.id] = vertex
        self._adjacency[vertex.id] = set()

    def _resolve(self, name):
        if name in self.vertices:
            return name
        lowered = name.lower()
        if lowered in AFFECT_CATEGORIES:
            return lowered
        return None

    def _ensure_concept(self, name, kind):
        resolved = self._resolve(name)
        if resolved is None:
            vertex = _Vertex(name, kind)
            self._add_vertex(vertex)
            return vertex
        return self.vertices[resolved]

    def _set_edge(self, a, b, weight, explicit):
        va, vb = self.vertices[a], self.vertices[b]
        if va.kind is VertexKind.AFFECT and vb.kind is VertexKind.AFFECT:
            raise GraphError("edges never form between affect vertices")
        key = _edge_key(a, b)
        self.edges[key] = _Edge(key[0], key[1], weight, explicit)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def _remove_edge(self, key):
        del self.edges[key]
        self._adjacency[key[0]].discard(key[1])
        self._adjacency[key[1]].discard(key[0])

    def degree(self, concept):
        return len(self._adjacency.get(concept, ()))

    def apply_message(self, msg):
        if isinstance(msg, ActivateConcept):
            kind = VertexKind.OBJECT if msg.kind == "object" else VertexKind.ENVIRONMENT
            self._activate(self._ensure_concept(msg.name, kind), msg.level, msg.mode)
        elif isinstance(msg, SetAffect):
            if msg.category not in AFFECT_CATEGORIES:
                raise GraphError(f"unknown affect category {msg.category!r}")
            self._activate(self.vertices[msg.category], msg.level, msg.mode)
        elif isinstance(msg, SetEdge):
            if not 0.0 <= msg.weight <= 1.0:
                raise GraphError(f"edge weight {msg.weight} outside [0, 1]")
            resolved = self._resolve(msg.a)
            if msg.a == msg.b or (resolved is not None and resolved == self._resolve(msg.b)):
                raise GraphError(f"self-loop on {msg.a!r}")
            a = self._resolve(msg.a) or self._ensure_concept(msg.a, VertexKind.OBJECT).id
            b = self._resolve(msg.b) or self._ensure_concept(msg.b, VertexKind.OBJECT).id
            self._set_edge(a, b, msg.weight, explicit=True)
        elif isinstance(msg, AssignTheme):
            resolved = self._resolve(msg.concept)
            if resolved is None:
                vertex = self._ensure_concept(msg.concept, VertexKind.OBJECT)
            else:
                vertex = self.vertices[resolved]
            if vertex.kind is not VertexKind.OBJECT:
                raise GraphError(f"theme assigned to non-object vertex {vertex.id!r}")
            vertex.theme = msg.theme_id
        else:
            raise GraphError(f"unknown message {msg!r}")

    def _activate(self, vertex, level, mode):
        if mode == "set":
            vertex.activation = min(100.0, max(vertex.activation, level))
        else:
            vertex.activation = min(100.0, vertex.activation + level)
        vertex.last_activated = self.clock

    def tick(self, dt_ms):
        if dt_ms <= 0:
            raise GraphError("dt_ms must be positive")
        pre = {vid: v.activation for vid, v in self.vertices.items()}
        for edge in self.edges.values():
            if edge.weight <= 0.0:
                if math.copysign(1.0, edge.weight) < 0.0:
                    self.negative_zero_offers += sum(
                        self.vertices[end].activation == 0.0 for end in (edge.a, edge.b))
                continue
            act_a, act_b = pre[edge.a], pre[edge.b]
            if act_a > 0.0:
                offered = act_a * edge.weight
                vb = self.vertices[edge.b]
                if offered > vb.activation:
                    vb.activation = offered
                    self.taken[edge.a, edge.b] += 1
            if act_b > 0.0:
                offered = act_b * edge.weight
                va = self.vertices[edge.a]
                if offered > va.activation:
                    va.activation = offered
                    self.taken[edge.b, edge.a] += 1
        hot = [vid for vid, act in pre.items()
               if act > CO_ACTIVATION_THRESHOLD
               and self.vertices[vid].kind is not VertexKind.AFFECT]
        for i, a in enumerate(hot):
            for b in hot[i + 1:]:
                key = _edge_key(a, b)
                edge = self.edges.get(key)
                if edge is None:
                    self._set_edge(a, b, self.params.inferred_edge_weight, explicit=False)
                elif not edge.explicit:
                    boosted = edge.weight + self.params.co_activation_boost
                    edge.weight = min(1.0, boosted)
                    self.boosted += 1
                    self.saturated += boosted > 1.0
        vertex_fade = self.params.vertex_fade_per_s * dt_ms / 1000.0
        edge_fade = self.params.edge_fade_per_s * dt_ms / 1000.0
        for vertex in self.vertices.values():
            vertex.activation = min(100.0, max(0.0, vertex.activation - vertex_fade))
        doomed = []
        for key, edge in self.edges.items():
            if edge.explicit:
                continue
            edge.weight = max(0.0, edge.weight - edge_fade)
            if edge.weight < EDGE_REMOVAL_THRESHOLD:
                doomed.append(key)
        for key in doomed:
            self._remove_edge(key)
            self.pruned += 1
        self.clock += dt_ms

    def affect_snapshot(self):
        return AffectSnapshot(*(self.vertices[c].activation for c in AFFECT_CATEGORIES))

    def dominant_theme(self):
        candidates = [v for v in self.vertices.values()
                      if v.kind is VertexKind.OBJECT and v.theme is not None
                      and v.activation > 0.0]
        if not candidates:
            return None
        candidates.sort(key=lambda v: (-v.activation, -v.last_activated, v.id))
        best = candidates[0]
        return best.theme, best.id

    def dominant_ties(self):
        """Themed active objects sharing the top activation."""
        acts = [v.activation for v in self.vertices.values()
                if v.kind is VertexKind.OBJECT and v.theme is not None and v.activation > 0.0]
        return acts.count(max(acts)) if acts else 0

    def nearest_themed(self, concept, k):
        if concept not in self.vertices:
            raise GraphError(f"unknown concept {concept!r}")
        if k < 1:
            raise GraphError("k must be >= 1")
        dist = {concept: 0.0}
        heap = [(0.0, concept)]
        order = []
        visited = set()
        while heap:
            d, vid = heapq.heappop(heap)
            if vid in visited:
                continue
            visited.add(vid)
            order.append((d, vid))
            for nbr in sorted(self._adjacency[vid]):
                edge = self.edges[_edge_key(vid, nbr)]
                if edge.weight <= 0.0:
                    continue
                nd = d + 1.0 / edge.weight
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        themes = []
        for d, vid in order:
            if vid == concept:
                continue
            vertex = self.vertices[vid]
            if vertex.kind is VertexKind.OBJECT and vertex.theme is not None:
                themes.append(vertex.theme)
                if len(themes) == k:
                    break
        return themes

    def dump(self):
        lines = []
        for vid in sorted(self.vertices):
            v = self.vertices[vid]
            theme = "-" if v.theme is None else str(v.theme)
            lines.append(f"vertex {vid} kind={v.kind.value} act={v.activation:.6f} theme={theme}")
        for key in sorted(self.edges):
            e = self.edges[key]
            prov = "explicit" if e.explicit else "inferred"
            lines.append(f"edge {e.a} {e.b} w={e.weight:.6f} prov={prov}")
        return "\n".join(lines)


def state(graph):
    """Everything observable, floats by repr so that -0.0 != 0.0."""
    vertices = [(vid, v.kind, repr(v.activation), v.theme, v.last_activated)
                for vid, v in graph.vertices.items()]
    edges = [(key, e.a, e.b, repr(e.weight), e.explicit) for key, e in graph.edges.items()]
    return vertices, edges


def assert_same(graph, reference):
    assert state(graph) == state(reference)
    assert graph.dump() == reference.dump()
    assert repr(graph.affect_snapshot()) == repr(reference.affect_snapshot())
    assert graph.dominant_theme() == reference.dominant_theme()
    for vid in reference.vertices:
        assert graph.degree(vid) == reference.degree(vid)
        if reference.vertices[vid].kind is VertexKind.OBJECT:
            for k in (1, 2, 3):
                assert graph.nearest_themed(vid, k) == reference.nearest_themed(vid, k)


def run_both(params, ops):
    """Apply `ops` to both graphs, comparing them after every tick; returns
    the reference, which counts the prunes and boosts it made."""
    graph, reference = ConceptGraph(params), ReferenceGraph(params)
    for op in ops:
        if isinstance(op, int):
            graph.tick(op)
            reference.tick(op)
            assert_same(graph, reference)
            continue
        outcomes = []
        for g in (graph, reference):
            try:
                g.apply_message(op)
                outcomes.append(None)
            except GraphError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
    assert_same(graph, reference)
    return reference


NAMES = ("a", "b", "c", "d", "e", "Threat", "happiness")
LEVELS = st.one_of(st.sampled_from([0.0, -0.0, 25.0, 50.0, 50.5, 60.0, 80.0, 100.0, 150.0]),
                   st.floats(0.0, 100.0))
WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 0.005, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
MODES = st.sampled_from(["set", "add"])

OPS = st.one_of(
    st.builds(ActivateConcept, st.sampled_from(NAMES), st.sampled_from(["object", "environment"]),
              LEVELS, MODES),
    st.builds(SetAffect, st.sampled_from(AFFECT_CATEGORIES + ("fear",)), LEVELS, MODES),
    st.builds(SetEdge, st.sampled_from(NAMES), st.sampled_from(NAMES), WEIGHTS),
    st.builds(AssignTheme, st.sampled_from(NAMES), st.integers(0, 3)),
    st.sampled_from([30, 30, 30, 1000]),
)
PARAMS = st.builds(
    GraphParams,
    vertex_fade_per_s=st.sampled_from([0.0, 0.1, 50.0]),
    edge_fade_per_s=st.sampled_from([0.0, 0.01, 5.0]),  # 5/s prunes within a few ticks
    inferred_edge_weight=st.sampled_from([0.5, 0.3]),
    co_activation_boost=st.sampled_from([0.1, 0.25]),
)

FAST_EDGE_FADE = GraphParams(vertex_fade_per_s=50.0, edge_fade_per_s=5.0)
NO_FADE = GraphParams(vertex_fade_per_s=0.0, edge_fade_per_s=0.0)
SLOW_HOT_FADE = GraphParams(vertex_fade_per_s=50.0, edge_fade_per_s=0.0)


def hot(*names, level=60.0):
    return [ActivateConcept(n, "object", level, "set") for n in names]


# a and b are hot for one tick; their inferred edge then fades 0.15 a
# tick, below the removal threshold on the fourth
PRUNE = hot("a", "b", level=51.0) + [30, 30, 30, 30]
# an explicit edge replaces the inferred one, which then neither fades
# nor is boosted
EXPLICIT_OVER_INFERRED = hot("a", "b") + [30, 30, SetEdge("b", "a", 0.2), 30, 30]
# a, b, c hot; d joins, then c (at 52) and d (at 53.5) fade out of the hot
# set while the inferred edges among them keep being boosted
HOT_SET_CHANGES = (hot("a", "b") + hot("c", level=52.0) + [30, 30]
                   + hot("d", level=53.5) + [30, 30, 30, 30, 30])
# themed objects tied on activation, broken by recency and then by id
DOMINANT_TIES = [AssignTheme("b", 1), AssignTheme("a", 2), AssignTheme("c", 3),
                 *hot("b", "a"), 30, *hot("c", level=10.0), 30, 30,
                 SetEdge("a", "d", 1.0), AssignTheme("d", 0), 30]

# an explicit weight of -0.0 offers -0.0 to vertices at 0.0, which the
# spread leaves at -0.0 until the fade turns them back into 0.0
NEGATIVE_ZERO_OFFER = [ActivateConcept("a", "object", 0.0, "set"),
                       ActivateConcept("a", "object", 0.0, "set"),
                       SetEdge("a", "b", -0.0),
                       ActivateConcept("a", "object", 0.0, "set"), 30]
# the inferred a-b edge (slot 0) is pruned on the fourth tick, and the
# explicit c-d edge moves from the last slot into its place; c and d stay
# at 0 until then, so every offer along c-d, in either direction, is
# spread from the moved slot
PRUNE_MOVES_EXPLICIT = (hot("a", "b", level=51.0)
                        + [30, SetEdge("c", "d", 0.5), 30, 30, 30,
                           ActivateConcept("c", "object", 40.0, "set"), 30,
                           ActivateConcept("d", "object", 80.0, "set"), 30])
# a, b and c are hot for one tick, inferring a-b, a-c and b-c in slots 0-2;
# the explicit d-e edge then takes slot 0, moving a-b to the end, and
# carries d's activation once all three inferred edges are pruned
EXPLICIT_AMONG_INFERRED = (hot("a", "b", "c", level=51.0)
                           + [30, SetEdge("d", "e", 0.5), 30, 30, 30,
                              ActivateConcept("d", "object", 80.0, "set"), 30])
# the same three inferred edges; b-c, in slot 2, is made explicit and
# swaps with a-b in slot 0, which is then pruned with a-c
PROMOTE_INFERRED = hot("a", "b", "c", level=51.0) + [30, SetEdge("c", "b", 0.2), 30, 30, 30]
# a and b are hot for one tick, inferring a-b in slot 0; c and d then stay
# hot, and c-d, inferred in slot 1, is boosted every tick from the next.
# a-b is pruned on the fourth tick, and c-d moves into slot 0 while the
# hot set stays {c, d}, so its boost follows it only if the boost vector
# is rebuilt after the prune
PRUNE_MOVES_BOOSTED = hot("a", "b", level=51.0) + [30] + hot("c", "d", level=100.0) + [30] * 5
# a and b stay hot and never fade: a-b is boosted from 0.5 past 1.0, and
# stays at exactly 1.0 for the ticks after
BOOST_SATURATES = hot("a", "b") + [30] * 10

# two themed objects at the same distance: the smaller id pops first,
# whatever the insertion order
NEAREST_TIES = [AssignTheme("e", 1), AssignTheme("b", 2), AssignTheme("d", 3),
                SetEdge("a", "e", 0.5), SetEdge("b", "a", 0.5), SetEdge("e", "d", 1.0), 30]

# SetEdge("b", "a") creates b, then a, and keys the edge in id order,
# a before b; SetEdge("a", "b") then updates that same edge
EDGE_BOTH_WAYS = [SetEdge("b", "a", 0.2), 30, SetEdge("a", "b", 0.7), 30]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(FAST_EDGE_FADE, PRUNE)
@example(NO_FADE, EXPLICIT_OVER_INFERRED)
@example(SLOW_HOT_FADE, HOT_SET_CHANGES)
@example(NO_FADE, DOMINANT_TIES)
@example(NO_FADE, NEAREST_TIES)
@example(NO_FADE, NEGATIVE_ZERO_OFFER)
@example(FAST_EDGE_FADE, PRUNE_MOVES_EXPLICIT)
@example(FAST_EDGE_FADE, EXPLICIT_AMONG_INFERRED)
@example(FAST_EDGE_FADE, PROMOTE_INFERRED)
@example(FAST_EDGE_FADE, PRUNE_MOVES_BOOSTED)
@example(NO_FADE, BOOST_SATURATES)
@example(NO_FADE, EDGE_BOTH_WAYS)
@given(PARAMS, st.lists(OPS, max_size=40))
def test_array_graph_matches_reference(params, ops):
    run_both(params, ops)


def test_examples_reach_the_cases_they_name():
    assert run_both(FAST_EDGE_FADE, PRUNE).pruned == 1

    reference = run_both(NO_FADE, EXPLICIT_OVER_INFERRED)
    assert reference.edges[("a", "b")] == _Edge("a", "b", 0.2, True)
    assert reference.boosted == 1  # before SetEdge only

    reference = run_both(SLOW_HOT_FADE, HOT_SET_CHANGES)
    assert reference.boosted > 6 and len(reference.edges) == 5
    assert reference.vertices["c"].activation < CO_ACTIVATION_THRESHOLD
    assert reference.vertices["d"].activation < CO_ACTIVATION_THRESHOLD

    reference = run_both(NO_FADE, DOMINANT_TIES)
    assert reference.dominant_ties() == 3
    assert reference.dominant_theme() == (2, "a")

    reference = run_both(NO_FADE, NEAREST_TIES)
    assert reference.nearest_themed("a", 1) == [2]
    assert reference.nearest_themed("a", 3) == [2, 1, 3]

    reference = run_both(NO_FADE, NEGATIVE_ZERO_OFFER)
    assert repr(reference.edges[("a", "b")].weight) == "-0.0"
    assert reference.negative_zero_offers == 2

    reference = run_both(FAST_EDGE_FADE, PRUNE_MOVES_EXPLICIT)
    assert reference.pruned == 1 and list(reference.edges) == [("c", "d")]
    assert reference.taken[("c", "d")] >= 1 and reference.taken[("d", "c")] >= 1

    reference = run_both(FAST_EDGE_FADE, EXPLICIT_AMONG_INFERRED)
    assert reference.pruned == 3 and list(reference.edges) == [("d", "e")]
    assert reference.taken[("d", "e")] >= 1

    reference = run_both(FAST_EDGE_FADE, PROMOTE_INFERRED)
    assert reference.pruned == 2
    assert reference.edges == {("b", "c"): _Edge("b", "c", 0.2, True)}

    reference = run_both(FAST_EDGE_FADE, PRUNE_MOVES_BOOSTED)
    assert reference.pruned == 1 and list(reference.edges) == [("c", "d")]
    assert reference.boosted == 4  # two boosts before the prune, two after
    assert not reference.edges[("c", "d")].explicit

    reference = run_both(NO_FADE, BOOST_SATURATES)
    assert reference.saturated >= 3
    assert reference.edges[("a", "b")].weight == 1.0

    reference = run_both(NO_FADE, EDGE_BOTH_WAYS)
    assert list(reference.vertices)[len(AFFECT_CATEGORIES):] == ["b", "a"]
    assert reference.edges == {("a", "b"): _Edge("a", "b", 0.7, True)}


@pytest.mark.parametrize("name", ["a", "missing"])
def test_nearest_themed_errors_match(name):
    graph, reference = ConceptGraph(), ReferenceGraph()
    for g in (graph, reference):
        g.apply_message(AssignTheme("a", 1))
    for k in (0, 1):
        outcomes = []
        for g in (graph, reference):
            try:
                outcomes.append(g.nearest_themed(name, k))
            except GraphError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
