"""Spreading-activation model of game context.

A weighted undirected graph of affect, object and environment vertices.
Activation spreads one hop per tick from the pre-tick state, edges are
inferred from co-activation above 50, and both activations and inferred
edge weights fade over time.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from enum import Enum

from .osc_gateway import (
    AFFECT_CATEGORIES,
    ActivateConcept,
    AssignTheme,
    GameMessage,
    SetAffect,
    SetEdge,
)

CO_ACTIVATION_THRESHOLD = 50.0
EDGE_REMOVAL_THRESHOLD = 0.01


class GraphError(ValueError):
    pass


class VertexKind(Enum):
    AFFECT = "affect"
    OBJECT = "object"
    ENVIRONMENT = "environment"


@dataclass
class ConceptVertex:
    id: str
    kind: VertexKind
    activation: float = 0.0
    theme: int | None = None  # only Object vertices carry themes
    last_activated: int = 0  # engine time, ms


@dataclass
class ConceptEdge:
    a: str
    b: str
    weight: float
    explicit: bool  # explicit edges never fade


@dataclass
class GraphParams:
    vertex_fade_per_s: float = 0.1
    edge_fade_per_s: float = 0.01
    inferred_edge_weight: float = 0.5
    co_activation_boost: float = 0.1


@dataclass(frozen=True)
class AffectSnapshot:
    happiness: float = 0.0
    excitement: float = 0.0
    anger: float = 0.0
    sadness: float = 0.0
    tenderness: float = 0.0
    threat: float = 0.0

    def as_tuple(self) -> tuple[float, ...]:
        return (self.happiness, self.excitement, self.anger,
                self.sadness, self.tenderness, self.threat)


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class ConceptGraph:
    """Live game-context model.  Owned by a single engine thread; readers get
    point-in-time snapshots via affect_snapshot()/copy()."""

    def __init__(self, params: GraphParams | None = None):
        self.params = params or GraphParams()
        self.clock = 0  # ms
        self.vertices: dict[str, ConceptVertex] = {}
        self.edges: dict[tuple[str, str], ConceptEdge] = {}
        self._adjacency: dict[str, set[str]] = {}
        for category in AFFECT_CATEGORIES:
            self._add_vertex(ConceptVertex(category, VertexKind.AFFECT))

    # -- structure ----------------------------------------------------------

    def _add_vertex(self, vertex: ConceptVertex) -> None:
        self.vertices[vertex.id] = vertex
        self._adjacency[vertex.id] = set()

    def _resolve(self, name: str) -> str | None:
        """Map a message name onto a vertex id; affect names match
        case-insensitively."""
        if name in self.vertices:
            return name
        lowered = name.lower()
        if lowered in AFFECT_CATEGORIES:
            return lowered
        return None

    def _ensure_concept(self, name: str, kind: VertexKind) -> ConceptVertex:
        resolved = self._resolve(name)
        if resolved is None:
            vertex = ConceptVertex(name, kind)
            self._add_vertex(vertex)
            return vertex
        return self.vertices[resolved]

    def _set_edge(self, a: str, b: str, weight: float, explicit: bool) -> None:
        if a == b:
            raise GraphError(f"self-loop on {a!r}")
        va, vb = self.vertices[a], self.vertices[b]
        if va.kind is VertexKind.AFFECT and vb.kind is VertexKind.AFFECT:
            raise GraphError("edges never form between affect vertices")
        key = _edge_key(a, b)
        self.edges[key] = ConceptEdge(key[0], key[1], weight, explicit)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def _remove_edge(self, key: tuple[str, str]) -> None:
        del self.edges[key]
        self._adjacency[key[0]].discard(key[1])
        self._adjacency[key[1]].discard(key[0])

    def degree(self, concept: str) -> int:
        return len(self._adjacency.get(concept, ()))

    # -- message application ------------------------------------------------

    def apply_message(self, msg: GameMessage) -> None:
        if isinstance(msg, ActivateConcept):
            kind = VertexKind.OBJECT if msg.kind == "object" else VertexKind.ENVIRONMENT
            vertex = self._ensure_concept(msg.name, kind)
            self._activate(vertex, msg.level, msg.mode)
        elif isinstance(msg, SetAffect):
            if msg.category not in AFFECT_CATEGORIES:
                raise GraphError(f"unknown affect category {msg.category!r}")
            vertex = self.vertices[msg.category]
            self._activate(vertex, msg.level, msg.mode)
        elif isinstance(msg, SetEdge):
            if not 0.0 <= msg.weight <= 1.0:
                raise GraphError(f"edge weight {msg.weight} outside [0, 1]")
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

    def _activate(self, vertex: ConceptVertex, level: float, mode: str) -> None:
        if mode == "set":
            vertex.activation = max(vertex.activation, level)
        else:  # add clamps at 100
            vertex.activation = min(100.0, vertex.activation + level)
        vertex.last_activated = self.clock

    # -- tick ---------------------------------------------------------------

    def tick(self, dt_ms: int) -> None:
        """One engine step: one-hop spread from the pre-tick snapshot, edge
        inference at co-activation > 50, then fading."""
        if dt_ms <= 0:
            raise GraphError("dt_ms must be positive")
        pre = {vid: v.activation for vid, v in self.vertices.items()}

        # spread, simultaneously from the pre-tick state
        for edge in self.edges.values():
            if edge.weight <= 0.0:
                continue
            act_a, act_b = pre[edge.a], pre[edge.b]
            if act_a > 0.0:
                offered = act_a * edge.weight
                vb = self.vertices[edge.b]
                if offered > vb.activation:
                    vb.activation = offered
            if act_b > 0.0:
                offered = act_b * edge.weight
                va = self.vertices[edge.a]
                if offered > va.activation:
                    va.activation = offered

        # edge inference between co-activated concept (non-affect) vertices
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
                    edge.weight = min(1.0, edge.weight + self.params.co_activation_boost)

        # fading
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

        self.clock += dt_ms

    # -- queries ------------------------------------------------------------

    def affect_snapshot(self) -> AffectSnapshot:
        return AffectSnapshot(*(self.vertices[c].activation for c in AFFECT_CATEGORIES))

    def dominant_theme(self) -> tuple[int, str] | None:
        """Theme of the most activated themed object; ties broken by recency,
        then lexicographic id.  None when no themed object is active."""
        candidates = [v for v in self.vertices.values()
                      if v.kind is VertexKind.OBJECT and v.theme is not None
                      and v.activation > 0.0]
        if not candidates:
            return None
        candidates.sort(key=lambda v: (-v.activation, -v.last_activated, v.id))
        best = candidates[0]
        return best.theme, best.id

    def nearest_themed(self, concept: str, k: int) -> list[int]:
        """Themes of the k nearest themed objects by Dijkstra with per-edge
        length 1/weight.  The source vertex itself is excluded."""
        if concept not in self.vertices:
            raise GraphError(f"unknown concept {concept!r}")
        if k < 1:
            raise GraphError("k must be >= 1")
        dist = {concept: 0.0}
        heap: list[tuple[float, str]] = [(0.0, concept)]
        order: list[tuple[float, str]] = []
        visited: set[str] = set()
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
        themes: list[int] = []
        for d, vid in order:
            if vid == concept:
                continue
            vertex = self.vertices[vid]
            if vertex.kind is VertexKind.OBJECT and vertex.theme is not None:
                themes.append(vertex.theme)
                if len(themes) == k:
                    break
        return themes

    def copy(self) -> "ConceptGraph":
        return copy.deepcopy(self)

    def dump(self) -> str:
        """Line-oriented debug dump with stable ordering for golden tests."""
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
