"""Spreading-activation model of game context (after Collins & Loftus, 1975).

A weighted undirected graph of affect, object and environment vertices.
Activation spreads one hop per tick from the pre-tick state, edges are
inferred from co-activation above 50, and both activations and inferred
edge weights fade over time.  No activation exceeds MAX_LEVEL: a message
clamps at it, and a tick never raises one past it.

The state lives in numpy arrays, so a tick costs a fixed handful of array
operations plus work in proportion to what changed.  Co-activation boosts
land on the inferred block just before it fades, as one dense vector with
0.0 for every edge that is not boosted, and the fade needs no clamp at 0:
a weight it takes below 0 is below the removal threshold, and is pruned
in the same tick.  Vertex indices follow insertion order, with the six
affect vertices first (index i is AFFECT_CATEGORIES[i]).  Edge slots are dense, explicit edges first: an
edge's provenance is its slot's position, and the inferred edges fade as
one slice.  Each edge is stored in both directions, so that one gather and
one scatter spread activation along all of them: slot s owns directed
entries 2s (a -> b) and 2s + 1 (b -> a), for its sorted endpoint ids
a < b, and both entries carry the edge's weight.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .osc_gateway import (
    AFFECT_CATEGORIES,
    MAX_LEVEL,
    ActivateConcept,
    AssignTheme,
    GameMessage,
    SetAffect,
    SetEdge,
)

CO_ACTIVATION_THRESHOLD = 50.0
EDGE_REMOVAL_THRESHOLD = 0.01

N_AFFECT = len(AFFECT_CATEGORIES)
_INITIAL_CAPACITY = 64


class GraphError(ValueError):
    pass


class VertexKind(Enum):
    AFFECT = "affect"
    OBJECT = "object"
    ENVIRONMENT = "environment"


@dataclass
class GraphParams:
    vertex_fade_per_s: float = 0.1
    edge_fade_per_s: float = 0.01
    inferred_edge_weight: float = 0.5
    co_activation_boost: float = 0.1

    def __post_init__(self):
        for name in ("vertex_fade_per_s", "edge_fade_per_s"):
            if not getattr(self, name) >= 0.0:
                raise GraphError(f"{name} must be >= 0")
        for name in ("inferred_edge_weight", "co_activation_boost"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise GraphError(f"{name} outside [0, 1]")


AffectSnapshot = namedtuple("AffectSnapshot", AFFECT_CATEGORIES, defaults=(0.0,) * N_AFFECT)
AffectSnapshot.__doc__ = "Affect activations, one field per AFFECT_CATEGORIES entry."


def _scalar(value: float) -> np.ndarray:
    """`value` as a read-only 0-d float64 array."""
    scalar = np.array(value, dtype=np.float64)
    scalar.flags.writeable = False
    return scalar


def _grown(array: np.ndarray, fill=0) -> np.ndarray:
    """`array` at twice its length; the new entries are `fill`."""
    bigger = np.full(2 * len(array), fill, dtype=array.dtype)
    bigger[:len(array)] = array
    return bigger


class Vertex(NamedTuple):
    """One vertex of a ConceptGraph, as of its lookup."""
    id: str
    kind: VertexKind
    activation: float
    theme: int | None  # only object vertices carry themes
    last_activated: int  # engine time of the last activation message, ms


class Edge(NamedTuple):
    """One edge of a ConceptGraph, as of its lookup, keyed by its sorted
    endpoint ids `a` <= `b`."""
    a: str
    b: str
    weight: float
    explicit: bool  # explicit edges never fade


class _Snapshots(Mapping):
    """Read-only mapping over one of a graph's key maps (key -> index or
    slot); `snapshot(key, value)` builds each value at lookup."""

    def __init__(self, keys: dict, snapshot):
        self._keys = keys
        self._snapshot = snapshot

    def __getitem__(self, key):
        return self._snapshot(key, self._keys[key])

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __iter__(self) -> Iterator:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class ConceptGraph:
    """Live game-context model.  Owned by a single engine thread; readers get
    point-in-time snapshots via affect_snapshot().

    Storage: per vertex index, the activation in a float64 array and the
    theme in an int array (-1 for none), affect vertices at indices 0-5
    and every other vertex after them in insertion order; per directed edge
    (two per edge slot, a -> b at 2s and b -> a at 2s + 1), the source and
    target vertex indices and the weight, each written to both directions
    at once; the number E of explicit edges, which hold slots 0..E-1, the
    inferred edges holding the rest; edge keys only in the key -> slot map,
    in creation order.  `ids` (the vertex ids in index order) is a
    read-only list; `vertices` (id -> Vertex, in index order) and `edges`
    (sorted endpoint pair -> Edge, in creation order) are read-only
    mappings whose values are snapshots as of their lookup; the graph
    changes only through `apply_message` and `tick`.  `first_edges` lists,
    in order, each vertex index a new edge took from no edge to one; its
    reader clears it.
    """

    def __init__(self, params: GraphParams | None = None):
        self.params = params or GraphParams()
        self.clock = 0  # ms
        # per vertex index
        self.ids: list[str] = []
        self._index: dict[str, int] = {}
        self._kinds: list[VertexKind] = []
        self._last_activated: list[int] = []
        self._adjacency: list[dict[int, int]] = []  # neighbour index -> edge slot
        self.first_edges: list[int] = []
        self._activation = np.zeros(_INITIAL_CAPACITY)
        self._themes = np.full(_INITIAL_CAPACITY, -1, dtype=np.intp)  # -1: none
        # per edge slot s, directed entries 2s (a -> b) and 2s + 1 (b -> a)
        self._slots: dict[tuple[str, str], int] = {}  # creation order
        self._sources = np.zeros(2 * _INITIAL_CAPACITY, dtype=np.intp)
        self._targets = np.zeros(2 * _INITIAL_CAPACITY, dtype=np.intp)
        self._weights = np.zeros(2 * _INITIAL_CAPACITY)
        self._n_explicit = 0  # explicit edges hold slots 0..E-1
        # every _set_edge and _remove_edge bumps the structure version,
        # which keys the tick's cached views and boost vector
        self._version = 0
        self._views_key: tuple[int, int] | None = None
        self._views: tuple[np.ndarray, ...] = ()
        # the tick's ufunc scalars as 0-d arrays, which a ufunc takes without
        # converting: the co-activation threshold, 0.0, 1.0, and the vertex
        # and edge fades for _fade_ms
        self._threshold, self._zero, self._one = (
            _scalar(v) for v in (CO_ACTIVATION_THRESHOLD, 0.0, 1.0))
        self._fade_ms = 0
        self._fades = (self._zero, self._zero)
        self._hot_key: tuple[bytes, int] | None = None  # hot mask, structure version
        self._boost: np.ndarray | None = None  # per inferred directed entry
        # the boost vector as a (k, 2) block over the inferred edges, the
        # structure version it was sized for, and the rows the walk set
        self._boost_block = np.zeros((0, 2))
        self._boost_version = -1
        self._boost_rows = np.zeros(0, dtype=np.intp)

        self.vertices: Mapping[str, Vertex] = _Snapshots(self._index, self._vertex)
        self.edges: Mapping[tuple[str, str], Edge] = _Snapshots(self._slots, self._edge)
        for category in AFFECT_CATEGORIES:
            self._add_vertex(category, VertexKind.AFFECT)

    # -- structure ----------------------------------------------------------

    def _add_vertex(self, vid: str, kind: VertexKind) -> int:
        index = len(self.ids)
        if index == len(self._activation):
            self._activation = _grown(self._activation)
            self._themes = _grown(self._themes, -1)
        self.ids.append(vid)
        self._index[vid] = index
        self._kinds.append(kind)
        self._last_activated.append(0)
        self._adjacency.append({})
        return index

    def _resolve(self, name: str) -> int | None:
        """Map a message name onto a vertex index; affect names match
        case-insensitively."""
        index = self._index.get(name)
        if index is None and name.lower() in AFFECT_CATEGORIES:
            return self._index[name.lower()]
        return index

    def _ensure_concept(self, name: str, kind: VertexKind) -> int:
        index = self._resolve(name)
        return self._add_vertex(name, kind) if index is None else index

    def _set_edge(self, ia: int, ib: int, weight: float, explicit: bool) -> None:
        """Set the edge between vertex indices `ia` and `ib`, taken in id
        order for its key; an explicit edge joins the explicit block."""
        if self.ids[ib] < self.ids[ia]:
            ia, ib = ib, ia
        if self._kinds[ia] is VertexKind.AFFECT and self._kinds[ib] is VertexKind.AFFECT:
            raise GraphError("edges never form between affect vertices")
        slot = self._adjacency[ia].get(ib)
        if slot is None:
            for i in (ia, ib):
                if not self._adjacency[i]:
                    self.first_edges.append(i)
            slot = len(self._slots)
            if 2 * slot == len(self._weights):
                self._sources = _grown(self._sources)
                self._targets = _grown(self._targets)
                self._weights = _grown(self._weights)
        if explicit and slot >= self._n_explicit:
            # joining the explicit block: the first inferred edge takes its slot
            if slot != self._n_explicit:
                self._move(self._n_explicit, slot)
            slot = self._n_explicit
            self._n_explicit += 1
        self._place(ia, ib, slot, weight)
        self._version += 1

    def _place(self, ia: int, ib: int, slot: int, weight: float) -> None:
        """Write edge (ids[ia], ids[ib]), a sorted key, into `slot`."""
        self._slots[(self.ids[ia], self.ids[ib])] = slot
        d = 2 * slot
        self._sources[d] = self._targets[d + 1] = ia
        self._sources[d + 1] = self._targets[d] = ib
        # one scalar store per entry: a two-entry slice store costs a few
        # times more, and a world of 5k edges is loaded through here
        self._weights[d] = self._weights[d + 1] = weight
        self._adjacency[ia][ib] = slot
        self._adjacency[ib][ia] = slot

    def _move(self, slot: int, to: int) -> None:
        d = 2 * slot
        self._place(self._sources.item(d), self._sources.item(d + 1), to, self._weights.item(d))

    def _remove_edge(self, ia: int, ib: int) -> None:
        """Remove the inferred edge between vertex indices `ia` and `ib`,
        taken in id order for its key; the last slot moves into its place.
        Explicit edges are never removed, so they keep slots 0..E-1."""
        if self.ids[ib] < self.ids[ia]:
            ia, ib = ib, ia
        slot = self._adjacency[ia].pop(ib)
        del self._adjacency[ib][ia]
        del self._slots[(self.ids[ia], self.ids[ib])]
        last = len(self._slots)
        if slot != last:
            self._move(last, slot)
        self._version += 1

    def _vertex(self, vid: str, index: int) -> Vertex:
        theme = self._themes.item(index)
        return Vertex(vid, self._kinds[index], self._activation.item(index),
                      None if theme < 0 else theme, self._last_activated[index])

    def _edge(self, key: tuple[str, str], slot: int) -> Edge:
        return Edge(*key, self._weights.item(2 * slot), slot < self._n_explicit)

    def degree(self, concept: str) -> int:
        index = self._index.get(concept)
        return 0 if index is None else len(self._adjacency[index])

    def has_themes(self, theme_ids) -> bool:
        """Some vertex carries one of `theme_ids`; unused capacity holds -1."""
        return any(t in theme_ids for t in set(self._themes[self._themes >= 0].tolist()))

    # -- message application ------------------------------------------------

    def apply_message(self, msg: GameMessage) -> None:
        if isinstance(msg, ActivateConcept):
            kind = VertexKind.OBJECT if msg.kind == "object" else VertexKind.ENVIRONMENT
            self._activate(self._ensure_concept(msg.name, kind), msg.level, msg.mode)
        elif isinstance(msg, SetAffect):
            if msg.category not in AFFECT_CATEGORIES:
                raise GraphError(f"unknown affect category {msg.category!r}")
            self._activate(self._index[msg.category], msg.level, msg.mode)
        elif isinstance(msg, SetEdge):
            if not 0.0 <= msg.weight <= 1.0:
                raise GraphError(f"edge weight {msg.weight} outside [0, 1]")
            ia, ib = self._resolve(msg.a), self._resolve(msg.b)
            # checked before either end is created: a rejected edge adds no vertex
            if msg.a == msg.b or (ia is not None and ia == ib):
                raise GraphError(f"self-loop on {msg.a!r}")
            ia = self._add_vertex(msg.a, VertexKind.OBJECT) if ia is None else ia
            ib = self._add_vertex(msg.b, VertexKind.OBJECT) if ib is None else ib
            self._set_edge(ia, ib, msg.weight, explicit=True)
        elif isinstance(msg, AssignTheme):
            index = self._ensure_concept(msg.concept, VertexKind.OBJECT)
            if self._kinds[index] is not VertexKind.OBJECT:
                raise GraphError(f"theme assigned to non-object vertex {self.ids[index]!r}")
            self._themes[index] = msg.theme_id
        else:
            raise GraphError(f"unknown message {msg!r}")

    def _activate(self, index: int, level: float, mode: str) -> None:
        """Both modes clamp at MAX_LEVEL, so no activation exceeds it
        between ticks."""
        current = self._activation.item(index)
        if mode == "set":
            self._activation[index] = min(MAX_LEVEL, max(current, level))
        else:
            self._activation[index] = min(MAX_LEVEL, current + level)
        self._last_activated[index] = self.clock

    # -- tick ---------------------------------------------------------------

    def tick(self, dt_ms: int) -> None:
        """One engine step: one-hop spread from the pre-tick snapshot, edge
        inference at co-activation > 50, then fading.

        Every step takes the scalar rules' IEEE operations in their order:
        offers are `activation * weight` and a vertex keeps the larger of
        its activation and its offers, taken edge by edge in slot order,
        a -> b before b -> a; boosts are `min(1, w + boost)`; fades are
        `min(100, max(0, a - fade))` and `max(0, w - fade)`, less the two
        clamps that cannot change a value the tick keeps (below).  An
        explicit weight of -0.0 offers -0.0, which `max(0, a - fade)`
        turns back into 0.0 before the tick ends.

        No activation exceeds MAX_LEVEL between ticks: `_activate` clamps
        at it, and an offer is an activation times a weight of at most 1,
        so the vertex fade needs no `min(100, ...)`.  The inferred block is
        boosted just before it fades, as one add of the walk's boost
        vector and one `min(1, ...)`; the vector holds 0.0 for every edge
        that is not boosted, which leaves each weight that survives the
        tick as it was.  The edge fade takes no
        `max(0, ...)`: every surviving inferred weight is at least
        EDGE_REMOVAL_THRESHOLD, so a weight the clamp would change is
        below it and is pruned in the same tick.

        The offers are gathered before inference boosts a weight, and the
        hot set is read before the offers land, so both see the pre-tick
        state without a copy of it."""
        if dt_ms <= 0:
            raise GraphError("dt_ms must be positive")
        activation, concepts, sources, targets, weights, _ = self._tick_views()
        offers = activation[sources] * weights
        boost = self._infer_edges(concepts)
        np.maximum.at(activation, targets, offers)

        # fading
        if dt_ms != self._fade_ms:
            self._fade_ms = dt_ms
            self._fades = (_scalar(self.params.vertex_fade_per_s * dt_ms / 1000.0),
                           _scalar(self.params.edge_fade_per_s * dt_ms / 1000.0))
        vertex_fade, edge_fade = self._fades
        np.subtract(activation, vertex_fade, out=activation)
        np.maximum(activation, self._zero, out=activation)
        inferred = self._tick_views()[-1]  # with the edges inferred above
        if len(inferred):
            if boost is not None:
                np.add(inferred, boost, out=inferred)
                np.minimum(inferred, self._one, out=inferred)
            np.subtract(inferred, edge_fade, out=inferred)
            if inferred.item(inferred.argmin()) < EDGE_REMOVAL_THRESHOLD:
                explicit = self._n_explicit
                doomed = (inferred[::2] < EDGE_REMOVAL_THRESHOLD).nonzero()[0] + explicit
                # every pair before the first removal, which moves the last slot
                for ia, ib in self._sources.reshape(-1, 2)[doomed].tolist():
                    self._remove_edge(ia, ib)

        self.clock += dt_ms

    def _tick_views(self) -> tuple[np.ndarray, ...]:
        """The arrays a tick reads, as views: the activations, those of the
        concept (non-affect) vertices, and the sources, targets and weights
        of every directed entry and the weights of the inferred block.
        Kept until the structure or the vertex count changes, which is
        also when an array is replaced by a grown one."""
        key = (self._version, len(self.ids))
        if key != self._views_key:
            n = 2 * len(self._slots)
            activation = self._activation[:len(self.ids)]
            self._views = (activation, activation[N_AFFECT:], self._sources[:n],
                           self._targets[:n], self._weights[:n],
                           self._weights[2 * self._n_explicit:n])
            self._views_key = key
        return self._views

    def _infer_edges(self, concepts: np.ndarray) -> np.ndarray | None:
        """Edge inference between co-activated concept vertices, given
        their activations: every hot pair without an edge gets an inferred
        one, and every inferred edge of a hot pair is boosted in both
        directions.  Returns the boost vector over the inferred block's
        directed entries (None: nothing to boost), which the walk caches,
        keyed by the hot mask, until the hot set or the structure changes.
        While the structure is unchanged, a new walk rewrites only the rows
        of the kept vector that the last walk and this one boost."""
        hot_mask = np.greater(concepts, self._threshold)
        key = (hot_mask.tobytes(), self._version)
        if key == self._hot_key:
            return self._boost
        hot = hot_mask.nonzero()[0]
        if len(hot) < 2:
            return None
        hot = (hot + N_AFFECT).tolist()
        explicit = self._n_explicit
        rows = []
        for n, i in enumerate(hot):
            neighbours = self._adjacency[i]
            for j in hot[n + 1:]:
                slot = neighbours.get(j)
                if slot is None:
                    self._set_edge(i, j, self.params.inferred_edge_weight, explicit=False)
                elif slot >= explicit:
                    rows.append(slot - explicit)
        if self._boost_version == self._version:
            self._boost_block[self._boost_rows] = 0.0
        else:
            # after the walk, so that edges it created get a 0.0 entry
            self._boost_block = np.zeros((len(self._slots) - explicit, 2))
            self._boost_version = self._version
        self._boost_rows = np.array(rows, dtype=np.intp)
        self._boost_block[self._boost_rows] = self.params.co_activation_boost
        self._boost = self._boost_block.reshape(-1) if rows else None
        # an edge created here is boosted from the next tick on, so a walk
        # that created one is not cached
        self._hot_key = key if self._version == key[1] else None
        return self._boost

    # -- queries ------------------------------------------------------------

    def affect_snapshot(self) -> AffectSnapshot:
        return AffectSnapshot(*self._activation[:N_AFFECT].tolist())

    def dominant_theme(self) -> tuple[int, str] | None:
        """Theme of the most activated themed object; ties broken by recency,
        then lexicographic id.  None when no themed object is active."""
        n = len(self.ids)
        activation = np.where(self._themes[:n] >= 0, self._activation[:n], 0.0)
        top = activation.max()
        if not top > 0.0:
            return None
        tied = np.flatnonzero(activation == top).tolist()
        best = min(tied, key=lambda i: (-self._last_activated[i], self.ids[i]))
        return self._themes.item(best), self.ids[best]

    def nearest_themed(self, concept: str, k: int) -> list[int]:
        """Themes of the k nearest themed objects by Dijkstra with per-edge
        length 1/weight.  The source vertex itself is excluded.  Vertices
        pop in (distance, id) order, and the search stops at the k-th
        themed one."""
        source = self._index.get(concept)
        if source is None:
            raise GraphError(f"unknown concept {concept!r}")
        if k < 1:
            raise GraphError("k must be >= 1")
        ids, themes, weights = self.ids, self._themes, self._weights
        dist = {source: 0.0}
        heap: list[tuple[float, str, int]] = [(0.0, concept, source)]
        visited: set[int] = set()
        found: list[int] = []
        while heap:
            d, _vid, i = heapq.heappop(heap)
            if i in visited:
                continue
            visited.add(i)
            if i != source and themes.item(i) >= 0:  # only objects carry themes
                found.append(themes.item(i))
                if len(found) == k:
                    break
            for j, slot in self._adjacency[i].items():
                weight = weights.item(2 * slot)
                if weight <= 0.0:
                    continue
                nd = d + 1.0 / weight
                if nd < dist.get(j, float("inf")):
                    dist[j] = nd
                    heapq.heappush(heap, (nd, ids[j], j))
        return found

    def dump(self) -> str:
        """Line-oriented debug dump with stable ordering for golden tests."""
        lines = []
        for vid in sorted(self.ids):
            v = self.vertices[vid]
            theme = "-" if v.theme is None else str(v.theme)
            lines.append(f"vertex {vid} kind={v.kind.value} act={v.activation:.6f} theme={theme}")
        for key in sorted(self._slots):
            e = self.edges[key]
            prov = "explicit" if e.explicit else "inferred"
            lines.append(f"edge {e.a} {e.b} w={e.weight:.6f} prov={prov}")
        return "\n".join(lines)
