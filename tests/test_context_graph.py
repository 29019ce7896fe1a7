"""Spreading-activation graph behavior."""

import pytest

from ams.context_graph import (
    AffectSnapshot,
    ConceptGraph,
    GraphError,
    GraphParams,
    VertexKind,
)
from ams.osc_gateway import ActivateConcept, AssignTheme, SetAffect, SetEdge


def no_fade() -> ConceptGraph:
    return ConceptGraph(GraphParams(vertex_fade_per_s=0.0, edge_fade_per_s=0.0))


def test_affect_vertices_exist():
    g = ConceptGraph()
    assert {v.id for v in g.vertices.values() if v.kind is VertexKind.AFFECT} == {
        "happiness", "excitement", "anger", "sadness", "tenderness", "threat"}


def test_affect_names_case_insensitive():
    g = ConceptGraph()
    g.apply_message(SetAffect("threat", 55.0, "set"))
    assert g.vertices["threat"].activation == 55.0


def test_unknown_affect_category_is_graph_error():
    g = ConceptGraph()
    with pytest.raises(GraphError, match="unknown affect category 'fear'"):
        g.apply_message(SetAffect("fear", 50.0, "set"))


def test_set_mode_keeps_maximum():
    g = ConceptGraph()
    g.apply_message(SetAffect("threat", 60.0, "set"))
    g.apply_message(SetAffect("threat", 40.0, "set"))
    assert g.vertices["threat"].activation == 60.0


def test_add_mode_clamps_at_100():
    g = ConceptGraph()
    g.apply_message(SetAffect("threat", 70.0, "set"))
    g.apply_message(SetAffect("threat", 50.0, "add"))
    assert g.vertices["threat"].activation == 100.0


def test_set_mode_clamps_at_100():
    g = ConceptGraph()
    g.apply_message(ActivateConcept("a", "object", 150.0, "set"))
    g.apply_message(SetAffect("threat", 150.0, "set"))
    assert g.vertices["a"].activation == 100.0
    assert g.affect_snapshot().threat == 100.0


def test_spread_is_one_hop_per_tick():
    g = no_fade()
    g.apply_message(ActivateConcept("a", "object", 80.0, "set"))
    g.apply_message(SetEdge("a", "b", 0.5))
    g.apply_message(SetEdge("b", "c", 0.5))
    g.tick(30)
    assert g.vertices["b"].activation == 40.0
    assert g.vertices["c"].activation == 0.0  # reaches c only on the next tick
    g.tick(30)
    assert g.vertices["c"].activation == 20.0


def test_spread_uses_pre_tick_snapshot():
    g = no_fade()
    g.apply_message(ActivateConcept("a", "object", 100.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 100.0, "set"))
    g.apply_message(SetEdge("a", "b", 0.9))
    g.tick(30)
    assert g.vertices["a"].activation == 100.0
    assert g.vertices["b"].activation == 100.0


def test_no_affect_affect_edges():
    g = ConceptGraph()
    with pytest.raises(GraphError):
        g.apply_message(SetEdge("threat", "sadness", 0.5))


@pytest.mark.parametrize("a, b", [("lamp", "lamp"), ("Threat", "threat")])
def test_rejected_self_loop_adds_no_vertex(a, b):
    g = ConceptGraph()
    before = list(g.ids)
    with pytest.raises(GraphError, match="self-loop"):
        g.apply_message(SetEdge(a, b, 0.5))
    assert g.ids == before
    assert len(g.edges) == 0


def test_activating_an_affect_name_sets_the_affect_whatever_the_kind():
    g = ConceptGraph()
    before = list(g.ids)
    g.apply_message(ActivateConcept("Happiness", "environment", 55.0, "set"))
    assert g.ids == before
    assert g.vertices["happiness"].kind is VertexKind.AFFECT
    assert g.affect_snapshot().happiness == 55.0
    # an existing vertex keeps its kind too
    g.apply_message(ActivateConcept("lamp", "object", 10.0, "set"))
    g.apply_message(ActivateConcept("lamp", "environment", 20.0, "set"))
    assert g.vertices["lamp"].kind is VertexKind.OBJECT
    assert g.vertices["lamp"].activation == 20.0


def test_edge_inference_and_boost():
    params = GraphParams(vertex_fade_per_s=0.0, edge_fade_per_s=0.0)
    g = ConceptGraph(params)
    g.apply_message(ActivateConcept("a", "object", 60.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 70.0, "set"))
    g.tick(30)
    edge = g.edges[("a", "b")]
    assert not edge.explicit
    assert edge.weight == 0.5
    g.tick(30)
    assert g.edges[("a", "b")].weight == pytest.approx(0.6)


def test_vertex_and_edge_reads_are_snapshots():
    """A read is a value as of its lookup: a later tick changes the graph,
    not what was read."""
    g = ConceptGraph()
    g.apply_message(ActivateConcept("a", "object", 60.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 70.0, "set"))
    g.apply_message(AssignTheme("a", 3))
    g.tick(30)  # infers a-b at 0.5, then fades it
    vertex, edge = g.vertices["a"], g.edges[("a", "b")]
    assert (vertex.id, vertex.kind, vertex.theme, vertex.last_activated) == (
        "a", VertexKind.OBJECT, 3, 0)
    assert (edge.a, edge.b, edge.explicit) == ("a", "b", False)
    activation, weight = vertex.activation, edge.weight
    g.tick(30)  # fades a, boosts a-b by 0.1
    assert (vertex.activation, edge.weight) == (activation, weight)
    assert g.vertices["a"].activation < activation
    assert g.edges[("a", "b")].weight > weight


def test_no_inference_at_or_below_50():
    g = no_fade()
    g.apply_message(ActivateConcept("a", "object", 50.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 50.0, "set"))
    g.tick(30)
    assert ("a", "b") not in g.edges


def test_inferred_edge_removed_below_threshold():
    g = ConceptGraph()
    g.apply_message(ActivateConcept("a", "object", 0.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 0.0, "set"))
    g._set_edge(g.ids.index("a"), g.ids.index("b"), 0.011, explicit=False)
    for _ in range(10):  # 0.3 s -> fades 0.003, under the 0.01 floor
        g.tick(30)
    assert ("a", "b") not in g.edges


def test_explicit_edges_never_fade():
    g = ConceptGraph()
    g.apply_message(SetEdge("a", "b", 0.4))
    for _ in range(100):
        g.tick(30)
    assert g.edges[("a", "b")].weight == 0.4


def test_theme_assignment_only_objects():
    g = ConceptGraph()
    g.apply_message(ActivateConcept("cave", "environment", 10.0, "set"))
    with pytest.raises(GraphError):
        g.apply_message(AssignTheme("cave", 3))
    g.apply_message(AssignTheme("wolf", 4))  # creates the object vertex
    assert g.vertices["wolf"].theme == 4


def test_dominant_theme_ties():
    g = no_fade()
    g.apply_message(AssignTheme("a", 1))
    g.apply_message(AssignTheme("b", 2))
    g.apply_message(ActivateConcept("a", "object", 50.0, "set"))
    g.apply_message(ActivateConcept("b", "object", 80.0, "set"))
    assert g.dominant_theme() == (2, "b")
    g.apply_message(ActivateConcept("a", "object", 80.0, "set"))
    # equal activation: most recent activation wins
    assert g.dominant_theme() == (1, "a")


def test_dominant_theme_none_when_inactive():
    g = ConceptGraph()
    g.apply_message(AssignTheme("a", 1))
    assert g.dominant_theme() is None


def test_nearest_themed_follows_shortest_paths():
    g = no_fade()
    g.apply_message(AssignTheme("near", 1))
    g.apply_message(AssignTheme("far", 2))
    g.apply_message(SetEdge("x", "near", 0.9))   # length 1.11
    g.apply_message(SetEdge("x", "mid", 0.5))
    g.apply_message(SetEdge("mid", "far", 0.5))  # total length 4
    assert g.nearest_themed("x", 2) == [1, 2]
    assert g.nearest_themed("x", 1) == [1]


def test_nearest_themed_excludes_source():
    g = no_fade()
    g.apply_message(AssignTheme("x", 9))
    g.apply_message(AssignTheme("y", 3))
    g.apply_message(SetEdge("x", "y", 1.0))
    assert g.nearest_themed("x", 1) == [3]


def test_affect_snapshot_order():
    g = ConceptGraph()
    g.apply_message(SetAffect("happiness", 1.0, "set"))
    g.apply_message(SetAffect("threat", 6.0, "set"))
    assert g.affect_snapshot() == AffectSnapshot(happiness=1.0, threat=6.0)
    assert tuple(g.affect_snapshot()) == (1.0, 0.0, 0.0, 0.0, 0.0, 6.0)


def test_dump_is_stable():
    graphs = []
    for _ in range(2):
        g = ConceptGraph()
        g.apply_message(ActivateConcept("a", "object", 10.0, "set"))
        graphs.append(g)
    assert graphs[0].dump() == graphs[1].dump()
