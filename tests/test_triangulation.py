import warnings

import pytest
from hypothesis import given, settings

from cosmopoly.errors import (
    BudgetExceeded,
    DisconnectedGraph,
    ObstructionViolation,
    StructureViolation,
    WrongCardinality,
)
from cosmopoly.grobner import default_good_order, obstruction_set
from cosmopoly.multigraph import (
    bundle,
    disjoint_union,
    is_connected,
    loop_graph,
    multicycle,
    path_graph,
    single_edge,
    triangle,
)
from cosmopoly.polytope import lattice_points, point_by_name
from cosmopoly.sweep import enumerate_connected_multigraphs
from cosmopoly.triangulation import (
    build_triangulation,
    decorated_view,
    enumerate_triangulation,
    normalized_volume,
    sq_db_counts,
    validate_multicycle_structure,
)

from oracles import brute_cells, small_multigraphs


def name_sets(simplices):
    return {frozenset(p.name for p in s) for s in simplices}


def test_single_edge_triangulation_exact():
    assert name_sets(build_triangulation(single_edge())) == {
        frozenset({"t0", "zv0", "zv1"}),
        frozenset({"yf0", "zv0", "ze0"}),
        frozenset({"yb0", "zv1", "ze0"}),
        frozenset({"zv0", "zv1", "ze0"}),
    }


def test_loop_triangulation_exact():
    assert name_sets(build_triangulation(loop_graph(1))) == {
        frozenset({"zv0", "ze0"}),
        frozenset({"zv0", "t0"}),
    }


def test_triangle_cell_count_is_volume():
    assert len(build_triangulation(triangle())) == 4**3 - 2**3


def test_bundle2_cell_count():
    assert len(build_triangulation(bundle(2))) == 12


@pytest.mark.parametrize(
    "g",
    [single_edge(), loop_graph(1), path_graph(2), bundle(2), bundle(3), triangle(),
     multicycle((2, 1, 1))],
)
def test_cells_unimodular_distinct_and_cover(g):
    simplices = build_triangulation(g)
    assert len(set(simplices)) == len(simplices)
    assert all(normalized_volume(s) == 1 for s in simplices)
    used = {p for s in simplices for p in s}
    assert used == set(lattice_points(g))


def test_normalized_volume_values():
    g = single_edge()
    pts = lambda *ns: [point_by_name(g, n) for n in ns]
    assert normalized_volume(pts("zv0", "zv1", "ze0")) == 1
    assert normalized_volume(pts("yf0", "yb0", "ze0")) == 0  # yf + yb = 2 ze
    with pytest.raises(WrongCardinality):
        normalized_volume(pts("zv0", "zv1"))


def test_enumeration_rejects_disconnected():
    g = disjoint_union(single_edge(), single_edge())
    with pytest.raises(DisconnectedGraph):
        enumerate_triangulation(g, [])


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        build_triangulation(triangle(), budget=5)


def test_missing_obstructions_flagged_as_wrong_cardinality():
    # with no obstructions every point set extends to all points, so size
    # |V|+|E| sets cannot be maximal
    with pytest.raises(ObstructionViolation):
        enumerate_triangulation(single_edge(), [])


def test_enumeration_matches_brute_cells():
    # the full obstruction set, and each single obstruction dropped: the
    # search returns exactly the brute-force cells, or raises exactly when a
    # larger obstruction-free set exists
    cases = raised = 0
    for g in enumerate_connected_multigraphs(5):
        obs = obstruction_set(g, default_good_order(g))
        for drop in [None, *range(len(obs))]:
            kept = [o for i, o in enumerate(obs) if i != drop]
            cells, larger = brute_cells(g, kept)
            cases += 1
            if larger:
                raised += 1
                with pytest.raises(ObstructionViolation):
                    enumerate_triangulation(g, kept)
            else:
                found = enumerate_triangulation(g, kept)
                assert len(found) == len(cells)
                assert {frozenset(s) for s in found} == cells
    assert cases == 127 and 0 < raised < cases


def test_decorated_views_single_edge():
    g = single_edge()
    pts = lambda *ns: tuple(point_by_name(g, n) for n in ns)
    squiggle = decorated_view(pts("t0", "zv0", "zv1"), g)
    assert squiggle.white_vertices == {0, 1}
    assert squiggle.edge_roles == (frozenset({"squiggly"}),)
    double = decorated_view(pts("yf0", "zv0", "ze0"), g)
    assert double.white_vertices == {0}
    assert double.edge_roles == (frozenset({"plain", "forward"}),)
    plain = decorated_view(pts("zv0", "zv1", "ze0"), g)
    assert plain.edge_roles == (frozenset({"plain"}),)


def test_sq_db_counts():
    g = single_edge()
    pts = lambda *ns: tuple(point_by_name(g, n) for n in ns)
    assert sq_db_counts(decorated_view(pts("t0", "zv0", "zv1"), g)) == (1, 0)
    assert sq_db_counts(decorated_view(pts("yf0", "zv0", "ze0"), g)) == (0, 1)
    assert sq_db_counts(decorated_view(pts("zv0", "zv1", "ze0"), g)) == (0, 0)


def test_decorated_view_warns_off_multicycle():
    g = path_graph(2)
    pts = tuple(point_by_name(g, n) for n in ("zv0", "zv1", "zv2", "t0"))  # edge 1 bare
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        decorated_view(pts, g)
    assert caught and "strokes" in str(caught[0].message)


def test_decorated_view_raises_on_multicycle():
    g = triangle()
    pts = tuple(
        point_by_name(g, n) for n in ("zv0", "zv1", "zv2", "t0", "yf1", "yb1")
    )  # edge 1 carries two directed strokes, edge 2 none
    with pytest.raises(StructureViolation):
        decorated_view(pts, g)


@pytest.mark.parametrize("a", [(1, 1, 1), (2, 1, 1)])
def test_multicycle_structure_validates(a):
    g = multicycle(a)
    simplices = build_triangulation(g)
    report = validate_multicycle_structure(g, simplices)
    assert report.simplex_count == len(simplices)
    assert sum(report.arc_pattern_counts) > 0


def test_multicycle_structure_rejects_mutant():
    g = multicycle((2, 1, 1))
    # two double edges inside the first multi-edge
    mutant = tuple(
        point_by_name(g, n)
        for n in ("zv0", "ze0", "yf0", "ze1", "yf1", "ze2", "ze3")
    )
    with pytest.raises(StructureViolation):
        validate_multicycle_structure(g, [mutant])


def test_multicycle_structure_requires_canonical_layout():
    with pytest.raises(ValueError):
        validate_multicycle_structure(bundle(2), [])


@given(small_multigraphs(max_vertices=3, max_edges=3))
@settings(max_examples=25, deadline=None)
def test_triangulation_cells_unimodular_property(g):
    if not is_connected(g):
        return
    simplices = build_triangulation(g)
    assert all(normalized_volume(s) == 1 for s in simplices)
    target = g.vertex_count + len(g.edges)
    assert all(len(s) == target for s in simplices)
