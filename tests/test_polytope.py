import random

import pytest
from hypothesis import given, settings

import cosmopoly.polytope as polytope_module
from cosmopoly.errors import Budget, BudgetExceeded, DisconnectedGraph
from cosmopoly.hstar import hstar_closed_multicycle, hstar_ehrhart
from cosmopoly.multigraph import (
    Multigraph,
    bundle,
    connected_subgraphs,
    disjoint_union,
    loop_graph,
    multicycle,
    one_sum,
    path_graph,
    single_edge,
    theta_graph,
    triangle,
)
from cosmopoly.polytope import (
    _sumsets,
    _zero_facet_masks,
    count_dilate_points,
    count_interior_points,
    dimension,
    facet_inequalities,
    lattice_points,
)
from cosmopoly.sweep import enumerate_connected_multigraphs

from oracles import (
    box_count_points,
    dot_product_masks,
    interior_count_by_reciprocity,
    matrix_rank,
    pairwise_sumsets,
    relabeled,
    series_count,
    small_multigraphs,
)

# reference h* values these dilate counts are reconstructed from
H_EDGE = (1, 3)
H_LOOP = (1, 1)
H_TRIANGLE = (1, 9, 27, 19)
H_BUNDLE2 = (1, 6, 5)


def test_lattice_point_counts():
    assert len(lattice_points(single_edge())) == 6
    assert len(lattice_points(loop_graph(1))) == 3
    assert len(lattice_points(triangle())) == 15


def test_loop_points_exact():
    pts = {p.name: p.coords for p in lattice_points(loop_graph(1))}
    assert pts == {"zv0": (1, 0), "ze0": (0, 1), "t0": (2, -1)}


def test_point_count_formula_and_sum_one():
    for g in [single_edge(), loop_graph(2), triangle(), bundle(3), multicycle((2, 1, 1))]:
        pts = lattice_points(g)
        assert len(pts) == g.vertex_count + 4 * len(g.edges) - 2 * g.loop_count
        assert all(sum(p.coords) == 1 for p in pts)
        assert all(
            all(-1 <= c <= 2 for c in p.coords) for p in pts
        )


def test_dimension():
    assert dimension(single_edge()) == 2
    assert dimension(loop_graph(1)) == 1
    assert dimension(triangle()) == 5


def test_facets_single_edge():
    normals = {f.normal for f in facet_inequalities(single_edge())}
    assert normals == {(1, 0, 1), (0, 1, 1), (1, 1, 0)}


def test_facets_loop():
    normals = {f.normal for f in facet_inequalities(loop_graph(1))}
    assert normals == {(1, 2), (1, 0)}  # loop outside the subgraph counts twice


def test_facets_triangle_count():
    assert len(facet_inequalities(triangle())) == 10


@pytest.mark.parametrize(
    "g",
    [single_edge(), loop_graph(1), loop_graph(2), bundle(2), triangle(), multicycle((2, 1, 1))],
)
def test_facet_count_matches_connected_subgraphs(g):
    facets = facet_inequalities(g)
    # one facet per connected subgraph, and no two with the same normal
    assert len({f.normal for f in facets}) == len(facets) == len(list(connected_subgraphs(g)))


@pytest.mark.parametrize("g", [single_edge(), loop_graph(1), bundle(2), triangle()])
def test_facets_valid_and_tight(g):
    pts = lattice_points(g)
    d = dimension(g)
    for f in facet_inequalities(g):
        values = [sum(c * x for c, x in zip(f.normal, p.coords)) for p in pts]
        assert all(v >= 0 for v in values)
        assert any(v > 0 for v in values)
        on_facet = [p for p, v in zip(pts, values) if v == 0]
        # affine rank d means a genuine facet: d affinely independent points
        base = on_facet[0].coords
        diffs = [[a - b for a, b in zip(p.coords, base)] for p in on_facet[1:]]
        assert matrix_rank(diffs) == d - 1


def test_facets_reject_disconnected():
    with pytest.raises(DisconnectedGraph):
        facet_inequalities(disjoint_union(single_edge(), single_edge()))
    with pytest.raises(DisconnectedGraph):
        count_dilate_points(disjoint_union(single_edge(), loop_graph(1)), 1)


def test_dilate_counts_single_edge():
    g = single_edge()
    with pytest.raises(ValueError, match="dilation factor must be nonnegative"):
        count_dilate_points(g, -1)
    assert count_dilate_points(g, 0) == 1
    assert count_dilate_points(g, 1) == 6
    assert count_dilate_points(g, 2) == 15
    assert series_count(H_EDGE, 2, 2) == 15


def test_dilate_counts_loop():
    g = loop_graph(1)
    assert [count_dilate_points(g, t) for t in range(4)] == [1, 3, 5, 7]
    assert series_count(H_LOOP, 1, 3) == 7


def test_dilate_counts_triangle():
    g = triangle()
    expected = [series_count(H_TRIANGLE, 5, t) for t in range(4)]
    assert expected == [1, 15, 102, 426]
    assert [count_dilate_points(g, t) for t in range(4)] == expected


def test_dilate_counts_bundle2():
    g = bundle(2)
    assert count_dilate_points(g, 1) == len(lattice_points(g)) == 10
    assert count_dilate_points(g, 2) == series_count(H_BUNDLE2, 3, 2)


def test_interior_counts_single_edge():
    g = single_edge()
    assert count_interior_points(g, 1) == 0
    # all of e_u+e_v, e_u+e_f, e_v+e_f are interior at t = 2; reciprocity agrees
    assert count_interior_points(g, 2) == interior_count_by_reciprocity(H_EDGE, 2, 2) == 3


def test_interior_counts_triangle():
    g = triangle()
    assert count_interior_points(g, 2) == 0
    assert count_interior_points(g, 3) == interior_count_by_reciprocity(H_TRIANGLE, 5, 3) == 19


def test_interior_counts_loop():
    g = loop_graph(1)
    assert count_interior_points(g, 1) == interior_count_by_reciprocity(H_LOOP, 1, 1) == 1


@pytest.mark.parametrize(
    "g", [single_edge(), loop_graph(1), loop_graph(2), path_graph(2), bundle(2)]
)
def test_codegree_is_vertex_count(g):
    nv = g.vertex_count
    assert all(count_interior_points(g, t) == 0 for t in range(1, nv))
    assert count_interior_points(g, nv) > 0


def test_dilate_budget():
    with pytest.raises(BudgetExceeded):
        count_dilate_points(triangle(), 3, budget=10)


def test_sumset_counts_match_box_oracle():
    # the box search assumes nothing about IDP; one past the dilates that
    # hstar_ehrhart reads, and one past the codegree
    rng = random.Random(5)
    for g in enumerate_connected_multigraphs(6):
        for h in (g, relabeled(g, rng)):
            for t in range(len(h.edges) + 2):
                assert count_dilate_points(h, t) == box_count_points(h, t, False, None)
            for t in range(1, h.vertex_count + 2):
                assert count_interior_points(h, t) == box_count_points(h, t, True, None)


K4 = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
LOOPED = [loop_graph(3), one_sum(bundle(2), loop_graph(2)), one_sum(triangle(), loop_graph(2))]


def sumset_cases():
    """(graph, top): the |V|+|E| <= 7 sweep with a relabelling of each graph,
    and the looped graphs, to one past the dilates that hstar_ehrhart reads;
    theta(2,2,2) and K4 to 4."""
    rng = random.Random(11)
    for g in enumerate_connected_multigraphs(7):
        for h in (g, relabeled(g, rng)):
            yield h, len(h.edges) + 1
    for g in LOOPED:
        yield g, len(g.edges) + 1
    yield theta_graph(2, 2, 2), 4
    yield K4, 4


@pytest.mark.parametrize("interior", [False, True], ids=["dilates", "interiors"])
def test_sumsets_match_pairwise_oracle(interior):
    # each sum formed once per multiset of summands gives the same counts as
    # every sum formed from every pair, and charges the same nodes, also when
    # the budget runs out part way
    for g, top in sumset_cases():
        fast, slow = Budget(None), Budget(None)
        assert list(_sumsets(g, top, fast, interior)) == list(
            pairwise_sumsets(g, top, slow, interior)
        )
        assert fast.used == slow.used
        capped = []
        for sumsets in (_sumsets, pairwise_sumsets):
            bud, seen = Budget(fast.used // 2), []
            with pytest.raises(BudgetExceeded):
                seen.extend(sumsets(g, top, bud, interior))
            capped.append((seen, bud.used))
        assert capped[0] == capped[1]


def test_zero_facet_masks_match_dot_products():
    # the vanishing rules read off the subgraphs give, bit for bit, the masks
    # of the facet normals' dot products with the lattice points, whose
    # facets come in the order of the subgraphs
    for g, _ in sumset_cases():
        masks = _zero_facet_masks(g, list(connected_subgraphs(g)))
        assert masks == dot_product_masks(g, facet_inequalities(g))


def test_ehrhart_route_builds_no_normals(monkeypatch):
    # the interior counts take the facet subgraphs, never the normals
    def refuse(*args, **kwargs):
        raise AssertionError("facet normals built")

    monkeypatch.setattr(polytope_module, "facet_inequalities", refuse)
    assert hstar_ehrhart(multicycle((2, 1, 1))) == hstar_closed_multicycle((2, 1, 1))
    assert count_interior_points(triangle(), 3) == 19


@pytest.mark.parametrize(
    "g, h",
    [(triangle(), H_TRIANGLE), (multicycle((2, 1, 1)), hstar_closed_multicycle((2, 1, 1)).coeffs)],
)
def test_ehrhart_budget_is_sumset_steps(g, h):
    # one sumset run up to top = max(a, |V| + b); step k pays |S_(k-1)| =
    # N(k-1) times the number of lattice points, and the interior counts,
    # needed when b >= 0, add one facet scan
    d = dimension(g)
    ne = len(g.edges)
    a = min(ne, (d + 1) // 2)
    b = ne - 1 - a
    top = max(a, g.vertex_count + b)
    expected = sum(series_count(h, d, k) * len(lattice_points(g)) for k in range(top))
    if b >= 0:
        scan = Budget(None)
        list(connected_subgraphs(g, scan))
        expected += scan.used
    bud = Budget(None)
    hstar_ehrhart(g, bud)
    assert bud.used == expected


@given(small_multigraphs(max_vertices=3, max_edges=3))
@settings(max_examples=20, deadline=None)
def test_first_dilate_counts_lattice_points(g):
    from cosmopoly.multigraph import is_connected

    if not is_connected(g):
        return
    assert count_dilate_points(g, 1) == len(lattice_points(g))
