import pytest
from hypothesis import given, settings

import cosmopoly.grobner as grobner
from cosmopoly.errors import BudgetExceeded
from cosmopoly.grobner import (
    CYCLIC,
    FUNDAMENTAL,
    TermOrder,
    cyclic_binomials,
    default_good_order,
    fundamental_binomials,
    is_good_order,
    leading_support,
    monomial_image,
    monomial_support,
    obstruction_set,
    reduced_generators,
    zigzag_binomials,
)
from cosmopoly.multigraph import (
    bundle,
    loop_graph,
    multicycle,
    path_graph,
    single_edge,
    star_graph,
    triangle,
)
from cosmopoly.polytope import (
    YBACKWARD,
    YFORWARD,
    ZEDGE,
    ZVERTEX,
    lattice_points,
)
from cosmopoly.sweep import enumerate_connected_multigraphs

from oracles import small_multigraphs

CORPUS = [
    single_edge(),
    loop_graph(1),
    loop_graph(2),
    path_graph(2),
    star_graph(3),
    bundle(2),
    bundle(3),
    triangle(),
    multicycle((2, 1, 1)),
]


def names(order):
    return [p.name for p in order.ranked]


def test_default_order_single_edge():
    assert names(default_good_order(single_edge())) == [
        "yf0", "yb0", "ze0", "t0", "zv0", "zv1",
    ]


def test_default_order_loop():
    assert names(default_good_order(loop_graph(1))) == ["ze0", "t0", "zv0"]


def test_default_order_multicycle_layout():
    # forward y's ascending, backward y's descending, then ze, t, zv ascending
    order = default_good_order(multicycle((2, 1, 1)))
    assert names(order) == [
        "yf0", "yf1", "yf2", "yf3",
        "yb3", "yb2", "yb1", "yb0",
        "ze0", "ze1", "ze2", "ze3",
        "t0", "t1", "t2", "t3",
        "zv0", "zv1", "zv2",
    ]


@pytest.mark.parametrize("g", CORPUS)
def test_default_order_is_good(g):
    assert is_good_order(default_good_order(g), g)


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_default_order_is_good_on_sweep(seed, monkeypatch):
    # the triangulate command relies on this instead of checking each order;
    # the second pass skips the class-ranking shortcut and checks every
    # fundamental and cycle binomial
    graphs = list(enumerate_connected_multigraphs(6))
    assert all(is_good_order(default_good_order(g, seed), g) for g in graphs)
    monkeypatch.setattr(grobner, "_class_ranked", lambda order, g: False)
    assert all(is_good_order(default_good_order(g, seed), g) for g in graphs)


def test_vertex_heavy_order_is_not_good():
    g = single_edge()
    pts = {p.name: p for p in lattice_points(g)}
    bad = TermOrder(
        [pts["zv0"], pts["zv1"], pts["yf0"], pts["yb0"], pts["ze0"], pts["t0"]]
    )
    assert not is_good_order(bad, g)


def test_loop_order_needs_t_above_vertex():
    g = loop_graph(1)
    pts = {p.name: p for p in lattice_points(g)}
    assert not is_good_order(TermOrder([pts["zv0"], pts["ze0"], pts["t0"]]), g)
    assert is_good_order(TermOrder([pts["t0"], pts["ze0"], pts["zv0"]]), g)


def test_seeded_order_stays_good_and_differs():
    g = multicycle((2, 1, 1))
    seeded = default_good_order(g, seed=7)
    assert is_good_order(seeded, g)
    assert names(seeded) != names(default_good_order(g))
    assert names(seeded) == names(default_good_order(g, seed=7))  # reproducible


def test_fundamental_counts():
    assert len(fundamental_binomials(single_edge())) == 6
    assert len(fundamental_binomials(loop_graph(1))) == 1
    assert len(fundamental_binomials(triangle())) == 18


def test_loop_fundamental_is_degenerate_square():
    (b,) = fundamental_binomials(loop_graph(1))
    assert {p.name for p in monomial_support(b.lhs)} == {"t0", "ze0"}
    assert [(p.name, e) for p, e in b.rhs] == [("zv0", 2)]


def test_zigzag_counts():
    assert zigzag_binomials(single_edge()) == []
    assert len(zigzag_binomials(path_graph(2))) == 2
    assert len(zigzag_binomials(triangle())) == 6


def test_zigzag_pair_directions_are_sign_flips():
    a, b = zigzag_binomials(path_graph(2))
    assert a.lhs == b.rhs and a.rhs == b.lhs


def test_cyclic_counts():
    assert len(cyclic_binomials(bundle(2))) == 4
    assert len(cyclic_binomials(triangle())) == 8
    assert cyclic_binomials(loop_graph(1)) == []


@pytest.mark.parametrize("g", CORPUS)
def test_binomials_are_balanced(g):
    for b in (
        fundamental_binomials(g) + zigzag_binomials(g) + cyclic_binomials(g)
    ):
        assert b.is_balanced(), b


@given(small_multigraphs())
@settings(max_examples=40, deadline=None)
def test_binomials_balanced_property(g):
    for b in fundamental_binomials(g) + zigzag_binomials(g) + cyclic_binomials(g):
        assert monomial_image(b.lhs) == monomial_image(b.rhs)


def test_leading_supports_single_edge():
    g = single_edge()
    order = default_good_order(g)
    by_support = {
        frozenset(p.name for p in leading_support(b, order))
        for b in fundamental_binomials(g)
    }
    assert by_support == {
        frozenset({"yf0", "yb0"}),
        frozenset({"yf0", "t0"}),
        frozenset({"yb0", "t0"}),
        frozenset({"yf0", "zv1"}),
        frozenset({"yb0", "zv0"}),
        frozenset({"t0", "ze0"}),
    }


def test_cycle_binomial_leads_with_y_side():
    g = triangle()
    order = default_good_order(g)
    for b in cyclic_binomials(g):
        kinds_lhs = {p.kind for p in monomial_support(b.lhs)}
        if kinds_lhs == {YFORWARD} or kinds_lhs == {YBACKWARD} or kinds_lhs <= {YFORWARD, YBACKWARD}:
            if all(p.kind == ZEDGE for p in monomial_support(b.rhs)):
                sup = leading_support(b, order)
                assert all(p.kind in (YFORWARD, YBACKWARD) for p in sup)


def test_obstruction_counts():
    g = single_edge()
    assert len(obstruction_set(g, default_good_order(g))) == 6
    loop = loop_graph(1)
    (only,) = obstruction_set(loop, default_good_order(loop))
    assert {p.name for p in only} == {"t0", "ze0"}
    double = bundle(2)
    assert len(obstruction_set(double, default_good_order(double))) == 16


def test_double_edge_cyclic_obstruction_shapes():
    g = bundle(2)
    order = default_good_order(g)
    supports = {
        frozenset(p.name for p in leading_support(b, order))
        for b in cyclic_binomials(g)
    }
    assert supports == {
        frozenset({"yf0", "yb1"}),
        frozenset({"yb0", "yf1"}),
        frozenset({"yf0", "ze1"}),
        frozenset({"ze0", "yb1"}),
    }


@pytest.mark.parametrize("g", CORPUS)
def test_obstructions_squarefree_and_fundamental_incomparable(g):
    order = default_good_order(g)
    obs = obstruction_set(g, order)
    assert all(len(o) >= 2 for o in obs)
    per_edge = {}
    for b in fundamental_binomials(g):
        per_edge.setdefault(b.witness[0], []).append(leading_support(b, order))
    for supports in per_edge.values():
        for i, a in enumerate(supports):
            for b2 in supports[i + 1 :]:
                assert not (a <= b2 or b2 <= a)


@pytest.mark.parametrize("a", [(1, 1, 1), (2, 1, 1)])
def test_multicycle_zigzag_supports_point_clockwise(a):
    """Leading zig-zag supports on a canonical multicycle: one white node (a
    path endpoint), forward-directed y's, plain z's, nothing else."""
    g = multicycle(a)
    order = default_good_order(g)
    for b in zigzag_binomials(g):
        sup = leading_support(b, order)
        kinds = sorted(p.kind for p in sup)
        whites = [p for p in sup if p.kind == ZVERTEX]
        path = b.witness[0]
        assert len(whites) == 1
        assert whites[0].index in (path.vertices[0], path.vertices[-1])
        assert all(k in (ZVERTEX, ZEDGE, YFORWARD) for k in kinds)
        assert any(k == YFORWARD for k in kinds)


def test_reduced_generators_counts():
    assert len(reduced_generators(path_graph(3))) == 18  # fundamentals only
    assert all(b.family == FUNDAMENTAL for b in reduced_generators(star_graph(2)))
    tri = reduced_generators(triangle())
    assert len(tri) == 18 + 4
    assert sum(1 for b in tri if b.family == CYCLIC) == 4
    assert len(reduced_generators(loop_graph(1))) == 1


def test_budget_threads_through_families():
    with pytest.raises(BudgetExceeded):
        zigzag_binomials(multicycle((2, 2, 2)), budget=3)
    with pytest.raises(BudgetExceeded):
        cyclic_binomials(triangle(), budget=3)
