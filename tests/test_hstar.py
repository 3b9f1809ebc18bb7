import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import cosmopoly.hstar as hstar_module
from cosmopoly.errors import (
    Budget,
    DisconnectedGraph,
    NoMethodAvailable,
    TheoremViolation,
)
from cosmopoly.hstar import (
    IntPolynomial,
    ONE_PLUS_3Z,
    ONE_PLUS_Z,
    build_anchor,
    check_statistic_conjecture,
    check_structure_theorems,
    check_upper_bound_conjecture,
    ehrhart_count_from_hstar,
    hstar,
    hstar_blocks,
    hstar_closed_bundle,
    hstar_closed_multicycle,
    hstar_ehrhart,
    hstar_visibility,
    lower_bound_polynomial,
    statistic_polynomial,
    theta_hstar,
)
from cosmopoly.multigraph import (
    Multigraph,
    bundle,
    disjoint_union,
    is_connected,
    loop_graph,
    multicycle,
    multitree,
    one_sum,
    path_graph,
    single_edge,
    star_graph,
    theta_graph,
    triangle,
)
from cosmopoly.polytope import count_dilate_points, dimension, lattice_points
from cosmopoly.sweep import enumerate_connected_multigraphs
from cosmopoly.triangulation import build_triangulation, placing_pass

from oracles import (
    barycentric,
    point_on_a_cell_facet_hyperplane,
    relabeled,
    small_multigraphs,
    two_pass_visibility,
)


def poly(*coeffs):
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# IntPolynomial


def test_polynomial_arithmetic():
    p = poly(1, 3)
    assert p * p == poly(1, 6, 9)
    assert p**3 == poly(1, 9, 27, 27)
    assert p**0 == poly(1)
    assert (p - poly(1, 3)) == poly()
    assert poly(0, 2) ** 3 == poly(0, 0, 0, 8)
    assert p(1) == 4 and p(2) == 7
    assert poly(1, 2).coefficient(5) == 0


def test_polynomial_normalization_and_degree():
    assert poly(1, 0, 0).coeffs == (1,)
    assert poly().degree == -1
    assert poly(1, 9, 27, 19).degree == 3


def test_polynomial_str():
    assert str(poly(1, 3)) == "1 + 3z"
    assert str(poly(1, 9, 27, 19)) == "1 + 9z + 27z^2 + 19z^3"
    assert str(poly(1, -2, 1)) == "1 - 2z + z^2"
    assert str(poly(0, 1)) == "z"
    assert str(poly()) == "0"


def test_polynomial_comparisons():
    assert poly(1, 7, 15, 9).leq(poly(1, 9, 27, 19))
    assert not poly(1, 9, 27, 19).leq(poly(1, 7, 15, 9))
    assert poly(1, 2, 1).is_palindromic()
    assert not poly(1, 3).is_palindromic()


# ---------------------------------------------------------------------------
# Closed forms


def test_bundle_closed_forms():
    assert hstar_closed_bundle(1) == poly(1, 3)
    assert hstar_closed_bundle(2) == poly(1, 6, 5)
    assert hstar_closed_bundle(3) == poly(1, 9, 15, 7)


def test_bundle_volumes():
    for m in (1, 2, 3):
        assert hstar_closed_bundle(m)(1) == 2**m * (1 + m)


def test_multicycle_closed_forms():
    assert hstar_closed_multicycle((1, 1, 1)) == ONE_PLUS_3Z**3 - poly(0, 2) ** 3
    assert hstar_closed_multicycle((1, 1, 1)) == poly(1, 9, 27, 19)
    assert hstar_closed_multicycle((2, 1, 1)) == poly(1, 12, 50, 68, 29)


def test_multicycle_volume_formula():
    for a in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        prod_full = 1
        prod_dbl = 1
        for x in a:
            prod_full *= (1 + x) * 2**x
            prod_dbl *= x * 2**x
        assert hstar_closed_multicycle(a)(1) == prod_full - prod_dbl
    assert hstar_closed_multicycle((2, 1, 1))(1) == 160


# ---------------------------------------------------------------------------
# Anchor


def test_anchor_single_edge_exact():
    g = single_edge()
    anchor = build_anchor(g)
    assert anchor.coords == (Fraction(5, 12), Fraction(5, 12), Fraction(1, 6))
    assert anchor.perturbation_index == 0


def test_anchor_multicycle_matches_published_weights():
    g = multicycle((2, 1, 1))
    anchor = build_anchor(g)
    n = 3
    assert anchor.coords[0] == Fraction(1, n) * Fraction(2 * n + 1, 2 * (n + 1))
    assert anchor.coords[n] == Fraction(1, 4) * Fraction(1, 2 * (n + 1))


def test_anchor_interior_of_loop_segment():
    g = loop_graph(1)
    anchor = build_anchor(g)
    assert anchor.coords == (Fraction(3, 4), Fraction(1, 4))
    assert sum(anchor.coords) == 1


def test_anchor_perturbation_schedule_keeps_invariants():
    from cosmopoly.hstar import _perturbed_anchor

    g = triangle()
    base = _perturbed_anchor(g, 0)
    for index in (1, 2, 5):
        q = _perturbed_anchor(g, index)
        assert sum(q) == 1
        assert q != base
        assert all(c > 0 for c in q)  # tiny alternating shifts keep positivity


@pytest.mark.parametrize(
    "g", [single_edge(), loop_graph(2), bundle(3), triangle(), multicycle((2, 1, 1))]
)
def test_anchor_strictly_inside_every_facet(g):
    from cosmopoly.polytope import facet_inequalities

    anchor = build_anchor(g)
    for f in facet_inequalities(g):
        assert sum(c * q for c, q in zip(f.normal, anchor.coords)) > 0


def _spend(call, *args) -> int:
    bud = Budget(None)
    call(*args, budget=bud)
    return bud.used


def test_anchor_retry_when_base_point_hits_a_facet_hyperplane(monkeypatch):
    g = triangle()
    cells = build_triangulation(g)
    schedule = hstar_module._perturbed_anchor
    on_hyperplane = point_on_a_cell_facet_hyperplane(cells, schedule(g, 0))
    monkeypatch.setattr(
        hstar_module,
        "_perturbed_anchor",
        lambda g, index: on_hyperplane if index == 0 else schedule(g, index),
    )
    bud = Budget(None)
    anchor = build_anchor(g, budget=bud)
    assert anchor.perturbation_index == 1
    assert anchor.coords == tuple(schedule(g, 1))
    assert list(anchor.cells) == cells
    assert hstar_visibility(g) == hstar_closed_multicycle((1, 1, 1))
    # two placing passes: the first is dropped at the first cell whose facet
    # hyperplane holds the candidate, the second runs in full
    points = lattice_points(g)
    scale = math.lcm(*(c.denominator for c in on_hyperplane))
    ints = [int(c * scale) for c in on_hyperplane]
    dropped = Budget(None)
    for cell, _ in placing_pass(g, budget=dropped):
        if 0 in barycentric([points[i] for i in cell], ints):
            break
    else:
        raise AssertionError("the candidate misses every facet hyperplane")
    full = _spend(build_triangulation, g)
    assert 0 < dropped.used < full
    assert bud.used == dropped.used + full


def test_visibility_one_placing_pass():
    for g in (theta_graph(1, 1, 2), multicycle((2, 1, 1))):
        assert _spend(hstar_visibility, g) == _spend(build_triangulation, g) > 0


def test_visibility_matches_two_pass_oracle():
    rng = random.Random(3)
    for g in enumerate_connected_multigraphs(6):
        for h in (g, relabeled(g, rng), relabeled(g, rng)):
            cells = build_triangulation(h)
            coords, index, coeffs = two_pass_visibility(h, cells)
            anchor = build_anchor(h)
            assert (anchor.coords, anchor.perturbation_index) == (coords, index)
            assert list(anchor.cells) == cells
            assert hstar_visibility(h).coeffs == tuple(coeffs)


# ---------------------------------------------------------------------------
# The three routes agree


def test_visibility_examples():
    assert hstar(single_edge(), "visibility") == poly(1, 3)
    assert hstar(loop_graph(1), "visibility") == poly(1, 1)
    assert hstar(triangle(), "visibility") == poly(1, 9, 27, 19)


def test_ehrhart_examples():
    assert hstar_ehrhart(single_edge()) == poly(1, 3)
    assert hstar_ehrhart(loop_graph(1)) == poly(1, 1)
    assert hstar_ehrhart(triangle()) == poly(1, 9, 27, 19)
    # the truncation to |E| + 1 dilates predicts the next dilate
    for g in [single_edge(), bundle(2)]:
        t = len(g.edges) + 1
        h = hstar_ehrhart(g)
        assert ehrhart_count_from_hstar(h, dimension(g), t) == count_dilate_points(g, t)


def test_ehrhart_reconstruction_roundtrip():
    h = poly(1, 9, 27, 19)
    assert [ehrhart_count_from_hstar(h, 5, t) for t in range(4)] == [1, 15, 102, 426]


def test_blocks_examples():
    assert hstar_blocks(path_graph(2)) == ONE_PLUS_3Z**2
    assert hstar_blocks(path_graph(3)) == ONE_PLUS_3Z**3
    assert hstar_blocks(star_graph(3)) == ONE_PLUS_3Z**3
    assert hstar_blocks(one_sum(triangle(), triangle())) == poly(1, 9, 27, 19) ** 2
    loop_pendant = Multigraph.from_pairs(2, [(0, 0), (0, 1)])
    assert hstar_blocks(loop_pendant) == ONE_PLUS_Z * ONE_PLUS_3Z


def test_multitree_is_product_of_bundles():
    assert hstar_blocks(multitree((2, 3))) == hstar_closed_bundle(2) * hstar_closed_bundle(3)
    assert hstar(multitree((2, 2)), "visibility") == hstar_closed_bundle(2) ** 2


@pytest.mark.parametrize(
    "g",
    [single_edge(), loop_graph(1), loop_graph(2), path_graph(2), bundle(2), bundle(3),
     triangle(), multicycle((2, 1, 1)), theta_graph(1, 2, 2)],
)
def test_methods_agree(g):
    h = hstar_blocks(g)
    assert hstar_visibility(g) == h
    assert hstar_ehrhart(g) == h


def test_visibility_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        hstar_visibility(disjoint_union(single_edge(), single_edge()))


def test_union_multiplicativity_without_block_shortcut():
    parts = [triangle(), bundle(2)]
    union = disjoint_union(*parts)
    product = hstar(parts[0], "visibility") * hstar(parts[1], "visibility")
    assert hstar(union, method="visibility") == product
    assert hstar_blocks(union) == product


def test_one_sum_multiplicativity_full_run():
    glued = one_sum(single_edge(), loop_graph(1))
    left = hstar_visibility(glued)
    assert left == hstar(single_edge(), "visibility") * hstar(loop_graph(1), "visibility")


def test_volume_equals_cell_count():
    for g in [single_edge(), bundle(2), triangle(), multicycle((2, 1, 1))]:
        cells = build_triangulation(g)
        assert hstar_visibility(g)(1) == len(cells)


# ---------------------------------------------------------------------------
# Dispatcher


def test_dispatcher_auto_uses_closed_forms():
    assert hstar(triangle()) == poly(1, 9, 27, 19)
    assert hstar(disjoint_union(triangle(), triangle())) == poly(1, 9, 27, 19) ** 2


def test_dispatcher_auto_on_theta_runs_visibility():
    assert hstar(theta_graph(1, 2, 2)) == theta_hstar(1, 2, 2)


def test_dispatcher_visibility_per_component_with_order_seed():
    for g in [disjoint_union(triangle(), single_edge()), disjoint_union(bundle(2), loop_graph(1))]:
        assert hstar(g, "visibility", order_seed=7) == hstar_blocks(g)


def test_dispatcher_refuses_oversize():
    pairs = [(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 3) % 20) for i in range(20)]
    g = Multigraph.from_pairs(20, pairs)
    with pytest.raises(NoMethodAvailable):
        hstar(g)


def test_dispatcher_explicit_methods():
    g = path_graph(2)
    for method in ("blocks", "visibility", "ehrhart"):
        assert hstar(g, method=method) == ONE_PLUS_3Z**2


# ---------------------------------------------------------------------------
# Statistic polynomial and conjectures


def test_statistic_single_edge():
    assert statistic_polynomial(single_edge(), build_triangulation(single_edge())) == poly(1, 3)


@pytest.mark.parametrize(
    "g, closed",
    [
        (bundle(2), hstar_closed_bundle(2)),
        (bundle(3), hstar_closed_bundle(3)),
        (triangle(), hstar_closed_multicycle((1, 1, 1))),
        (multicycle((2, 1, 1)), hstar_closed_multicycle((2, 1, 1))),
        (multitree((2, 2)), hstar_closed_bundle(2) ** 2),
    ],
)
def test_statistic_identity_on_multitrees_and_multicycles(g, closed):
    assert statistic_polynomial(g, build_triangulation(g)) == closed


def test_statistic_conjecture_on_theta():
    g = theta_graph(1, 1, 2)
    cells = build_triangulation(g)
    finding = check_statistic_conjecture(g, hstar_visibility(g), cells)
    assert finding.status == "HOLDS"


def test_theta_closed_forms():
    assert theta_hstar(1, 1, 1) == hstar_closed_bundle(3)
    assert theta_hstar(1, 1, 2) == hstar_closed_multicycle((2, 1, 1))
    assert theta_hstar(1, 1, 2) == poly(1, 12, 50, 68, 29)
    assert theta_hstar(2, 2, 2)(1) == 3456


def test_theta_matches_computed_hstar():
    for k, l, m in [(1, 1, 1), (1, 1, 2), (1, 2, 2)]:
        assert theta_hstar(k, l, m) == hstar(theta_graph(k, l, m), "visibility")


# ---------------------------------------------------------------------------
# Structure theorems


def test_lower_bound_triangle():
    lb = lower_bound_polynomial(triangle())
    assert lb == poly(1, 7, 15, 9)
    assert lb.leq(poly(1, 9, 27, 19))


def test_structure_checks_pass_on_corpus():
    for g in [single_edge(), loop_graph(2), path_graph(3), bundle(3), triangle(),
              multicycle((2, 1, 1)), one_sum(triangle(), triangle())]:
        h = hstar_blocks(g)
        results = check_structure_theorems(g, h, codegree_budget=None)
        assert all(r.ok for r in results)


def test_structure_checks_codegree():
    results = check_structure_theorems(single_edge(), poly(1, 3), codegree_budget=100000)
    assert any(r.name == "codegree" and r.ok for r in results)


def test_forest_attains_lower_bound():
    g = star_graph(3)
    assert hstar_blocks(g) == lower_bound_polynomial(g)


def test_loops_palindromic_and_equality_case():
    assert hstar_blocks(loop_graph(2)) == poly(1, 2, 1)
    assert hstar_blocks(loop_graph(2)).is_palindromic()
    assert not hstar_blocks(single_edge()).is_palindromic()


def test_structure_checks_flag_wrong_polynomial():
    with pytest.raises(TheoremViolation):
        check_structure_theorems(triangle(), poly(1, 9, 27))  # degree too low
    with pytest.raises(TheoremViolation):
        check_structure_theorems(triangle(), poly(1, 8, 27, 19))  # h1 off


def test_upper_bound_conjecture():
    assert check_upper_bound_conjecture(triangle(), poly(1, 9, 27, 19)).status == "HOLDS"
    assert ONE_PLUS_3Z**4 == poly(1, 12, 54, 108, 81)
    assert (
        check_upper_bound_conjecture(multicycle((2, 1, 1)), poly(1, 12, 50, 68, 29)).status
        == "HOLDS"
    )
    assert check_upper_bound_conjecture(path_graph(2), ONE_PLUS_3Z**2).status == "HOLDS"
    assert check_upper_bound_conjecture(single_edge(), poly(1, 4)).status == "VIOLATED"


def test_h1_formula():
    for g in [single_edge(), loop_graph(2), bundle(3),
              Multigraph.from_pairs(2, [(0, 0), (0, 1), (1, 1)])]:
        h = hstar_blocks(g)
        assert h.coefficient(1) == 3 * len(g.edges) - 2 * g.loop_count


@given(small_multigraphs(max_vertices=3, max_edges=3))
@settings(max_examples=20, deadline=None)
def test_methods_agree_property(g):
    if not is_connected(g):
        return
    assert hstar_visibility(g) == hstar_blocks(g)


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_hstar_independent_of_order_seed(seed):
    from cosmopoly.grobner import default_good_order

    for g in [bundle(2), triangle(), theta_graph(1, 1, 2)]:
        order = default_good_order(g, seed=seed)
        assert hstar_visibility(g, order) == hstar(g, "visibility")
