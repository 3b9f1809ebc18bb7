import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import cosmopoly.hstar as hstar_module
import cosmopoly.sweep as sweep_module
import cosmopoly.triangulation as triangulation_module
from cosmopoly.errors import (
    Budget,
    DisconnectedGraph,
    NoMethodAvailable,
    StructureViolation,
    TheoremViolation,
)
from cosmopoly.hstar import (
    ONE,
    VISIBILITY_POINT_CAP,
    IntPolynomial,
    ONE_PLUS_3Z,
    ONE_PLUS_Z,
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
    mask_statistic,
    resolve_method,
    statistic_finding,
    theta_hstar,
)
from cosmopoly.multigraph import (
    OTHER,
    Multigraph,
    blocks,
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
from cosmopoly.polytope import TPOINT, count_dilate_points, dimension, lattice_points
from cosmopoly.sweep import enumerate_connected_multigraphs, verify_graph
from cosmopoly.grobner import TermOrder, default_good_order, is_good_order, obstruction_set
from cosmopoly.triangulation import (
    Packing,
    build_triangulation,
    cells_from_masks,
    decorated_view,
    placed,
)

from oracles import (
    barycentric,
    base_anchor_coords,
    class_ranked,
    ehrhart_all_dilates,
    perturbed_anchor,
    points_on_cell_facet_hyperplanes,
    primitive_point,
    relabeled,
    small_multigraphs,
    statistic_polynomial,
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
    assert p * poly() == poly() == poly() * p
    with pytest.raises(ValueError, match="negative exponent"):
        p ** -1


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


@pytest.mark.parametrize(
    "call, message",
    [(lambda: hstar_closed_bundle(0), "bundle multiplicity must be >= 1"),
     (lambda: hstar_closed_multicycle((1, 1)), "multicycle needs >= 3 multiplicities, all >= 1"),
     (lambda: theta_hstar(0, 1, 1), "path lengths must be >= 1"),
     (lambda: resolve_method(triangle(), "bogus"), "unknown method 'bogus'")],
    ids=["bundle", "multicycle", "theta", "method"],
)
def test_closed_forms_and_dispatch_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Anchor


def test_anchor_single_edge_exact():
    g = single_edge()
    assert base_anchor_coords(g) == [Fraction(5, 12), Fraction(5, 12), Fraction(1, 6)]
    assert triangulation_module.base_anchor(g) == [5, 5, 2]
    assert Packing.of(g).anchor == (5, 5, 2)  # the anchor the pass carries


def test_base_anchor_is_the_primitive_point_of_the_published_weights():
    for g in [*enumerate_connected_multigraphs(6), theta_graph(2, 2, 2), K4]:
        nv, ne = g.vertex_count, len(g.edges)
        weights = [Fraction(2 * nv + 1, 2 * nv * (nv + 1))] * nv
        weights += [Fraction(1, 2 * ne * (nv + 1))] * ne
        q = triangulation_module.base_anchor(g)
        assert math.gcd(*q) == 1
        assert [Fraction(c, sum(q)) for c in q] == weights


def test_anchor_multicycle_matches_published_weights():
    g = multicycle((2, 1, 1))
    anchor = base_anchor_coords(g)
    n = 3
    assert anchor[0] == Fraction(1, n) * Fraction(2 * n + 1, 2 * (n + 1))
    assert anchor[n] == Fraction(1, 4) * Fraction(1, 2 * (n + 1))


def test_anchor_interior_of_loop_segment():
    g = loop_graph(1)
    anchor = base_anchor_coords(g)
    assert anchor == [Fraction(3, 4), Fraction(1, 4)]
    assert sum(anchor) == 1


def test_anchor_perturbation_schedule_keeps_invariants():
    # the schedule of the two-pass oracle
    g = triangle()
    base = perturbed_anchor(g, 0)
    for index in (1, 2, 5):
        q = perturbed_anchor(g, index)
        assert sum(q) == 1
        assert q != base
        assert all(c > 0 for c in q)  # tiny alternating shifts keep positivity


@pytest.mark.parametrize(
    "g", [single_edge(), loop_graph(2), bundle(3), triangle(), multicycle((2, 1, 1))]
)
def test_anchor_strictly_inside_every_facet(g):
    from cosmopoly.polytope import facet_inequalities

    anchor = base_anchor_coords(g)
    for f in facet_inequalities(g):
        assert sum(c * q for c, q in zip(f.normal, anchor)) > 0


def _spend(call, *args) -> int:
    bud = Budget(None)
    call(*args, budget=bud)
    return bud.used


def anchored_at(monkeypatch, g, order, q, budget):
    """placed with the anchor q, carried as its primitive integer vector,
    the anchor of each packing laid out, and the number of cells whose ties
    it broke: a cell decodes its rows only for that."""
    decoded, carried, rows, of = [], [], Packing.rows, Packing.of.__func__

    def decode(pk, inverse):
        decoded.append(inverse)
        return rows(pk, inverse)

    def laid_out(cls, g, proven=False):
        pk = of(cls, g, proven)
        carried.append(pk.anchor)
        return pk

    monkeypatch.setattr(triangulation_module, "base_anchor", lambda g: primitive_point(q))
    monkeypatch.setattr(Packing, "rows", decode)
    monkeypatch.setattr(Packing, "of", classmethod(laid_out))
    try:
        return placed(g, order, budget), carried, len(decoded)
    finally:
        monkeypatch.undo()


def test_anchor_on_a_facet_hyperplane_takes_one_pass(monkeypatch):
    g = triangle()
    cells = build_triangulation(g)
    on_hyperplane = next(points_on_cell_facet_hyperplanes(g, None, base_anchor_coords(g)))
    assert any(0 in barycentric([*s], on_hyperplane) for s in cells)
    bud = Budget(None)
    (masks, counts), carried, tied = anchored_at(monkeypatch, g, None, on_hyperplane, bud)
    assert tied > 0
    assert carried == [tuple(primitive_point(on_hyperplane))]
    assert cells_from_masks(g, masks) == cells
    assert IntPolynomial(counts) == hstar_closed_multicycle((1, 1, 1))
    # the tie-break decides the facets through the anchor: one placing pass
    assert bud.used == _spend(build_triangulation, g)


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_anchors_on_facet_hyperplanes_are_tie_broken(monkeypatch, seed):
    # anchors on the facet hyperplanes of cells, one per segment from the
    # base anchor towards a unit vector that such a hyperplane crosses: h*
    # and the cells stay exact, in one placing pass
    anchors = 0
    for g in [*enumerate_connected_multigraphs(7), theta_graph(2, 2, 2)]:
        order = default_good_order(g, seed=seed)
        spent = Budget(None)
        cells = build_triangulation(g, order, spent)
        h = None
        for q in points_on_cell_facet_hyperplanes(g, order, base_anchor_coords(g)):
            if h is None:
                h = hstar_blocks(g)
                assert two_pass_visibility(g, cells)[2] == list(h.coeffs)
            bud = Budget(None)
            (masks, counts), carried, tied = anchored_at(monkeypatch, g, order, q, bud)
            assert tied > 0
            assert carried == [tuple(primitive_point(q))]
            assert IntPolynomial(counts) == h
            assert cells_from_masks(g, masks) == cells
            assert bud.used == spent.used
            anchors += 1
    assert anchors > 40  # 63, 48 and 50 under seeds None, 1 and 7


def test_visibility_one_placing_pass():
    for g in (theta_graph(1, 1, 2), multicycle((2, 1, 1))):
        assert _spend(hstar_visibility, g) == _spend(build_triangulation, g) > 0


def test_cells_are_sorted_only_for_the_statistic_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("cells sorted")

    g = theta_graph(1, 1, 2)
    monkeypatch.setattr(hstar_module, "cells_from_masks", refuse)
    assert hstar_visibility(g) == hstar(g, "visibility") == theta_hstar(1, 1, 2)
    # the statistic check reads the cell masks, and sorts cells only if one of
    # them breaks the stroke rule (test_mask_statistic_keeps_the_stroke_errors)
    report = verify_graph(g)
    (finding,) = [c for c in report.conjectures if c.name == "statistic"]
    assert finding.status == "HOLDS"
    # routes that disagree leave the statistic unchecked
    monkeypatch.setattr(sweep_module, "hstar_blocks", lambda g, budget, order_seed: ONE)
    report = verify_graph(g)
    assert not report.agree and not report.conjectures


def test_visibility_matches_two_pass_oracle():
    rng = random.Random(3)
    for g in enumerate_connected_multigraphs(6):
        for h in (g, relabeled(g, rng), relabeled(g, rng)):
            cells = build_triangulation(h)
            coords, index, coeffs = two_pass_visibility(h, cells)
            masks, _ = placed(h)
            assert (coords, index) == (tuple(base_anchor_coords(h)), 0)
            assert cells_from_masks(h, masks) == cells
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


K4 = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize("g, nodes", [(theta_graph(2, 2, 2), 33_410), (K4, 21_187)],
                         ids=["theta222", "K4"])
def test_placed_nodes(g, nodes):
    # one placing pass: a node per cell made and per later point tested
    # against a new facet
    bud = Budget(None)
    placed(g, budget=bud)
    assert bud.used == nodes


def test_ehrhart_matches_all_dilates_oracle():
    rng = random.Random(8)
    graphs = [theta_graph(1, 2, 2), K4]
    for g in enumerate_connected_multigraphs(6):
        graphs += [g, relabeled(g, rng)]
    for g in graphs:
        assert hstar_ehrhart(g) == ehrhart_all_dilates(g)


@pytest.mark.parametrize("g", [loop_graph(3), K4], ids=["three-loops", "K4"])
def test_ehrhart_halves_must_agree(g, monkeypatch):
    # On these graphs the run reaches one dilate past |V| + b, so its last
    # interior count feeds only the coefficient that both halves give.
    sumsets = hstar_module._sumsets

    def last_interior_count_off_by_one(g, top, budget, interior):
        for t, (count, inside) in enumerate(sumsets(g, top, budget, interior)):
            yield count, inside + (t == top)

    monkeypatch.setattr(hstar_module, "_sumsets", last_interior_count_off_by_one)
    with pytest.raises(TheoremViolation, match="from interior counts"):
        hstar_ehrhart(g)


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
    with pytest.raises(DisconnectedGraph, match="ehrhart route"):
        hstar_ehrhart(disjoint_union(single_edge(), single_edge()))


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


K23 = theta_graph(2, 2, 2)
K6 = Multigraph.from_pairs(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])


def _one_sums_with_an_other_block():
    """Small 1-sums that hold a block without a closed form, and the graphs
    of the |V| + |E| <= 10 sweep that hold one with another block."""
    named = {"K23+edge": one_sum(K23, single_edge()), "K4+loop": one_sum(K4, loop_graph(1)),
             "edge+K4": one_sum(single_edge(), K4, 1, 2)}
    swept = [g for g in enumerate_connected_multigraphs(10)
             if len(bs := blocks(g)) > 1 and any(b.tag == OTHER for b in bs)]
    assert len(swept) == 2
    named.update((f"sweep10-{i}", g) for i, g in enumerate(swept))
    return [pytest.param(g, id=name) for name, g in named.items()]


@pytest.mark.parametrize("g", _one_sums_with_an_other_block())
def test_auto_follows_the_one_sum_recursion(g):
    # several blocks: the block product, each Other block triangulated on
    # its own under the seeded order, gives the h* of whole-graph visibility
    assert resolve_method(g, "auto") == "blocks"
    assert hstar(g) == hstar(g, order_seed=2) == hstar(g, "visibility")


def test_auto_keeps_visibility_for_one_other_block():
    for g in (K4, K23, theta_graph(1, 2, 2)):
        assert resolve_method(g, "auto") == "visibility"


def test_auto_caps_each_other_block():
    # three K4s glued in a row: 82 lattice points, but 28 per block
    three = one_sum(one_sum(K4, K4, 3, 0), K4, 6, 0)
    assert len(lattice_points(three)) > VISIBILITY_POINT_CAP >= len(lattice_points(K4))
    assert resolve_method(three, "auto") == "blocks"
    assert hstar(three) == hstar_visibility(K4) ** 3
    # K6 has 66 lattice points, also with an edge glued on
    with pytest.raises(NoMethodAvailable):
        resolve_method(one_sum(K6, single_edge()), "auto")


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_verify_places_an_other_block_under_two_orders(monkeypatch, seed):
    # K4 with a doubled edge is one Other block, and its dimension is above
    # the Ehrhart cap: the blocks and visibility routes are the only two
    # checks, and they place different cells
    g = Multigraph.from_pairs(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    passes = {}

    def recorded(route):
        def place_and_record(h, *args, **kwargs):
            passes.setdefault(route, []).append((h, result := placed(h, *args, **kwargs)))
            return result
        return place_and_record

    monkeypatch.setattr(hstar_module, "placed", recorded("blocks"))
    monkeypatch.setattr(sweep_module, "placed", recorded("visibility"))
    report = verify_graph(g, order_seed=seed)
    assert report.agree and sorted(report.methods) == ["blocks", "visibility"]
    ((by_blocks, (blocks_masks, blocks_counts)),) = passes["blocks"]
    ((by_visibility, (visibility_masks, visibility_counts)),) = passes["visibility"]
    assert by_blocks == by_visibility == g
    assert blocks_counts == visibility_counts
    assert len(blocks_masks) == len(visibility_masks) == 6656
    assert set(blocks_masks) != set(visibility_masks)


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
    finding = statistic_finding(statistic_polynomial(g, cells), hstar_visibility(g))
    assert finding.status == "HOLDS"
    off = statistic_finding(poly(1, 3), hstar_visibility(g))
    assert off.status == "VIOLATED" and off.detail.startswith("statistic 1 + 3z differs from h* ")


# loops ahead of, between and after the other edges, so that the y-points'
# bits are widened past each of them
LOOPED = [
    one_sum(loop_graph(2), theta_graph(1, 1, 2)),
    one_sum(theta_graph(1, 1, 2), loop_graph(1), v=2),
    Multigraph.from_pairs(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]),
]


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_mask_statistic_matches_rendered_cells(seed):
    graphs = list(enumerate_connected_multigraphs(8))
    assert len(graphs) == 93
    for g in graphs + LOOPED:
        masks, _ = placed(g, default_good_order(g, seed=seed))
        assert mask_statistic(g, masks) == statistic_polynomial(g, cells_from_masks(g, masks))


def _unranked_order(g):
    """The default order with its last vertex z-point moved just above its
    first t-point: still good, but no longer class-ranked."""
    ranked = list(default_good_order(g).ranked)
    last = ranked.pop()
    ranked.insert(next(i for i, p in enumerate(ranked) if p.kind == TPOINT), last)
    return TermOrder(ranked)


STROKE_ORDERS = {
    "default": default_good_order,
    "seed-1": lambda g: default_good_order(g, seed=1),
    "seed-7": lambda g: default_good_order(g, seed=7),
    "unranked": _unranked_order,
}


@pytest.mark.parametrize("name", list(STROKE_ORDERS))
def test_every_cell_of_a_good_order_obeys_the_stroke_rule(name):
    # the pairs the stroke rule forbids lead fundamental binomials, so they
    # are obstructions, and mask_statistic never meets a cell that breaks it
    graphs = list(enumerate_connected_multigraphs(8))
    assert len(graphs) == 93
    for g in graphs:
        order = STROKE_ORDERS[name](g)
        assert is_good_order(order, g) and class_ranked(order, g) == (name != "unranked")
        obstructions = set(obstruction_set(g, order))
        point = {p.name: p for p in lattice_points(g)}
        for e in g.edges:
            forbidden = [("t", "ze")] if e.is_loop else [
                ("t", "ze"), ("t", "yf"), ("t", "yb"), ("yf", "yb")
            ]
            for a, b in forbidden:
                assert frozenset({point[f"{a}{e.id}"], point[f"{b}{e.id}"]}) in obstructions
        masks, _ = placed(g, order)
        assert mask_statistic(g, masks) == statistic_polynomial(g, cells_from_masks(g, masks))


def _mask(g, names):
    return sum(1 << i for i, p in enumerate(lattice_points(g)) if p.name in names)


def _stroke_problem(g, cell):
    """decorated_view's complaint about a cell, None if it has none."""
    try:
        decorated_view(cell, g)
    except StructureViolation as exc:
        return str(exc)
    return None


def test_mask_stroke_rule_matches_decorated_view(monkeypatch):
    # mask_statistic decodes the cells exactly when its bitwise rule rejects
    # one, and then raises decorated_view's complaint
    sorts = []

    def counted(g, masks):
        sorts.append(g)
        return cells_from_masks(g, masks)

    monkeypatch.setattr(hstar_module, "cells_from_masks", counted)
    rng = random.Random(5)
    tried = violating = 0
    for g in list(enumerate_connected_multigraphs(7)) + LOOPED:
        points = lattice_points(g)
        m = g.vertex_count + len(g.edges)
        for _ in range(60):
            indices = sorted(rng.sample(range(len(points)), m))
            cell = tuple(points[i] for i in indices)
            problem = _stroke_problem(g, cell)
            sorts.clear()
            try:
                stat = mask_statistic(g, [sum(1 << i for i in indices)])
            except StructureViolation as exc:
                assert str(exc) == problem, (g, cell)
            else:
                assert problem is None and stat == statistic_polynomial(g, [cell])
            assert bool(sorts) == (problem is not None), (g, cell, problem)
            tried += 1
            violating += problem is not None
    assert 0 < violating < tried


# bad cells of a multicycle and of a path: on the triangle, edge 0 bare and
# edge 1 plain and squiggly, then edge 1 doubly directed; on the path, edge 1 bare
BAD_CELLS = {
    "triangle": (
        ("zv0", "zv1", "zv2", "ze1", "t1", "t2"),
        ("zv0", "zv1", "zv2", "t0", "yf1", "yb1"),
    ),
    "path": (("zv0", "zv1", "zv2", "t0"),),
}
BAD_GRAPHS = {"triangle": triangle(), "path": path_graph(2)}


def test_mask_statistic_keeps_the_stroke_errors():
    g = BAD_GRAPHS["triangle"]
    first, second = (_mask(g, names) for names in BAD_CELLS["triangle"])
    message = _stroke_problem(g, cells_from_masks(g, [first])[0])
    assert message.startswith("edge 0 carries 0 strokes")
    # the error names the bad cell that sorts first, wherever it lies
    with pytest.raises(StructureViolation) as exc:
        mask_statistic(g, placed(g)[0] + [second, first])
    assert str(exc.value) == message
    # and so does a bad cell off multicycles
    g = BAD_GRAPHS["path"]
    (bad,) = (_mask(g, names) for names in BAD_CELLS["path"])
    message = _stroke_problem(g, cells_from_masks(g, [bad])[0])
    assert message == "edge 1 carries 0 strokes"
    with pytest.raises(StructureViolation) as exc:
        mask_statistic(g, placed(g)[0] + [bad])
    assert str(exc.value) == message


def test_a_bad_cell_raises_under_any_labelling():
    names = ("zv0", "zv1", "zv2", "t0", "yf1", "yb1")
    messages = []
    for g in (triangle(), Multigraph.from_pairs(3, [(0, 2), (2, 1), (1, 0)])):
        with pytest.raises(StructureViolation) as exc:
            mask_statistic(g, placed(g)[0] + [_mask(g, names)])
        messages.append(str(exc.value))
    assert messages == 2 * [
        "edge 1 double stroke ['backward', 'forward'] is not plain+directed; "
        "edge 2 carries 0 strokes"
    ]


def test_verify_keeps_the_stroke_errors(monkeypatch):
    def with_bad_cells(g, order, budget):
        masks, counts = placed(g, order, budget)
        (name,) = [k for k, h in BAD_GRAPHS.items() if h == g]
        return masks + [_mask(g, names) for names in BAD_CELLS[name]], counts

    monkeypatch.setattr(sweep_module, "placed", with_bad_cells)
    with pytest.raises(StructureViolation, match="edge 0 carries 0 strokes"):
        verify_graph(BAD_GRAPHS["triangle"])
    with pytest.raises(StructureViolation, match="^edge 1 carries 0 strokes$"):
        verify_graph(BAD_GRAPHS["path"])


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
        assert check_structure_theorems(g, h, codegree_budget=None) == [
            "degree",
            "linear-coefficient",
            "lower-bound",
            "lower-bound-equality",
            "palindromic-iff-all-loops",
        ]


def test_structure_checks_codegree():
    for g in [single_edge(), triangle(), multicycle((2, 1, 1))]:
        names = check_structure_theorems(g, hstar_blocks(g), codegree_budget=100000)
        assert names[-1] == "codegree"


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
