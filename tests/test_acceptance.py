"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Everything asserts exact integer equality."""

import time

from cosmopoly.hstar import (
    IntPolynomial,
    ONE_PLUS_3Z,
    ONE_PLUS_Z,
    build_anchor,
    check_structure_theorems,
    check_upper_bound_conjecture,
    hstar_blocks,
    hstar_closed_bundle,
    hstar_closed_multicycle,
    hstar,
    hstar_ehrhart,
    hstar_visibility,
    statistic_finding,
    theta_hstar,
)
from cosmopoly.multigraph import (
    bundle,
    disjoint_union,
    loop_graph,
    multicycle,
    one_sum,
    path_graph,
    single_edge,
    star_graph,
    theta_graph,
    triangle,
)
from cosmopoly.polytope import (
    count_dilate_points,
    dimension,
    facet_inequalities,
    lattice_points,
)
from cosmopoly.sweep import enumerate_connected_multigraphs, verify_graph
from cosmopoly.triangulation import build_triangulation, normalized_volume

from oracles import series_count, statistic_polynomial, validate_multicycle_structure


def report(number: int, ok: bool, message: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} ({time.perf_counter() - started:.2f}s) {message}")
    assert ok, f"criterion {number}: {message}"


def test_criterion_1_single_edge():
    t0 = time.perf_counter()
    g = single_edge()
    expected = IntPolynomial([1, 3])
    ok = (
        hstar_visibility(g) == expected
        and hstar_ehrhart(g) == expected
        and hstar_blocks(g) == expected
        and len(build_triangulation(g)) == 4
        and statistic_polynomial(g, build_triangulation(g)) == expected
    )
    report(1, ok, "single edge: three methods, 4 cells, statistic all equal 1 + 3z", t0)


def test_criterion_2_trees():
    t0 = time.perf_counter()
    ok = True
    for m, shapes in ((2, (path_graph(2), star_graph(2))), (3, (path_graph(3), star_graph(3)))):
        expected = ONE_PLUS_3Z**m
        for g in shapes:
            ok = (
                ok
                and hstar_blocks(g) == expected
                and hstar_visibility(g) == expected
            )
            if m == 2:
                ok = ok and hstar_ehrhart(g) == expected
    report(2, ok, "trees with 2 and 3 edges all give (1 + 3z)^m", t0)


def test_criterion_3_loops_palindromicity():
    t0 = time.perf_counter()
    ok = (
        hstar_blocks(loop_graph(1)) == ONE_PLUS_Z
        and hstar_blocks(loop_graph(2)) == ONE_PLUS_Z**2
        and hstar(loop_graph(2), "visibility") == ONE_PLUS_Z**2
        and hstar_blocks(loop_graph(2)).is_palindromic()
        and not hstar_blocks(single_edge()).is_palindromic()
        and not hstar_blocks(triangle()).is_palindromic()
    )
    report(3, ok, "loop powers of (1 + z) palindromic; loopless graphs are not", t0)


def test_criterion_4_bundles():
    t0 = time.perf_counter()
    ok = True
    expected = {2: IntPolynomial([1, 6, 5]), 3: IntPolynomial([1, 9, 15, 7])}
    for m, h in expected.items():
        g = bundle(m)
        ok = (
            ok
            and hstar_closed_bundle(m) == h
            and hstar_visibility(g) == h
            and statistic_polynomial(g, build_triangulation(g)) == h
        )
    ok = ok and all(hstar_closed_bundle(m)(1) == 2**m * (1 + m) for m in (1, 2, 3))
    report(4, ok, "bundles I_2, I_3: closed = visibility = statistic; Vol = 2^m(1+m)", t0)


def test_criterion_5_triangle():
    t0 = time.perf_counter()
    g = triangle()
    h = IntPolynomial([1, 9, 27, 19])
    cells = build_triangulation(g)
    dilates = [count_dilate_points(g, t) for t in range(4)]
    ok = (
        hstar_visibility(g) == h
        and hstar_ehrhart(g) == h
        and hstar_blocks(g) == h
        and len(cells) == 56
        and dilates == [series_count(h.coeffs, 5, t) for t in range(4)]
        and len(facet_inequalities(g)) == 10
    )
    report(5, ok, "triangle: all methods 1+9z+27z^2+19z^3, 56 cells, 10 facets", t0)


def test_criterion_6_multicycle_211():
    t0 = time.perf_counter()
    g = multicycle((2, 1, 1))
    h = IntPolynomial([1, 12, 50, 68, 29])
    cells = build_triangulation(g)
    ok = (
        hstar_closed_multicycle((2, 1, 1)) == h
        and hstar_visibility(g) == h
        and h(1) == 160
        and len(cells) == 160
        and validate_multicycle_structure(g, cells).simplex_count == 160
        and statistic_polynomial(g, cells) == h
        and hstar_ehrhart(g, budget=5_000_000) == h
    )
    report(6, ok, "multicycle (2,1,1): closed = visibility = ehrhart, Vol 160, structure + statistic", t0)


def test_criterion_7_one_sum_and_union():
    t0 = time.perf_counter()
    target = hstar_closed_multicycle((1, 1, 1)) ** 2
    glued = one_sum(triangle(), triangle())
    glued_h = hstar_visibility(glued)  # full run, no block shortcut
    union = disjoint_union(triangle(), triangle())
    union_h = hstar(triangle(), "visibility") * hstar(triangle(), "visibility")
    ok = glued_h == target and union_h == target and hstar_blocks(union) == target
    report(7, ok, "two triangles glued or disjoint: both ((1+3z)^3 - (2z)^3)^2", t0)


def test_criterion_8_structure_sweep():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for g in enumerate_connected_multigraphs(8):
        h = hstar_visibility(g)
        check_structure_theorems(g, h)  # raises on degree/h1/bound/equality failure
        ok = ok and check_upper_bound_conjecture(g, h).status == "HOLDS"
        verified = verify_graph(g)
        ok = ok and verified.agree and not verified.skipped
        ok = ok and {"blocks", "visibility", "ehrhart"} <= set(verified.methods)
        checked += 1
    ok = ok and checked == 93
    message = f"structure theorems, upper bound and three agreeing h* routes over {checked} graphs"
    report(8, ok, message + " with |V|+|E| <= 8", t0)


def test_criterion_9_theta_consistency():
    t0 = time.perf_counter()
    ok = (
        theta_hstar(1, 1, 1) == hstar_closed_bundle(3)
        and theta_hstar(1, 1, 2) == hstar_closed_multicycle((2, 1, 1))
        and theta_hstar(2, 2, 2)(1) == 3456
    )
    k23 = theta_graph(2, 2, 2)
    ok = ok and len(lattice_points(k23)) == 29 and dimension(k23) == 10
    cells = build_triangulation(k23)
    ok = ok and len(cells) == 3456
    ok = ok and statistic_finding(
        statistic_polynomial(k23, cells), hstar_visibility(k23)
    ).status in ("HOLDS", "VIOLATED")  # reported either way, computed exactly
    report(9, ok, "theta identities; K_{2,3} triangulation has 3456 cells", t0)


def test_criterion_10_exactness_backstop():
    t0 = time.perf_counter()
    corpus = [
        single_edge(),
        loop_graph(1),
        loop_graph(2),
        path_graph(2),
        bundle(2),
        bundle(3),
        triangle(),
        multicycle((2, 1, 1)),
        one_sum(triangle(), single_edge()),
    ]
    ok = True
    for g in corpus:
        cells = build_triangulation(g)
        anchor = build_anchor(g)  # raises unless certified exactly
        ok = ok and sum(anchor.coords) == 1 and all(c > 0 for c in anchor.coords)
        ok = ok and all(normalized_volume(s) == 1 for s in cells)
    report(10, ok, "anchors certified exactly; every cell has normalized volume 1", t0)
