"""Graph-family sweeps, cross-method verification, canonical forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Iterator

from .errors import Budget, BudgetExceeded, as_budget
from .grobner import default_good_order
from .hstar import (
    VISIBILITY_POINT_CAP,
    ConjectureFinding,
    IntPolynomial,
    build_anchor,
    check_structure_theorems,
    check_upper_bound_conjecture,
    hstar,
    hstar_blocks,
    mask_statistic,
    statistic_finding,
    theta_hstar,
)
from .multigraph import GraphError, Multigraph, is_connected, theta_graph
from .polytope import dimension, lattice_points

_BRUTE_FORCE_VERTEX_CAP = 8


def canonical_form(g: Multigraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Deterministic isomorphism-invariant labeling of a multigraph.

    Up to the brute-force cap this is exact (minimum over all vertex
    permutations of the sorted edge list); beyond it, vertices are sorted by
    an iterated degree signature, which still never identifies two
    non-isomorphic graphs, it only may fail to merge isomorphic ones.
    """
    n = g.vertex_count
    pairs = g.edge_pairs()
    if n <= _BRUTE_FORCE_VERTEX_CAP:
        best = None
        for perm in permutations(range(n)):
            labeled = tuple(
                sorted(
                    (perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u])
                    for u, v in pairs
                )
            )
            if best is None or labeled < best:
                best = labeled
        return n, best
    signature = {v: (g.degree(v),) for v in range(n)}
    for _ in range(n):
        signature = {
            v: (
                g.degree(v),
                tuple(
                    sorted(
                        signature[e.other(v)]
                        for e in g.edges
                        if v in (e.u, e.v) and not e.is_loop
                    )
                ),
            )
            for v in range(n)
        }
    order = sorted(range(n), key=lambda v: (signature[v], v))
    relabel = {old: new for new, old in enumerate(order)}
    return n, tuple(
        sorted(
            (relabel[u], relabel[v]) if relabel[u] <= relabel[v] else (relabel[v], relabel[u])
            for u, v in pairs
        )
    )


def enumerate_connected_multigraphs(max_size: int) -> Iterator[Multigraph]:
    """All connected multigraphs with |V| + |E| <= max_size, without isolated
    vertices, one representative per isomorphism class."""
    seen = set()
    for nv in range(1, max_size // 2 + 2):
        min_edges = max(1, nv - 1)
        for ne in range(min_edges, max_size - nv + 1):
            pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
            for combo in combinations_with_replacement(pairs, ne):
                try:
                    g = Multigraph.from_pairs(nv, combo)
                except GraphError:
                    continue
                if not is_connected(g):
                    continue
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
                yield g


@dataclass
class VerifyReport:
    """Cross-method h* comparison and, when the routes agree, the names of
    the theorem checks run and the conjecture verdicts."""

    methods: dict[str, IntPolynomial]
    skipped: dict[str, str]
    agree: bool
    theorem_checks: list[str] = field(default_factory=list)
    conjectures: list[ConjectureFinding] = field(default_factory=list)


VERIFY_EHRHART_DIM_CAP = 8


def verify_graph(
    g: Multigraph,
    budget: Budget | int | None = None,
    order_seed: int | None = None,
) -> VerifyReport:
    """Run every applicable h* method, compare them, and run all checks.

    The blocks route always runs.  Visibility runs when the lattice-point
    count permits, ehrhart when the dimension permits; a budget overrun on
    the optional routes is recorded as a skip rather than an error.  On a
    connected graph the statistic check reads the masks of the visibility
    cells (:func:`mask_statistic`), so no cell is decoded, sorted or
    rendered unless one breaks the stroke rule.
    """
    bud = as_budget(budget)
    methods: dict[str, IntPolynomial] = {}
    skipped: dict[str, str] = {}
    methods["blocks"] = hstar_blocks(g, bud)

    anchor = None
    if len(lattice_points(g)) <= VISIBILITY_POINT_CAP:
        try:
            if is_connected(g):
                anchor = build_anchor(g, default_good_order(g, seed=order_seed), bud)
                methods["visibility"] = IntPolynomial(anchor.visible_counts)
            else:
                methods["visibility"] = hstar(g, "visibility", bud, order_seed)
        except BudgetExceeded as exc:
            skipped["visibility"] = str(exc)
    else:
        skipped["visibility"] = "lattice-point count above cap"

    if dimension(g) <= VERIFY_EHRHART_DIM_CAP:
        try:
            methods["ehrhart"] = hstar(g, "ehrhart", bud)
        except BudgetExceeded as exc:
            skipped["ehrhart"] = str(exc)
    else:
        skipped["ehrhart"] = "dimension above cap"

    polys = list(methods.values())
    agree = all(p == polys[0] for p in polys)
    report = VerifyReport(methods, skipped, agree)
    if not agree:
        return report

    h = methods["blocks"]
    report.theorem_checks = check_structure_theorems(g, h)
    report.conjectures.append(check_upper_bound_conjecture(g, h))
    if anchor is not None:
        report.conjectures.append(statistic_finding(mask_statistic(g, anchor.masks), h))
    return report


# ---------------------------------------------------------------------------
# Conjecture sweeps (used by the CLI)


def sweep_graphs(
    which: str,
    max_size: int,
    budget: Budget | int | None = None,
    order_seed: int | None = None,
) -> list[tuple[str, ConjectureFinding]]:
    """The ``which`` finding ("upper-bound" or "statistic") of
    :func:`verify_graph` on every connected multigraph with |V| + |E| <=
    ``max_size``, labelled by its edge pairs.

    A graph whose h* routes disagree is an ERROR; one that agrees but has no
    such finding (the statistic needs a visibility run) is SKIPPED.  An int
    ``budget`` caps each graph on its own.
    """
    if which not in ("upper-bound", "statistic"):
        raise ValueError(f"unknown graph sweep {which!r}")
    out = []
    for g in enumerate_connected_multigraphs(max_size):
        report = verify_graph(g, budget=budget, order_seed=order_seed)
        if not report.agree:
            finding = ConjectureFinding(which, "ERROR", "method disagreement")
        else:
            finding = next(
                (c for c in report.conjectures if c.name == which),
                ConjectureFinding(which, "SKIPPED", "no triangulation run"),
            )
        out.append((str(g.edge_pairs()), finding))
    return out


def sweep_theta(
    max_total: int, budget: Budget | int | None = None, order_seed: int | None = None
) -> list[tuple[str, ConjectureFinding]]:
    """Compare the closed theta formula against a computed h* for every
    k <= l <= m with k + l + m <= max_total."""
    out = []
    for k in range(1, max_total + 1):
        for l in range(k, max_total + 1):
            for m in range(l, max_total + 1):
                if k + l + m > max_total:
                    continue
                g = theta_graph(k, l, m)
                predicted = theta_hstar(k, l, m)
                try:
                    actual = hstar(g, "visibility", budget, order_seed)
                except BudgetExceeded as exc:
                    finding = ConjectureFinding("theta", "SKIPPED", str(exc))
                else:
                    status = "HOLDS" if predicted == actual else "VIOLATED"
                    detail = f"formula {predicted}, computed {actual}"
                    finding = ConjectureFinding("theta", status, detail)
                out.append((f"theta({k},{l},{m})", finding))
    return out
