"""Graph-family sweeps, cross-method verification, canonical forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations
from typing import Iterator

from .errors import Budget, BudgetExceeded, as_budget
from .grobner import default_good_order
from .hstar import (
    VISIBILITY_POINT_CAP,
    CheckResult,
    ConjectureFinding,
    IntPolynomial,
    build_anchor,
    check_statistic_conjecture,
    check_structure_theorems,
    check_upper_bound_conjecture,
    hstar,
    hstar_blocks,
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
    """Cross-method h* comparison plus the theorem and conjecture verdicts."""

    graph_pairs: tuple[tuple[int, int], ...]
    methods: dict[str, IntPolynomial]
    skipped: dict[str, str]
    agree: bool
    theorem_checks: list[CheckResult] = field(default_factory=list)
    conjectures: list[ConjectureFinding] = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.agree and all(c.ok for c in self.theorem_checks)

    def hstar(self) -> IntPolynomial:
        for name in ("visibility", "ehrhart", "blocks"):
            if name in self.methods:
                return self.methods[name]
        raise RuntimeError("no method produced a result")


VERIFY_EHRHART_DIM_CAP = 6


def verify_graph(
    g: Multigraph,
    budget: Budget | int | None = None,
    order_seed: int | None = None,
) -> VerifyReport:
    """Run every applicable h* method, compare them, and run all checks.

    The blocks route always runs.  Visibility runs when the lattice-point
    count permits, ehrhart when the dimension permits; a budget overrun on
    the optional routes is recorded as a skip rather than an error.  On a
    connected graph the visibility cells also feed the statistic check.
    """
    bud = as_budget(budget)
    methods: dict[str, IntPolynomial] = {}
    skipped: dict[str, str] = {}
    methods["blocks"] = hstar_blocks(g, bud)

    cells = None
    if len(lattice_points(g)) <= VISIBILITY_POINT_CAP:
        try:
            if is_connected(g):
                anchor = build_anchor(g, default_good_order(g, seed=order_seed), bud)
                cells = anchor.cells
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
    report = VerifyReport(g.edge_pairs(), methods, skipped, agree)
    if not agree:
        return report

    h = report.hstar()
    report.theorem_checks = check_structure_theorems(g, h)
    report.conjectures.append(check_upper_bound_conjecture(g, h))
    if cells is not None:
        report.conjectures.append(check_statistic_conjecture(g, h, cells))
    return report


# ---------------------------------------------------------------------------
# Conjecture sweeps (used by the CLI)


@dataclass(frozen=True)
class SweepFinding:
    label: str
    status: str
    detail: str


def sweep_upper_bound(
    max_size: int, budget: Budget | int | None = None, order_seed: int | None = None
) -> list[SweepFinding]:
    out = []
    for g in enumerate_connected_multigraphs(max_size):
        report = verify_graph(g, budget=budget, order_seed=order_seed)
        if not report.ok:
            out.append(SweepFinding(str(g.edge_pairs()), "ERROR", "method disagreement"))
            continue
        finding = next(c for c in report.conjectures if c.name == "upper-bound")
        out.append(SweepFinding(str(g.edge_pairs()), finding.status, finding.detail))
    return out


def sweep_statistic(
    max_size: int, budget: Budget | int | None = None, order_seed: int | None = None
) -> list[SweepFinding]:
    out = []
    for g in enumerate_connected_multigraphs(max_size):
        report = verify_graph(g, budget=budget, order_seed=order_seed)
        finding = next((c for c in report.conjectures if c.name == "statistic"), None)
        if finding is None:
            out.append(SweepFinding(str(g.edge_pairs()), "SKIPPED", "no triangulation run"))
        else:
            out.append(SweepFinding(str(g.edge_pairs()), finding.status, finding.detail))
    return out


def sweep_theta(
    max_total: int, budget: Budget | int | None = None, order_seed: int | None = None
) -> list[SweepFinding]:
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
                    out.append(SweepFinding(f"theta({k},{l},{m})", "SKIPPED", str(exc)))
                    continue
                status = "HOLDS" if predicted == actual else "VIOLATED"
                out.append(
                    SweepFinding(
                        f"theta({k},{l},{m})",
                        status,
                        f"formula {predicted}, computed {actual}",
                    )
                )
    return out
