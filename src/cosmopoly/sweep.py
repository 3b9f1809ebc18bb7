"""Graph-family sweeps, cross-method verification, canonical forms."""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .errors import Budget, BudgetExceeded, as_budget
from .grobner import default_good_order
from .hstar import (
    VISIBILITY_POINT_CAP,
    ConjectureFinding,
    IntPolynomial,
    check_structure_theorems,
    check_upper_bound_conjecture,
    hstar,
    hstar_blocks,
    mask_statistic,
    statistic_finding,
    theta_hstar,
)
from .multigraph import Multigraph, _closure, is_connected, theta_graph
from .polytope import dimension, lattice_point_count
from .triangulation import placed

def canonical_form(g: Multigraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact isomorphism-invariant labelling of a multigraph: two graphs get
    the same form iff they are isomorphic, at every size.

    Individualisation-refinement (McKay 1981; McKay and Piperno 2014).  Colour
    refinement starts each vertex at its degree and refines it each round by
    the sorted colours of its non-loop neighbours (with multiplicity),
    renumbered to their sorted ranks, until the number of classes stops
    growing.  While a class holds more than one vertex, each vertex of the
    first such class c is individualised in turn (colour 2c for it, 2c + 1
    for the rest of c, 2d for each other class d) and refined again.  Each
    discrete colouring is a labelling; the form is the least sorted edge list
    over those leaves.  The 9-cycle has 18 leaves, but K_n, which refinement
    never splits, has n! (automorphisms are not pruned).
    """
    n = g.vertex_count
    pairs = g.edge_pairs()
    neighbours = [[w for w, _ in incident] for incident in g.adjacency()]
    best = None
    stack = [[g.degree(v) for v in range(n)]]
    while stack:
        colour = stack.pop()
        count = len(set(colour))
        while True:
            signature = [
                (colour[v], tuple(sorted(colour[u] for u in neighbours[v]))) for v in range(n)
            ]
            rank = {sig: i for i, sig in enumerate(sorted(set(signature)))}
            colour = [rank[sig] for sig in signature]
            if len(rank) == count:
                break
            count = len(rank)
        if count == n:
            labelled = tuple(sorted((min(colour[u], colour[v]), max(colour[u], colour[v]))
                                    for u, v in pairs))
            if best is None or labelled < best:
                best = labelled
            continue
        c = min(x for x in colour if colour.count(x) > 1)
        rest = [2 * x + (x == c) for x in colour]
        for v in range(n):
            if colour[v] == c:
                stack.append(rest[:v] + [2 * c] + rest[v + 1:])
    return n, best


def enumerate_connected_multigraphs(max_size: int) -> Iterator[Multigraph]:
    """All connected multigraphs with |V| + |E| <= max_size, without isolated
    vertices, one representative per isomorphism class: the first graph of
    each class met among the ``combinations_with_replacement`` of vertex
    pairs, keyed by :func:`canonical_form`.  A candidate whose edges do not
    reach every vertex from vertex 0 is dropped before any graph is built."""
    seen = set()
    for nv in range(1, max_size // 2 + 2):
        full = (1 << nv) - 1
        pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
        for ne in range(max(1, nv - 1), max_size - nv + 1):
            for combo in combinations_with_replacement(pairs, ne):
                if _closure(1, [1 << u | 1 << v for u, v in combo]) != full:
                    continue
                g = Multigraph.from_pairs(nv, combo)
                key = canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    yield g


class VerifyReport(NamedTuple):
    """Cross-method h* comparison and, when the routes agree, the names of
    the theorem checks run and the conjecture verdicts."""

    methods: dict[str, IntPolynomial]
    skipped: dict[str, str]
    agree: bool
    theorem_checks: list[str]
    conjectures: list[ConjectureFinding]


VERIFY_EHRHART_DIM_CAP = 8


def verify_graph(
    g: Multigraph,
    budget: Budget | int | None = None,
    order_seed: int | None = None,
) -> VerifyReport:
    """Run every applicable h* method, compare them, and run all checks.

    The blocks route always runs, and triangulates each ``Other`` block
    under ``default_good_order(block, seed=s)`` with s = ``order_seed`` + 1
    (1 when None), not under the visibility route's order, so that the two
    routes check each other on a graph that is one such block.  Visibility
    runs when the lattice-point count permits, ehrhart when the dimension
    permits; a budget overrun on the optional routes is recorded as a skip
    rather than an error.  On a connected graph visibility is one
    :func:`~cosmopoly.triangulation.placed` pass, and the statistic check
    reads the cell masks it returns (:func:`mask_statistic`), so no cell is
    decoded, sorted or rendered unless one breaks the stroke rule, which
    raises StructureViolation.
    """
    bud = as_budget(budget)
    methods: dict[str, IntPolynomial] = {}
    skipped: dict[str, str] = {}
    methods["blocks"] = hstar_blocks(g, bud, (order_seed or 0) + 1)

    masks = None
    if lattice_point_count(g) <= VISIBILITY_POINT_CAP:
        try:
            if is_connected(g):
                masks, counts = placed(g, default_good_order(g, seed=order_seed), bud)
                methods["visibility"] = IntPolynomial(counts)
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
    if not all(p == polys[0] for p in polys):
        return VerifyReport(methods, skipped, False, [], [])

    h = methods["blocks"]
    theorem_checks = check_structure_theorems(g, h)
    conjectures = [check_upper_bound_conjecture(g, h)]
    if masks is not None:
        conjectures.append(statistic_finding(mask_statistic(g, masks), h))
    return VerifyReport(methods, skipped, True, theorem_checks, conjectures)


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
    for k in range(1, max_total // 3 + 1):
        for l in range(k, (max_total - k) // 2 + 1):
            for m in range(l, max_total - k - l + 1):
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
