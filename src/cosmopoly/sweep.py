"""Graph-family sweeps, cross-method verification, canonical forms."""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, permutations, product
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
from .multigraph import GraphError, Multigraph, is_connected, theta_graph
from .polytope import dimension, lattice_points
from .triangulation import placed

def canonical_form(g: Multigraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact isomorphism-invariant labelling of a multigraph: two graphs get
    the same form iff they are isomorphic, at every size.

    Colour refinement first splits the vertices into classes that do not
    depend on the labels: each vertex starts at its degree, and each round
    refines it by the sorted colours of its non-loop neighbours (with
    multiplicity), renumbered to their sorted ranks, until the number of
    classes stops growing.  The form is the least sorted edge list over every
    labelling that numbers the classes in colour order, each class in any
    internal order.  The cost is the product of the class-size factorials:
    a graph that refinement cannot split, such as a cycle, takes all n!
    labellings (9! = 362 880 for the 9-cycle, about 1.5 s on a 2-vCPU
    machine under Python 3.11).
    """
    n = g.vertex_count
    pairs = g.edge_pairs()
    neighbours = [[w for w, _ in incident] for incident in g.adjacency()]
    colour = [g.degree(v) for v in range(n)]
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
    classes = [[v for v in range(n) if colour[v] == c] for c in range(count)]
    label = [0] * n
    best = None
    for arrangement in product(*(permutations(cls) for cls in classes)):
        for new, old in enumerate(chain.from_iterable(arrangement)):
            label[old] = new
        labelled = tuple(
            sorted((label[u], label[v]) if label[u] <= label[v] else (label[v], label[u])
                   for u, v in pairs)
        )
        if best is None or labelled < best:
            best = labelled
    return n, best


def enumerate_connected_multigraphs(max_size: int) -> Iterator[Multigraph]:
    """All connected multigraphs with |V| + |E| <= max_size, without isolated
    vertices, one representative per isomorphism class: the first graph of
    each class met, keyed by the exact :func:`canonical_form`, whose cost per
    graph is the product of its class-size factorials."""
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
    if len(lattice_points(g)) <= VISIBILITY_POINT_CAP:
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
