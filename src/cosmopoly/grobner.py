"""Combinatorial Groebner layer: term orders, binomial families, obstructions.

Polynomial-ring variables are in bijection with the lattice points of the
polytope, so LatticePoint objects double as variables.  The toric ideal of
the polytope has a squarefree-leading-term Groebner basis formed by three
binomial families (fundamental, zig-zag, cyclic) under any "good" term order;
the supports of the leading terms are the obstructions whose avoidance
defines the unimodular triangulation.  No Buchberger machinery is involved:
the basis is written down directly, and its geometric consequences are
verified downstream.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import Budget, as_budget
from .multigraph import Cycle, Multigraph, simple_cycles, simple_paths
from .polytope import (
    LatticePoint,
    TPOINT,
    YBACKWARD,
    YFORWARD,
    ZEDGE,
    ZVERTEX,
    lattice_points,
)

# A monomial is a sorted tuple of (variable, exponent) pairs, exponents >= 1.
Monomial = tuple[tuple[LatticePoint, int], ...]
Obstruction = frozenset[LatticePoint]

FUNDAMENTAL = "fundamental"
ZIGZAG = "zigzag"
CYCLIC = "cyclic"


def monomial(points: Iterable[LatticePoint]) -> Monomial:
    exps: dict[LatticePoint, int] = {}
    for p in points:
        exps[p] = exps.get(p, 0) + 1
    return tuple(sorted(exps.items(), key=lambda kv: kv[0].sort_key()))


def monomial_support(mono: Monomial) -> Obstruction:
    return frozenset(p for p, _ in mono)


class Binomial(NamedTuple):
    """lhs - rhs, both sides mapping to the same Laurent monomial.

    For the fundamental family, lhs is the side required to lead under a
    good term order.
    """

    lhs: Monomial
    rhs: Monomial
    family: str
    witness: tuple


class TermOrder:
    """Total order on the variables, greatest first; monomials compare lex."""

    def __init__(self, ranked: Sequence[LatticePoint]):
        self.ranked = tuple(ranked)
        self._rank = {p: i for i, p in enumerate(self.ranked)}
        if len(self._rank) != len(self.ranked):
            raise ValueError("term order contains a duplicate variable")

    def rank(self, p: LatticePoint) -> int:
        return self._rank[p]

    def leading(self, lhs: Monomial, rhs: Monomial) -> Monomial:
        """Lex comparison: the greatest variable with differing exponent decides."""
        le = dict(lhs)
        ri = dict(rhs)
        for p in sorted(set(le) | set(ri), key=self._rank.__getitem__):
            a = le.get(p, 0)
            b = ri.get(p, 0)
            if a != b:
                return lhs if a > b else rhs
        raise AssertionError("binomial sides must be distinct monomials")


def default_good_order(g: Multigraph, seed: int | None = None) -> TermOrder:
    """Lex order ranking forward y's (edge index ascending), backward y's
    (descending), then edge z's, t's and vertex z's, each ascending.

    With ``seed`` the interior of each class is shuffled reproducibly, which
    is useful for probing order dependence.  Either way the class ranking
    holds, so every order returned passes :func:`is_good_order`.
    """
    pts = lattice_points(g)
    by_kind: dict[str, list[LatticePoint]] = {}
    for p in pts:
        by_kind.setdefault(p.kind, []).append(p)
    yf = sorted(by_kind.get(YFORWARD, []), key=lambda p: p.index)
    yb = sorted(by_kind.get(YBACKWARD, []), key=lambda p: -p.index)
    ze = sorted(by_kind.get(ZEDGE, []), key=lambda p: p.index)
    tt = sorted(by_kind.get(TPOINT, []), key=lambda p: p.index)
    zv = sorted(by_kind.get(ZVERTEX, []), key=lambda p: p.index)
    classes = [yf, yb, ze, tt, zv]
    if seed is not None:
        import random  # only a seeded order shuffles

        rng = random.Random(seed)
        for cls in classes:
            rng.shuffle(cls)
    return TermOrder([p for cls in classes for p in cls])


def _vars_for_edge(g: Multigraph, points: list[LatticePoint]):
    idx = {(p.kind, p.index): p for p in points}

    def var(kind: str, index: int) -> LatticePoint:
        return idx[(kind, index)]

    return var


def _y_var(var, edge, i: int, j: int) -> LatticePoint:
    """Variable of edge directed i -> j, relative to the stored endpoint order."""
    if (i, j) == (edge.u, edge.v):
        return var(YFORWARD, edge.id)
    assert (j, i) == (edge.u, edge.v)
    return var(YBACKWARD, edge.id)


def fundamental_binomials(g: Multigraph) -> list[Binomial]:
    """Six binomials per non-loop edge; a loop keeps only t_f z_f - z_u^2.

    For a loop the y-variables collapse onto the edge z-variable, so five of
    the six relations degenerate to zero or to relations in missing variables.
    """
    var = _vars_for_edge(g, lattice_points(g))
    out = []
    for e in g.edges:
        zu = var(ZVERTEX, e.u)
        zf = var(ZEDGE, e.id)
        tf = var(TPOINT, e.id)
        if e.is_loop:
            out.append(Binomial(monomial([tf, zf]), monomial([zu, zu]), FUNDAMENTAL, (e.id,)))
            continue
        zv = var(ZVERTEX, e.v)
        yf = var(YFORWARD, e.id)
        yb = var(YBACKWARD, e.id)
        pairs = [
            ([yf, yb], [zf, zf]),
            ([yf, tf], [zu, zu]),
            ([yb, tf], [zv, zv]),
            ([yf, zv], [zu, zf]),
            ([yb, zu], [zv, zf]),
            ([tf, zf], [zu, zv]),
        ]
        for lhs, rhs in pairs:
            out.append(Binomial(monomial(lhs), monomial(rhs), FUNDAMENTAL, (e.id,)))
    return out


def zigzag_binomials(g: Multigraph, budget: Budget | int | None = None) -> list[Binomial]:
    """One binomial per directed simple path of length >= 2 and per admissible
    edge partition (start edge on one side, end edge on the other; the 2^(k-2)
    middle assignments are free).
    """
    bud = as_budget(budget)
    var = _vars_for_edge(g, lattice_points(g))
    out = []
    for path in simple_paths(g):
        k = len(path.edges)
        steps = [
            (path.vertices[i], path.vertices[i + 1], g.edges[path.edges[i]])
            for i in range(k)
        ]
        z_start = var(ZVERTEX, path.vertices[0])
        z_end = var(ZVERTEX, path.vertices[-1])
        for mask in range(1 << (k - 2)):
            bud.spend(k)  # cost tracks monomial size
            side1 = [0] + [i + 1 for i in range(k - 2) if mask >> i & 1]
            in_side1 = [False] * k
            for i in side1:
                in_side1[i] = True
            lhs = [z_end]
            rhs = [z_start]
            for i, (a, b, edge) in enumerate(steps):
                if in_side1[i]:
                    lhs.append(_y_var(var, edge, a, b))  # directed toward the end
                    rhs.append(var(ZEDGE, edge.id))
                else:
                    rhs.append(_y_var(var, edge, b, a))  # directed toward the start
                    lhs.append(var(ZEDGE, edge.id))
            out.append(
                Binomial(monomial(lhs), monomial(rhs), ZIGZAG, (path, mask))
            )
    return out


def _cyclic_binomial(g: Multigraph, var, cycle: Cycle, mask: int) -> Binomial:
    n = len(cycle.edges)
    lhs: list[LatticePoint] = []
    rhs: list[LatticePoint] = []
    for i in range(n):
        a = cycle.vertices[i]
        b = cycle.vertices[(i + 1) % n]
        edge = g.edges[cycle.edges[i]]
        if mask >> i & 1:  # traversal side, oriented with the cycle
            lhs.append(_y_var(var, edge, a, b))
            rhs.append(var(ZEDGE, edge.id))
        else:  # opposite side, oriented against the cycle
            rhs.append(_y_var(var, edge, b, a))
            lhs.append(var(ZEDGE, edge.id))
    return Binomial(monomial(lhs), monomial(rhs), CYCLIC, (cycle, mask))


def cyclic_binomials(g: Multigraph, budget: Budget | int | None = None) -> list[Binomial]:
    """All 2^len ordered partitions of every simple cycle (either side may be
    empty).  Reversing the cycle orientation only flips global signs across
    the partition lattice, so one orientation per cycle suffices.
    """
    bud = as_budget(budget)
    var = _vars_for_edge(g, lattice_points(g))
    out = []
    for cycle in simple_cycles(g):
        for mask in range(1 << len(cycle.edges)):
            bud.spend(len(cycle.edges))
            out.append(_cyclic_binomial(g, var, cycle, mask))
    return out


def _class_ranked(order: TermOrder, g: Multigraph) -> bool:
    """Sufficient structural condition for goodness: every y-variable ranks
    above every edge- and vertex-z, and every t above every vertex-z.

    Under it the designated fundamental terms lead (the deciding variable is
    always on the designated side) and every cycle binomial leads with its
    y-side (y's and z's are disjoint, so the greatest differing variable is a
    y).  This lets the common case skip cycle enumeration entirely.
    """
    ranks: dict[str, list[int]] = {}
    for p in lattice_points(g):
        ranks.setdefault(p.kind, []).append(order.rank(p))
    y_ranks = ranks.get(YFORWARD, []) + ranks.get(YBACKWARD, [])
    if not y_ranks:
        y_max = -1
    else:
        y_max = max(y_ranks)
    z_min = min(ranks.get(ZEDGE, [10**9]) + ranks[ZVERTEX])
    t_max = max(ranks.get(TPOINT, [-1]))
    zv_min = min(ranks[ZVERTEX])
    return y_max < z_min and t_max < zv_min


def is_good_order(order: TermOrder, g: Multigraph, budget: Budget | int | None = None) -> bool:
    """True iff every fundamental binomial leads with its designated term and
    every cycle binomial (one side all y's, the other all z's) leads with the
    y-side."""
    if _class_ranked(order, g):
        return True
    bud = as_budget(budget)
    for b in fundamental_binomials(g):
        if order.leading(b.lhs, b.rhs) is not b.lhs:
            return False
    var = _vars_for_edge(g, lattice_points(g))
    for cycle in simple_cycles(g):
        bud.spend(len(cycle.edges))
        n = len(cycle.edges)
        for mask in (0, (1 << n) - 1):
            b = _cyclic_binomial(g, var, cycle, mask)
            lead = order.leading(b.lhs, b.rhs)
            y_side = b.lhs if all(p.kind in (YFORWARD, YBACKWARD) for p, _ in b.lhs) else b.rhs
            if lead is not y_side:
                return False
    return True


def leading_support(b: Binomial, order: TermOrder) -> Obstruction:
    """Support of the leading term; squarefree for every basis binomial."""
    lead = order.leading(b.lhs, b.rhs)
    assert all(exp == 1 for _, exp in lead), "leading term must be squarefree"
    return monomial_support(lead)


def obstruction_set(
    g: Multigraph, order: TermOrder, budget: Budget | int | None = None
) -> tuple[Obstruction, ...]:
    """Deduplicated leading-term supports of all three families, canonically
    sorted.  The caller is responsible for having verified the order is good."""
    bud = as_budget(budget)
    seen: set[Obstruction] = set()
    for b in fundamental_binomials(g):
        seen.add(leading_support(b, order))
    for b in zigzag_binomials(g, bud):
        seen.add(leading_support(b, order))
    for b in cyclic_binomials(g, bud):
        seen.add(leading_support(b, order))
    return tuple(sorted(seen, key=lambda s: sorted(p.sort_key() for p in s)))


def reduced_generators(g: Multigraph) -> list[Binomial]:
    """Fundamental binomials plus one cyclic representative per unordered
    partition pair; a generating set of the toric ideal, exported for
    documentation rather than recomputed algebra."""
    out = list(fundamental_binomials(g))
    var = _vars_for_edge(g, lattice_points(g))
    for cycle in simple_cycles(g):
        n = len(cycle.edges)
        for mask in range(1 << n):
            if mask & 1:  # fix the first edge's side to kill (C1,C2)/(C2,C1) twins
                out.append(_cyclic_binomial(g, var, cycle, mask))
    return out
