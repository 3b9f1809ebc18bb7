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
from .multigraph import Cycle, Multigraph, Path, simple_cycles, simple_paths
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

    Each class is read off :func:`lattice_points`, which lists every kind in
    ascending index, so only the backward y's need reversing.  With ``seed``
    the interior of each class is shuffled reproducibly, which is useful for
    probing order dependence.  Either way the class ranking holds, so every
    order returned passes :func:`is_good_order`.
    """
    pts = lattice_points(g)
    kinds = (YFORWARD, YBACKWARD, ZEDGE, TPOINT, ZVERTEX)
    classes = [[p for p in pts if p.kind == kind] for kind in kinds]
    classes[1].reverse()
    if seed is not None:
        import random  # only a seeded order shuffles

        rng = random.Random(seed)
        for cls in classes:
            rng.shuffle(cls)
    return TermOrder([p for cls in classes for p in cls])


def _variables(g: Multigraph) -> dict[tuple[str, int], LatticePoint]:
    """Every variable of g, keyed by (kind, index)."""
    return {(p.kind, p.index): p for p in lattice_points(g)}


def _steps(var, g: Multigraph, walk: Path | Cycle) -> list[tuple[LatticePoint, ...]]:
    """Per edge of a path or cycle, in walk order: its y along the walk, its
    y against the walk and its z_edge.  The y along the edge a -> b is the
    forward one when a is the edge's stored first endpoint."""
    out = []
    for a, e in zip(walk.vertices, walk.edges):
        yf, yb, ze = var[YFORWARD, e], var[YBACKWARD, e], var[ZEDGE, e]
        out.append((yf, yb, ze) if a == g.edges[e].u else (yb, yf, ze))
    return out


def _walk_binomial(steps, mask: int, lhs: list, rhs: list, family: str, witness: tuple) -> Binomial:
    """The binomial that splits a walk's edges between ``lhs`` and ``rhs``,
    which arrive holding whatever else each side carries.

    A step a -> b whose bit of ``mask`` is set puts y(a -> b), along the
    walk, on the left and its z_edge on the right; any other step puts
    y(b -> a), against the walk, on the right and its z_edge on the left.
    """
    for i, (y_along, y_against, z_edge) in enumerate(steps):
        if mask >> i & 1:
            lhs.append(y_along)
            rhs.append(z_edge)
        else:
            rhs.append(y_against)
            lhs.append(z_edge)
    return Binomial(monomial(lhs), monomial(rhs), family, witness)


def fundamental_binomials(g: Multigraph) -> list[Binomial]:
    """Six binomials per non-loop edge; a loop keeps only t_f z_f - z_u^2.

    For a loop the y-variables collapse onto the edge z-variable, so five of
    the six relations degenerate to zero or to relations in missing variables.
    """
    var = _variables(g)
    out = []
    for e in g.edges:
        zu = var[ZVERTEX, e.u]
        zf = var[ZEDGE, e.id]
        tf = var[TPOINT, e.id]
        if e.is_loop:
            out.append(Binomial(monomial([tf, zf]), monomial([zu, zu]), FUNDAMENTAL, (e.id,)))
            continue
        zv = var[ZVERTEX, e.v]
        yf = var[YFORWARD, e.id]
        yb = var[YBACKWARD, e.id]
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

    The left side holds the end vertex's z, the y toward the end of the start
    edge and of middle edge i + 1 when bit i of the witness mask is set, and
    the z_edge of every other edge.  The right side holds the start vertex's
    z, the z_edge of those edges, and the y toward the start of the others.
    """
    bud = as_budget(budget)
    var = _variables(g)
    out = []
    for path in simple_paths(g):
        k = len(path.edges)
        steps = _steps(var, g, path)
        z_start = var[ZVERTEX, path.vertices[0]]
        z_end = var[ZVERTEX, path.vertices[-1]]
        for mask in range(1 << (k - 2)):
            bud.spend(k)  # cost tracks monomial size
            b = _walk_binomial(steps, 1 | mask << 1, [z_end], [z_start], ZIGZAG, (path, mask))
            out.append(b)
    return out


def cyclic_binomials(g: Multigraph, budget: Budget | int | None = None) -> list[Binomial]:
    """All 2^len ordered partitions of every simple cycle (either side may be
    empty).  Reversing the cycle orientation only flips global signs across
    the partition lattice, so one orientation per cycle suffices.

    A set bit i of the witness mask puts edge i's y along the cycle on the
    left and its z_edge on the right; a clear one puts its y against the
    cycle on the right and its z_edge on the left.
    """
    bud = as_budget(budget)
    var = _variables(g)
    out = []
    for cycle in simple_cycles(g):
        steps = _steps(var, g, cycle)
        for mask in range(1 << len(steps)):
            bud.spend(len(steps))
            out.append(_walk_binomial(steps, mask, [], [], CYCLIC, (cycle, mask)))
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
    y_max = max(ranks.get(YFORWARD, []) + ranks.get(YBACKWARD, []), default=-1)
    z_min = min(ranks.get(ZEDGE, []) + ranks[ZVERTEX])
    t_max = max(ranks.get(TPOINT, []), default=-1)
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
    var = _variables(g)
    for cycle in simple_cycles(g):
        bud.spend(len(cycle.edges))
        steps = _steps(var, g, cycle)
        for mask in (0, (1 << len(steps)) - 1):  # all z's on the left, then all y's
            b = _walk_binomial(steps, mask, [], [], CYCLIC, (cycle, mask))
            if order.leading(b.lhs, b.rhs) is not (b.lhs if mask else b.rhs):
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
    families = (fundamental_binomials(g), zigzag_binomials(g, bud), cyclic_binomials(g, bud))
    seen = {leading_support(b, order) for family in families for b in family}
    return tuple(sorted(seen, key=lambda s: sorted(p.sort_key() for p in s)))


def reduced_generators(g: Multigraph) -> list[Binomial]:
    """Fundamental binomials plus one cyclic representative per unordered
    partition pair; a generating set of the toric ideal, exported for
    documentation rather than recomputed algebra."""
    out = list(fundamental_binomials(g))
    var = _variables(g)
    for cycle in simple_cycles(g):
        steps = _steps(var, g, cycle)
        # odd masks fix the first edge's side, which kills (C1,C2)/(C2,C1) twins
        for mask in range(1, 1 << len(steps), 2):
            out.append(_walk_binomial(steps, mask, [], [], CYCLIC, (cycle, mask)))
    return out
