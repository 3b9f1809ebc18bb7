"""Combinatorial Groebner layer: term orders, binomial families, obstructions.

Polynomial-ring variables are in bijection with the lattice points of the
polytope, so LatticePoint objects double as variables.  The toric ideal of
the polytope has a squarefree-leading-term Groebner basis formed by three
binomial families (fundamental, zig-zag, cyclic) under any "good" term order;
the supports of the leading terms are the obstructions whose avoidance
defines the unimodular triangulation.  No Buchberger machinery is involved:
the basis is written down directly, and its geometric consequences are
verified downstream.

The two sides of a basis binomial share no variable, so under a lex order
the side holding the greatest variable leads.  An order is good when every
fundamental binomial leads with its designated side; every cycle binomial
(one side all y's, the other all z's) then leads with its y-side.  The y
leaving the greater end of an edge beats z_u, z_v and z_e: by its relation
y z_(far end) - z_(near end) z_e, the greatest of those four variables is
on its side, and it is not the lesser vertex z.  Walk a cycle from its
greatest vertex w: the first edge's y along the walk beats z_w.  Suppose
some z_e' on a step a -> b beat every y along.  Then the winning y of e'
is not along, so z_b > z_a.  The relation of the y leaving a, y(a -> b) z_b -
z_a z_e', puts that y or z_b above z_e'.  The first contradicts the choice
of z_e'; the second gives z_b > z_e' > z_w >= z_b.  The reversed walk gives
the other side.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import Budget, as_budget
from .multigraph import Cycle, Edge, Multigraph, Path, simple_cycles, simple_paths
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
        """The side holding the greatest variable, which is the lex leader
        when the sides share no variable, as in every basis binomial."""
        a = min(self._rank[p] for p, _ in lhs)
        b = min(self._rank[p] for p, _ in rhs)
        if a == b:
            raise ValueError("both sides hold the greatest variable")
        return lhs if a < b else rhs


def default_good_order(g: Multigraph, seed: int | None = None) -> TermOrder:
    """Lex order ranking forward y's (edge index ascending), backward y's
    (descending), then edge z's, t's and vertex z's, each ascending.

    Each class is read off :func:`lattice_points`, which lists every kind in
    ascending index, so only the backward y's need reversing.  With ``seed``
    the interior of each class is shuffled reproducibly, which is useful for
    probing order dependence.  Either way every order returned passes
    :func:`is_good_order`: five of an edge's six fundamental binomials hold
    a y on their designated side and only z's on the other, and the sixth,
    t_f z_f - z_u z_v, like a loop's t_f z_f - z_u^2, holds an edge z, which
    ranks above every vertex z.
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


# The six relations of a non-loop edge f = (u, v), and the one of a loop, as
# the roles of their variables on each side, the designated side first: y_f
# forward and backward, t_f, z_f, and the vertex z's of u and v.
EDGE_RELATIONS = (
    (("yf", "yb"), ("ze", "ze")),
    (("yf", "t"), ("zu", "zu")),
    (("yb", "t"), ("zv", "zv")),
    (("yf", "zv"), ("zu", "ze")),
    (("yb", "zu"), ("zv", "ze")),
    (("t", "ze"), ("zu", "zv")),
)
LOOP_RELATIONS = ((("t", "ze"), ("zu", "zu")),)


def _roles(var: dict, e: Edge) -> tuple[dict, tuple]:
    """What ``var``, keyed by (kind, index), holds for the variables of edge
    e, by role, and the relations among them."""
    role = {"t": var[TPOINT, e.id], "ze": var[ZEDGE, e.id], "zu": var[ZVERTEX, e.u]}
    if e.is_loop:
        return role, LOOP_RELATIONS
    role.update(yf=var[YFORWARD, e.id], yb=var[YBACKWARD, e.id], zv=var[ZVERTEX, e.v])
    return role, EDGE_RELATIONS


def fundamental_binomials(g: Multigraph) -> list[Binomial]:
    """Six binomials per non-loop edge; a loop keeps only t_f z_f - z_u^2.

    For a loop the y-variables collapse onto the edge z-variable, so five of
    the six relations degenerate to zero or to relations in missing variables.
    """
    var = _variables(g)
    out = []
    for e in g.edges:
        role, relations = _roles(var, e)
        for lhs, rhs in relations:
            out.append(Binomial(monomial(role[r] for r in lhs), monomial(role[r] for r in rhs),
                                FUNDAMENTAL, (e.id,)))
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


def is_good_order(order: TermOrder, g: Multigraph) -> bool:
    """True iff every fundamental binomial leads with its designated side,
    that is, iff its greatest variable is there.  Every cycle binomial then
    leads with its y-side, by the lemma of the module docstring, so no cycle
    is checked."""
    ranks = {(p.kind, p.index): order.rank(p) for p in lattice_points(g)}
    for e in g.edges:
        rank, relations = _roles(ranks, e)
        for (a, b), (c, d) in relations:
            if min(rank[a], rank[b]) > min(rank[c], rank[d]):
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
