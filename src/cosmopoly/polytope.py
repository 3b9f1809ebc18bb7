"""Geometry of the cosmological polytope of a multigraph.

The polytope lives in R^(V u E) and is the convex hull, over all edges
f = ij, of e_i + e_j - e_f, e_i - e_j + e_f and -e_i + e_j + e_f.  Its
lattice points are those generators together with the unit vectors of all
vertices and edges; everything here works with them exactly.

The polytope has a regular unimodular triangulation, so it is IDP: the
lattice points of its t-th dilate are exactly the sums of t of its own
lattice points.  Dilates are therefore counted as sumsets, never by a search
over coordinates; ``tests/oracles.py`` keeps a facet-pruned box search that
does not assume IDP as the reference.  One run builds S_1..S_T, each from
the one before, and tells interior points by a zero-facet mask carried with
every point, so no point is ever decoded back to coordinates.

Each sum is formed once per multiset of summands, not once per ordering.
Number the lattice points c_0, c_1, ... and label a sum s of S_(t-1) by
mu(s), the least j such that s is a sum of t-1 points of index at most j.
Then S_t = {s + c_j : j >= mu(s)}: a point x of S_t is a sum of t points,
and if j is the largest index among them, s = x - c_j has mu(s) <= j.  A
level is kept as a dict in mu order, so the sums point j is added to are a
prefix of it.

The zero-facet masks are read straight off the connected subgraphs that
index the facets, as :func:`connected_subgraphs` yields them, with no normal
built and no dot product; the normals of :func:`facet_inequalities` serve
only the ``facets`` command.  Facet H, of subgraph (V_H, E_H), vanishes on
z_v iff v is not in V_H; on z_e iff e is in E_H or neither end of e is in
V_H; on t_e iff e is not in E_H; on yf_e iff e is in E_H or its first
end is not in V_H; and on yb_e iff e is in E_H or its second end is not.
"""

from __future__ import annotations

import functools
import operator
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import Budget, DisconnectedGraph, as_budget
from .multigraph import Multigraph, connected_subgraphs, is_connected

ZVERTEX = "zv"
ZEDGE = "ze"
TPOINT = "t"
YFORWARD = "yf"
YBACKWARD = "yb"

KIND_RANK = {ZVERTEX: 0, ZEDGE: 1, TPOINT: 2, YFORWARD: 3, YBACKWARD: 4}


class LatticePoint(NamedTuple):
    """A lattice point of the polytope, tagged by what it represents.

    Kinds: ``zv`` (vertex unit vector), ``ze`` (edge unit vector), ``t``
    (e_u + e_v - e_f), ``yf`` (e_u - e_v + e_f, forward along the stored
    endpoint order) and ``yb`` (the reverse).  The kind and index determine
    the coordinates; every point has coordinate sum 1.
    """

    kind: str
    index: int
    coords: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def sort_key(self) -> tuple[int, int]:
        return (KIND_RANK[self.kind], self.index)

    def __repr__(self) -> str:  # compact; coords are derivable
        return f"LatticePoint({self.name})"


def _unit(m: int, positions: list[tuple[int, int]]) -> tuple[int, ...]:
    row = [0] * m
    for pos, val in positions:
        row[pos] += val
    return tuple(row)


def lattice_points(g: Multigraph) -> list[LatticePoint]:
    """All lattice points, in canonical order (zv, ze, t, yf, yb; index ascending).

    For a loop both y-points coincide with the edge unit vector, so only the
    t-point (2 e_u - e_f) and the z-point survive; the count is
    :func:`lattice_point_count`.
    """
    return list(_lattice_points(g))


def lattice_point_count(g: Multigraph) -> int:
    """|V| + 4|E| - 2 * #loops, the length of :func:`lattice_points`,
    without building a point."""
    return g.vertex_count + 4 * len(g.edges) - 2 * g.loop_count


# one call asks for the points of its graph many times over
@functools.lru_cache(maxsize=1)
def _lattice_points(g: Multigraph) -> tuple[LatticePoint, ...]:
    m = g.vertex_count + len(g.edges)
    off = g.vertex_count
    pts = [LatticePoint(ZVERTEX, v, _unit(m, [(v, 1)])) for v in range(g.vertex_count)]
    pts += [LatticePoint(ZEDGE, e.id, _unit(m, [(off + e.id, 1)])) for e in g.edges]
    pts += [
        LatticePoint(TPOINT, e.id, _unit(m, [(e.u, 1), (e.v, 1), (off + e.id, -1)]))
        for e in g.edges
    ]
    for e in g.edges:
        if e.is_loop:
            continue
        pts.append(LatticePoint(YFORWARD, e.id, _unit(m, [(e.u, 1), (e.v, -1), (off + e.id, 1)])))
    for e in g.edges:
        if e.is_loop:
            continue
        pts.append(LatticePoint(YBACKWARD, e.id, _unit(m, [(e.u, -1), (e.v, 1), (off + e.id, 1)])))
    return tuple(pts)


def dimension(g: Multigraph) -> int:
    """The polytope is (|V| + |E| - 1)-dimensional."""
    return g.vertex_count + len(g.edges) - 1


class FacetInequality(NamedTuple):
    """Facet c . w >= 0, witnessed by a connected subgraph (vertices, edges).

    The normal has c_v = 1 on subgraph vertices and, for every edge outside
    the subgraph, the number of its endpoints inside (a loop counts twice).
    """

    subgraph_vertices: tuple[int, ...]
    subgraph_edges: tuple[int, ...]
    normal: tuple[int, ...]


def facet_inequalities(g: Multigraph, budget: Budget | int | None = None) -> list[FacetInequality]:
    """Facets of the polytope, one per non-empty connected subgraph.

    Distinct subgraphs give distinct normals: a normal gives back the
    subgraph's vertices as those with c_v = 1, and its edges as the edges
    between them with c_e = 0 (any other such edge has c_e = 2).
    """
    if not is_connected(g):
        raise DisconnectedGraph("facet description requires a connected graph")
    m = g.vertex_count + len(g.edges)
    off = g.vertex_count
    out = []
    for vset, eset in connected_subgraphs(g, budget):
        inside_v = set(vset)
        inside_e = set(eset)
        normal = [0] * m
        for v in vset:
            normal[v] = 1
        for e in g.edges:
            if e.id not in inside_e:
                normal[off + e.id] = (e.u in inside_v) + (e.v in inside_v)
        out.append(FacetInequality(vset, eset, tuple(normal)))
    return out


def count_dilate_points(g: Multigraph, t: int, budget: Budget | int | None = None) -> int:
    """N(t), the number of lattice points in the t-th dilate.

    The polytope has a unimodular triangulation, so it is IDP: every lattice
    point of tP is a sum of t lattice points of P, and N(t) is the size of
    the t-fold sumset of :func:`lattice_points`.  Building the k-th sumset
    from the (k-1)-th spends |S_(k-1)| * |lattice points| budget nodes, an
    upper bound on the sums it forms: each point is added only to the sums
    whose largest summand comes no later than it does.
    """
    *_, (count, _) = _sumsets(g, t, budget, interior=False)
    return count


def count_interior_points(g: Multigraph, t: int, budget: Budget | int | None = None) -> int:
    """Lattice points in the relative interior of the t-th dilate: the points
    of the t-fold sumset with c . x >= 1 for every facet normal c.  The scan
    of the facet subgraphs is charged on top of the sumset steps."""
    *_, (_, interior) = _sumsets(g, t, budget, interior=True)
    return interior


def _zero_facet_masks(
    g: Multigraph, subgraphs: list[tuple[tuple[int, ...], tuple[int, ...]]]
) -> list[int]:
    """For each lattice point, in :func:`lattice_points` order, the mask with
    bit f set iff the facet of ``subgraphs[f]``, a (vertices, edge ids) pair
    in :func:`connected_subgraphs` order, is 0 there: read off the subgraph
    by the vanishing rules of the module docstring, with no normal built."""
    full = (1 << len(subgraphs)) - 1
    # bit f of in_v[v] (in_e[e]) is set iff vertex v (edge e) is in subgraph f
    in_v = [0] * g.vertex_count
    in_e = [0] * len(g.edges)
    for f, (vset, eset) in enumerate(subgraphs):
        for v in vset:
            in_v[v] |= 1 << f
        for e in eset:
            in_e[e] |= 1 << f
    proper = [e for e in g.edges if not e.is_loop]
    return [
        *(full ^ bits for bits in in_v),
        *(in_e[e.id] | full ^ (in_v[e.u] | in_v[e.v]) for e in g.edges),
        *(full ^ in_e[e.id] for e in g.edges),
        *(in_e[e.id] | full ^ in_v[e.u] for e in proper),
        *(in_e[e.id] | full ^ in_v[e.v] for e in proper),
    ]


def _sumsets(
    g: Multigraph, top: int, budget: Budget | int | None, interior: bool
) -> Iterator[tuple[int, int | None]]:
    """Yield (N(t), N°(t)) for t = 0..top, building each sumset S_t once from
    S_(t-1); N°(t) is None unless ``interior``.

    S_t is {s + c_j : s in S_(t-1), j >= mu(s)}, where mu(s) is the least
    j such that s is a sum of t-1 lattice points of index at most j; this
    misses no point, as a sum x of t points is formed from s = x - c_j,
    with c_j its summand of largest index.  Points are added in rising j
    to a dict, whose insertion order is then mu order, so point j is added
    to a prefix of S_(t-1), of the length the dict had after point j was
    added to S_(t-2).

    Step t spends |S_(t-1)| * |lattice points| budget nodes, an upper bound
    on the sums it forms, and ``interior`` adds the scan of the facet
    subgraphs before the first step.
    """
    if top < 0:
        raise ValueError("dilation factor must be nonnegative")
    if not is_connected(g):
        raise DisconnectedGraph("dilate counting requires a connected graph")
    bud = as_budget(budget)
    pts = [p.coords for p in lattice_points(g)]
    # Every point of the t-fold sumset has coordinate sum t, so its last
    # coordinate follows from the others and stays out of the code.  A sum of
    # at most `top` points has each other coordinate in [top * lo, top * hi],
    # a range of `base` values, so the signed-digit code sum x_k base^k over
    # those coordinates is injective on every sumset up to S_top, and the
    # code of a sum is the sum of the codes.
    lo = min(min(x[:-1]) for x in pts)
    base = top * (max(max(x[:-1]) for x in pts) - lo) + 1
    codes = [sum(c * base**k for k, c in enumerate(x[:-1])) for x in pts]
    # S_0 = {0}, with mu(0) = 0: every point is added to it
    ends = [1] * len(codes)
    if not interior:
        sums = {0: None}
        yield 1, None
        for t in range(1, top + 1):
            bud.spend(len(sums) * len(codes))
            if t == top:  # only its size is read
                yield len({s + c for c, end in zip(codes, ends) for s in islice(sums, end)}), None
                return
            level, sums, grown = sums, {}, []
            for c, end in zip(codes, ends):
                for s in islice(level, end):
                    sums[s + c] = None
                grown.append(len(sums))
            ends = grown
            yield len(sums), None
        return
    # A point's zero-facet mask has bit f set iff facet f is 0 there.  Facet
    # values are >= 0 on P, so a sum is 0 on a facet iff every summand is:
    # the mask of a sum is the AND of its summands' masks, the same for every
    # way of forming it, and a point of a dilate is interior iff its mask is 0.
    subgraphs = list(connected_subgraphs(g, bud))
    masks = _zero_facet_masks(g, subgraphs)
    sums = {0: (1 << len(subgraphs)) - 1}
    yield 1, 0
    for _ in range(top):
        bud.spend(len(sums) * len(codes))
        level, sums, grown = sums.items(), {}, []
        for c, m, end in zip(codes, masks, ends):
            for s, n in islice(level, end):
                sums[s + c] = m & n
            grown.append(len(sums))
        ends = grown
        yield len(sums), operator.countOf(sums.values(), 0)
