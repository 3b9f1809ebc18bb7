"""Geometry of the cosmological polytope of a multigraph.

The polytope lives in R^(V u E) and is the convex hull, over all edges
f = ij, of e_i + e_j - e_f, e_i - e_j + e_f and -e_i + e_j + e_f.  Its
lattice points are those generators together with the unit vectors of all
vertices and edges; everything here works with them exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import Budget, DisconnectedGraph, as_budget
from .multigraph import Multigraph, connected_subgraphs, is_connected

log = logging.getLogger(__name__)

ZVERTEX = "zv"
ZEDGE = "ze"
TPOINT = "t"
YFORWARD = "yf"
YBACKWARD = "yb"

KIND_RANK = {ZVERTEX: 0, ZEDGE: 1, TPOINT: 2, YFORWARD: 3, YBACKWARD: 4}


@dataclass(frozen=True)
class LatticePoint:
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
    |V| + 4|E| - 2 * #loops.
    """
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
    return pts


def point_by_name(g: Multigraph, name: str) -> LatticePoint:
    for p in lattice_points(g):
        if p.name == name:
            return p
    raise KeyError(name)


def dimension(g: Multigraph) -> int:
    """The polytope is (|V| + |E| - 1)-dimensional."""
    return g.vertex_count + len(g.edges) - 1


@dataclass(frozen=True)
class FacetInequality:
    """Facet c . w >= 0, witnessed by a connected subgraph (vertices, edges).

    The normal has c_v = 1 on subgraph vertices and, for every edge outside
    the subgraph, the number of its endpoints inside (a loop counts twice).
    """

    subgraph_vertices: tuple[int, ...]
    subgraph_edges: tuple[int, ...]
    normal: tuple[int, ...]


def facet_inequalities(g: Multigraph, budget: Budget | int | None = None) -> list[FacetInequality]:
    """Facets of the polytope, one per non-empty connected subgraph.

    Distinct subgraphs yielding the same normal are deduplicated (first
    witness wins) and logged, although no collision is known to occur.
    """
    if not is_connected(g):
        raise DisconnectedGraph("facet description requires a connected graph")
    m = g.vertex_count + len(g.edges)
    off = g.vertex_count
    seen: dict[tuple[int, ...], FacetInequality] = {}
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
        key = tuple(normal)
        if key in seen:
            log.warning(
                "duplicate facet normal from subgraphs %s and %s",
                (seen[key].subgraph_vertices, seen[key].subgraph_edges),
                (vset, eset),
            )
            continue
        ineq = FacetInequality(vset, eset, key)
        seen[key] = ineq
        out.append(ineq)
    return out


def count_dilate_points(g: Multigraph, t: int, budget: Budget | int | None = None) -> int:
    """Number of lattice points in the t-th dilate, by pruned exact enumeration."""
    return _count_points(g, t, strict=False, budget=budget)


def count_interior_points(g: Multigraph, t: int, budget: Budget | int | None = None) -> int:
    """Lattice points in the relative interior of the t-th dilate."""
    return _count_points(g, t, strict=True, budget=budget)


def _count_points(g: Multigraph, t: int, strict: bool, budget: Budget | int | None) -> int:
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    bud = as_budget(budget)
    facets = facet_inequalities(g, bud)
    normals = [f.normal for f in facets]
    m = g.vertex_count + len(g.edges)
    # The lattice points include the vertices of the polytope, so their
    # coordinate box is the polytope's.
    pts = [p.coords for p in lattice_points(g)]
    lo = [t * min(x[k] for x in pts) for k in range(m)]
    hi = [t * max(x[k] for x in pts) for k in range(m)]

    # suffix sums of the coordinate box, and per-inequality suffix maxima
    suf_lo = [0] * (m + 1)
    suf_hi = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suf_lo[k] = suf_lo[k + 1] + lo[k]
        suf_hi[k] = suf_hi[k + 1] + hi[k]
    nineq = len(normals)
    suf_max = [[0] * (m + 1) for _ in range(nineq)]
    for i, c in enumerate(normals):
        row = suf_max[i]
        for k in range(m - 1, -1, -1):
            row[k] = row[k + 1] + c[k] * hi[k]
    per_coord: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i, c in enumerate(normals):
        for k in range(m):
            if c[k]:
                per_coord[k].append((i, c[k]))
    need = 1 if strict else 0
    partial = [0] * nineq
    count = 0

    def rec(k: int, coord_sum: int) -> None:
        nonlocal count
        bud.spend()
        if k == m:
            if coord_sum == t and all(s >= need for s in partial):
                count += 1
            return
        xlo = max(lo[k], t - coord_sum - suf_hi[k + 1])
        xhi = min(hi[k], t - coord_sum - suf_lo[k + 1])
        for i, c in per_coord[k]:
            gap = need - partial[i] - suf_max[i][k + 1]
            if gap > 0:
                q = -((-gap) // c)  # ceil(gap / c)
                if q > xlo:
                    xlo = q
        if xlo > xhi:
            return
        touched = per_coord[k]
        for i, c in touched:
            partial[i] += c * xlo
        x = xlo
        while x <= xhi:
            rec(k + 1, coord_sum + x)
            x += 1
            if x <= xhi:
                for i, c in touched:
                    partial[i] += c
        for i, c in touched:
            partial[i] -= c * xhi

    try:
        rec(0, 0)
    finally:
        del rec  # rec holds itself through its closure; free the search state now
    return count
