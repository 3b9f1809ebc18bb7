"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: subset scans, permutation scans and
rational Gaussian elimination, sharing no code with the library paths they
certify.  The rational solve checks the integer determinant.  The two-pass
visibility count, the box counter of dilate points and the
obstruction-avoiding cell search are the routes that the visibility tally
read off the placing inverses, the IDP sumset and the placing
triangulation replaced.  The visibility oracle takes only the anchor
perturbation schedule from the library, the box counter only the lattice
points and facets, and the cell search only the lattice points and an
obstruction set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm
from typing import Iterable

from hypothesis import strategies as st

from cosmopoly.errors import Budget, CosmopolyError, DisconnectedGraph, as_budget
from cosmopoly.grobner import Obstruction
from cosmopoly.hstar import _MAX_ANCHOR_RETRIES, _perturbed_anchor
from cosmopoly.multigraph import Multigraph, is_connected
from cosmopoly.polytope import facet_inequalities, lattice_points
from cosmopoly.triangulation import Simplex


def brute_cycle_edge_sets(g: Multigraph) -> set[frozenset[int]]:
    """Edge sets forming a cycle: >= 2 non-loop edges, connected, all vertex
    degrees exactly 2.  A cycle is determined by its edge set."""
    out = set()
    n = len(g.edges)
    for mask in range(1, 1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        if len(ids) < 2 or any(g.edges[i].is_loop for i in ids):
            continue
        deg: Counter = Counter()
        adj = defaultdict(list)
        for i in ids:
            e = g.edges[i]
            deg[e.u] += 1
            deg[e.v] += 1
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        if any(d != 2 for d in deg.values()):
            continue
        verts = sorted(deg)
        seen = {verts[0]}
        frontier = [verts[0]]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) == len(verts):
            out.add(frozenset(ids))
    return out


def brute_block_partition(g: Multigraph) -> set[frozenset[int]]:
    """Blocks as the cycle-sharing equivalence closure on edges; bridges and
    loops end up as singletons."""
    parent = list(range(len(g.edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cyc in brute_cycle_edge_sets(g):
        ids = sorted(cyc)
        for other in ids[1:]:
            parent[find(other)] = find(ids[0])
    groups = defaultdict(set)
    for i in range(len(g.edges)):
        groups[find(i)].add(i)
    return {frozenset(v) for v in groups.values()}


def brute_connected_subgraphs(g: Multigraph) -> set[tuple[frozenset[int], frozenset[int]]]:
    out = set()
    n = g.vertex_count
    for vmask in range(1, 1 << n):
        vset = frozenset(v for v in range(n) if vmask >> v & 1)
        candidates = [e for e in g.edges if e.u in vset and e.v in vset]
        for emask in range(1 << len(candidates)):
            chosen = [candidates[i] for i in range(len(candidates)) if emask >> i & 1]
            if _is_connected_pair(vset, chosen):
                out.add((vset, frozenset(e.id for e in chosen)))
    return out


def _is_connected_pair(vset, edges) -> bool:
    verts = sorted(vset)
    if len(verts) == 1:
        return True
    adj = defaultdict(list)
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(verts)


def brute_directed_paths(g: Multigraph) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All directed simple paths of length >= 2 as (vertices, edge ids), found
    by scanning edge-id permutations and chaining them."""
    out = set()
    ids = range(len(g.edges))
    for k in range(2, len(g.edges) + 1):
        for combo in permutations(ids, k):
            first = g.edges[combo[0]]
            if first.is_loop:
                continue
            for verts0 in ((first.u, first.v), (first.v, first.u)):
                verts = list(verts0)
                ok = True
                for eid in combo[1:]:
                    e = g.edges[eid]
                    if e.is_loop:
                        ok = False
                        break
                    if e.u == verts[-1]:
                        verts.append(e.v)
                    elif e.v == verts[-1]:
                        verts.append(e.u)
                    else:
                        ok = False
                        break
                if ok and len(set(verts)) == len(verts):
                    out.add((tuple(verts), tuple(combo)))
    return out


def brute_cells(g: Multigraph, obstructions) -> tuple[set[frozenset], bool]:
    """The obstruction-free point sets of size |V| + |E|, and whether any
    obstruction-free set of size |V| + |E| + 1 exists, by scanning every
    subset of that size."""
    obs = [frozenset(o) for o in obstructions]
    points = lattice_points(g)
    target = g.vertex_count + len(g.edges)

    def free(c) -> bool:
        s = frozenset(c)
        return not any(o <= s for o in obs)

    cells = {frozenset(c) for c in combinations(points, target) if free(c)}
    larger = any(free(c) for c in combinations(points, target + 1))
    return cells, larger


class ObstructionViolation(CosmopolyError):
    """A maximal obstruction-free set has unexpected cardinality."""


def enumerate_triangulation(
    g: Multigraph,
    obstructions: Iterable[Obstruction],
    budget: Budget | int | None = None,
) -> list[Simplex]:
    """All obstruction-free point sets of size |V| + |E|, i.e. the maximal
    cells of the triangulation induced by the given obstruction set.

    Backtracks over the canonically ordered lattice points with bitmask
    subset tests.  Each cell is certified maximal where the search completes
    it: no later point can be added obstruction-free.  That suffices, since
    any larger obstruction-free set contains a cell found by the search
    followed by a later point.  A violation raises ObstructionViolation: the
    obstruction set does not define a pure complex of the expected dimension.
    """
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    points = lattice_points(g)
    n = len(points)
    target = g.vertex_count + len(g.edges)
    index = {p: i for i, p in enumerate(points)}
    # group each obstruction under its highest point: it can only complete
    # when that point is added, points being taken in ascending index order
    by_max: list[list[int]] = [[] for _ in range(n)]
    for obs in obstructions:
        mask = 0
        for p in obs:
            mask |= 1 << index[p]
        top = mask.bit_length() - 1
        by_max[top].append(mask & ~(1 << top))

    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(pos: int, mask: int) -> None:
        bud.spend()
        have = len(chosen)
        if have == target:
            for i in range(pos, n):
                for rest in by_max[i]:
                    if rest & ~mask == 0:
                        break
                else:
                    raise ObstructionViolation(
                        f"cell {[points[j].name for j in chosen]} extends by {points[i].name}; "
                        "maximal obstruction-free sets exceed |V|+|E| points"
                    )
            found.append(tuple(chosen))
            return
        for i in range(pos, n):
            if have + (n - i) < target:
                break
            for rest in by_max[i]:
                if rest & ~mask == 0:
                    break
            else:
                chosen.append(i)
                rec(i + 1, mask | (1 << i))
                chosen.pop()

    try:
        rec(0, 0)
    finally:
        del rec  # rec holds itself through its closure; free the search state now
    return [tuple(points[i] for i in combo) for combo in found]


def series_count(h_coeffs, d: int, t: int) -> int:
    """Lattice-point count of the t-th dilate reconstructed from h*."""
    return sum(
        c * comb(t - k + d, d) for k, c in enumerate(h_coeffs) if t - k >= 0
    )


def interior_count_by_reciprocity(h_coeffs, d: int, t: int) -> int:
    """Ehrhart-Macdonald reciprocity: interior count of tP is |L(-t)|."""
    value = sum(
        c * _binom_poly(-t - k + d, d) for k, c in enumerate(h_coeffs)
    )
    return abs(value)


def _binom_poly(top: int, d: int) -> int:
    """C(top, d) as the polynomial top(top-1)...(top-d+1)/d!, valid for any
    integer top."""
    num = 1
    for i in range(d):
        num *= top - i
    den = 1
    for i in range(2, d + 1):
        den *= i
    return num // den


def matrix_rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def solve_rational(matrix, rhs) -> tuple[list[Fraction], int]:
    """Solve A x = b for square integer A; returns (x, det A).

    Forward elimination is fraction-free (Bareiss); back substitution uses
    rationals.  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    a = [list(row) + [int(rhs[i])] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in a):
        raise ValueError("matrix must be square and match rhs length")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                raise ValueError("singular matrix")
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    if a[n - 1][n - 1] == 0:
        raise ValueError("singular matrix")
    det = sign * a[n - 1][n - 1]
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x, det


def two_pass_visibility(g: Multigraph, simplices) -> tuple[tuple[Fraction, ...], int, list[int]]:
    """Visibility h* by certifying an anchor over all cells, then solving
    every cell again to count its visible facets, with rational solves.

    Returns (anchor coords, perturbation index, h* coefficients).  The
    perturbation schedule is the library's: this checks the solves and the
    counting, not the choice of candidate points.
    """
    for index in range(_MAX_ANCHOR_RETRIES + 1):
        q = _perturbed_anchor(g, index)
        if any(c <= 0 for c in q):
            continue
        scale = lcm(*(c.denominator for c in q))
        ints = [int(c * scale) for c in q]
        if all(all(v != 0 for v in barycentric(s, ints)) for s in simplices):
            break
    else:
        raise AssertionError("no general-position anchor within the retry schedule")
    visible = Counter(sum(1 for v in barycentric(s, ints) if v < 0) for s in simplices)
    return tuple(q), index, [visible[i] for i in range(max(visible) + 1)]


def barycentric(simplex, point) -> list[Fraction]:
    """The y with point = sum_j y_j p_j over the simplex's points p_j."""
    matrix = [[p.coords[k] for p in simplex] for k in range(len(point))]
    return solve_rational(matrix, point)[0]


def point_on_a_cell_facet_hyperplane(cells, q):
    """A strictly positive point of coordinate sum 1 on the hyperplane of
    some cell facet, found on a segment from q towards a unit vector.

    Barycentric coordinates are linear in the point, so one that changes
    sign along the segment vanishes at a point of it, which is strictly
    positive with coordinate sum 1 like both ends.
    """
    m = len(q)
    for i in range(m):
        r = [Fraction(9, 10) * (k == i) + Fraction(1, 10 * m) for k in range(m)]
        scale = lcm(*(c.denominator for c in q + r))
        for s in cells:
            yq = barycentric(s, [int(c * scale) for c in q])
            yr = barycentric(s, [int(c * scale) for c in r])
            for a, b in zip(yq, yr):
                if a * b < 0:
                    lam = a / (a - b)
                    return [(1 - lam) * x + lam * y for x, y in zip(q, r)]
    raise AssertionError("no cell facet hyperplane crosses the segments")


def box_count_points(g: Multigraph, t: int, strict: bool, budget: Budget | int | None) -> int:
    """Lattice points of the t-th dilate (strict: of its relative interior),
    by a facet-pruned search over the coordinate box.

    This is the counter the IDP sumset in ``cosmopoly.polytope`` replaced.
    It assumes nothing about the polytope beyond its facets.
    """
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


def relabeled(g: Multigraph, rng) -> Multigraph:
    """Random vertex permutation, edge order and endpoint order."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    pairs = [(perm[e.u], perm[e.v]) for e in g.edges]
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(pairs)
    return Multigraph.from_pairs(g.vertex_count, pairs)


@st.composite
def small_multigraphs(draw, max_vertices: int = 4, max_edges: int = 4):
    """Random small multigraphs without isolated vertices (reindexed)."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(1, max_edges))
    pairs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    used = sorted({v for p in pairs for v in p})
    remap = {old: new for new, old in enumerate(used)}
    return Multigraph.from_pairs(len(used), [(remap[u], remap[v]) for u, v in pairs])
