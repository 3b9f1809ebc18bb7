"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: subset scans, permutation scans and
rational Gaussian elimination, sharing no code with the library paths they
certify.  The rational solve checks the integer determinant.  The two-pass
visibility count, the box counter of dilate points, the
obstruction-avoiding cell search, the inversion of all dilates and the
boundary-scanning placing pass are the routes that the visibility tally
read off the placing inverses, the IDP sumset, the placing triangulation,
the reciprocity halves of the Ehrhart route and the conflict lists of the
placing pass replaced, the tuple-row placing pass is the route the
packed-integer kernel replaced, the per-point scan of a facet functional is
the test that one product of the functional with every point still to come
replaced, and the pairwise sumset, with its zero-facet masks by dot
products, is the sumset that forms each sum once per multiset of summands,
with its masks read off the facet subgraphs, replaced.  The
adjacency-list search for components is the route that the bit-mask
closure of the graph layer replaced.  The statistic summed over cells
rendered by ``decorated_view`` is the route that the bitwise tally off the
cell masks replaced.  The goodness check by its definition, a
class-ranking shortcut and then a lex comparison of every fundamental
binomial and of every cycle binomial with its y's on one side, is the
route that the rank test of the fundamental binomials replaced, and its
lex comparison is the route that the greatest-variable rule of
``TermOrder.leading`` replaced.  The visibility oracle keeps the anchor
perturbation schedule that the lexicographic tie-break replaced, so it
breaks no tie, and takes only the base anchor
from the library; the box counter and the pairwise sumset take only the
lattice points and facets, the cell search only the lattice points and an
obstruction set, the dilate inversion only the dilate counts, which the box
counter checks, and the two placing passes only the lattice points and the
goodness check of the term order.  The zig-zag and cyclic binomials are
written out from their definitions on the brute-force path and cycle
enumerators, as the point names on each side.

The multicycle structure checker is no oracle: it tests the paper's
structure lemma on the cells of multicycle triangulations, which no command
needs, so it lives with the tests that run it, as does its test for a
multicycle in canonical layout.  So do a few small lookups and identities
that only the tests read: a lattice point by name, the bridges of a graph,
and the Laurent-monomial image that shows a binomial balanced.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, lcm
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from hypothesis import strategies as st

from cosmopoly.errors import (
    BadTermOrder,
    Budget,
    CosmopolyError,
    DisconnectedGraph,
    StructureViolation,
    TheoremViolation,
    as_budget,
)
from cosmopoly.grobner import (
    Binomial,
    Monomial,
    Obstruction,
    TermOrder,
    default_good_order,
    is_good_order,
)
from cosmopoly.hstar import IntPolynomial
from cosmopoly.multigraph import SINGLE_EDGE, Multigraph, blocks, is_connected
from cosmopoly.polytope import (
    FacetInequality,
    LatticePoint,
    count_dilate_points,
    dimension,
    facet_inequalities,
    lattice_points,
)
from cosmopoly.triangulation import (
    BACKWARD,
    FORWARD,
    PLAIN,
    SQUIGGLY,
    DecoratedGraph,
    Packing,
    Simplex,
    WidthOverflow,
    base_anchor,
    decorated_view,
    placing_pass,
)


def point_by_name(g: Multigraph, name: str) -> LatticePoint:
    for p in lattice_points(g):
        if p.name == name:
            return p
    raise KeyError(name)


def bridges(g: Multigraph) -> list[int]:
    """Edge ids of bridges (SingleEdge blocks)."""
    return [b.edge_ids[0] for b in blocks(g) if b.tag == SINGLE_EDGE]


def monomial_image(mono: Monomial) -> tuple[int, ...]:
    """Exponent vector of the Laurent-monomial image: sum of exp * coords."""
    acc = None
    for p, exp in mono:
        if acc is None:
            acc = [exp * c for c in p.coords]
        else:
            for i, c in enumerate(p.coords):
                acc[i] += exp * c
    assert acc is not None
    return tuple(acc)


def is_balanced(b: Binomial) -> bool:
    """Both sides of the binomial map to the same Laurent monomial."""
    return monomial_image(b.lhs) == monomial_image(b.rhs)


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


def dfs_connected_components(g: Multigraph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by
    minimum, by a depth-first search over adjacency lists."""
    adj = g.adjacency()
    seen = [False] * g.vertex_count
    out = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _ in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return out


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


def _split_walk(g: Multigraph, steps, along: set[int], lhs: list[str], rhs: list[str]):
    """Sorted point names on each side of the binomial that puts, for the
    walk step a -> b over edge e at position i, y(a -> b) on the left and z_e
    on the right when i is in ``along``, else y(b -> a) on the right and z_e
    on the left; y(a -> b) is forward when (a, b) is e's stored (u, v)."""
    for i, (a, b, eid) in enumerate(steps):
        e = g.edges[eid]
        y_along, y_against = ("yf", "yb") if (a, b) == (e.u, e.v) else ("yb", "yf")
        if i in along:
            lhs.append(f"{y_along}{eid}")
            rhs.append(f"ze{eid}")
        else:
            rhs.append(f"{y_against}{eid}")
            lhs.append(f"ze{eid}")
    return tuple(sorted(lhs)), tuple(sorted(rhs))


def definition_zigzag_sides(g: Multigraph) -> Counter:
    """Zig-zag binomials as (left, right) point-name multisets: per directed
    simple path of length k >= 2 and per subset of its k - 2 middle edges,
    the left holds the end vertex's z, the y toward the end of the start
    edge and of the chosen middle edges, and the z_edge of every other edge;
    the right holds the start vertex's z, the z_edge of those edges and the
    y toward the start of every other edge."""
    out: Counter = Counter()
    for verts, eids in brute_directed_paths(g):
        steps = list(zip(verts, verts[1:], eids))
        middle = range(1, len(eids) - 1)
        for r in range(len(middle) + 1):
            for chosen in combinations(middle, r):
                ends = [f"zv{verts[-1]}"], [f"zv{verts[0]}"]
                out[_split_walk(g, steps, {0, *chosen}, *ends)] += 1
    return out


def _cycle_walks(g: Multigraph) -> Iterator[tuple[frozenset[int], list[tuple[int, int, int]]]]:
    """Each cycle edge set with each of its two orientations, as the steps
    (a, b, edge id) of a walk that starts on the cycle's least edge."""
    for ids in brute_cycle_edge_sets(g):
        first = g.edges[min(ids)]
        steps = [(first.u, first.v, first.id)]
        while len(steps) < len(ids):
            at = steps[-1][1]
            left = sorted(ids - {eid for _, _, eid in steps})
            e = next(g.edges[i] for i in left if at in (g.edges[i].u, g.edges[i].v))
            steps.append((at, e.v if e.u == at else e.u, e.id))
        yield ids, steps
        yield ids, [(first.v, first.u, first.id)] + [(b, a, eid) for a, b, eid in reversed(steps[1:])]


def definition_cyclic_sides(g: Multigraph) -> dict[tuple, Counter]:
    """Cyclic binomials as (left, right) point-name multisets, for each cycle
    edge set and each of its two orientations: every subset of the edges
    puts their y along the orientation on the left with the z_edge of the
    rest, and their z_edge on the right with the y of the rest against it.
    Keyed by (edge set, a, b) where a -> b is the orientation on the cycle's
    least edge."""
    out = {}
    for ids, walk in _cycle_walks(g):
        sides: Counter = Counter()
        for r in range(len(walk) + 1):
            for along in combinations(range(len(walk)), r):
                sides[_split_walk(g, walk, set(along), [], [])] += 1
        out[ids, walk[0][0], walk[0][1]] = sides
    return out


def cycle_y_sides(g: Multigraph) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The cycle binomials with every y on one side, as (y names, z names):
    one per cycle edge set and orientation, the y's along it."""
    return [_split_walk(g, walk, set(range(len(walk))), [], []) for _, walk in _cycle_walks(g)]


def definition_fundamental_sides(g: Multigraph) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The fundamental binomials as (designated side, other side) point-name
    multisets: for a non-loop edge f = (u, v), yf yb - ze^2, yf t - zu^2,
    yb t - zv^2, yf zv - zu ze, yb zu - zv ze and t ze - zu zv; for a loop,
    t ze - zu^2."""
    out = []
    for e in g.edges:
        f, zu, zv = e.id, f"zv{e.u}", f"zv{e.v}"
        yf, yb, t, ze = f"yf{f}", f"yb{f}", f"t{f}", f"ze{f}"
        pairs = [([t, ze], [zu, zu])] if e.is_loop else [
            ([yf, yb], [ze, ze]),
            ([yf, t], [zu, zu]),
            ([yb, t], [zv, zv]),
            ([yf, zv], [zu, ze]),
            ([yb, zu], [zv, ze]),
            ([t, ze], [zu, zv]),
        ]
        out.extend((tuple(sorted(a)), tuple(sorted(b))) for a, b in pairs)
    return out


def name_ranks(order: TermOrder) -> dict[str, int]:
    return {p.name: i for i, p in enumerate(order.ranked)}


def lex_leads(rank: dict[str, int], lhs: Sequence[str], rhs: Sequence[str]) -> bool:
    """Whether ``lhs`` leads ``rhs`` in the lex order of ``rank`` (point name
    to rank, greatest first): the greatest variable whose exponents differ
    has the larger exponent on the left."""
    a, b = Counter(lhs), Counter(rhs)
    for name in sorted(a.keys() | b.keys(), key=rank.__getitem__):
        if a[name] != b[name]:
            return a[name] > b[name]
    raise AssertionError("binomial sides must be distinct monomials")


def class_ranked(order: TermOrder, g: Multigraph) -> bool:
    """Every y ranks above every edge and vertex z, and every t above every
    vertex z: a sufficient condition for goodness, which every order of
    ``default_good_order`` meets."""
    rank = name_ranks(order)
    by_kind: dict[str, list[int]] = defaultdict(list)
    for p in lattice_points(g):
        by_kind[p.kind].append(rank[p.name])
    ys = by_kind["yf"] + by_kind["yb"]
    return (max(ys, default=-1) < min(by_kind["ze"] + by_kind["zv"])
            and max(by_kind["t"], default=-1) < min(by_kind["zv"]))


def cycle_checked_good_order(order: TermOrder, g: Multigraph) -> bool:
    """The goodness check by its definition: a class-ranked order is good;
    any other is good when every fundamental binomial leads with its
    designated side and every cycle binomial with all its y's on one side
    leads with them, each compared by :func:`lex_leads`."""
    if class_ranked(order, g):
        return True
    rank = name_ranks(order)
    return all(lex_leads(rank, *sides) for sides in definition_fundamental_sides(g)) and all(
        lex_leads(rank, *sides) for sides in cycle_y_sides(g)
    )


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


def scan_placing_pass(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The placing pass that tests every boundary facet against each point
    placed: (cell, inverse) in the order the cells are made.

    The first cell comes from Bareiss pivots of the points into unit-vector
    slots.  The facets two new cells share are paired off, with no test of
    the points placed.  A facet of the new cells that no later point lies
    beyond is dropped; every other one is kept on the boundary, and each
    later point is coned over the boundary facets it lies beyond, in the
    order they were kept.  It charges one node per boundary facet scanned,
    per cell made and per later point tested against a new facet.
    """
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    if order is None:
        order = default_good_order(g)
    if not is_good_order(order, g):
        raise BadTermOrder("term order fails the goodness check on this graph")
    points = lattice_points(g)
    coords = [p.coords for p in points]
    placing = sorted(range(len(points)), key=lambda i: order.rank(points[i]), reverse=True)
    m = g.vertex_count + len(g.edges)

    def dot(row, i):
        return sum(a * c for a, c in zip(row, coords[i]))

    inverse = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    det, first, rest = 1, [-1] * m, []
    for i in placing:
        y = [dot(row, i) for row in inverse]
        q = next((x for x in range(m) if first[x] < 0 and y[x]), None)
        if q is None:
            rest.append(i)
            continue
        first[q], lead = i, inverse[q]
        inverse = [tuple((y[q] * a - y[x] * b) // det for a, b in zip(row, lead))
                   for x, row in enumerate(inverse)]
        inverse[q], det = lead, y[q]
    if det not in (1, -1):
        raise TheoremViolation(f"the first cell has determinant {det}, not +-1")
    boundary: list[tuple] = []  # facets (cell, inverse, q): they omit cell[q], whose row is q
    made = [(tuple(first), tuple(tuple(det * a for a in row) for row in inverse), -1)]
    for step in range(len(rest) + 1):
        fresh: dict[frozenset, tuple] = {}  # facets of the new cells but those two share
        for cell, inv, q in made:
            yield cell, inv
            for x in range(m):
                key = frozenset(cell) - {cell[x]}
                if x != q and fresh.pop(key, None) is None:
                    fresh[key] = (cell, inv, x)
        future = rest[step:]
        for cell, inv, x in fresh.values():
            beyond = next((n for n, j in enumerate(future, 1) if dot(inv[x], j) < 0), 0)
            bud.spend(beyond or len(future))
            if beyond:
                boundary.append((cell, inv, x))
        if not future:
            break
        p = future[0]
        bud.spend(len(boundary))
        visible = [f for f in boundary if dot(f[1][f[2]], p) < 0]
        boundary = [f for f in boundary if dot(f[1][f[2]], p) >= 0]
        bud.spend(len(visible))
        made = []
        for cell, inv, q in visible:
            y = [dot(row, p) for row in inv]
            if y[q] not in (1, -1):
                raise TheoremViolation(f"placing pivot {y[q]}: the new cell is not unimodular")
            lead = tuple(y[q] * a for a in inv[q])
            new = tuple(lead if x == q else tuple(a - y[x] * b for a, b in zip(row, lead))
                        for x, row in enumerate(inv))
            made.append((cell[:q] + (p,) + cell[q + 1 :], new, q))


def tuple_placing_pass(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
    anchor: Sequence[int] = (),
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The placing pass with conflict lists on tuple rows: (cell, inverse)
    in the order the cells are made, the inverse as a tuple of integer rows.
    Given an integer ``anchor`` point, each row carries one more entry, the
    row times the anchor.

    Each step computes C^-1 p by one sparse dot product per row and rebuilds
    every row the pivot changes; the first cell comes from Bareiss pivots of
    the points into unit-vector slots.  It pairs off the facets two new
    cells share, where the packed pass skips each facet a placed point lies
    beyond, and scans the later points for the first beyond each other
    facet.  It charges the nodes of the packed pass: one per cell made and
    per later point tested against a new facet.
    """
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    if order is None:
        order = default_good_order(g)
    if not is_good_order(order, g):
        raise BadTermOrder("term order fails the goodness check on this graph")
    points = lattice_points(g)
    # a point's nonzero coordinates (k, c_k), at most three, padded with (0, 0)
    sparse = [sum(([kc for kc in enumerate(p.coords) if kc[1]] + [(0, 0)] * 2)[:3], ())
              for p in points]
    placing = sorted(range(len(points)), key=lambda i: order.rank(points[i]), reverse=True)
    m = g.vertex_count + len(g.edges)
    # the identity, with the anchor as its last column: the rows times the anchor
    inverse = [tuple(int(i == j) for j in range(m)) + tuple(anchor[i : i + 1]) for i in range(m)]
    det, first, rest = 1, [-1] * m, []
    for i in placing:
        y = [_tuple_dot(row, sparse[i]) for row in inverse]
        q = next((x for x in range(m) if first[x] < 0 and y[x]), None)
        if q is None:
            rest.append(i)
            continue
        first[q], lead = i, inverse[q]
        inverse = [tuple([(y[q] * a - y[x] * b) // det for a, b in zip(row, lead)])
                   for x, row in enumerate(inverse)]
        inverse[q], det = lead, y[q]
    if det not in (1, -1):
        raise TheoremViolation(f"the first cell has determinant {det}, not +-1")
    # conflict lists: visible[k] holds the facets (cell, inverse, q), omitting
    # cell[q], that rest[k] is the first point still to come to lie beyond
    visible: list[list[tuple]] = [[] for _ in rest]
    # new cells, with the slot of the point just placed
    made = [(tuple(first), tuple(tuple(det * a for a in row) for row in inverse), -1)]
    for step in range(len(rest) + 1):
        fresh: dict[int, tuple] = {}  # facets of the new cells but those two of them share
        for cell, inv, q in made:
            yield cell, inv
            mask = sum(1 << i for i in cell)
            for x in range(m):
                if x != q and fresh.pop(mask ^ (1 << cell[x]), None) is None:
                    fresh[mask ^ (1 << cell[x])] = (cell, inv, x)
        future = rest[step:]
        for cell, inv, x in fresh.values():
            beyond = next(
                (n for n, j in enumerate(future, 1) if _tuple_dot(inv[x], sparse[j]) < 0), 0
            )
            bud.spend(beyond or len(future))
            if beyond:
                visible[step + beyond - 1].append((cell, inv, x))
        if not future:
            break
        p, sp = future[0], sparse[future[0]]
        bud.spend(len(visible[step]))
        made = [
            (cell[:q] + (p,) + cell[q + 1 :],
             _tuple_pivot(inv, [_tuple_dot(r, sp) for r in inv], q), q)
            for cell, inv, q in visible[step]
        ]
        visible[step] = []


def _tuple_dot(row: Sequence[int], s: tuple[int, ...]) -> int:
    return row[s[0]] * s[1] + row[s[2]] * s[3] + row[s[4]] * s[5]


def _tuple_pivot(inverse: tuple, y: list[int], q: int) -> tuple:
    """Inverse of a unimodular cell once slot q holds p, where inverse . p = y."""
    if y[q] not in (1, -1):
        raise TheoremViolation(f"placing pivot {y[q]}: the new cell is not unimodular")
    lead = inverse[q] if y[q] == 1 else tuple(-a for a in inverse[q])
    return tuple(
        lead if x == q else row if not yx else tuple([a - yx * b for a, b in zip(row, lead)])
        for x, (row, yx) in enumerate(zip(inverse, y))
    )


def pass_cells(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
    packing: Packing | None = None,
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The library's placing pass a cell at a time, as (cell, mask,
    inverse): its step batches flattened, and each cell's point bits by
    slot decoded to point indices.  The pass is read as it runs, so a
    caller that stops early drops it part way."""
    for batch in placing_pass(g, order, budget, packing):
        for bits, mask, inverse in batch:
            yield tuple(b.bit_length() - 1 for b in bits), mask, inverse


def scan_beyond(pk: Packing, row: int, indices: Sequence[int]) -> int:
    """The points ``indices`` that lie beyond the facet functional of a
    packed row's field ``row`` (``inverse >> S x & row_mask``), as a bit
    mask by position: each point tested on its own, one multiplication per
    point, as the placing pass did before one product tested them all.
    Digit m - 1 of the row times a packed point is their dot product, and
    its offset sign bit is clear iff it is negative."""
    row -= pk.row_offset
    sign = 1 << pk.width * pk.m - 1
    return sum(
        1 << k for k, i in enumerate(indices) if not (row * pk.points[i] + pk.row_offset) & sign
    )


def unpacked_placing_pass(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
    anchor: Sequence[int] | None = None,
) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The library's packed placing pass as (cell, inverse), the inverse
    decoded into integer rows, each followed by the row times the anchor:
    the base anchor, or ``anchor`` when given.  That is what the tuple-row
    pass yields given the same anchor, and, less the anchor entries
    (:func:`anchor_free`), what it and the scanning pass yield without one.

    As in ``triangulation.placed``, the pass runs at the narrow width and,
    if an inverse entry leaves the window, again at Hadamard's width,
    charging ``budget`` for both."""
    bud = as_budget(budget)
    coords = [p.coords for p in lattice_points(g)]
    anchor = base_anchor(g) if anchor is None else anchor

    def run(proven: bool) -> list:
        pk = Packing(coords, anchor, proven)
        return [(cell, pk.rows(inverse)) for cell, _, inverse in pass_cells(g, order, bud, pk)]

    try:
        return run(False)
    except WidthOverflow:
        return run(True)


def anchor_free(cells: Iterable[tuple]) -> list[tuple]:
    """(cell, inverse) pairs with the anchor entry dropped from each row."""
    return [(cell, tuple(row[:-1] for row in inverse)) for cell, inverse in cells]


def sq_db_counts(d: DecoratedGraph) -> tuple[int, int]:
    """(# squiggly edges, # double edges) of a decorated cell."""
    sq = sum(1 for rs in d.edge_roles if SQUIGGLY in rs)
    db = sum(1 for rs in d.edge_roles if len(rs) == 2)
    return sq, db


def statistic_polynomial(g: Multigraph, simplices: Sequence[Simplex]) -> IntPolynomial:
    """Sum over the given cells of z^(squiggly + double edges), each cell
    rendered by :func:`decorated_view`, which raises on a cell that breaks
    the stroke rule: the oracle of ``mask_statistic``."""
    counts: list[int] = []
    for s in simplices:
        sq, db = sq_db_counts(decorated_view(s, g))
        k = sq + db
        if k >= len(counts):
            counts.extend([0] * (k - len(counts) + 1))
        counts[k] += 1
    return IntPolynomial(counts)


def multicycle_layout(g: Multigraph) -> tuple[int, ...] | None:
    """Multiplicity vector if g is a multicycle in canonical layout, else None.

    Canonical layout: vertices 0..n-1 in cycle order, edges grouped per
    multi-edge with endpoints stored as (i, (i+1) mod n).
    """
    n = g.vertex_count
    if n < 3:
        return None
    mult = []
    pos = 0
    for i in range(n):
        cnt = 0
        while pos < len(g.edges) and (g.edges[pos].u, g.edges[pos].v) == (i, (i + 1) % n):
            cnt += 1
            pos += 1
        if cnt == 0:
            return None
        mult.append(cnt)
    if pos != len(g.edges):
        return None
    return tuple(mult)


@dataclass(frozen=True)
class MulticycleReport:
    simplex_count: int
    arc_pattern_counts: tuple[int, int]  # arcs matching pattern 1 / pattern 2


def validate_multicycle_structure(g: Multigraph, simplices: Sequence[Simplex]) -> MulticycleReport:
    """Check every cell of a multicycle triangulation against the structural
    description: per multi-edge type A/B/C splits, white-to-white arc
    patterns, and uniqueness of cells given their squiggly and oriented
    double edges.  Raises StructureViolation with the first counterexample;
    an edge with no stroke, three or more, or a double stroke other than
    plain+directed is :func:`decorated_view`'s to report.

    The graph must be in canonical multicycle layout (see
    :func:`cosmopoly.multigraph.multicycle`), which ties the stored forward
    orientation to the traversal direction the default term order encodes.
    """
    mult = multicycle_layout(g)
    if mult is None:
        raise ValueError("graph is not a multicycle in canonical layout")
    n = g.vertex_count
    # multi-edge i -> its edge ids in ascending order
    groups: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        groups[e.u if (e.u + 1) % n == e.v else e.v].append(e.id)

    signatures = {}
    pattern_counts = [0, 0]
    for s in simplices:
        view = decorated_view(s, g)
        white = sorted(view.white_vertices)
        roles = view.edge_roles
        if not white:
            raise StructureViolation(f"cell without white node: {_names(s)}")

        types: list[str] = []
        for i in range(n):
            types.append(_multi_edge_type(s, groups[i], roles))

        k = len(white)
        for t in range(k):
            start = white[t]
            end = white[(t + 1) % k]
            arc = []  # multi-edges passed clockwise from start to end; all n if start == end
            i = start
            while True:
                arc.append(i)
                i = (i + 1) % n
                if i == end:
                    break
            pattern = _check_arc(s, arc, types, groups, roles)
            pattern_counts[pattern - 1] += 1

        sig = _double_squiggly_signature(roles)
        if sig in signatures:
            raise StructureViolation(
                f"cells {_names(signatures[sig])} and {_names(s)} share double/squiggly data"
            )
        signatures[sig] = s
    return MulticycleReport(len(simplices), tuple(pattern_counts))


def _names(s: Simplex) -> list[str]:
    return [p.name for p in s]


def _multi_edge_type(s: Simplex, edge_ids: list[int], roles: Sequence[frozenset[str]]) -> str:
    doubles = [e for e in edge_ids if len(roles[e]) == 2]
    if not doubles:
        return "C"
    if len(doubles) > 1:
        raise StructureViolation(
            f"multi-edge {edge_ids} has {len(doubles)} double edges in {_names(s)}"
        )
    j = doubles[0]
    rs = roles[j]
    if rs == {PLAIN, FORWARD}:
        before, after = {SQUIGGLY, PLAIN}, {SQUIGGLY, FORWARD}
        tag = "A"
    else:  # plain + backward, the one other double decorated_view admits
        before, after = {SQUIGGLY, BACKWARD}, {SQUIGGLY, PLAIN}
        tag = "B"
    for e in edge_ids:
        if e == j:
            continue
        allowed = before if e < j else after
        (role,) = roles[e]
        if role not in allowed:
            raise StructureViolation(
                f"type {tag} multi-edge {edge_ids}: edge {e} shows {role} in {_names(s)}"
            )
    return tag


def _check_arc(
    s: Simplex,
    arc: list[int],
    types: list[str],
    groups: list[list[int]],
    roles: Sequence[frozenset[str]],
) -> int:
    """Arc between consecutive white nodes: [A, (A|B)*, C{bwd,sq}, B*] (pattern 1)
    or [C{plain,sq}, B*] (pattern 2)."""
    arc_types = [types[i] for i in arc]
    if arc_types.count("C") != 1:
        raise StructureViolation(
            f"arc {arc} has {arc_types.count('C')} type-C multi-edges in {_names(s)}"
        )
    c_pos = arc_types.index("C")
    c_roles = {next(iter(roles[e])) for e in groups[arc[c_pos]]}
    if not all(t == "B" for t in arc_types[c_pos + 1 :]):
        raise StructureViolation(f"arc {arc}: non-B multi-edge after type C in {_names(s)}")
    if c_pos == 0:
        if not c_roles <= {PLAIN, SQUIGGLY}:
            raise StructureViolation(
                f"arc {arc}: leading type-C strokes {sorted(c_roles)} in {_names(s)}"
            )
        return 2
    if arc_types[0] != "A":
        raise StructureViolation(f"arc {arc} starts with type {arc_types[0]} in {_names(s)}")
    if not c_roles <= {BACKWARD, SQUIGGLY}:
        raise StructureViolation(
            f"arc {arc}: interior type-C strokes {sorted(c_roles)} in {_names(s)}"
        )
    return 1


def _double_squiggly_signature(roles: Sequence[frozenset[str]]) -> frozenset:
    sig = set()
    for e, rs in enumerate(roles):
        if SQUIGGLY in rs:
            sig.add((e, SQUIGGLY))
        if len(rs) == 2:
            (directed,) = rs - {PLAIN}
            sig.add((e, directed))
    return frozenset(sig)


def ehrhart_all_dilates(g: Multigraph, budget: Budget | int | None = None) -> IntPolynomial:
    """h* by alternating-sum inversion of the dilate counts N(0..|E|), one
    :func:`count_dilate_points` call per t.  Only |E| + 1 dilates are needed
    because deg h* = |E|."""
    if not is_connected(g):
        raise DisconnectedGraph("ehrhart route requires a connected graph")
    bud = as_budget(budget)
    d = dimension(g)
    ne = len(g.edges)
    counts = [count_dilate_points(g, t, bud) for t in range(ne + 1)]
    h = []
    for k in range(ne + 1):
        h.append(
            sum(
                (-1) ** j * comb(d + 1, j) * counts[k - j]
                for j in range(k + 1)
            )
        )
    if h[0] != 1 or any(x < 0 for x in h):
        raise TheoremViolation(f"inverted h* is not in normal form: {h}")
    return IntPolynomial(h)


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


MAX_ANCHOR_RETRIES = 32


def base_anchor_coords(g: Multigraph) -> list[Fraction]:
    """The exact coordinates, of sum 1, of the integer anchor of
    ``build_anchor``."""
    q = base_anchor(g)
    total = sum(q)
    return [Fraction(c, total) for c in q]


def primitive_point(q: Sequence[Fraction]) -> list[int]:
    """The primitive integer vector on the ray of a rational point."""
    scale = lcm(*(c.denominator for c in q))
    ints = [int(c * scale) for c in q]
    d = gcd(*ints)
    return [c // d for c in ints]


def perturbed_anchor(g: Multigraph, index: int) -> list[Fraction]:
    """Candidate ``index`` of a deterministic schedule of anchors: the base
    anchor, then shrinking alternating perturbations of it."""
    q = base_anchor_coords(g)
    if index == 0:
        return q
    m = len(q)
    eps = Fraction(1, 2 ** (10 + index))
    raw = [Fraction((-1) ** i) for i in range(m)]
    shift = sum(raw) / m
    return [qi + eps * (ri - shift) for qi, ri in zip(q, raw)]


def two_pass_visibility(g: Multigraph, simplices) -> tuple[tuple[Fraction, ...], int, list[int]]:
    """Visibility h* by certifying an anchor over all cells, then counting
    every cell's visible facets, from one rational solve per cell.

    Returns (anchor coords, perturbation index, h* coefficients).  The
    anchor is the first candidate of :func:`perturbed_anchor` that lies on
    no facet hyperplane of any cell, so no tie is ever broken.
    """
    for index in range(MAX_ANCHOR_RETRIES + 1):
        q = perturbed_anchor(g, index)
        if any(c <= 0 for c in q):
            continue
        scale = lcm(*(c.denominator for c in q))
        ints = [int(c * scale) for c in q]
        solved = [barycentric(s, ints) for s in simplices]
        if all(all(v != 0 for v in y) for y in solved):
            break
    else:
        raise AssertionError("no general-position anchor within the retry schedule")
    visible = Counter(sum(1 for v in y if v < 0) for y in solved)
    return tuple(q), index, [visible[i] for i in range(max(visible) + 1)]


def barycentric(simplex, point) -> list[Fraction]:
    """The y with point = sum_j y_j p_j over the simplex's points p_j."""
    matrix = [[p.coords[k] for p in simplex] for k in range(len(point))]
    return solve_rational(matrix, point)[0]


def points_on_cell_facet_hyperplanes(
    g: Multigraph, order: TermOrder | None, q: Sequence[Fraction]
) -> Iterator[list[Fraction]]:
    """Strictly positive points of coordinate sum 1, each on the hyperplane
    of a facet of a cell of the placing triangulation of ``order``: one on
    each segment from q towards a unit vector that such a hyperplane
    crosses, the cells scanned from a different one for each segment.

    The cells' inverses come from :func:`tuple_placing_pass`; row j of an
    inverse gives the barycentric coordinate opposite point j, which is
    linear in the point, so one that changes sign along the segment
    vanishes at a point of it, strictly positive with coordinate sum 1 like
    both ends.
    """
    m = len(q)
    inverses = [inverse for _, inverse in tuple_placing_pass(g, order)]
    for i in range(m):
        r = [Fraction(9, 10) * (k == i) + Fraction(1, 10 * m) for k in range(m)]
        scale = lcm(*(c.denominator for c in q + r))
        qs, rs = [int(c * scale) for c in q], [int(c * scale) for c in r]
        start = i * len(inverses) // m
        crossings = (
            Fraction(a, a - b)
            for inverse in inverses[start:] + inverses[:start]
            for row in inverse
            for a, b in [(_dot(row, qs), _dot(row, rs))]
            if a * b < 0
        )
        lam = next(crossings, None)
        if lam is not None:
            yield [(1 - lam) * x + lam * y for x, y in zip(q, r)]


def _dot(row: Sequence[int], point: Sequence[int]) -> int:
    return sum(a * c for a, c in zip(row, point))


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


def dot_product_masks(g: Multigraph, facets: Sequence[FacetInequality]) -> list[int]:
    """For each lattice point, the mask with bit f set iff the normal of
    ``facets[f]`` has dot product 0 with it: the masks that reading them off
    the facet subgraphs replaced."""
    return [
        sum(1 << f for f, facet in enumerate(facets) if not _dot(facet.normal, p.coords))
        for p in lattice_points(g)
    ]


def pairwise_sumsets(
    g: Multigraph, top: int, budget: Budget | int | None, interior: bool
) -> Iterator[tuple[int, int | None]]:
    """Yield (N(t), N°(t)) for t = 0..top, forming S_t as every point of
    S_(t-1) plus every lattice point, with masks by dot products: the sumset
    that adding each point only to the sums whose summands all come no later
    replaced.  It charges the same budget, |S_(t-1)| * |lattice points| per
    step, after the facet scan when ``interior``.
    """
    if top < 0:
        raise ValueError("dilation factor must be nonnegative")
    if not is_connected(g):
        raise DisconnectedGraph("dilate counting requires a connected graph")
    bud = as_budget(budget)
    pts = [p.coords for p in lattice_points(g)]
    # the code of a sum is the sum of the codes; see cosmopoly.polytope
    lo = min(min(x[:-1]) for x in pts)
    base = top * (max(max(x[:-1]) for x in pts) - lo) + 1
    codes = [sum(c * base**k for k, c in enumerate(x[:-1])) for x in pts]
    if not interior:
        sums = {0}
        yield 1, None
        for _ in range(top):
            bud.spend(len(sums) * len(codes))
            sums = {s + c for s in sums for c in codes}
            yield len(sums), None
        return
    facets = facet_inequalities(g, bud)
    steps = list(zip(codes, dot_product_masks(g, facets)))
    sums = {0: (1 << len(facets)) - 1}
    yield 1, 0
    for _ in range(top):
        bud.spend(len(sums) * len(steps))
        sums = {s + c: m & n for s, m in sums.items() for c, n in steps}
        yield len(sums), sum(not m for m in sums.values())


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
