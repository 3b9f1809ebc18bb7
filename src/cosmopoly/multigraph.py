"""Multigraph model and the graph enumerations the polytope machinery consumes.

Vertices are ``0..vertex_count-1``; edges are an ordered list whose position
is the edge id.  Loops and parallel edges are allowed, isolated vertices are
not.  The stored ``(u, v)`` endpoint order of an edge fixes its forward
orientation everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import Budget, GraphError, as_budget

LOOP = "Loop"
SINGLE_EDGE = "SingleEdge"
BUNDLE = "Bundle"
MULTICYCLE = "Multicycle"
OTHER = "Other"


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def key(self) -> tuple[int, int]:
        """Unordered endpoint pair, smaller vertex first."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


@dataclass(frozen=True)
class Multigraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count <= 0:
            raise GraphError("vertex_count must be positive")
        covered = set()
        for pos, e in enumerate(self.edges):
            if e.id != pos:
                raise GraphError(f"edge ids must be 0..{len(self.edges) - 1} in list order")
            if not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise GraphError(f"edge {pos} endpoint out of range")
            covered.add(e.u)
            covered.add(e.v)
        isolated = [v for v in range(self.vertex_count) if v not in covered]
        if isolated:
            raise GraphError(f"isolated vertices not allowed: {isolated}")

    @classmethod
    def from_pairs(cls, vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        edges = tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs))
        return cls(vertex_count, edges)

    @property
    def loop_count(self) -> int:
        return sum(1 for e in self.edges if e.is_loop)

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.u, e.v) for e in self.edges)

    def degree(self, v: int) -> int:
        """Incidence count; a loop contributes 2."""
        return sum((e.u == v) + (e.v == v) for e in self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex: (neighbor, edge_id) for every non-loop incidence."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for e in self.edges:
            if not e.is_loop:
                adj[e.u].append((e.v, e.id))
                adj[e.v].append((e.u, e.id))
        return adj


# ---------------------------------------------------------------------------
# Families


def path_graph(m: int) -> Multigraph:
    """Path with m edges on m+1 vertices."""
    if m < 1:
        raise GraphError("path needs at least one edge")
    return Multigraph.from_pairs(m + 1, [(i, i + 1) for i in range(m)])


def single_edge() -> Multigraph:
    return path_graph(1)


def star_graph(m: int) -> Multigraph:
    """Star with m edges around vertex 0."""
    if m < 1:
        raise GraphError("star needs at least one edge")
    return Multigraph.from_pairs(m + 1, [(0, i + 1) for i in range(m)])


def loop_graph(m: int) -> Multigraph:
    """One vertex carrying m loops."""
    if m < 1:
        raise GraphError("loop graph needs at least one loop")
    return Multigraph.from_pairs(1, [(0, 0)] * m)


def bundle(m: int) -> Multigraph:
    """Two vertices joined by m parallel edges."""
    if m < 1:
        raise GraphError("bundle needs at least one edge")
    return Multigraph.from_pairs(2, [(0, 1)] * m)


def cycle_graph(n: int) -> Multigraph:
    return multicycle([1] * n)


def triangle() -> Multigraph:
    return cycle_graph(3)


def multicycle(multiplicities: Sequence[int]) -> Multigraph:
    """Cycle on n >= 3 vertices with prescribed multi-edge multiplicities.

    Edges are laid out in cycle order, grouped per multi-edge, each stored as
    (i, i+1 mod n) so that the forward orientation runs around the cycle.
    """
    a = tuple(int(x) for x in multiplicities)
    if len(a) < 3 or any(x < 1 for x in a):
        raise GraphError("multicycle needs >= 3 multiplicities, all >= 1")
    n = len(a)
    pairs = []
    for i, mult in enumerate(a):
        pairs.extend([(i, (i + 1) % n)] * mult)
    return Multigraph.from_pairs(n, pairs)


def multitree(multiplicities: Sequence[int]) -> Multigraph:
    """Path-shaped multitree: multi-edge i of multiplicity a_i joins i and i+1."""
    a = tuple(int(x) for x in multiplicities)
    if not a or any(x < 1 for x in a):
        raise GraphError("multitree needs multiplicities >= 1")
    pairs = []
    for i, mult in enumerate(a):
        pairs.extend([(i, i + 1)] * mult)
    return Multigraph.from_pairs(len(a) + 1, pairs)


def theta_graph(k: int, l: int, m: int) -> Multigraph:
    """Three internally disjoint paths of lengths k, l, m sharing both endpoints."""
    if min(k, l, m) < 1:
        raise GraphError("theta path lengths must be >= 1")
    pairs = []
    next_vertex = 2  # 0 and 1 are the shared endpoints
    for length in (k, l, m):
        prev = 0
        for step in range(length):
            if step == length - 1:
                pairs.append((prev, 1))
            else:
                pairs.append((prev, next_vertex))
                prev = next_vertex
                next_vertex += 1
    return Multigraph.from_pairs(next_vertex, pairs)


def disjoint_union(g: Multigraph, h: Multigraph) -> Multigraph:
    shift = g.vertex_count
    pairs = list(g.edge_pairs()) + [(u + shift, v + shift) for u, v in h.edge_pairs()]
    return Multigraph.from_pairs(g.vertex_count + h.vertex_count, pairs)


def one_sum(g: Multigraph, h: Multigraph, v: int = 0, w: int = 0) -> Multigraph:
    """Glue g and h by identifying vertex v of g with vertex w of h."""
    if not (0 <= v < g.vertex_count and 0 <= w < h.vertex_count):
        raise GraphError("one_sum vertices out of range")
    shift = g.vertex_count

    def remap(x: int) -> int:
        if x == w:
            return v
        return x + shift - (1 if x > w else 0)

    pairs = list(g.edge_pairs()) + [(remap(u), remap(x)) for u, x in h.edge_pairs()]
    return Multigraph.from_pairs(g.vertex_count + h.vertex_count - 1, pairs)


def induced_by_edges(g: Multigraph, edge_ids: Sequence[int]) -> tuple[Multigraph, list[int]]:
    """Standalone reindexed subgraph on the given edges.

    Returns the subgraph and the list mapping new vertex indices to old ones.
    Edge order follows ascending original edge id; endpoint orientation is kept.
    """
    ids = sorted(edge_ids)
    vertices = sorted({w for i in ids for w in (g.edges[i].u, g.edges[i].v)})
    back = {old: new for new, old in enumerate(vertices)}
    pairs = [(back[g.edges[i].u], back[g.edges[i].v]) for i in ids]
    return Multigraph.from_pairs(len(vertices), pairs), vertices


# ---------------------------------------------------------------------------
# Components and blocks


def connected_components(g: Multigraph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
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


def is_connected(g: Multigraph) -> bool:
    return len(connected_components(g)) == 1


@dataclass(frozen=True)
class BlockClass:
    """One block (maximal piece not splittable at a cut vertex), classified."""

    tag: str
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    multiplicity: int | None = None          # Bundle
    multiplicities: tuple[int, ...] | None = None  # Multicycle, in cycle order


def _classify_block(g: Multigraph, edge_ids: list[int]) -> BlockClass:
    ids = tuple(sorted(edge_ids))
    edges = [g.edges[i] for i in ids]
    vertices = tuple(sorted({w for e in edges for w in (e.u, e.v)}))
    if len(ids) == 1 and edges[0].is_loop:
        return BlockClass(LOOP, vertices, ids)
    if len(ids) == 1:
        return BlockClass(SINGLE_EDGE, vertices, ids)
    if len(vertices) == 2:
        return BlockClass(BUNDLE, vertices, ids, multiplicity=len(ids))
    # Multicycle test: the underlying simple graph is one cycle through all vertices.
    neighbors: dict[int, set[int]] = {v: set() for v in vertices}
    mult: dict[tuple[int, int], int] = {}
    for e in edges:
        neighbors[e.u].add(e.v)
        neighbors[e.v].add(e.u)
        mult[e.key()] = mult.get(e.key(), 0) + 1
    if len(vertices) >= 3 and all(len(nb) == 2 for nb in neighbors.values()):
        start = vertices[0]
        prev, cur = start, min(neighbors[start])
        walk = [start]
        while cur != start:
            walk.append(cur)
            a, b = sorted(neighbors[cur])
            nxt = b if a == prev else a
            prev, cur = cur, nxt
        if len(walk) == len(vertices):
            key = lambda x, y: (x, y) if x <= y else (y, x)
            mults = tuple(
                mult[key(walk[i], walk[(i + 1) % len(walk)])] for i in range(len(walk))
            )
            return BlockClass(MULTICYCLE, vertices, ids, multiplicities=mults)
    return BlockClass(OTHER, vertices, ids)


def blocks(g: Multigraph) -> list[BlockClass]:
    """Block decomposition: loops, bridges, and 2-connected pieces, classified.

    Every edge lands in exactly one block; cut vertices appear in several.
    Blocks are ordered by their smallest edge id.
    """
    adj = g.adjacency()
    disc = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    timer = 0
    edge_stack: list[int] = []
    comps: list[list[int]] = []

    for root in range(g.vertex_count):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # vertex, parent edge, scan pos
        while stack:
            v, parent_edge, pos = stack[-1]
            moved = False
            while pos < len(adj[v]):
                w, eid = adj[v][pos]
                pos += 1
                if eid == parent_edge:
                    continue
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack[-1] = (v, parent_edge, pos)
                    stack.append((w, eid, 0))
                    moved = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if moved:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    comp = []
                    while True:
                        eid = edge_stack.pop()
                        comp.append(eid)
                        if eid == parent_edge:
                            break
                    comps.append(comp)

    for e in g.edges:
        if e.is_loop:
            comps.append([e.id])
    out = [_classify_block(g, comp) for comp in comps]
    out.sort(key=lambda b: b.edge_ids[0])
    return out


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


# ---------------------------------------------------------------------------
# Subgraph, path and cycle enumeration


def connected_subgraphs(
    g: Multigraph, budget: Budget | int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All connected (vertex set, edge subset) pairs with a non-empty vertex set.

    Every emitted edge has both endpoints in the vertex set and the pair is
    connected as a graph.  Exhaustive and duplicate-free; exponential by
    nature, so every scanned edge mask is charged to the budget.
    """
    bud = as_budget(budget)
    n = g.vertex_count
    for vmask in range(1, 1 << n):
        vset = [v for v in range(n) if vmask >> v & 1]
        inside = [e for e in g.edges if vmask >> e.u & 1 and vmask >> e.v & 1]
        if not _pair_connected(vset, inside):
            continue  # no edge subset can connect a vertex set g does not
        k = len(inside)
        for emask in range(1 << k):
            bud.spend()
            chosen = [inside[i] for i in range(k) if emask >> i & 1]
            if _pair_connected(vset, chosen):
                yield tuple(vset), tuple(e.id for e in chosen)


def _pair_connected(vset: list[int], edges: list[Edge]) -> bool:
    if len(vset) == 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in vset}
    for e in edges:
        if e.is_loop:
            continue
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = {vset[0]}
    stack = [vset[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vset)


class Path(NamedTuple):
    """Directed simple path; vertices[i] --edges[i]--> vertices[i+1]."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]


class Cycle(NamedTuple):
    """Closed walk with distinct vertices; edges[i] joins vertices[i] and
    vertices[(i+1) % len]."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]


def simple_paths(g: Multigraph) -> Iterator[Path]:
    """Directed simple paths of edge-length >= 2, with explicit edge choices.

    Both traversal directions of every underlying path are emitted, and
    parallel edges give distinct paths.
    """
    adj = g.adjacency()

    def extend(vertices: list[int], edges: list[int], used: set[int]) -> Iterator[Path]:
        v = vertices[-1]
        for w, eid in adj[v]:
            if w in used:
                continue
            vertices.append(w)
            edges.append(eid)
            used.add(w)
            if len(edges) >= 2:
                yield Path(tuple(vertices), tuple(edges))
            yield from extend(vertices, edges, used)
            used.discard(w)
            vertices.pop()
            edges.pop()

    try:
        for start in range(g.vertex_count):
            yield from extend([start], [], {start})
    finally:
        del extend  # extend holds itself through its closure; free the search state now


def simple_cycles(g: Multigraph) -> Iterator[Cycle]:
    """Cycles with distinct vertices: length >= 3 walks plus the 2-cycles formed
    by unordered pairs of parallel edges.  Loops are excluded.  Each cycle is
    emitted once, with a fixed orientation.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        if not e.is_loop:
            by_pair.setdefault(e.key(), []).append(e.id)
    for (u, v), ids in sorted(by_pair.items()):
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                yield Cycle((u, v), (ids[i], ids[j]))

    adj = g.adjacency()

    def search(start: int, vertices: list[int], edges: list[int], used: set[int]) -> Iterator[Cycle]:
        v = vertices[-1]
        for w, eid in adj[v]:
            if w == start and len(edges) >= 2:
                if vertices[1] < vertices[-1]:  # keep one of the two directions
                    yield Cycle(tuple(vertices), tuple(edges) + (eid,))
            elif w > start and w not in used:
                vertices.append(w)
                edges.append(eid)
                used.add(w)
                yield from search(start, vertices, edges, used)
                used.discard(w)
                vertices.pop()
                edges.pop()

    try:
        for start in range(g.vertex_count):
            yield from search(start, [start], [], {start})
    finally:
        del search  # search holds itself through its closure; free the search state now


def bridges(g: Multigraph) -> list[int]:
    """Edge ids of bridges (SingleEdge blocks)."""
    return [b.edge_ids[0] for b in blocks(g) if b.tag == SINGLE_EDGE]
