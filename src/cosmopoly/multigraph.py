"""Multigraph model and the graph enumerations the polytope machinery consumes.

Vertices are ``0..vertex_count-1``; edges are an ordered list whose position
is the edge id.  Loops and parallel edges are allowed, isolated vertices are
not.  The stored ``(u, v)`` endpoint order of an edge fixes its forward
orientation everywhere downstream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import Budget, GraphError, as_budget

LOOP = "Loop"
SINGLE_EDGE = "SingleEdge"
BUNDLE = "Bundle"
MULTICYCLE = "Multicycle"
OTHER = "Other"


class Edge(NamedTuple):
    id: int
    u: int
    v: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def key(self) -> tuple[int, int]:
        """Unordered endpoint pair, smaller vertex first."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class Multigraph:
    """A validated multigraph, compared and hashed by value.  Treat it as
    frozen: the lattice-point memo is keyed on it."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[Edge, ...]):
        if vertex_count <= 0:
            raise GraphError("vertex_count must be positive")
        covered = set()
        for pos, e in enumerate(edges):
            if e.id != pos:
                raise GraphError(f"edge ids must be 0..{len(edges) - 1} in list order")
            if not (0 <= e.u < vertex_count and 0 <= e.v < vertex_count):
                raise GraphError(f"edge {pos} endpoint out of range")
            covered.add(e.u)
            covered.add(e.v)
        isolated = [v for v in range(vertex_count) if v not in covered]
        if isolated:
            raise GraphError(f"isolated vertices not allowed: {isolated}")
        self.vertex_count = vertex_count
        self.edges = edges

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Multigraph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

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


def induced_by_edges(g: Multigraph, edge_ids: Sequence[int]) -> Multigraph:
    """Standalone reindexed subgraph on the given edges.

    Vertices keep their relative order.  Edge order follows ascending original
    edge id; endpoint orientation is kept.
    """
    ids = sorted(edge_ids)
    vertices = sorted({w for i in ids for w in (g.edges[i].u, g.edges[i].v)})
    back = {old: new for new, old in enumerate(vertices)}
    pairs = [(back[g.edges[i].u], back[g.edges[i].v]) for i in ids]
    return Multigraph.from_pairs(len(vertices), pairs)


# ---------------------------------------------------------------------------
# Components and blocks


def _closure(reached: int, ends: Sequence[int]) -> int:
    """The vertex mask ``reached`` grown along edges, each given as the bit
    mask of its two ends, until a pass over the edges adds nothing."""
    while True:
        before = reached
        for m in ends:
            if reached & m:
                reached |= m
        if reached == before:
            return reached


def connected_components(g: Multigraph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    ends = [1 << e.u | 1 << e.v for e in g.edges]
    left = (1 << g.vertex_count) - 1
    out = []
    while left:
        comp = _closure(left & -left, ends)  # grown from the lowest vertex left
        out.append(tuple(v for v in range(g.vertex_count) if comp >> v & 1))
        left &= ~comp
    return out


def is_connected(g: Multigraph) -> bool:
    return len(connected_components(g)) == 1


class BlockClass(NamedTuple):
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
            (nxt,) = neighbors[cur] - {prev}
            prev, cur = cur, nxt
        if len(walk) == len(vertices):
            mults = tuple(mult[min(a, b), max(a, b)] for a, b in zip(walk, walk[1:] + walk[:1]))
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
        stack = [(root, -1, iter(adj[root]))]  # vertex, parent edge, neighbours left
        while stack:
            v, parent_edge, todo = stack[-1]
            for w, eid in todo:
                if eid == parent_edge:
                    continue
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
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
        inside = [e for e in g.edges if vmask >> e.u & 1 and vmask >> e.v & 1]
        ends = [1 << e.u | 1 << e.v for e in inside]
        low = vmask & -vmask
        if _closure(low, ends) != vmask:
            continue  # no edge subset can connect a vertex set g does not
        vset = tuple(v for v in range(n) if vmask >> v & 1)
        k = len(inside)
        for emask in range(1 << k):
            bud.spend()
            picked = [i for i in range(k) if emask >> i & 1]
            if _closure(low, [ends[i] for i in picked]) == vmask:
                yield vset, tuple(inside[i].id for i in picked)


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
    parallel edges give distinct paths.  Paths come in depth-first preorder.
    """
    adj = g.adjacency()
    for start in range(g.vertex_count):
        vertices, edges, used = [start], [], {start}
        stack = [iter(adj[start])]  # per path vertex, the neighbours left to try
        while stack:
            for w, eid in stack[-1]:
                if w not in used:
                    vertices.append(w)
                    edges.append(eid)
                    used.add(w)
                    if len(edges) >= 2:
                        yield Path(tuple(vertices), tuple(edges))
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                if edges:
                    used.discard(vertices.pop())
                    edges.pop()


def simple_cycles(g: Multigraph) -> Iterator[Cycle]:
    """Cycles with distinct vertices: length >= 3 walks plus the 2-cycles formed
    by unordered pairs of parallel edges.  Loops are excluded.  Each cycle is
    emitted once, with a fixed orientation: a walk starts at its least vertex.
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
    for start in range(g.vertex_count):
        vertices, edges, used = [start], [], {start}
        stack = [iter(adj[start])]  # per path vertex, the neighbours left to try
        while stack:
            for w, eid in stack[-1]:
                if w == start:
                    # closes the walk; keep one of its two directions
                    if len(edges) >= 2 and vertices[1] < vertices[-1]:
                        yield Cycle(tuple(vertices), tuple(edges) + (eid,))
                elif w > start and w not in used:
                    vertices.append(w)
                    edges.append(eid)
                    used.add(w)
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                if edges:
                    used.discard(vertices.pop())
                    edges.pop()
