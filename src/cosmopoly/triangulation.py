"""The unimodular triangulation, placed point by point, with the
decorated-subgraph view of its cells.

Under a good term order the initial complex of the toric ideal is the
placing triangulation of the lattice points in the reverse of the order's
ranking (Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 8).  The
first |V| + |E| linearly independent points form the first cell; placing
the points skipped there later changes nothing, as each is a cone apex.
Each later point p is coned over every boundary facet (C, q), which omits
the point of cell C in slot q, with (C^-1 p)_q < 0: p lies beyond it.  The
new cell C - q + p gets its integer inverse from one rank-one pivot by
(C^-1 p)_q, which is +-1 as every cell is unimodular.

Visible facets come from conflict lists (Clarkson and Shor): each new facet
is tested against the points still to come, in placing order, and filed
under the first one beyond it.  Until that point is placed no point lies
beyond the facet, so it stays on the boundary, and when it is placed the
facet is visible; the facets filed under a point are thus exactly those it
sees, in the order they were made.  A new facet no point still to come lies
beyond is on the boundary of the polytope; it is dropped.

Given an integer anchor point Q, every row of an inverse carries one more
entry, the row times Q, that is (C^-1 Q)_q.  The pivots are row operations,
so they keep that entry exact at the cost of one more entry per row.

Cells are rendered back onto the graph: a vertex is white when its z-point is
present; an edge shows as plain (z), squiggly (t), or directed (y) strokes,
with at most two strokes per edge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    Budget,
    BadTermOrder,
    DisconnectedGraph,
    StructureViolation,
    TheoremViolation,
    WrongCardinality,
    as_budget,
)
from .grobner import TermOrder, default_good_order, is_good_order
from .intlinalg import bareiss_determinant
from .multigraph import Multigraph, is_connected, multicycle_layout
from .polytope import (
    LatticePoint,
    TPOINT,
    YBACKWARD,
    YFORWARD,
    ZEDGE,
    ZVERTEX,
    lattice_points,
)

Simplex = tuple[LatticePoint, ...]

PLAIN = "plain"
SQUIGGLY = "squiggly"
FORWARD = "forward"
BACKWARD = "backward"

_ROLE_OF_KIND = {ZEDGE: PLAIN, TPOINT: SQUIGGLY, YFORWARD: FORWARD, YBACKWARD: BACKWARD}
_VALID_DOUBLES = (frozenset({PLAIN, FORWARD}), frozenset({PLAIN, BACKWARD}))


def build_triangulation(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> list[Simplex]:
    """The placing triangulation of a good term order (the default order when
    ``order`` is None), its cells sorted by canonical point indices.  One
    budget node is charged per cell made and per point still to come tested
    against a new facet."""
    # placed in full first, so that the placing state is freed before the sort
    masks = [sum(1 << i for i in cell) for cell, _ in placing_pass(g, order, budget)]
    return cells_from_masks(g, masks)


def cells_from_masks(g: Multigraph, masks: Iterable[int]) -> list[Simplex]:
    """Cells given as bit masks of point indices, sorted by those indices."""
    points = lattice_points(g)
    cells = sorted(tuple(i for i in range(len(points)) if c >> i & 1) for c in masks)
    return [tuple(points[i] for i in c) for c in cells]


def placing_pass(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
    anchor: Sequence[int] = (),
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Yield the cells of :func:`build_triangulation` as they are made, as
    (cell, inverse): the point indices by slot, and the integer inverse,
    whose row q is the facet functional opposite slot q, 1 on its point.
    Given an integer ``anchor`` point, each row carries one more entry, the
    row times the anchor.

    The first cell is found by integer (Bareiss) pivots of the points into
    unit-vector slots, which keep ``inverse`` at ``det`` times the inverse of
    the current basis; a point with no nonzero slot left is dependent."""
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    if order is None:
        order = default_good_order(g)
    if not is_good_order(order, g, bud):
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
        y = [_dot(row, sparse[i]) for row in inverse]
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
            beyond = next((n for n, j in enumerate(future, 1) if _dot(inv[x], sparse[j]) < 0), 0)
            bud.spend(beyond or len(future))
            if beyond:
                visible[step + beyond - 1].append((cell, inv, x))
        if not future:
            break
        p, sp = future[0], sparse[future[0]]
        bud.spend(len(visible[step]))
        made = [(cell[:q] + (p,) + cell[q + 1 :], _pivot(inv, [_dot(r, sp) for r in inv], q), q)
                for cell, inv, q in visible[step]]
        visible[step] = []


def _dot(row: Sequence[int], s: tuple[int, ...]) -> int:
    return row[s[0]] * s[1] + row[s[2]] * s[3] + row[s[4]] * s[5]


def _pivot(inverse: tuple, y: list[int], q: int) -> tuple:
    """Inverse of a unimodular cell once slot q holds p, where inverse . p = y."""
    if y[q] not in (1, -1):
        raise TheoremViolation(f"placing pivot {y[q]}: the new cell is not unimodular")
    lead = inverse[q] if y[q] == 1 else tuple(-a for a in inverse[q])
    return tuple(
        lead if x == q else row if not yx else tuple([a - yx * b for a, b in zip(row, lead)])
        for x, (row, yx) in enumerate(zip(inverse, y))
    )


def normalized_volume(points: Iterable[LatticePoint]) -> int:
    """Normalized volume of the simplex spanned by dim + 1 lattice points.

    The points must lie on the coordinate-sum-1 hyperplane, a lattice
    hyperplane at lattice distance 1 from the origin, so the volume is the
    absolute determinant of their coordinates.  0 means affinely dependent.
    """
    pts = list(points)
    if not pts:
        raise WrongCardinality("empty point set")
    m = len(pts[0].coords)
    if len(pts) != m:
        raise WrongCardinality(f"need {m} points for a full simplex, got {len(pts)}")
    for p in pts:
        if sum(p.coords) != 1:
            raise WrongCardinality(f"{p.name} is off the coordinate-sum-1 hyperplane")
    return abs(bareiss_determinant([p.coords for p in pts]))


@dataclass(frozen=True)
class DecoratedGraph:
    """Per-vertex white/black coloring plus the stroke set of every edge."""

    white_vertices: frozenset[int]
    edge_roles: tuple[frozenset[str], ...]


def decorated_view(simplex: Iterable[LatticePoint], g: Multigraph) -> DecoratedGraph:
    """Render a cell as a decorated subgraph.

    Checks that every edge carries one or two strokes, a pair always being
    plain plus one directed stroke.  On multicycles a violation raises; on
    other graphs it is only reported as a warning, since the pattern is not
    established there.
    """
    white = set()
    roles: list[set[str]] = [set() for _ in g.edges]
    for p in simplex:
        if p.kind == ZVERTEX:
            white.add(p.index)
        else:
            roles[p.index].add(_ROLE_OF_KIND[p.kind])
    problems = []
    for e, rs in enumerate(roles):
        if len(rs) not in (1, 2):
            problems.append(f"edge {e} carries {len(rs)} strokes")
        elif len(rs) == 2 and frozenset(rs) not in _VALID_DOUBLES:
            problems.append(f"edge {e} double stroke {sorted(rs)} is not plain+directed")
    if problems:
        message = "; ".join(problems)
        if multicycle_layout(g) is not None:
            raise StructureViolation(message)
        warnings.warn(message, stacklevel=2)
    return DecoratedGraph(frozenset(white), tuple(frozenset(rs) for rs in roles))


def sq_db_counts(d: DecoratedGraph) -> tuple[int, int]:
    """(# squiggly edges, # double edges) of a decorated cell."""
    sq = sum(1 for rs in d.edge_roles if SQUIGGLY in rs)
    db = sum(1 for rs in d.edge_roles if len(rs) == 2)
    return sq, db


@dataclass(frozen=True)
class MulticycleReport:
    simplex_count: int
    arc_pattern_counts: tuple[int, int]  # arcs matching pattern 1 / pattern 2


def validate_multicycle_structure(g: Multigraph, simplices: Sequence[Simplex]) -> MulticycleReport:
    """Check every cell of a multicycle triangulation against the structural
    description: per multi-edge type A/B/C splits, white-to-white arc
    patterns, and uniqueness of cells given their squiggly and oriented
    double edges.  Raises StructureViolation with the first counterexample.

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
        white = sorted(p.index for p in s if p.kind == ZVERTEX)
        roles: dict[int, set[str]] = {e.id: set() for e in g.edges}
        for p in s:
            if p.kind != ZVERTEX:
                roles[p.index].add(_ROLE_OF_KIND[p.kind])
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


def _multi_edge_type(s: Simplex, edge_ids: list[int], roles: dict[int, set[str]]) -> str:
    doubles = [e for e in edge_ids if len(roles[e]) == 2]
    for e in edge_ids:
        if not roles[e]:
            raise StructureViolation(f"edge {e} not represented in cell {_names(s)}")
        if len(roles[e]) > 2:
            raise StructureViolation(f"edge {e} carries {len(roles[e])} strokes in {_names(s)}")
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
    elif rs == {PLAIN, BACKWARD}:
        before, after = {SQUIGGLY, BACKWARD}, {SQUIGGLY, PLAIN}
        tag = "B"
    else:
        raise StructureViolation(f"edge {j} double stroke {sorted(rs)} in {_names(s)}")
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
    roles: dict[int, set[str]],
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


def _double_squiggly_signature(roles: dict[int, set[str]]) -> frozenset:
    sig = set()
    for e, rs in roles.items():
        if SQUIGGLY in rs:
            sig.add((e, SQUIGGLY))
        if len(rs) == 2:
            directed = (rs - {PLAIN}).pop()
            sig.add((e, directed))
    return frozenset(sig)
