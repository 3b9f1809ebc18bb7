"""Obstruction-free enumeration of the unimodular triangulation, with the
decorated-subgraph view of its cells.

A maximal cell is a set of |V| + |E| lattice points containing no obstruction.
Cells are rendered back onto the graph: a vertex is white when its z-point is
present; an edge shows as plain (z), squiggly (t), or directed (y) strokes,
with at most two strokes per edge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    Budget,
    BadTermOrder,
    DisconnectedGraph,
    ObstructionViolation,
    StructureViolation,
    WrongCardinality,
    as_budget,
)
from .grobner import Obstruction, TermOrder, default_good_order, is_good_order, obstruction_set
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


def enumerate_triangulation(
    g: Multigraph,
    obstructions: Iterable[Obstruction],
    budget: Budget | int | None = None,
) -> list[Simplex]:
    """All obstruction-free point sets of size |V| + |E|, i.e. the maximal
    cells of the triangulation induced by the given obstruction set.

    Backtracks over the canonically ordered lattice points with bitmask
    subset tests.  After enumeration, every cell is checked to be maximal
    (no further point can be added obstruction-free); a violation means the
    obstruction set does not define a pure complex of the expected dimension.
    """
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    points = lattice_points(g)
    n = len(points)
    target = g.vertex_count + len(g.edges)
    index = {p: i for i, p in enumerate(points)}
    obs_masks: list[int] = []
    for obs in obstructions:
        mask = 0
        for p in obs:
            mask |= 1 << index[p]
        obs_masks.append(mask)

    # group each obstruction under its highest point: it can only complete
    # when that point is added, points being taken in ascending index order
    by_max: list[list[int]] = [[] for _ in range(n)]
    for mask in obs_masks:
        top = mask.bit_length() - 1
        by_max[top].append(mask & ~(1 << top))

    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(pos: int, mask: int) -> None:
        bud.spend()
        have = len(chosen)
        if have == target:
            found.append(tuple(chosen))
            return
        if have + (n - pos) < target:
            return
        for i in range(pos, n):
            if have + (n - i) < target:
                break
            ok = True
            for rest in by_max[i]:
                if rest & ~mask == 0:
                    ok = False
                    break
            if ok:
                chosen.append(i)
                rec(i + 1, mask | (1 << i))
                chosen.pop()

    try:
        rec(0, 0)
    finally:
        del rec  # rec holds itself through its closure; free the search state now

    # maximality audit: an extendable cell signals maximal obstruction-free
    # sets of cardinality above |V| + |E|
    by_point: list[list[int]] = [[] for _ in range(n)]
    for mask in obs_masks:
        i = 0
        rest = mask
        while rest:
            if rest & 1:
                by_point[i].append(mask & ~(1 << i))
            rest >>= 1
            i += 1
    for combo in found:
        cell_mask = 0
        for i in combo:
            cell_mask |= 1 << i
        for i in range(n):
            if cell_mask >> i & 1:
                continue
            if not any(rest & ~cell_mask == 0 for rest in by_point[i]):
                raise ObstructionViolation(
                    f"cell {[points[j].name for j in combo]} extends by {points[i].name}; "
                    "maximal obstruction-free sets exceed |V|+|E| points"
                )
    return [tuple(points[i] for i in combo) for combo in found]


def build_triangulation(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> list[Simplex]:
    """Verified pipeline: good order, obstruction set, cell enumeration."""
    bud = as_budget(budget)
    if order is None:
        order = default_good_order(g)
    if not is_good_order(order, g, bud):
        raise BadTermOrder("term order fails the goodness check on this graph")
    return enumerate_triangulation(g, obstruction_set(g, order, bud), bud)


def _sum_basis_coordinates(diff: Sequence[int]) -> list[int]:
    """Coordinates of a sum-zero integer vector in the basis e_k - e_(k+1)
    are its prefix sums."""
    out = []
    acc = 0
    for x in diff[:-1]:
        acc += x
        out.append(acc)
    return out


def normalized_volume(points: Iterable[LatticePoint]) -> int:
    """Normalized volume of the simplex spanned by dim + 1 lattice points.

    The points must lie on the coordinate-sum-1 hyperplane; the difference
    vectors are expressed in a basis of the sum-zero sublattice and the
    absolute determinant is returned.  0 means affinely dependent.
    """
    pts = sorted(points, key=lambda p: p.sort_key())
    if not pts:
        raise WrongCardinality("empty point set")
    m = len(pts[0].coords)
    if len(pts) != m:
        raise WrongCardinality(f"need {m} points for a full simplex, got {len(pts)}")
    for p in pts:
        if sum(p.coords) != 1:
            raise WrongCardinality(f"{p.name} is off the coordinate-sum-1 hyperplane")
    base = pts[0].coords
    rows = [
        _sum_basis_coordinates([a - b for a, b in zip(p.coords, base)]) for p in pts[1:]
    ]
    return abs(bareiss_determinant(rows))


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
