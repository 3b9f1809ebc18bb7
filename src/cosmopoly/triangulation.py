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

Each inverse is one Python int, packed as small integers side by side in
one register (SWAR).  Row x holds its m entries in the digits
xS .. xS + m - 1 of w bits each, S >= 2m - 1, and a point c is packed as
the sum of c_k 2^(w(m-1-k)).  Digit xS + m - 1 of their product is then
row x times c, and every other digit of row x's product stays inside the
row's slot of S digits.  So C^-1 p costs one multiplication, then a shift
and a mask lay it out as y_x 2^(wxS), and the pivot is the one
multiply-subtract C^-1 - (y - e_q) y_q r_q, where r_q is row q of C^-1.
Every digit is stored offset by 2^(w-1), so it is a w-bit field that never
borrows from its neighbours: a row, a product digit or its sign is a shift
and a mask away.

The width w is proven for each pass, not chosen.  Every cell is
unimodular, so an entry of its inverse is +- an (m-1)-minor of lattice
points, and by Hadamard's inequality at most E, the integer square root of
the product of the m - 1 largest squared point norms.  A product digit sums
entries times the coordinates of one point, so it is at most D = E times
the largest 1-norm of a point, and w is one bit more than D needs: 11 bits
for theta(2,2,2), 10 for K4, 14 for theta(2,3,3).

Given an integer anchor point Q, each row also carries its anchor entry,
the row times Q, that is (C^-1 Q)_x, in a field of its own just above the
row's entries, offset by half the field.  The pivots are row operations, so
the same multiply-subtract keeps it exact, and the facets visible from Q,
the negative anchor entries, are counted off the fields' sign bits.  An
entry of 0, Q on the facet's hyperplane, takes the sign of the row's first
nonzero entry: the sign at Q moved by eps e_1 + eps^2 e_2 + ..., a
lexicographic tie-break (simulation of simplicity) under which every Q
counts as generic.  An anchor entry is at most E times the 1-norm of Q in
size, so the field and, in the product with a point, the entry times the
point stay inside the slot once S grows by the digits that bound needs and
three bits more: the product's part above the digit read then stays within
a quarter of the offsets above it, and no slot borrows from the next.

Cells are rendered back onto the graph: a vertex is white when its z-point is
present; an edge shows as plain (z), squiggly (t), or directed (y) strokes,
with at most two strokes per edge.
"""

from __future__ import annotations

import math
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
    masks = [mask for _, mask, _ in placing_pass(g, order, budget)]
    return cells_from_masks(g, masks)


def cells_from_masks(g: Multigraph, masks: Iterable[int]) -> list[Simplex]:
    """Cells given as bit masks of point indices, sorted by those indices.

    A mask's binary digits, read from bit 0 up, list its points by index.
    Of two cells of one size, the one holding the least index the two do
    not share sorts first, so cells sort as those digit strings do, in
    reverse.  Each cell is then decoded by its lowest set bits.
    """
    points = lattice_points(g)
    digits = f"0{len(points)}b"

    def cell(c: int) -> Simplex:
        out = []
        while c:
            low = c & -c
            out.append(points[low.bit_length() - 1])
            c ^= low
        return tuple(out)

    return [cell(c) for c in sorted(masks, key=lambda c: format(c, digits)[::-1], reverse=True)]


class Packing:
    """The layout that packs each cell inverse of a placing pass, with its
    anchor entries, into one int (see the module docstring), and the pivot
    and the reads that work on it.

    It is built from the coordinates of all points the pass may place and
    the integer anchor, if any, so its width holds for every cell of the
    pass.  Digits are stored offset by ``half``, anchor entries by
    ``anchor_half``.
    """

    @classmethod
    def of(cls, g: Multigraph, anchor: Sequence[int] = ()) -> Packing:
        """The layout of a placing pass on ``g`` carrying ``anchor``."""
        return cls([p.coords for p in lattice_points(g)], anchor)

    def __init__(self, coords: Sequence[Sequence[int]], anchor: Sequence[int] = ()):
        self.anchor = tuple(anchor)
        m = self.m = len(coords[0])
        norms = sorted(sum(c * c for c in p) for p in coords)
        # Hadamard: an entry of a unimodular inverse is +- an (m-1)-minor
        self.entry_bound = math.isqrt(math.prod(norms[len(norms) - m + 1 :]))
        # a digit of a row times a point sums entries times its coordinates
        spread = max(sum(map(abs, p)) for p in coords)
        self.digit_bound = self.entry_bound * spread
        w = self.width = self.digit_bound.bit_length() + 1
        self.digits, a = 2 * m - 1, 0
        if anchor:
            # an anchor entry is a row times the anchor; its field holds that less 1
            bound = self.entry_bound * sum(map(abs, anchor))
            a = (bound + 1).bit_length() + 1
            # the entry times a point stays in the slot above the digit read,
            # with three bits to spare (see the module docstring)
            self.digits += -(-(3 + (1 + bound * spread).bit_length()) // w)
        s = self.slot = w * self.digits
        self.half, self.digit_mask = 1 << w - 1, (1 << w) - 1
        self.anchor_half = (1 << a) // 2  # 0 without an anchor
        self.row_mask, self.lead_mask = (1 << w * m) - 1, (1 << w * m + a) - 1
        self.row_offset = sum(self.half << w * k for k in range(m))
        self.lead_offset = self.row_offset + (self.anchor_half << w * m)
        ones = sum(1 << s * x for x in range(m))
        self.offset = self.lead_offset * ones
        self.signs = self.anchor_half * ones << w * m  # the anchor entries' sign bits
        self.anchor_ones = ones << w * m
        self.points = [sum(c << w * (m - 1 - k) for k, c in enumerate(p)) for p in coords]
        # an inverse times a point, offset in every digit for the read
        read_offset = ones * sum(self.half << w * k for k in range(self.digits))
        self.shifts = [self.offset * p - read_offset for p in self.points]
        # digit m - 1 of each row of a product, shifted to the slot's foot: C^-1 p
        self.y_shift, self.y_mask = w * (m - 1), self.digit_mask * ones
        # the slots so read, less units[q], are C^-1 p less the unit vector e_q
        self.units = [self.half * ones + (1 << s * q) for q in range(m)]

    def pack(self, rows: Sequence[Sequence[int]]) -> int:
        """Rows of m entries, each followed by its anchor entry if the layout
        has an anchor."""
        w, s = self.width, self.slot
        return self.offset + sum(
            v << s * x + w * k for x, row in enumerate(rows) for k, v in enumerate(row)
        )

    def rows(self, inverse: int) -> tuple[tuple[int, ...], ...]:
        """The rows of a packed inverse, each followed by its anchor entry if
        the layout has an anchor."""
        w, s, m = self.width, self.slot, self.m
        entries = [
            tuple((inverse >> s * x + w * k & self.digit_mask) - self.half for k in range(m))
            for x in range(m)
        ]
        if self.anchor_half:
            mask = 2 * self.anchor_half - 1
            return tuple(
                row + ((inverse >> s * x + w * m & mask) - self.anchor_half,)
                for x, row in enumerate(entries)
            )
        return tuple(entries)

    def negatives(self, inverse: int) -> int:
        """The number of facets of a packed inverse's cell visible from the
        anchor: the rows j whose (y_j, r_j1, ..., r_jm), y_j the anchor
        entry, is lexicographically negative.

        That is the sign of row j at the anchor moved by
        eps e_1 + eps^2 e_2 + ... for a small eps > 0, so it is y_j's sign
        unless y_j is 0, and then the sign of the row's first nonzero entry
        (a row of an inverse is never 0).  Two cells that share a facet have
        opposite rows for it, so exactly one of them sees it.  The sign bits
        of the anchor fields count the entries >= 0, and those >= 1 once
        every field is less 1; only when the counts differ is a row decoded.
        """
        nonnegative = (inverse & self.signs).bit_count()
        if ((inverse - self.anchor_ones) & self.signs).bit_count() == nonnegative:
            return self.m - nonnegative
        zero = (0,) * (self.m + 1)
        return sum((y, *row) < zero for *row, y in self.rows(inverse))

    def pivot(self, inverse: int, j: int, q: int) -> int:
        """The inverse, with its anchor entries, of a unimodular cell once
        point j takes slot q."""
        s = self.slot * q
        y = (inverse * self.points[j] - self.shifts[j]) >> self.y_shift & self.y_mask
        yq = (y >> s & self.digit_mask) - self.half
        if yq not in (1, -1):
            raise TheoremViolation(f"placing pivot {yq}: the new cell is not unimodular")
        lead = (inverse >> s & self.lead_mask) - self.lead_offset
        return inverse - (y - self.units[q]) * (lead if yq == 1 else -lead)


def placing_pass(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
    anchor: Sequence[int] | Packing = (),
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield the cells of :func:`build_triangulation` as they are made, as
    (cell, mask, inverse): the point indices by slot, the same as a bit
    mask, and the cell's integer inverse, whose row q is the facet
    functional opposite slot q, 1 on its point.  The inverse is one int in
    the layout ``Packing.of(g, anchor)``: row x in the digits
    xS .. xS + m - 1, each of w bits and offset by 2^(w-1), where w covers
    Hadamard's bound on the entries.  Given an integer ``anchor`` point,
    each row also carries the row times the anchor, in a field just above
    its entries.  A caller that reads the inverses passes that layout as
    ``anchor`` instead, so that it is built once, and decodes an inverse
    with ``Packing.rows``.

    The first cell is the first basis :func:`fraction_free_basis` fills
    from the points in placing order."""
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    if order is None:
        order = default_good_order(g)
    if not is_good_order(order, g, bud):
        raise BadTermOrder("term order fails the goodness check on this graph")
    points = lattice_points(g)
    pk = anchor if isinstance(anchor, Packing) else Packing.of(g, anchor)
    anchor = pk.anchor
    placing = sorted(range(len(points)), key=lambda i: order.rank(points[i]), reverse=True)
    m = pk.m
    # the identity, with the anchor as its last column: the rows times the anchor
    identity = [tuple(int(i == j) for j in range(m)) + tuple(anchor[i : i + 1]) for i in range(m)]
    first, det, inverse = fraction_free_basis(identity, (points[i].coords for i in placing))
    if det not in (1, -1):
        raise TheoremViolation(f"the first cell has determinant {det}, not +-1")
    first = [placing[k] for k in first]
    taken = set(first)
    rest = [i for i in placing if i not in taken]
    # conflict lists: visible[k] holds the facets (facet, cell, inverse, q),
    # omitting cell[q], that rest[k] is the first point still to come to lie
    # beyond; a facet is the mask of its points
    visible: list[list[tuple]] = [[] for _ in rest]
    # new cells, with the slot of the point just placed
    inverse = pk.pack([[det * a for a in row] for row in inverse])
    made = [(tuple(first), sum(1 << i for i in first), inverse, -1)]
    packed = [pk.points[i] for i in rest]
    slot, row_mask, row_offset = pk.slot, pk.row_mask, pk.row_offset
    sign = 1 << pk.width * m - 1  # of digit m - 1 of a row times a point: their dot product
    for step in range(len(rest) + 1):
        fresh: dict[int, tuple] = {}  # facets of the new cells but those two of them share
        for cell, mask, inv, q in made:
            yield cell, mask, inv
            for x, i in enumerate(cell):
                if x != q and fresh.pop(facet := mask ^ 1 << i, None) is None:
                    fresh[facet] = (cell, inv, x)
        future = packed[step:]
        tested = 0
        for facet, (cell, inv, x) in fresh.items():
            row = (inv >> slot * x & row_mask) - row_offset
            for n, p in enumerate(future, step):
                if not (row * p + row_offset) & sign:
                    visible[n].append((facet, cell, inv, x))
                    tested += n - step + 1
                    break
            else:
                tested += len(future)
        bud.spend(tested)
        if not future:
            break
        p = rest[step]
        bud.spend(len(visible[step]))
        made = [(cell[:q] + (p,) + cell[q + 1 :], facet | 1 << p, pk.pivot(inv, p, q), q)
                for facet, cell, inv, q in visible[step]]
        visible[step] = []


def fraction_free_basis(
    rows: Sequence[tuple[int, ...]], points: Iterable[Sequence[int]]
) -> tuple[list[int], int, Sequence[tuple[int, ...]]]:
    """Fill the m unit-vector slots of the identity basis with ``points``,
    taken in turn, by integer (Bareiss) pivots, and stop once every slot is
    filled.

    ``rows`` are the identity's rows, each perhaps followed by entries that
    the pivots carry along as row operations.  A point goes into the first
    empty slot where its entry is nonzero; a point with none is dependent
    on those before it and is left over.  Returns (first, det, rows):
    ``first[q]`` indexes the point in slot q, -1 if the slot stayed empty;
    ``det`` is the determinant of the basis, and the rows stay ``det``
    times its inverse, so every division is exact.
    """
    m = len(rows)
    det, first = 1, [-1] * m
    for i, p in enumerate(points):
        y = [sum(a * c for a, c in zip(row, p)) for row in rows]
        q = next((x for x in range(m) if first[x] < 0 and y[x]), None)
        if q is None:
            continue
        first[q], lead = i, rows[q]
        rows = [tuple([(y[q] * a - y[x] * b) // det for a, b in zip(row, lead)])
                for x, row in enumerate(rows)]
        rows[q], det = lead, y[q]
        if -1 not in first:
            break
    return first, det, rows


def normalized_volume(points: Iterable[LatticePoint]) -> int:
    """Normalized volume of the simplex spanned by dim + 1 lattice points.

    The points must lie on the coordinate-sum-1 hyperplane, a lattice
    hyperplane at lattice distance 1 from the origin, so the volume is the
    absolute determinant of their coordinates, read off the basis that
    :func:`fraction_free_basis` fills with them.  0 means affinely
    dependent: a point is left over.
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
    identity = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    first, det, _ = fraction_free_basis(identity, (p.coords for p in pts))
    return 0 if -1 in first else abs(det)


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
