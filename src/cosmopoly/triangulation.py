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

Visible facets come from conflict lists (Clarkson and Shor).  Each facet of a
new cell is decided by k, the position of the first point strictly beyond it
in placing order, the first cell's points first.  A facet of a triangulation
of the points placed is on its boundary iff no placed point lies beyond it;
an inner one has the apex of the cell across it beyond.  So a facet whose k
is placed is shared, by two new cells or with the cell coned over, and is
skipped; one that no point lies beyond is on the polytope's boundary and is
dropped; any other is filed under point k.  Until k is placed the facet stays
on the boundary, and then it is visible, so the facets filed under a point
are exactly those it sees, in the order they were made.  A cell keeps its
points as the bits 1 << i by slot, so the facet omitting slot x is the
cell's mask XOR that bit.  k depends only on the facet functional, the
facet's row of its cell's inverse, and far fewer functionals than facets
turn up: 723 among the 29 568 facets of the cells theta(2,2,2) makes before
its last step.  So each functional met is tested against every point in one
product and its k kept: the points are packed side by side in placing order,
one to a block of 2m - 1 digits, and the row times them holds each dot
product in a block of its own, whose sign bits mark the points beyond
(:meth:`Packing.side_by_side`); k is the block of the lowest one set.  The
last point placed leaves no point to file a facet under, so its cells need
no facet work.  The pass hands its cells over a step at a time: one batch for
the first cell and one per point placed after it.

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

The width w is checked, not assumed.  A pass packs narrow, at the w that
holds one pivot from entries in the window WINDOW = [-4, 3]: with B = 4 and
s the largest 1-norm of a point, a checked row times a point is at most Bs,
and an entry after a pivot at most B(1 + Bs).  After every pivot one add
and one mask of the whole inverse test that each entry is back in the
window (Warren, *Hacker's Delight*), and the first cell's entries are
tested before they are packed: w = 7 bits for theta(2,2,2), K4 and
theta(2,3,3).  If an entry leaves the window, the pass stops and is placed
again at the width Hadamard's inequality proves.  Every cell is unimodular,
so an entry of its inverse is +- an (m-1)-minor of lattice points, at most
E, the integer square root of the product of the m - 1 largest squared
point norms, and a product digit is at most Es: 11 bits for theta(2,2,2),
10 for K4, 14 for theta(2,3,3).  No graph tested so far has an inverse
entry above 2 in size, so that fallback has not been needed.

Every pass carries the base anchor Q, the primitive integer point of the
published vertex and edge weights (:func:`base_anchor`): each row also
carries its anchor entry, the row times Q, that is (C^-1 Q)_x, in a field
of its own just above the row's entries, offset by half the field.  The
pivots are row operations, so the same multiply-subtract keeps it exact,
and the facets visible from Q, the negative anchor entries, are counted
off the fields' sign bits in the pass that makes the cells, for
``triangulate`` and the visibility route alike.  An entry of 0, Q on the
facet's hyperplane, takes the sign of the row's first nonzero entry: the
sign at Q moved by eps e_1 + eps^2 e_2 + ..., a lexicographic tie-break
(simulation of simplicity) under which every Q counts as generic.  An
anchor entry is at most the largest entry, B(1 + Bs) narrow or E proven,
times the 1-norm of Q in size, so the field and, in the product with a
point, the entry times the point stay inside the slot once S grows by the
digits that bound needs and three bits more: the product's part above the
digit read then stays within a quarter of the offsets above it, and no
slot borrows from the next.

Cells are rendered back onto the graph: a vertex is white when its z-point is
present; an edge shows as plain (z), squiggly (t), or directed (y) strokes,
with at most two strokes per edge.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

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
from .multigraph import Multigraph, is_connected
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
    ``order`` is None), its cells sorted by canonical point indices: the
    cells of the anchored pass that :func:`~cosmopoly.hstar.build_anchor`
    reads.  One budget node is charged per cell made and per point still to
    come tested against a new facet."""
    # placed in full first, so that the placing state is freed before the sort
    _, masks, _ = placed(g, order, budget)
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


# The inverse entries a narrow packing holds, checked after every pivot: a
# window of 2^k integers, so that one add and one mask test it.
WINDOW = (-4, 3)


class WidthOverflow(Exception):
    """An inverse entry of a narrow placing pass left :data:`WINDOW`: the
    pass must run again at Hadamard's width (see :func:`placed`)."""


def base_anchor(g: Multigraph) -> list[int]:
    """The anchor that weights vertices (2|V|+1)/(2|V|(|V|+1)) and edges
    1/(2|E|(|V|+1)), as the primitive integer vector on its ray.

    Times 2|V||E|(|V|+1), the weights are (2|V|+1)|E| and |V|; 2|V|+1 is
    prime to |V|, so their gcd is gcd(|V|, |E|)."""
    nv = g.vertex_count
    ne = len(g.edges)
    d = math.gcd(nv, ne)
    return [(2 * nv + 1) * ne // d] * nv + [nv // d] * ne


class Packing:
    """The layout that packs each cell inverse of a placing pass, with its
    anchor entries, into one int (see the module docstring), and the pivot
    and the reads that work on it.

    It is built from the coordinates of all points the pass may place and
    the integer anchor every pass carries, so its width holds for every
    cell of the pass.  A narrow layout holds one pivot from entries in
    :data:`WINDOW` and raises :class:`WidthOverflow` when an entry leaves
    it; the ``proven`` layout holds every entry Hadamard's bound allows,
    and checks none.  Digits are stored offset by ``half``, anchor entries
    by ``anchor_half``.
    """

    @classmethod
    def of(cls, g: Multigraph, proven: bool = False) -> Packing:
        """The layout of a placing pass on ``g``, carrying its
        :func:`base_anchor`."""
        return cls([p.coords for p in lattice_points(g)], base_anchor(g), proven)

    def __init__(
        self, coords: Sequence[Sequence[int]], anchor: Sequence[int], proven: bool = False
    ):
        self.anchor = tuple(anchor)
        m = self.m = len(coords[0])
        spread = max(sum(map(abs, p)) for p in coords)
        if proven:
            norms = sorted(sum(c * c for c in p) for p in coords)
            # Hadamard: an entry of a unimodular inverse is +- an (m-1)-minor
            self.entry_bound = math.isqrt(math.prod(norms[len(norms) - m + 1 :]))
            # a digit of a row times a point sums entries times its coordinates
            self.digit_bound = self.entry_bound * spread
            self.window = None
        else:
            lo, hi = self.window = WINDOW
            b = max(-lo, hi)
            # a pivot adds to an entry a row times a point times an entry
            self.entry_bound = b * (1 + b * spread)
            # and the window test adds up to b to it
            self.digit_bound = self.entry_bound + b
        w = self.width = self.digit_bound.bit_length() + 1
        # an anchor entry is a row times the anchor; its field holds that less 1
        bound = self.entry_bound * sum(map(abs, anchor))
        a = (bound + 1).bit_length() + 1
        # the entry times a point stays in the slot above the digit read,
        # with three bits to spare (see the module docstring)
        self.digits = 2 * m - 1 + -(-(3 + (1 + bound * spread).bit_length()) // w)
        s = self.slot = w * self.digits
        self.half, self.digit_mask = 1 << w - 1, (1 << w) - 1
        self.anchor_half = 1 << a - 1
        self.row_mask, self.lead_mask = (1 << w * m) - 1, (1 << w * m + a) - 1
        row_ones = sum(1 << w * k for k in range(m))
        self.row_offset = self.half * row_ones
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
        # a row times a point fills 2m - 1 digits (see side_by_side)
        self.block = w * (2 * m - 1)
        # an entry e is in the window [lo, lo + 2^k) iff its digit e + half,
        # plus -lo, is half in the bits above its k lowest: one add, one mask
        # (all three 0 in the proven layout, where the test always holds)
        self.window_add = self.window_mask = self.window_bits = 0
        if self.window:
            span = hi - lo + 1
            assert span & span - 1 == 0, "the window must span a power of two"
            self.window_add = -lo * row_ones * ones
            self.window_mask = (self.digit_mask & -span) * row_ones * ones
            self.window_bits = self.row_offset * ones

    def pack(self, rows: Sequence[Sequence[int]]) -> int:
        """Rows of m entries, each followed by its anchor entry.  Raises
        :class:`WidthOverflow` if an entry is outside a narrow layout's
        window."""
        w, s, m = self.width, self.slot, self.m
        if self.window:
            lo, hi = self.window
            if any(not lo <= v <= hi for row in rows for v in row[:m]):
                raise WidthOverflow("an inverse entry to pack is outside the window")
        return self.offset + sum(
            v << s * x + w * k for x, row in enumerate(rows) for k, v in enumerate(row)
        )

    def side_by_side(self, indices: Sequence[int]) -> tuple[int, int, int]:
        """The points ``indices`` packed side by side, point k in block k of
        2m - 1 digits, with offsets for a packed row's field and the sign bit
        of each block's digit m - 1: (points, offsets, signs).

        A row's field ``r = inverse >> S x & row_mask`` times the points,
        less its ``row_offset`` times them, holds in block k the digits of
        row x times point k: digit m - 1 is their dot product and every
        other digit a part of it, so once each digit is offset by 2^(w-1)
        it is a w-bit field and no block borrows from the next.  The set
        bits of ``~(r * points + offsets) & signs`` are then the blocks
        whose point lies beyond the facet functional of the row."""
        block, n = self.block, len(indices)
        points = sum(self.points[i] << block * k for k, i in enumerate(indices))
        ones = ((1 << block * n) - 1) // self.digit_mask  # a 1 in each digit of the blocks
        signs = sum(1 << block * k + self.width * self.m - 1 for k in range(n))
        return points, self.half * ones - self.row_offset * points, signs

    def rows(self, inverse: int) -> tuple[tuple[int, ...], ...]:
        """The rows of a packed inverse, each followed by its anchor entry."""
        w, s, m = self.width, self.slot, self.m
        mask = 2 * self.anchor_half - 1
        return tuple(
            tuple((inverse >> s * x + w * k & self.digit_mask) - self.half for k in range(m))
            + ((inverse >> s * x + w * m & mask) - self.anchor_half,)
            for x in range(m)
        )

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
        point j takes slot q.  Raises :class:`WidthOverflow` if an entry
        leaves a narrow layout's window."""
        s = self.slot * q
        y = (inverse * self.points[j] - self.shifts[j]) >> self.y_shift & self.y_mask
        yq = (y >> s & self.digit_mask) - self.half
        if yq not in (1, -1):
            raise TheoremViolation(f"placing pivot {yq}: the new cell is not unimodular")
        lead = (inverse >> s & self.lead_mask) - self.lead_offset
        inverse -= (y - self.units[q]) * (lead if yq == 1 else -lead)
        if (inverse + self.window_add) & self.window_mask != self.window_bits:
            raise WidthOverflow("a placing pivot left an inverse entry outside the window")
        return inverse


def placed(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The anchor the pass carried, the cells of :func:`placing_pass` as
    bit masks, in the order made, and the visibility histogram: ``counts[i]``
    cells have exactly i facets visible from the anchor
    (:meth:`Packing.negatives`).  Both are collected a step's batch at a
    time.

    The pass runs at the narrow width; if an inverse entry leaves
    :data:`WINDOW`, it runs again at Hadamard's width, and ``budget`` is
    charged for both runs."""
    bud = as_budget(budget)

    def run(pk: Packing) -> tuple[tuple[int, ...], list[int], list[int]]:
        # Row j of a cell's inverse is the facet functional opposite its
        # point p_j, 1 on p_j, and its anchor entry is y_j, the row times
        # the anchor Q; y_j < 0 iff facet j is visible from Q.  The p_j have
        # coordinate sum 1, so the y_j sum to the coordinate sum of Q, which
        # is > 0, also after the tie-break's move, and at most m - 1 facets
        # of a cell are visible.
        masks, counts, negatives = [], [0] * pk.m, pk.negatives
        for batch in placing_pass(g, order, bud, pk):
            for _, mask, inverse in batch:
                masks.append(mask)
                counts[negatives(inverse)] += 1
        return pk.anchor, masks, counts

    try:
        return run(Packing.of(g))
    except WidthOverflow:
        return run(Packing.of(g, proven=True))


def placing_pass(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
    packing: Packing | None = None,
) -> Iterator[list[tuple[tuple[int, ...], int, int]]]:
    """Yield the cells of :func:`build_triangulation` a step at a time: one
    list holding the first cell, then one list per point placed after it,
    of the cells coned from that point.  A cell is
    (bits, mask, inverse): the bit ``1 << i`` of each of its point indices
    i by slot, their sum as a bit mask, and the cell's integer inverse,
    whose row q is the facet functional opposite slot q, 1 on its point.
    The inverse is one int in the layout ``packing``, ``Packing.of(g)`` when
    None: row x in the digits xS .. xS + m - 1, each of w bits and offset by
    2^(w-1), and then the row times the layout's anchor, in a field just
    above its entries.  A caller that reads the inverses passes the layout,
    so that it is built once, and decodes an inverse with ``Packing.rows``.

    The narrow layout raises :class:`WidthOverflow` once an entry leaves
    :data:`WINDOW`, after yielding the steps before it; :func:`placed` then
    places again at the proven width.

    The first cell is the first basis :func:`fraction_free_basis` fills
    from the points in placing order."""
    if not is_connected(g):
        raise DisconnectedGraph("triangulation enumeration requires a connected graph")
    bud = as_budget(budget)
    if order is None:
        order = default_good_order(g)
    if not is_good_order(order, g):
        raise BadTermOrder("term order fails the goodness check on this graph")
    points = lattice_points(g)
    pk = Packing.of(g) if packing is None else packing
    placing = sorted(range(len(points)), key=lambda i: order.rank(points[i]), reverse=True)
    m = pk.m
    # the identity, with the anchor as its last column: the rows times the anchor
    identity = [tuple(int(i == j) for j in range(m)) + (a,) for i, a in enumerate(pk.anchor)]
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
    cell = tuple(1 << i for i in first)
    made = [(cell, sum(cell), pk.pack([[det * a for a in row] for row in inverse]))]
    # one product of a facet functional with every point tests it on each
    together, offsets, signs = pk.side_by_side(first + rest)
    block, slot, row_mask, pivot = pk.block, pk.slot, pk.row_mask, pk.pivot
    # a facet functional, as a row's field -> k, the position in first + rest
    # of the first point beyond it, len(points) if none is
    beyond: dict[int, int] = {}
    end, get = len(points), beyond.get
    for step, p in enumerate(rest):
        yield made
        done, tested = m + step, 0  # the points placed so far, first + rest[:step]
        for cell, mask, inv in made:
            for x, b in enumerate(cell):
                row = inv >> slot * x & row_mask
                k = get(row)
                if k is None:
                    ahead = ~(row * together + offsets) & signs
                    k = beyond[row] = (ahead & -ahead).bit_length() // block if ahead else end
                if k < done:
                    continue  # a placed point lies beyond: the facet is shared
                if k < end:
                    visible[k - m].append((mask ^ b, cell, inv, x))
                    tested += k - done + 1
                else:  # on the boundary of the polytope: dropped
                    tested += end - done
        bud.spend(tested)
        bud.spend(len(visible[step]))
        bit = 1 << p
        made = [(cell[:q] + (bit,) + cell[q + 1 :], facet | bit, pivot(inv, p, q))
                for facet, cell, inv, q in visible[step]]
        visible[step] = []
    # the last point placed leaves no point to file a new facet under
    yield made


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
    times its inverse, so every division is exact.  Only a point's nonzero
    coordinates are read, and a row whose entry is 0 is left as it is when
    the pivot equals ``det``, where the update is the identity.
    """
    m = len(rows)
    det, first = 1, [-1] * m
    for i, p in enumerate(points):
        nonzero = [(k, c) for k, c in enumerate(p) if c]
        y = [sum(row[k] * c for k, c in nonzero) for row in rows]
        q = next((x for x in range(m) if first[x] < 0 and y[x]), None)
        if q is None:
            continue
        first[q], lead, yq = i, rows[q], y[q]
        rows = [row if not yx and yq == det
                else tuple([(yq * a - yx * b) // det for a, b in zip(row, lead)])
                for row, yx in zip(rows, y)]
        rows[q], det = lead, yq
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


class DecoratedGraph(NamedTuple):
    """Per-vertex white/black coloring plus the stroke set of every edge."""

    white_vertices: frozenset[int]
    edge_roles: tuple[frozenset[str], ...]


def decorated_view(simplex: Iterable[LatticePoint], g: Multigraph) -> DecoratedGraph:
    """Render a cell as a decorated subgraph.

    Raises StructureViolation unless every edge carries one or two strokes,
    a pair always being plain plus one directed stroke: the stroke rule,
    which every cell of a good order's placing triangulation obeys (see
    :mod:`cosmopoly.hstar`).
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
        raise StructureViolation("; ".join(problems))
    return DecoratedGraph(frozenset(white), tuple(frozenset(rs) for rs in roles))

