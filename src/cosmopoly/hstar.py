"""h*-polynomials by three independent routes, plus the theorem and
conjecture checkers built on them.

Routes:
  * visibility - half-open decomposition of the placing triangulation
    against an exact anchor point, with visible facets read off the
    integer cell inverses and a lexicographic tie-break for an anchor on a
    facet hyperplane, all in one placing pass;
  * ehrhart    - inversion of the low dilate counts, and by reciprocity of
    the interior counts from the codegree up, read off one sumset run;
  * blocks     - product of closed forms over the block decomposition
    (loops, bridges, bundles, multicycles), falling back to visibility on
    blocks without a closed form.

The three must agree coefficientwise; `verify` wiring elsewhere exploits
exactly that.

The statistic conjectured to equal h* sums z^(#squiggly + #double edges)
over the cells of the placing triangulation, and needs every cell to obey
the stroke rule: each edge carries one stroke, or plain plus one directed
stroke.  Under a good term order every cell does.  For an edge e from u to v
the fundamental binomials

  t_e + z_e = z_u + z_v,   t_e + yf_e = 2 z_u,
  t_e + yb_e = 2 z_v,      yf_e + yb_e = 2 z_e

(for a loop at u, t_e + z_e = 2 z_u) lead with their left sides, which
:func:`~cosmopoly.grobner.is_good_order` requires.  So each left-hand pair
is a non-face of the initial complex, which is the placing triangulation
(Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 8): no cell holds
t_e with another point of e, or both y-points of e.  And z_e, t_e, yf_e
and yb_e are the only points with a nonzero e-coordinate, so a
full-dimensional cell, which cannot lie in the hyperplane x_e = 0, holds
one of them: every edge is covered.  A cell that breaks the rule is a bug,
and :func:`mask_statistic` raises StructureViolation on it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import (
    Budget,
    DisconnectedGraph,
    NoMethodAvailable,
    TheoremViolation,
    as_budget,
)
from .grobner import TermOrder, default_good_order
from .multigraph import (
    BUNDLE,
    LOOP,
    MULTICYCLE,
    OTHER,
    SINGLE_EDGE,
    BlockClass,
    Multigraph,
    blocks,
    connected_components,
    induced_by_edges,
    is_connected,
)
from .polytope import _sumsets, dimension
from .triangulation import Simplex, cells_from_masks, decorated_view, placed

if TYPE_CHECKING:
    from fractions import Fraction


class IntPolynomial:
    """Dense integer polynomial in one variable z, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs: tuple[int, ...] = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def leq(self, other: "IntPolynomial") -> bool:
        """Coefficientwise <=."""
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coefficient(i) <= other.coefficient(i) for i in range(n))

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1] and bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


ONE = IntPolynomial([1])
ONE_PLUS_Z = IntPolynomial([1, 1])
ONE_PLUS_3Z = IntPolynomial([1, 3])
TWO_Z = IntPolynomial([0, 2])


# ---------------------------------------------------------------------------
# Closed forms


def hstar_closed_bundle(m: int) -> IntPolynomial:
    """(1+z)^m + 2mz(1+z)^(m-1) for the two-vertex bundle of m parallel edges."""
    if m < 1:
        raise ValueError("bundle multiplicity must be >= 1")
    return ONE_PLUS_Z**m + IntPolynomial([0, 2 * m]) * ONE_PLUS_Z ** (m - 1)


def hstar_closed_multicycle(multiplicities: Sequence[int]) -> IntPolynomial:
    """prod((1+z)^a_i + 2 a_i z (1+z)^(a_i-1)) - prod(2 a_i z (1+z)^(a_i-1))."""
    a = tuple(int(x) for x in multiplicities)
    if len(a) < 3 or any(x < 1 for x in a):
        raise ValueError("multicycle needs >= 3 multiplicities, all >= 1")
    full = ONE
    doubles = ONE
    for ai in a:
        full = full * hstar_closed_bundle(ai)
        doubles = doubles * (IntPolynomial([0, 2 * ai]) * ONE_PLUS_Z ** (ai - 1))
    return full - doubles


def theta_hstar(k: int, l: int, m: int) -> IntPolynomial:
    """Conjectured h* for the theta graph of three glued paths of lengths k, l, m."""
    if min(k, l, m) < 1:
        raise ValueError("path lengths must be >= 1")
    total = ONE_PLUS_3Z ** (k + l + m)
    total = total - TWO_Z ** (k + l) * ONE_PLUS_3Z**m
    total = total - TWO_Z ** (k + m) * ONE_PLUS_3Z**l
    total = total - TWO_Z ** (l + m) * ONE_PLUS_3Z**k
    total = total - TWO_Z ** (k + l + m)
    return total + IntPolynomial([3]) * TWO_Z ** (k + l + m)


# ---------------------------------------------------------------------------
# Visibility route


class AnchorPoint(NamedTuple):
    """Strictly positive point inside the polytope, on the ray of its
    primitive integer vector ``integer_coords``, the anchor every placing
    pass carries, with the cells of the placing triangulation and their
    visibility histogram, both from that one pass:
    ``visible_counts[i]`` cells have exactly i facets visible from the
    anchor, a facet whose hyperplane holds it being decided by the
    lexicographic tie-break of ``Packing.negatives``.
    ``perturbation_index`` is always 0: the anchor is never moved.  The
    cells are kept as bit masks of point indices, and ``coords`` and
    ``cells`` are computed each time they are read."""

    integer_coords: tuple[int, ...]
    perturbation_index: int
    visible_counts: tuple[int, ...]
    graph: Multigraph
    masks: tuple[int, ...]  # the cells as bit masks of point indices

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The anchor's exact coordinates, of sum 1."""
        from fractions import Fraction

        total = sum(self.integer_coords)
        return tuple(Fraction(c, total) for c in self.integer_coords)

    @property
    def cells(self) -> tuple[Simplex, ...]:
        """The cells, sorted as by ``build_triangulation``."""
        return tuple(cells_from_masks(self.graph, self.masks))

    def __repr__(self) -> str:
        return (
            f"AnchorPoint(coords={self.coords!r}, "
            f"perturbation_index={self.perturbation_index!r}, "
            f"visible_counts={self.visible_counts!r})"
        )


def build_anchor(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> AnchorPoint:
    """The anchor for the half-open decomposition of the placing
    triangulation of ``order``, with its cells and the count of cells per
    number of visible facets, as read by the one placing pass that
    :func:`~cosmopoly.triangulation.placed` charges to ``budget`` (two if
    an inverse entry leaves the narrow width).  That is the pass
    :func:`~cosmopoly.triangulation.build_triangulation` runs, so the
    cells are its cells.

    Every pass carries the anchor Q of
    :func:`~cosmopoly.triangulation.base_anchor`, the integer point that
    weights vertices (2|V|+1)/(2|V|(|V|+1)) and edges 1/(2|E|(|V|+1)) up
    to scale; no fraction is formed.  Each cell's facet values at the
    anchor are read off its integer inverse; one that is 0 is decided
    lexicographically, as at the anchor moved by eps e_1 + eps^2 e_2 + ...
    for a small eps > 0, which stays inside the polytope's cone.  So exactly one of two cells
    sharing a facet sees it, and the decomposition holds for every anchor.
    """
    anchor, masks, counts = placed(g, order, budget)
    return AnchorPoint(anchor, 0, tuple(counts), g, tuple(masks))


def hstar_visibility(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> IntPolynomial:
    """h* of the connected graph ``g`` from the placing triangulation of
    ``order`` (the default order when None): h*_i is the number of cells with
    exactly i facets visible from the anchor of :func:`build_anchor`."""
    return IntPolynomial(build_anchor(g, order, budget).visible_counts)


# ---------------------------------------------------------------------------
# Ehrhart route


def hstar_ehrhart(g: Multigraph, budget: Budget | int | None = None) -> IntPolynomial:
    """h* from the dilate counts N(0..a) and, by Ehrhart-Macdonald
    reciprocity, the interior counts N°(1..|V|+b), read off one sumset run.

    deg h* = |E| and the codegree is |V|, so with d = dim P,
    a = min(|E|, ceil(d/2)) and b = |E| - 1 - a:

      h*_k      = sum_j (-1)^j C(d+1, j) N(k-j)          for k = 0..a,
      h*_(|E|-j) = sum_i (-1)^i C(d+1, i) N°(|V|+j-i)     for j = 0..b,

    the second sum running over every computed N°(t), t >= 1, so it does not
    assume the codegree.  Where the dilates reach far enough for both sums
    to give a coefficient, the two must agree.
    :func:`ehrhart_count_from_hstar` predicts any further dilate from the
    result.
    """
    if not is_connected(g):
        raise DisconnectedGraph("ehrhart route requires a connected graph")
    nv = g.vertex_count
    ne = len(g.edges)
    d = dimension(g)
    a = min(ne, (d + 1) // 2)
    b = ne - 1 - a
    top = max(a, nv + b)
    counts, interior = zip(*_sumsets(g, top, budget, interior=b >= 0))
    h = [
        sum((-1) ** j * math.comb(d + 1, j) * counts[k - j] for j in range(k + 1))
        for k in range(a + 1)
    ]
    if b >= 0:
        h += [0] * (b + 1)
        for j in range(top - nv + 1):
            coefficient = sum(
                (-1) ** i * math.comb(d + 1, i) * interior[nv + j - i]
                for i in range(nv + j)
            )
            if j <= b:
                h[ne - j] = coefficient
            elif coefficient != h[ne - j]:
                raise TheoremViolation(
                    f"h*_{ne - j} is {h[ne - j]} from dilates but {coefficient} "
                    "from interior counts"
                )
    if h[0] != 1 or any(x < 0 for x in h):
        raise TheoremViolation(f"inverted h* is not in normal form: {h}")
    return IntPolynomial(h)


def ehrhart_count_from_hstar(h: IntPolynomial, d: int, t: int) -> int:
    """N(t) reconstructed from h*: sum h_k * C(t - k + d, d)."""
    return sum(
        h.coefficient(k) * math.comb(t - k + d, d)
        for k in range(h.degree + 1)
        if t - k >= 0
    )


# ---------------------------------------------------------------------------
# Block route


def _hstar_block(
    g: Multigraph, block: BlockClass, budget: Budget | int | None, order_seed: int | None
) -> IntPolynomial:
    if block.tag == LOOP:
        return ONE_PLUS_Z
    if block.tag == SINGLE_EDGE:
        return ONE_PLUS_3Z
    if block.tag == BUNDLE:
        return hstar_closed_bundle(block.multiplicity)
    if block.tag == MULTICYCLE:
        return hstar_closed_multicycle(block.multiplicities)
    sub = induced_by_edges(g, block.edge_ids)
    return hstar_visibility(sub, default_good_order(sub, seed=order_seed), budget)


def hstar_blocks(
    g: Multigraph, budget: Budget | int | None = None, order_seed: int | None = None
) -> IntPolynomial:
    """Product of block h*'s: h* is multiplicative over disjoint unions and
    over gluings at a single vertex, so the block decomposition computes it.
    A block without a closed form (tag ``Other``) is triangulated on its own
    under ``default_good_order(block, seed=order_seed)``."""
    result = ONE
    for block in blocks(g):
        result = result * _hstar_block(g, block, budget, order_seed)
    return result


# ---------------------------------------------------------------------------
# Dispatcher


def per_component(g: Multigraph, fn) -> IntPolynomial:
    """Apply a connected-graph h* method per component and multiply."""
    result = ONE
    for comp in connected_components(g):
        vertices = set(comp)
        edge_ids = [e.id for e in g.edges if e.u in vertices]
        sub = induced_by_edges(g, edge_ids)
        result = result * fn(sub)
    return result


# Above this many lattice points in an ``Other`` block ``auto`` refuses.  An
# ehrhart fallback for small dimensions would never run: dimension <= 8
# allows at most 30 points.
VISIBILITY_POINT_CAP = 64


def resolve_method(g: Multigraph, method: str) -> str:
    """The route ``hstar`` runs for ``method``.

    ``auto`` follows the 1-sum recursion: visibility for a graph that is a
    single block without a closed form (tag ``Other``), and the block
    product otherwise, which triangulates each ``Other`` block on its own.
    It refuses with guidance if an ``Other`` block has more lattice points
    than the cap.
    """
    if method in ("blocks", "visibility", "ehrhart"):
        return method
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    block_list = blocks(g)
    # an Other block is loopless: |V| + 4|E| lattice points of its own
    if any(
        b.tag == OTHER and len(b.vertices) + 4 * len(b.edge_ids) > VISIBILITY_POINT_CAP
        for b in block_list
    ):
        raise NoMethodAvailable(
            "graph exceeds the visibility point cap; "
            "pass an explicit --method with a bigger --budget-nodes"
        )
    if len(block_list) == 1 and block_list[0].tag == OTHER:
        return "visibility"
    return "blocks"


def hstar(
    g: Multigraph,
    method: str = "auto",
    budget: Budget | int | None = None,
    order_seed: int | None = None,
) -> IntPolynomial:
    """h* by the route :func:`resolve_method` picks.

    Disconnected input is handled per component for the connected-only
    routes; visibility triangulates each component under
    ``default_good_order(component, seed=order_seed)``, and blocks each
    ``Other`` block under ``default_good_order(block, seed=order_seed)``.
    """
    bud = as_budget(budget)
    route = resolve_method(g, method)
    if route == "blocks":
        return hstar_blocks(g, bud, order_seed)
    if route == "visibility":
        return per_component(
            g,
            lambda sub: hstar_visibility(sub, default_good_order(sub, seed=order_seed), bud),
        )
    return per_component(g, lambda sub: hstar_ehrhart(sub, bud))


# ---------------------------------------------------------------------------
# Statistic polynomial


def mask_statistic(g: Multigraph, masks: Sequence[int]) -> IntPolynomial:
    """The statistic: the sum over the cells, given as bit masks of point
    indices, of z^(#squiggly + #double edges), read off the masks with no
    cell decoded.  It is conjectured equal to h*, and is so on multitrees
    and multicycles.

    The points lie in the order of :func:`lattice_points`: |V| vertex
    z-points, then |E| each of edge z-points and t-points, then the forward
    and the backward y-points of the non-loop edges.  Shifts and masks lift
    a cell's edge strokes z, t, f, b into one bit per edge; f and b open a
    zero bit at each loop, which has no y-points.  Every edge carries one or
    two strokes, a pair being plain plus directed, iff z | t | f | b covers
    every edge, t meets none of the others, and f and b are disjoint.  A
    cell then has |V| + |E| points, one per white vertex and one per stroke,
    so it has |V| - #white double edges and adds one to the coefficient of
    z^(#t + |V| - #white).  Under a good order every cell obeys that stroke
    rule (see the module docstring).  If cells break it, those cells are
    decoded, and :func:`decorated_view` raises StructureViolation
    for the one that sorts first.
    """
    nv, ne = g.vertex_count, len(g.edges)
    ny = ne - g.loop_count
    white, strokes, ys = (1 << nv) - 1, (1 << ne) - 1, (1 << ny) - 1
    t_at, f_at = nv + ne, nv + 2 * ne
    b_at = f_at + ny
    loops = [(1 << e.id) - 1 for e in g.edges if e.is_loop]  # the edges below each loop
    counts = [0] * (ne + 1)
    bad = []
    for c in masks:
        z, t = c >> nv & strokes, c >> t_at & strokes
        f, b = c >> f_at & ys, c >> b_at & ys
        for below in loops:
            f = f & below | (f & ~below) << 1
            b = b & below | (b & ~below) << 1
        if (z | t | f | b) != strokes or t & (z | f | b) or f & b:
            bad.append(c)
            continue
        counts[t.bit_count() + nv - (c & white).bit_count()] += 1
    if bad:
        decorated_view(cells_from_masks(g, bad)[0], g)
    return IntPolynomial(counts)


# ---------------------------------------------------------------------------
# Theorem and conjecture checks


class ConjectureFinding(NamedTuple):
    name: str
    status: str  # "HOLDS" or "VIOLATED"; a sweep adds "SKIPPED" and "ERROR"
    detail: str


def lower_bound_polynomial(g: Multigraph) -> IntPolynomial:
    k = len(connected_components(g))
    nv = g.vertex_count
    ne = len(g.edges)
    return ONE_PLUS_3Z ** (nv - k) * ONE_PLUS_Z ** (ne - nv + k)


def check_structure_theorems(
    g: Multigraph,
    h: IntPolynomial,
    codegree_budget: Budget | int | None = None,
) -> list[str]:
    """Assert the proven facts about h*: degree |E|, linear coefficient
    3|E| - 2#loops, the coefficientwise lower bound with its equality
    characterization, palindromicity exactly for all-loop graphs, and, only
    when ``codegree_budget`` is given, codegree |V| via interior-point
    counts.  No CLI command passes one, so ``verify`` never runs that check.

    Returns the names of the checks run.  Raises TheoremViolation on any
    failure; that means a bug, not new math.
    """
    ne = len(g.edges)
    loops = g.loop_count
    expected_h1 = 3 * ne - 2 * loops
    lb = lower_bound_polynomial(g)
    loose = all(b.tag in (LOOP, SINGLE_EDGE) for b in blocks(g))
    all_loops = loops == ne
    checks = [
        ("degree", h.degree == ne, f"deg h* = {h.degree}, |E| = {ne}"),
        (
            "linear-coefficient",
            h.coefficient(1) == expected_h1,
            f"h*_1 = {h.coefficient(1)}, 3|E| - 2#loops = {expected_h1}",
        ),
        ("lower-bound", lb.leq(h), f"{lb} vs {h}"),
        (
            "lower-bound-equality",
            (lb == h) == loose,
            f"equality {lb == h}, all blocks loops/bridges {loose}",
        ),
        (
            "palindromic-iff-all-loops",
            h.is_palindromic() == all_loops,
            f"palindromic {h.is_palindromic()}, all loops {all_loops}",
        ),
    ]
    if codegree_budget is not None and is_connected(g):
        nv = g.vertex_count
        _, interior = zip(*_sumsets(g, nv, codegree_budget, interior=True))
        ok = interior[nv] > 0 and not any(interior[1:nv])
        checks.append(("codegree", ok, f"codegree equals |V| = {nv}"))
    failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    if failures:
        raise TheoremViolation("; ".join(failures))
    return [name for name, _, _ in checks]


def check_upper_bound_conjecture(g: Multigraph, h: IntPolynomial) -> ConjectureFinding:
    """Conjectured coefficientwise bound h* <= (1+3z)^|E|; a violation is a
    finding to report, never an error."""
    bound = ONE_PLUS_3Z ** len(g.edges)
    if h.leq(bound):
        return ConjectureFinding("upper-bound", "HOLDS", f"{h} <= {bound}")
    return ConjectureFinding("upper-bound", "VIOLATED", f"{h} exceeds {bound}")


def statistic_finding(stat: IntPolynomial, h: IntPolynomial) -> ConjectureFinding:
    """The verdict on the conjecture that the statistic ``stat`` equals h*."""
    if stat == h:
        return ConjectureFinding("statistic", "HOLDS", f"statistic {stat} equals h*")
    return ConjectureFinding("statistic", "VIOLATED", f"statistic {stat} differs from h* {h}")
