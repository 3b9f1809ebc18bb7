"""h*-polynomials by three independent routes, plus the theorem and
conjecture checkers built on them.

Routes:
  * visibility - half-open decomposition of the placing triangulation
    against an exact general-position anchor point, with visible facets
    read off the integer cell inverses;
  * ehrhart    - inversion of the dilate-counting oracle;
  * blocks     - product of closed forms over the block decomposition
    (loops, bridges, bundles, multicycles), falling back to visibility on
    blocks without a closed form.

The three must agree coefficientwise; `verify` wiring elsewhere exploits
exactly that.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AnchorFailure,
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
from .polytope import count_dilate_points, count_interior_points, dimension, lattice_points
from .triangulation import Simplex, cells_from_masks, decorated_view, placing_pass, sq_db_counts


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


@dataclass(frozen=True)
class AnchorPoint:
    """Strictly positive rational point of coordinate sum 1, certified to miss
    every cell-facet hyperplane exactly, with the cells it was certified
    against, sorted as by ``build_triangulation``, and their visibility
    histogram: ``visible_counts[i]`` cells have exactly i visible facets."""

    coords: tuple[Fraction, ...]
    perturbation_index: int
    visible_counts: tuple[int, ...]
    cells: tuple[Simplex, ...] = field(repr=False)


def _base_anchor(g: Multigraph) -> list[Fraction]:
    nv = g.vertex_count
    ne = len(g.edges)
    qv = Fraction(2 * nv + 1, 2 * nv * (nv + 1))
    qe = Fraction(1, 2 * ne * (nv + 1))
    return [qv] * nv + [qe] * ne


def _perturbed_anchor(g: Multigraph, index: int) -> list[Fraction]:
    q = _base_anchor(g)
    if index == 0:
        return q
    m = len(q)
    eps = Fraction(1, 2 ** (10 + index))
    raw = [Fraction((-1) ** i) for i in range(m)]
    shift = sum(raw) / m
    return [qi + eps * (ri - shift) for qi, ri in zip(q, raw)]


_MAX_ANCHOR_RETRIES = 32


def build_anchor(
    g: Multigraph,
    order: TermOrder | None = None,
    budget: Budget | int | None = None,
) -> AnchorPoint:
    """General-position anchor for half-open decomposition of the placing
    triangulation of ``order``, with its cells and the count of cells per
    number of visible facets.

    The base point weights vertices (2|V|+1)/(2|V|(|V|+1)) and edges
    1/(2|E|(|V|+1)); if it hits a facet hyperplane of some cell, a
    deterministic schedule of shrinking alternating perturbations is tried.
    Each candidate gets one placing pass, charged to ``budget``, which reads
    every cell's facet values at the candidate off the cell's integer
    inverse; a candidate on a facet hyperplane drops its pass.
    """
    bud = as_budget(budget)
    for index in range(_MAX_ANCHOR_RETRIES + 1):
        q = _perturbed_anchor(g, index)
        if any(c <= 0 for c in q):
            continue
        scale = math.lcm(*(c.denominator for c in q))
        ints = [int(c * scale) for c in q]
        # Row j of a cell's inverse is the facet functional opposite its point
        # p_j, 1 on p_j, so y_j < 0 iff facet j is visible from Q.  The p_j
        # have coordinate sum 1, so the y_j sum to scale > 0 and at most
        # len(ints) - 1 facets of a cell are visible.
        counts = [0] * len(ints)
        masks = []
        for cell, inverse in placing_pass(g, order, bud):
            y = [sum(map(operator.mul, row, ints)) for row in inverse]
            if 0 in y:
                break
            counts[sum(1 for v in y if v < 0)] += 1
            masks.append(sum(1 << i for i in cell))
        else:
            return AnchorPoint(tuple(q), index, tuple(counts), tuple(cells_from_masks(g, masks)))
    raise AnchorFailure("no general-position anchor within the retry schedule")


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
    """h* by alternating-sum inversion of the dilate counts N(0..|E|).

    Only |E| + 1 dilates are needed because deg h* = |E|;
    :func:`ehrhart_count_from_hstar` predicts any further dilate from the
    result.
    """
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
                (-1) ** j * math.comb(d + 1, j) * counts[k - j]
                for j in range(k + 1)
            )
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


def _hstar_block(g: Multigraph, block: BlockClass, budget: Budget | int | None) -> IntPolynomial:
    if block.tag == LOOP:
        return ONE_PLUS_Z
    if block.tag == SINGLE_EDGE:
        return ONE_PLUS_3Z
    if block.tag == BUNDLE:
        return hstar_closed_bundle(block.multiplicity)
    if block.tag == MULTICYCLE:
        return hstar_closed_multicycle(block.multiplicities)
    sub, _ = induced_by_edges(g, block.edge_ids)
    return hstar_visibility(sub, budget=budget)


def hstar_blocks(g: Multigraph, budget: Budget | int | None = None) -> IntPolynomial:
    """Product of block h*'s: h* is multiplicative over disjoint unions and
    over gluings at a single vertex, so the block decomposition computes it."""
    result = ONE
    for block in blocks(g):
        result = result * _hstar_block(g, block, budget)
    return result


# ---------------------------------------------------------------------------
# Dispatcher


def per_component(g: Multigraph, fn) -> IntPolynomial:
    """Apply a connected-graph h* method per component and multiply."""
    result = ONE
    for comp in connected_components(g):
        vertices = set(comp)
        edge_ids = [e.id for e in g.edges if e.u in vertices]
        sub, _ = induced_by_edges(g, edge_ids)
        result = result * fn(sub)
    return result


# Above this many lattice points ``auto`` refuses.  An ehrhart fallback for
# small dimensions would never run: dimension <= 8 allows at most 30 points.
VISIBILITY_POINT_CAP = 64


def resolve_method(g: Multigraph, method: str) -> str:
    """The route ``hstar`` runs for ``method``.

    ``auto`` picks the block closed forms when every block has one, then
    visibility under the lattice-point cap, and otherwise refuses with
    guidance.
    """
    if method in ("blocks", "visibility", "ehrhart"):
        return method
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if all(b.tag != OTHER for b in blocks(g)):
        return "blocks"
    if len(lattice_points(g)) <= VISIBILITY_POINT_CAP:
        return "visibility"
    raise NoMethodAvailable(
        "graph exceeds the visibility point cap; "
        "pass an explicit --method with a bigger --budget-nodes"
    )


def hstar(
    g: Multigraph,
    method: str = "auto",
    budget: Budget | int | None = None,
    order_seed: int | None = None,
) -> IntPolynomial:
    """h* by the route :func:`resolve_method` picks.

    Disconnected input is handled per component for the connected-only
    routes; visibility triangulates each component under
    ``default_good_order(component, seed=order_seed)``.
    """
    bud = as_budget(budget)
    route = resolve_method(g, method)
    if route == "blocks":
        return hstar_blocks(g, bud)
    if route == "visibility":
        return per_component(
            g,
            lambda sub: hstar_visibility(sub, default_good_order(sub, seed=order_seed), bud),
        )
    return per_component(g, lambda sub: hstar_ehrhart(sub, bud))


# ---------------------------------------------------------------------------
# Statistic polynomial


def statistic_polynomial(g: Multigraph, simplices: Sequence[Simplex]) -> IntPolynomial:
    """Sum over the given triangulation cells of z^(squiggly + double edges);
    conjectured equal to h*, and provably so on multitrees and multicycles."""
    counts: list[int] = []
    for s in simplices:
        sq, db = sq_db_counts(decorated_view(s, g))
        k = sq + db
        if k >= len(counts):
            counts.extend([0] * (k - len(counts) + 1))
        counts[k] += 1
    return IntPolynomial(counts)


# ---------------------------------------------------------------------------
# Theorem and conjecture checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ConjectureFinding:
    name: str
    status: str  # "HOLDS" or "VIOLATED"
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
) -> list[CheckResult]:
    """Assert the proven facts about h*: degree |E|, linear coefficient
    3|E| - 2#loops, the coefficientwise lower bound with its equality
    characterization, palindromicity exactly for all-loop graphs, and (budget
    permitting) codegree |V| via interior-point counts.

    Raises TheoremViolation on any failure; that means a bug, not new math.
    """
    results = []
    ne = len(g.edges)
    loops = g.loop_count

    results.append(
        CheckResult("degree", h.degree == ne, f"deg h* = {h.degree}, |E| = {ne}")
    )
    expected_h1 = 3 * ne - 2 * loops
    results.append(
        CheckResult(
            "linear-coefficient",
            h.coefficient(1) == expected_h1,
            f"h*_1 = {h.coefficient(1)}, 3|E| - 2#loops = {expected_h1}",
        )
    )
    lb = lower_bound_polynomial(g)
    loose = all(b.tag in (LOOP, SINGLE_EDGE) for b in blocks(g))
    results.append(CheckResult("lower-bound", lb.leq(h), f"{lb} vs {h}"))
    results.append(
        CheckResult(
            "lower-bound-equality",
            (lb == h) == loose,
            f"equality {lb == h}, all blocks loops/bridges {loose}",
        )
    )
    all_loops = loops == ne
    results.append(
        CheckResult(
            "palindromic-iff-all-loops",
            h.is_palindromic() == all_loops,
            f"palindromic {h.is_palindromic()}, all loops {all_loops}",
        )
    )
    if codegree_budget is not None and is_connected(g):
        bud = as_budget(codegree_budget)
        nv = g.vertex_count
        ok = count_interior_points(g, nv, bud) > 0 and all(
            count_interior_points(g, t, bud) == 0 for t in range(1, nv)
        )
        results.append(CheckResult("codegree", ok, f"codegree equals |V| = {nv}"))
    failures = [r for r in results if not r.ok]
    if failures:
        raise TheoremViolation("; ".join(f"{r.name}: {r.detail}" for r in failures))
    return results


def check_upper_bound_conjecture(g: Multigraph, h: IntPolynomial) -> ConjectureFinding:
    """Conjectured coefficientwise bound h* <= (1+3z)^|E|; a violation is a
    finding to report, never an error."""
    bound = ONE_PLUS_3Z ** len(g.edges)
    if h.leq(bound):
        return ConjectureFinding("upper-bound", "HOLDS", f"{h} <= {bound}")
    return ConjectureFinding("upper-bound", "VIOLATED", f"{h} exceeds {bound}")


def check_statistic_conjecture(
    g: Multigraph, h: IntPolynomial, simplices: Sequence[Simplex]
) -> ConjectureFinding:
    stat = statistic_polynomial(g, simplices)
    if stat == h:
        return ConjectureFinding("statistic", "HOLDS", f"statistic {stat} equals h*")
    return ConjectureFinding("statistic", "VIOLATED", f"statistic {stat} differs from h* {h}")
