import random
from collections import Counter

import pytest
from hypothesis import given, settings

from cosmopoly.errors import (
    BadTermOrder,
    Budget,
    BudgetExceeded,
    DisconnectedGraph,
    StructureViolation,
    TheoremViolation,
    WrongCardinality,
)
from cosmopoly.grobner import TermOrder, default_good_order, is_good_order, obstruction_set
from cosmopoly import triangulation
from cosmopoly.hstar import build_anchor
from cosmopoly.multigraph import (
    Multigraph,
    bundle,
    disjoint_union,
    is_connected,
    loop_graph,
    multicycle,
    one_sum,
    path_graph,
    single_edge,
    theta_graph,
    triangle,
)
from cosmopoly.polytope import (
    TPOINT,
    YBACKWARD,
    YFORWARD,
    ZEDGE,
    ZVERTEX,
    lattice_points,
)
from cosmopoly.sweep import enumerate_connected_multigraphs
from cosmopoly.triangulation import (
    Packing,
    WidthOverflow,
    base_anchor,
    build_triangulation,
    cells_from_masks,
    decorated_view,
    normalized_volume,
    placing_pass,
)

from oracles import (
    ObstructionViolation,
    anchor_free,
    brute_cells,
    enumerate_triangulation,
    matrix_rank,
    pass_cells,
    point_by_name,
    scan_beyond,
    scan_placing_pass,
    small_multigraphs,
    sq_db_counts,
    tuple_placing_pass,
    unpacked_placing_pass,
    validate_multicycle_structure,
)


def name_sets(simplices):
    return {frozenset(p.name for p in s) for s in simplices}


def test_single_edge_triangulation_exact():
    assert name_sets(build_triangulation(single_edge())) == {
        frozenset({"t0", "zv0", "zv1"}),
        frozenset({"yf0", "zv0", "ze0"}),
        frozenset({"yb0", "zv1", "ze0"}),
        frozenset({"zv0", "zv1", "ze0"}),
    }


def test_loop_triangulation_exact():
    assert name_sets(build_triangulation(loop_graph(1))) == {
        frozenset({"zv0", "ze0"}),
        frozenset({"zv0", "t0"}),
    }


def test_triangle_cell_count_is_volume():
    assert len(build_triangulation(triangle())) == 4**3 - 2**3


def test_bundle2_cell_count():
    assert len(build_triangulation(bundle(2))) == 12


@pytest.mark.parametrize(
    "g",
    [single_edge(), loop_graph(1), path_graph(2), bundle(2), bundle(3), triangle(),
     multicycle((2, 1, 1))],
)
def test_cells_unimodular_distinct_and_cover(g):
    simplices = build_triangulation(g)
    assert len(set(simplices)) == len(simplices)
    assert all(normalized_volume(s) == 1 for s in simplices)
    used = {p for s in simplices for p in s}
    assert used == set(lattice_points(g))


def test_normalized_volume_values():
    g = single_edge()
    pts = lambda *ns: [point_by_name(g, n) for n in ns]
    assert normalized_volume(pts("zv0", "zv1", "ze0")) == 1
    assert normalized_volume(pts("yf0", "yb0", "ze0")) == 0  # yf + yb = 2 ze
    with pytest.raises(WrongCardinality):
        normalized_volume(pts("zv0", "zv1"))


def test_enumeration_rejects_disconnected():
    g = disjoint_union(single_edge(), single_edge())
    with pytest.raises(DisconnectedGraph):
        enumerate_triangulation(g, [])


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        build_triangulation(triangle(), budget=5)


def test_missing_obstructions_flagged_as_wrong_cardinality():
    # with no obstructions every point set extends to all points, so size
    # |V|+|E| sets cannot be maximal
    with pytest.raises(ObstructionViolation):
        enumerate_triangulation(single_edge(), [])


def test_enumeration_matches_brute_cells():
    # the full obstruction set, and each single obstruction dropped: the
    # search returns exactly the brute-force cells, or raises exactly when a
    # larger obstruction-free set exists
    cases = raised = 0
    for g in enumerate_connected_multigraphs(5):
        obs = obstruction_set(g, default_good_order(g))
        for drop in [None, *range(len(obs))]:
            kept = [o for i, o in enumerate(obs) if i != drop]
            cells, larger = brute_cells(g, kept)
            cases += 1
            if larger:
                raised += 1
                with pytest.raises(ObstructionViolation):
                    enumerate_triangulation(g, kept)
            else:
                found = enumerate_triangulation(g, kept)
                assert len(found) == len(cells)
                assert {frozenset(s) for s in found} == cells
    assert cases == 127 and 0 < raised < cases


def oracle_cells(g, order):
    return enumerate_triangulation(g, obstruction_set(g, order))


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_placing_matches_oracle_on_sweep(seed):
    # the same cells in the same order as the obstruction-avoiding search
    graphs = list(enumerate_connected_multigraphs(7))
    for g in graphs:
        order = default_good_order(g, seed=seed)
        assert build_triangulation(g, order) == oracle_cells(g, order)
    assert len(graphs) == 46


# Random keys per class, sorted ascending: every y ranks above every z and
# every t above every vertex z, the class ranking under which an order is
# good.  The overlapping spans mix the other classes, so that the first
# points placed can be dependent.
KEY_SPANS = {YFORWARD: (0, 1), YBACKWARD: (0, 1), TPOINT: (0, 2), ZEDGE: (1, 3), ZVERTEX: (2, 3)}


def class_ranked_order(g, rng):
    key = {}
    for p in lattice_points(g):
        lo, hi = KEY_SPANS[p.kind]
        key[p] = lo + (hi - lo) * rng.random()
    return TermOrder(sorted(key, key=key.get))


def dependent_start(g, order):
    m = g.vertex_count + len(g.edges)
    return matrix_rank([p.coords for p in reversed(order.ranked[-m:])]) < m


def random_good_orders():
    """A good order of path(2) whose first points placed are dependent, then
    four class-ranked random good orders per graph of the |V|+|E| <= 6 sweep."""
    g = path_graph(2)
    names = "yf0 yf1 yb1 yb0 ze1 t1 t0 ze0 zv2 zv1 zv0".split()
    yield g, TermOrder([point_by_name(g, n) for n in names])
    rng = random.Random(5)
    for g in enumerate_connected_multigraphs(6):
        for _ in range(4):
            yield g, class_ranked_order(g, rng)


def test_placing_matches_oracle_on_random_good_orders():
    (g, order), *rest = random_good_orders()
    assert dependent_start(g, order)
    assert build_triangulation(g, order) == oracle_cells(g, order)
    assert len(build_triangulation(g, order)) == 16
    cases = dependent = 0
    for g, order in rest:
        assert is_good_order(order, g)
        assert build_triangulation(g, order) == oracle_cells(g, order)
        cases += 1
        dependent += dependent_start(g, order)
    assert cases == 92 and 0 < dependent < cases


def test_cells_from_masks_sorts_as_the_decoded_indices():
    # the cells of the obstruction-avoiding search are sorted by their decoded
    # point indices too (test_placing_matches_oracle_on_sweep); here masks
    # arrive shuffled and are decoded by testing every index
    rng = random.Random(2)
    for g in enumerate_connected_multigraphs(7):
        points = lattice_points(g)
        masks = [mask for _, mask, _ in pass_cells(g)]
        rng.shuffle(masks)
        by_index = sorted(tuple(i for i in range(len(points)) if c >> i & 1) for c in masks)
        assert cells_from_masks(g, masks) == [tuple(points[i] for i in c) for c in by_index]


def assert_matches_scan(g, order):
    # the same (cell, inverse) sequence as the pass that scans the boundary,
    # for fewer nodes: the boundary scans are no longer charged
    bud, scanned = Budget(None), Budget(None)
    assert anchor_free(unpacked_placing_pass(g, order, bud)) == list(
        scan_placing_pass(g, order, scanned)
    )
    assert bud.used <= scanned.used


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_placing_pass_matches_scan_oracle_on_sweep(seed):
    for g in enumerate_connected_multigraphs(7):
        assert_matches_scan(g, default_good_order(g, seed=seed))


def test_placing_pass_matches_scan_oracle_on_random_good_orders():
    for g, order in random_good_orders():
        assert_matches_scan(g, order)


K4 = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
LOOPED = [loop_graph(3), one_sum(bundle(2), loop_graph(2)), one_sum(triangle(), loop_graph(2))]


def assert_matches_tuple_oracle(g, order, anchors=None):
    # the packed kernel decodes to the tuple-row pass, anchor column and all,
    # and charges exactly its nodes; less the anchor column, it is the tuple
    # pass that carries no anchor
    plain = list(tuple_placing_pass(g, order))
    for anchor in anchors or (base_anchor(g),):
        packed, tupled = Budget(None), Budget(None)
        unpacked = unpacked_placing_pass(g, order, packed, anchor)
        assert unpacked == list(tuple_placing_pass(g, order, tupled, anchor))
        assert packed.used == tupled.used > 0
        assert anchor_free(unpacked) == plain


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_placing_pass_matches_tuple_oracle_on_sweep(seed):
    for g in enumerate_connected_multigraphs(7):
        assert_matches_tuple_oracle(g, default_good_order(g, seed=seed))


def test_placing_pass_matches_tuple_oracle_on_random_good_orders():
    for g, order in random_good_orders():
        assert_matches_tuple_oracle(g, order)


def test_placing_pass_takes_its_packing(monkeypatch):
    g = theta_graph(1, 1, 2)
    by_default, by_packing = Budget(None), Budget(None)
    assert list(pass_cells(g, None, by_packing, Packing.of(g))) == list(
        pass_cells(g, None, by_default)
    )
    assert by_packing.used == by_default.used
    assert Packing.of(g).anchor == tuple(base_anchor(g))
    # build_anchor and build_triangulation each lay out one packing, for the
    # pass and its reads
    built, of = [], Packing.of.__func__

    def counted(cls, g, proven=False):
        built.append(proven)
        return of(cls, g, proven)

    monkeypatch.setattr(Packing, "of", classmethod(counted))
    assert build_anchor(g).perturbation_index == 0
    assert built == [False]  # narrow, and no fallback
    build_triangulation(g)
    assert built == [False, False]


@pytest.mark.parametrize(
    "g", LOOPED + [theta_graph(2, 2, 2), K4],
    ids=["three-loops", "bundle-two-loops", "triangle-two-loops", "theta222", "K4"],
)
def test_placing_pass_matches_tuple_oracle(g):
    assert_matches_tuple_oracle(g, default_good_order(g))


PLACED = [*enumerate_connected_multigraphs(7), *LOOPED, theta_graph(2, 2, 2), K4]


def points_after_first_cell(g, first, order=None):
    """The points not in the first cell, in placing order under ``order``,
    the default order when None: the points the pass places one step each."""
    points, order = lattice_points(g), order or default_good_order(g)
    placing = sorted(range(len(points)), key=lambda i: order.rank(points[i]), reverse=True)
    return [i for i in placing if i not in first]


def test_placing_pass_yields_one_batch_per_step():
    # one batch holding the first cell, then one per point placed after it,
    # holding the cells coned from that point
    for g in PLACED:
        (first, *later) = placing_pass(g)
        ((bits, mask, _),) = first
        rest = points_after_first_cell(g, [b.bit_length() - 1 for b in bits])
        assert len(later) == len(lattice_points(g)) - len(bits) == len(rest)
        assert mask == sum(bits)
        for p, batch in zip(rest, later):
            for bits, mask, _ in batch:
                assert 1 << p in bits and mask == sum(bits)


@pytest.mark.parametrize("seed", [None, 1, 7])
def test_a_new_facet_is_shared_iff_a_placed_point_lies_beyond(seed):
    # the rule the pass decides each new facet by, on tuple rows: a facet of
    # a cell made at a step is shared with another cell made so far iff a
    # point of the first cell, or one placed at a step up to this one, lies
    # strictly beyond its row; the facets so shared are those two cells of
    # the step share and those that omit the point just placed
    shared = outer = 0
    for g in PLACED:
        order = default_good_order(g, seed=seed)
        coords = [p.coords for p in lattice_points(g)]
        cells = list(tuple_placing_pass(g, order))
        first = list(cells[0][0])
        placing = first + points_after_first_cell(g, first, order)
        position = {i: k for k, i in enumerate(placing)}
        m = len(first)
        steps: list[list] = [[] for _ in range(len(placing) - m + 1)]
        for cell, inv in cells:
            # a cell made at step s > 0 holds rest[s - 1] and points placed before it
            steps[max(0, max(map(position.get, cell)) - m + 1)].append((cell, inv))
        first_beyond: dict = {}  # a row -> the position of the first point beyond it
        made: Counter = Counter()
        for step, batch in enumerate(steps):
            facets = [(frozenset(cell) - {cell[x]}, cell[x], inv[x])
                      for cell, inv in batch for x in range(m)]
            new = Counter(facet for facet, _, _ in facets)
            made.update(new)
            newest = placing[m + step - 1] if step else None
            for facet, omitted, row in facets:
                if row not in first_beyond:
                    first_beyond[row] = next(
                        (k for k, i in enumerate(placing)
                         if sum(a * c for a, c in zip(row, coords[i])) < 0),
                        len(placing),
                    )
                beyond = first_beyond[row] < m + step
                assert (made[facet] == 2) == beyond == (new[facet] == 2 or omitted == newest)
                shared += beyond
                outer += not beyond
    assert shared > 0 and outer > 0


@pytest.mark.parametrize("proven", [False, True], ids=["narrow", "proven"])
def test_one_product_finds_the_points_beyond_each_functional(proven):
    # every facet functional the pass meets is a row of a cell's inverse; one
    # product of its field with every point in placing order, the first
    # cell's then the rest, laid side by side, holds in each block the row
    # times one point, offset in every digit as if multiplied alone, and
    # marks in its sign bits the points that the per-point scan finds beyond
    # it; the block of the lowest sign bit set is the first of them, the
    # position the pass caches for the functional
    met = beyond = 0
    for g in PLACED:
        pk = Packing.of(g, proven)
        cells = list(pass_cells(g, None, None, pk))
        first = list(cells[0][0])
        placing = first + points_after_first_cell(g, first)
        together, offsets, signs = pk.side_by_side(placing)
        sign, block_mask = pk.width * pk.m - 1, (1 << pk.block) - 1
        alone = pk.half * sum(1 << pk.width * d for d in range(2 * pk.m - 1))
        rows = {inv >> pk.slot * x & pk.row_mask for _, _, inv in cells for x in range(pk.m)}
        for row in rows:
            product = row * together + offsets
            for k, i in enumerate(placing):
                block = product >> pk.block * k & block_mask
                assert block == (row - pk.row_offset) * pk.points[i] + alone
            spread = ~product & signs
            read = sum(1 << k for k in range(len(placing)) if spread >> pk.block * k + sign & 1)
            scanned = scan_beyond(pk, row, placing)
            assert read == scanned
            if scanned:
                lowest = (spread & -spread).bit_length() // pk.block
                assert lowest == (scanned & -scanned).bit_length() - 1
            beyond += read > 0
        met += len(rows)
    assert 0 < beyond < met


@pytest.mark.parametrize(
    "g, width", [(theta_graph(2, 2, 2), 11), (K4, 10), (theta_graph(2, 3, 3), 14)],
    ids=["theta222", "K4", "theta233"],
)
def test_packing_width_is_the_proven_one(g, width):
    # the proven layout: the narrowest width whose offset digits hold every
    # digit bound D
    proven = Packing.of(g, proven=True)
    assert proven.width == width
    assert 2 ** (width - 2) <= proven.digit_bound < 2 ** (width - 1)
    # the narrow one holds one pivot from entries in [-4, 3], B(1 + 3B) = 52
    # for B = 4 and points of 1-norm at most 3, and the window test's add
    narrow = Packing.of(g)
    assert narrow.width == 7 and narrow.entry_bound == 52
    assert 2**5 <= narrow.digit_bound < 2**6


def test_packed_entries_and_dots_within_proven_bounds():
    # every inverse entry is at most E (Hadamard) and in the window, and
    # every row times a lattice point at most D, on the sweep and on graphs
    # with loops
    largest = [0, 0]
    for g in [*enumerate_connected_multigraphs(7), *LOOPED]:
        coords = [p.coords for p in lattice_points(g)]
        proven = Packing.of(g, proven=True)
        for _, inverse in anchor_free(unpacked_placing_pass(g)):
            entries = max(abs(a) for row in inverse for a in row)
            dots = max(abs(sum(a * c for a, c in zip(row, p))) for row in inverse for p in coords)
            assert entries <= proven.entry_bound and dots <= proven.digit_bound
            assert all(-4 <= a <= 3 for row in inverse for a in row)
            largest = [max(largest[0], entries), max(largest[1], dots)]
    assert largest == [2, 2]  # the proven bounds are far from tight here


@pytest.mark.parametrize("window", [(-1, 0), (-2, 1)], ids=["first-cell", "mid-pass"])
def test_window_fallback_places_as_the_proven_width(monkeypatch, window):
    # theta(2,2,2)'s first cell has an entry 1, and the step that makes its
    # 193rd cell an entry 2: either window sends the pass back to Hadamard's
    # width, where the same cells, counts and inverses come out, and the
    # budget pays both runs
    g, order = theta_graph(2, 2, 2), default_good_order(theta_graph(2, 2, 2))
    anchor = base_anchor(g)
    proven, pure = Packing.of(g, proven=True), Budget(None)
    reference = list(pass_cells(g, order, pure, proven))
    counts = [0] * len(anchor)
    for _, _, inverse in reference:
        counts[proven.negatives(inverse)] += 1
    monkeypatch.setattr(triangulation, "WINDOW", window)
    partial, yielded = Budget(None), 0
    with pytest.raises(WidthOverflow):
        for _ in pass_cells(g, order, partial, Packing.of(g)):
            yielded += 1
    assert yielded == {(-1, 0): 0, (-2, 1): 144}[window]
    assert (partial.used > 0) == (yielded > 0)
    bud = Budget(None)
    point = build_anchor(g, order, bud)
    assert point.visible_counts == tuple(counts)
    assert point.masks == tuple(mask for _, mask, _ in reference)
    assert bud.used == partial.used + pure.used
    rows = [(cell, proven.rows(inverse)) for cell, _, inverse in reference]
    assert unpacked_placing_pass(g, order) == rows
    assert rows == list(tuple_placing_pass(g, order, None, anchor))
    spent = Budget(None)
    assert build_triangulation(g, order, spent) == cells_from_masks(g, point.masks)
    assert spent.used == bud.used


@pytest.mark.parametrize(
    "g", LOOPED + [theta_graph(2, 2, 2), K4, theta_graph(2, 3, 3)],
    ids=["three-loops", "bundle-two-loops", "triangle-two-loops", "theta222", "K4", "theta233"],
)
def test_narrow_width_places_without_fallback(g):
    # the graphs the commands and the benchmark place stay inside the
    # window; one that leaves it would place twice, at Hadamard's width
    for _ in pass_cells(g, None, None, Packing.of(g)):
        pass


def test_narrow_width_places_the_sweep_without_fallback():
    for g in enumerate_connected_multigraphs(7):
        for _ in pass_cells(g, None, None, Packing.of(g)):
            pass


def test_anchor_slots_widen_for_a_large_anchor():
    g = triangle()
    anchor = [3**40, -(2**90), 5, 7, 0, -1]
    coords = [p.coords for p in lattice_points(g)]
    assert Packing(coords, [0] * 6).digits > 2 * 6 - 1
    assert Packing.of(g).digits < Packing(coords, anchor).digits
    assert_matches_tuple_oracle(g, default_good_order(g), [anchor])


def test_placing_anchor_column_is_rows_times_anchor():
    rng = random.Random(11)
    cases = [(g, default_good_order(g)) for g in enumerate_connected_multigraphs(6)]
    for g, order in cases + [next(random_good_orders())]:
        m = g.vertex_count + len(g.edges)
        ints = [rng.randint(-9, 9) for _ in range(m)]
        plain = list(tuple_placing_pass(g, order))
        carried = unpacked_placing_pass(g, order, anchor=ints)
        assert [cell for cell, _ in carried] == [cell for cell, _ in plain]
        for (_, inverse), (_, with_column) in zip(plain, carried):
            assert tuple(row[:m] for row in with_column) == inverse
            assert [row[m] for row in with_column] == [
                sum(a * b for a, b in zip(row[:m], ints)) for row in with_column
            ]


def test_placing_rejects_bad_order_and_non_unimodular_pivot():
    g = single_edge()
    with pytest.raises(BadTermOrder):
        build_triangulation(g, TermOrder(list(reversed(default_good_order(g).ranked))))
    # the identity cell of the unit vectors, pivoted on the points (-1, 1)
    # and (2, 1) in slot 0, with the anchor (3, 5)
    anchored = Packing([(1, 0), (0, 1), (-1, 1), (2, 1)], (3, 5))
    identity = anchored.pack(((1, 0, 3), (0, 1, 5)))
    with pytest.raises(TheoremViolation):
        anchored.pivot(identity, 3, 0)
    # the anchor entries are the rows times the anchor
    inverse = anchored.pivot(identity, 2, 0)
    assert anchored.rows(inverse) == ((-1, 0, -3), (1, 1, 8))
    assert anchored.negatives(inverse) == 1
    with pytest.raises(TheoremViolation):
        anchored.pivot(inverse, 3, 1)
    assert anchored.negatives(anchored.pack(((1, 0, 0), (0, 1, 8)))) == 0  # a tie, broken
    assert anchored.negatives(anchored.pack(((1, 0, -1), (0, 1, -8)))) == 2


def test_negatives_breaks_ties_lexicographically():
    # a 0 anchor entry counts as visible iff its row's first nonzero entry is
    # negative: the sign at the anchor moved by eps e_1 + eps^2 e_2
    anchored = Packing([(1, 0), (0, 1), (-1, 1), (2, 1)], (3, 5))
    for rows, seen in [
        (((-1, 1, 0), (0, 1, 8)), 1),
        (((1, -1, 0), (0, 1, 8)), 0),
        (((0, -1, 0), (1, 0, -2)), 2),
        (((0, 1, 0), (-1, 0, 0)), 1),
    ]:
        assert anchored.negatives(anchored.pack(rows)) == seen


def test_decorated_views_single_edge():
    g = single_edge()
    pts = lambda *ns: tuple(point_by_name(g, n) for n in ns)
    squiggle = decorated_view(pts("t0", "zv0", "zv1"), g)
    assert squiggle.white_vertices == {0, 1}
    assert squiggle.edge_roles == (frozenset({"squiggly"}),)
    double = decorated_view(pts("yf0", "zv0", "ze0"), g)
    assert double.white_vertices == {0}
    assert double.edge_roles == (frozenset({"plain", "forward"}),)
    plain = decorated_view(pts("zv0", "zv1", "ze0"), g)
    assert plain.edge_roles == (frozenset({"plain"}),)


def test_sq_db_counts():
    g = single_edge()
    pts = lambda *ns: tuple(point_by_name(g, n) for n in ns)
    assert sq_db_counts(decorated_view(pts("t0", "zv0", "zv1"), g)) == (1, 0)
    assert sq_db_counts(decorated_view(pts("yf0", "zv0", "ze0"), g)) == (0, 1)
    assert sq_db_counts(decorated_view(pts("zv0", "zv1", "ze0"), g)) == (0, 0)


def test_decorated_view_raises_off_multicycle():
    g = path_graph(2)
    pts = tuple(point_by_name(g, n) for n in ("zv0", "zv1", "zv2", "t0"))  # edge 1 bare
    with pytest.raises(StructureViolation, match="^edge 1 carries 0 strokes$"):
        decorated_view(pts, g)


def test_decorated_view_raises_on_multicycle():
    g = triangle()
    pts = tuple(
        point_by_name(g, n) for n in ("zv0", "zv1", "zv2", "t0", "yf1", "yb1")
    )  # edge 1 carries two directed strokes, edge 2 none
    with pytest.raises(StructureViolation):
        decorated_view(pts, g)


@pytest.mark.parametrize("a", [(1, 1, 1), (2, 1, 1)])
def test_multicycle_structure_validates(a):
    g = multicycle(a)
    simplices = build_triangulation(g)
    report = validate_multicycle_structure(g, simplices)
    assert report.simplex_count == len(simplices)
    assert sum(report.arc_pattern_counts) > 0


def test_multicycle_structure_rejects_mutant():
    g = multicycle((2, 1, 1))
    # two double edges inside the first multi-edge
    mutant = tuple(
        point_by_name(g, n)
        for n in ("zv0", "ze0", "yf0", "ze1", "yf1", "ze2", "ze3")
    )
    with pytest.raises(StructureViolation):
        validate_multicycle_structure(g, [mutant])


@pytest.mark.parametrize(
    "names, message",
    [
        (("zv0", "ze0", "ze1", "ze2", "t2", "yf2", "ze3"), "edge 2 carries 3 strokes"),
        (("zv0", "zv1", "ze0", "ze1", "ze3"), "edge 2 carries 0 strokes"),
    ],
    ids=["three-strokes", "no-stroke"],
)
def test_multicycle_structure_reports_strokes_through_decorated_view(names, message):
    g = multicycle((2, 1, 1))
    cell = tuple(point_by_name(g, n) for n in names)
    with pytest.raises(StructureViolation, match=message):
        validate_multicycle_structure(g, [cell])


def test_multicycle_structure_requires_canonical_layout():
    with pytest.raises(ValueError):
        validate_multicycle_structure(bundle(2), [])


@given(small_multigraphs(max_vertices=3, max_edges=3))
@settings(max_examples=25, deadline=None)
def test_triangulation_cells_unimodular_property(g):
    if not is_connected(g):
        return
    simplices = build_triangulation(g)
    assert all(normalized_volume(s) == 1 for s in simplices)
    target = g.vertex_count + len(g.edges)
    assert all(len(s) == target for s in simplices)
