import json
import random
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings

from cosmopoly.errors import Budget, BudgetExceeded, GraphError
from cosmopoly.multigraph import (
    BUNDLE,
    LOOP,
    MULTICYCLE,
    SINGLE_EDGE,
    Edge,
    Multigraph,
    blocks,
    bundle,
    connected_components,
    connected_subgraphs,
    cycle_graph,
    disjoint_union,
    is_connected,
    loop_graph,
    multicycle,
    multitree,
    one_sum,
    path_graph,
    simple_cycles,
    simple_paths,
    single_edge,
    star_graph,
    theta_graph,
    triangle,
)

import cosmopoly.sweep as sweep_module
from cosmopoly.sweep import canonical_form, enumerate_connected_multigraphs

from oracles import (
    bridges,
    brute_block_partition,
    brute_connected_subgraphs,
    brute_cycle_edge_sets,
    brute_directed_paths,
    dfs_connected_components,
    labelling_canonical_form,
    multicycle_layout,
    relabeled,
    small_multigraphs,
)

CORPUS = [
    single_edge(),
    loop_graph(1),
    loop_graph(2),
    path_graph(2),
    path_graph(3),
    star_graph(3),
    bundle(2),
    bundle(3),
    triangle(),
    multicycle((2, 1, 1)),
    multitree((2, 3)),
    theta_graph(1, 1, 2),
    one_sum(triangle(), triangle()),
    Multigraph.from_pairs(3, [(0, 0), (0, 1), (1, 2), (2, 0)]),
]


def test_construction_rejects_bad_input():
    with pytest.raises(GraphError):
        Multigraph.from_pairs(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(GraphError):
        Multigraph.from_pairs(2, [(0, 2)])
    with pytest.raises(GraphError):
        Multigraph.from_pairs(0, [])


@pytest.mark.parametrize(
    "build, message",
    [(lambda: path_graph(0), "path needs at least one edge"),
     (lambda: star_graph(0), "star needs at least one edge"),
     (lambda: loop_graph(0), "loop graph needs at least one loop"),
     (lambda: bundle(0), "bundle needs at least one edge"),
     (lambda: multicycle((1, 1)), "multicycle needs >= 3 multiplicities, all >= 1"),
     (lambda: multitree(()), "multitree needs multiplicities >= 1"),
     (lambda: theta_graph(0, 1, 1), "theta path lengths must be >= 1"),
     (lambda: one_sum(triangle(), single_edge(), v=99), "one_sum vertices out of range"),
     (lambda: Multigraph(2, (Edge(1, 0, 1),)), "edge ids must be 0..0 in list order")],
    ids=["path", "star", "loops", "bundle", "multicycle", "multitree", "theta", "one-sum",
         "edge-ids"],
)
def test_builders_refuse_bad_arguments(build, message):
    with pytest.raises(GraphError) as err:
        build()
    assert str(err.value) == message


def test_connected_components():
    assert connected_components(disjoint_union(single_edge(), single_edge())) == [
        (0, 1),
        (2, 3),
    ]
    assert connected_components(triangle()) == [(0, 1, 2)]
    assert connected_components(disjoint_union(triangle(), loop_graph(1))) == [
        (0, 1, 2),
        (3,),
    ]


def every_labelled_multigraph(max_size):
    """Every multigraph with |V| + |E| <= max_size and its edges in sorted
    order, connected or not."""
    for nv in range(1, max_size):
        pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
        for ne in range(1, max_size - nv + 1):
            for combo in combinations_with_replacement(pairs, ne):
                try:
                    yield Multigraph.from_pairs(nv, combo)
                except GraphError:
                    pass  # an isolated vertex


def component_cases():
    """The corpus, every multigraph of size <= 6, and disjoint unions of
    corpus graphs, which carry loops and parallel edges."""
    yield from CORPUS
    yield from every_labelled_multigraph(6)
    looped_triangle = Multigraph.from_pairs(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
    for g in CORPUS:
        for h in (loop_graph(2), triangle(), looped_triangle):
            yield disjoint_union(g, h)
            yield disjoint_union(h, disjoint_union(g, loop_graph(1)))


def test_connected_components_match_dfs_oracle():
    # each case also with its vertices and edges shuffled, so that an edge
    # can come before the edge that reaches it
    rng = random.Random(7)
    disconnected = 0
    for case in component_cases():
        for g in (case, relabeled(case, rng)):
            want = dfs_connected_components(g)
            assert connected_components(g) == want
            assert is_connected(g) == (len(want) == 1)
            disconnected += len(want) > 1
    assert disconnected  # the cases reach past one component


def test_blocks_two_triangles_sharing_vertex():
    found = blocks(one_sum(triangle(), triangle()))
    assert len(found) == 2
    assert all(b.tag == MULTICYCLE and b.multiplicities == (1, 1, 1) for b in found)
    shared = set(found[0].vertices) & set(found[1].vertices)
    assert len(shared) == 1  # the cut vertex sits in both blocks


def test_blocks_bundle_plus_pendant():
    g = Multigraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
    tags = [(b.tag, b.multiplicity) for b in blocks(g)]
    assert tags == [(BUNDLE, 2), (SINGLE_EDGE, None)]
    assert brute_block_partition(g) == {frozenset(b.edge_ids) for b in blocks(g)}


def test_blocks_loop_on_triangle():
    g = Multigraph.from_pairs(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
    tags = [b.tag for b in blocks(g)]
    assert tags == [LOOP, MULTICYCLE]
    assert brute_block_partition(g) == {frozenset(b.edge_ids) for b in blocks(g)}


@pytest.mark.parametrize("g", CORPUS)
def test_blocks_match_oracle_and_partition_edges(g):
    found = blocks(g)
    assert brute_block_partition(g) == {frozenset(b.edge_ids) for b in found}
    covered = sorted(i for b in found for i in b.edge_ids)
    assert covered == list(range(len(g.edges)))


@given(small_multigraphs())
@settings(max_examples=60, deadline=None)
def test_blocks_oracle_property(g):
    assert brute_block_partition(g) == {frozenset(b.edge_ids) for b in blocks(g)}


def test_connected_subgraphs_single_edge():
    got = list(connected_subgraphs(single_edge()))
    assert sorted(got) == [((0,), ()), ((0, 1), (0,)), ((1,), ())]


def test_connected_subgraphs_loop():
    got = sorted(connected_subgraphs(loop_graph(1)))
    assert got == [((0,), ()), ((0,), (0,))]


def test_connected_subgraphs_triangle_count():
    assert len(list(connected_subgraphs(triangle()))) == 10


@pytest.mark.parametrize("g", [g for g in CORPUS if len(connected_components(g)) == 1])
def test_connected_subgraphs_match_oracle(g):
    bud = Budget(None)
    got = {(frozenset(v), frozenset(e)) for v, e in connected_subgraphs(g, bud)}
    want = brute_connected_subgraphs(g)
    assert got == want
    # one node per edge subset of each vertex set that g connects, and none
    # for the vertex sets it does not
    joined = {v for v, _ in want}
    assert bud.used == sum(2 ** sum(e.u in v and e.v in v for e in g.edges) for v in joined)


def test_connected_subgraphs_budget():
    with pytest.raises(BudgetExceeded):
        list(connected_subgraphs(triangle(), budget=4))


def test_simple_paths_examples():
    assert list(simple_paths(single_edge())) == []
    two = list(simple_paths(path_graph(2)))
    assert len(two) == 2
    assert {p.vertices for p in two} == {(0, 1, 2), (2, 1, 0)}
    assert len(list(simple_paths(triangle()))) == 6


@pytest.mark.parametrize("g", CORPUS)
def test_simple_paths_match_oracle(g):
    got = {(p.vertices, p.edges) for p in simple_paths(g)}
    assert got == brute_directed_paths(g)


def test_simple_cycles_examples():
    assert len(list(simple_cycles(triangle()))) == 1
    assert len(list(simple_cycles(bundle(2)))) == 1
    assert len(list(simple_cycles(bundle(3)))) == 3
    assert list(simple_cycles(loop_graph(2))) == []


@pytest.mark.parametrize("g", CORPUS)
def test_simple_cycles_match_oracle(g):
    got = [frozenset(c.edges) for c in simple_cycles(g)]
    assert len(got) == len(set(got))  # emitted once each
    assert set(got) == brute_cycle_edge_sets(g)


@pytest.mark.parametrize("g", CORPUS)
def test_cycles_and_bridges_cover_non_loop_edges(g):
    on_cycles = {i for c in simple_cycles(g) for i in c.edges}
    covered = on_cycles | set(bridges(g))
    assert covered == {e.id for e in g.edges if not e.is_loop}


def test_forest_of_loops_and_bridges_has_no_cycles():
    g = Multigraph.from_pairs(3, [(0, 0), (0, 1), (1, 2)])
    assert all(b.tag in (LOOP, SINGLE_EDGE) for b in blocks(g))
    assert list(simple_cycles(g)) == []


def test_multicycle_layout_detection():
    assert multicycle_layout(multicycle((2, 1, 1))) == (2, 1, 1)
    assert multicycle_layout(triangle()) == (1, 1, 1)
    assert multicycle_layout(bundle(2)) is None
    scrambled = Multigraph.from_pairs(3, [(1, 0), (1, 2), (2, 0)])
    assert multicycle_layout(scrambled) is None


def test_theta_graph_shapes():
    assert theta_graph(1, 1, 1).edge_pairs() == ((0, 1), (0, 1), (0, 1))
    t112 = theta_graph(1, 1, 2)
    assert t112.vertex_count == 3
    assert sorted(e.key() for e in t112.edges) == [(0, 1), (0, 1), (0, 2), (1, 2)]
    k23 = theta_graph(2, 2, 2)
    assert k23.vertex_count == 5 and len(k23.edges) == 6


def test_one_sum_vertex_count():
    g = one_sum(triangle(), triangle())
    assert g.vertex_count == 5 and len(g.edges) == 6


def relabellings(g, rng, count):
    """``count`` copies of ``g`` under random vertex permutations."""
    for _ in range(count):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        yield Multigraph.from_pairs(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edge_pairs()])


def assert_form_keeps_invariants(g, form):
    """The form is a labelled copy of ``g``: same |V|, |E| and degrees."""
    n, pairs = form
    degrees = [0] * n
    for u, v in pairs:
        degrees[u] += 1
        degrees[v] += 1
    assert n == g.vertex_count and len(pairs) == len(g.edges)
    assert sorted(degrees) == sorted(g.degree(v) for v in range(n))


# A path 0-1-...-8 with its first edge doubled and a loop at 3.  Its two ends
# differ, so colour refinement separates every vertex.
ASYMMETRIC_NINE = Multigraph.from_pairs(
    9, [(0, 1), (0, 1), (3, 3), *((i, i + 1) for i in range(1, 8))]
)

# An 8-cycle with a pendant vertex at 0: refinement leaves the mirror pairs
# of the cycle in shared classes, so their internal order must not matter.
PENDANT_CYCLE = Multigraph.from_pairs(9, [*((i, (i + 1) % 8) for i in range(8)), (0, 8)])


@pytest.mark.parametrize("g", [ASYMMETRIC_NINE, PENDANT_CYCLE], ids=["asymmetric", "pendant"])
def test_canonical_form_of_nine_vertex_graphs(g):
    form = canonical_form(g)
    for copy in relabellings(g, random.Random(5), 20):
        assert canonical_form(copy) == form
    assert_form_keeps_invariants(g, form)


def test_canonical_form_is_exact_on_the_small_sweep():
    graphs = list(enumerate_connected_multigraphs(7))
    forms = [canonical_form(g) for g in graphs]
    assert len(set(forms)) == len(graphs)
    rng = random.Random(11)
    for g, form in zip(graphs, forms):
        assert_form_keeps_invariants(g, form)
        for copy in relabellings(g, rng, 5):
            assert canonical_form(copy) == form


def test_canonical_form_classes_match_the_labelling_oracle():
    rng = random.Random(13)
    graphs = []
    for g in enumerate_connected_multigraphs(8):
        graphs += [g, *relabellings(g, rng, 5)]
    forms = [canonical_form(g) for g in graphs]
    oracle_forms = [labelling_canonical_form(g) for g in graphs]
    # equal forms on one side iff equal forms on the other
    assert len(set(forms)) == len(set(oracle_forms)) == len(set(zip(forms, oracle_forms))) == 93


# Regular graphs whose colour refinement leaves one class and whose leaves
# are not all alike: individualising one vertex or another gives different
# labelled graphs, so the form must take the least leaf, not the first.
UNSPLIT_REGULAR = [
    Multigraph.from_pairs(6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 5), (2, 5), (3, 4), (3, 4)]),
    Multigraph.from_pairs(7, [(0, 1), (0, 2), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (2, 3),
                              (2, 5), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)]),
    Multigraph.from_pairs(8, [(0, 2), (0, 5), (0, 7), (1, 4), (1, 6), (1, 7), (2, 5), (2, 6),
                              (3, 4), (3, 5), (3, 7), (4, 6)]),
]


@pytest.mark.parametrize("g", UNSPLIT_REGULAR, ids=["cubic6-multi", "quartic7", "cubic8"])
def test_canonical_form_of_unsplit_regular_graphs(g):
    form = canonical_form(g)
    for copy in relabellings(g, random.Random(19), 8):
        assert canonical_form(copy) == form
    assert_form_keeps_invariants(g, form)


def test_enumeration_is_unchanged_under_the_labelling_oracle(monkeypatch):
    fast = [[g.edge_pairs() for g in enumerate_connected_multigraphs(n)] for n in range(1, 9)]
    monkeypatch.setattr(sweep_module, "canonical_form", labelling_canonical_form)
    slow = [[g.edge_pairs() for g in enumerate_connected_multigraphs(n)] for n in range(1, 9)]
    assert fast == slow


def test_class_counts_per_size():
    counts = [sum(1 for _ in enumerate_connected_multigraphs(n)) for n in range(1, 11)]
    assert counts == [0, 1, 3, 6, 12, 23, 46, 93, 199, 438]


def test_canonical_form_of_the_nine_cycle_needs_no_labelling_scan():
    # refinement cannot split a cycle; a scan of its 9! labellings takes seconds
    g = cycle_graph(9)
    start = time.perf_counter()
    form = canonical_form(g)
    assert time.perf_counter() - start < 0.1
    for copy in relabellings(g, random.Random(17), 5):
        assert canonical_form(copy) == form
    assert_form_keeps_invariants(g, form)


def test_small_sweep_matches_the_pinned_bench_corpus():
    path = Path(__file__).resolve().parent.parent / "bench" / "references.json"
    pinned = [(entry["vertices"], [tuple(e) for e in entry["edges"]])
              for entry in json.loads(path.read_text(encoding="utf-8"))["sweep"]]
    swept = [(g.vertex_count, list(g.edge_pairs())) for g in enumerate_connected_multigraphs(6)]
    assert swept == pinned and len(swept) == 23
