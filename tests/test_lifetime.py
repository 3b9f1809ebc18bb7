"""Searches free their state when they return or are dropped part way, and
a CLI call builds no new argument parser.

A recursive closure that refers to itself through its own cell forms a
reference cycle, which keeps the whole search state alive until the next
full collection, and so does an argparse parser; in a long run that shows
as resident memory that climbs with every call.  The library has no
recursive closures (``test_no_recursive_closures.py``): its path, cycle and
block searches walk a stack of neighbour iterators.  These checks still run
each search, finished and dropped part way.
"""

import gc
from itertools import islice

import pytest

import cosmopoly.triangulation as triangulation_module
from cosmopoly.cli import run
from cosmopoly.hstar import hstar_ehrhart, hstar_visibility
from cosmopoly.multigraph import (
    cycle_graph,
    multicycle,
    simple_cycles,
    simple_paths,
    theta_graph,
    triangle,
)
from cosmopoly.polytope import count_dilate_points, lattice_points
from cosmopoly.sweep import verify_graph
from cosmopoly.triangulation import Packing, build_triangulation, placed

from oracles import (
    base_anchor_coords,
    pass_cells,
    points_on_cell_facet_hyperplanes,
    primitive_point,
)


def anchor_with_tie_broken_cells():
    """placed with an anchor on a facet hyperplane of some cells, so that
    the tie-break decodes their rows."""
    g = triangle()
    base = triangulation_module.base_anchor
    on_hyperplane = next(points_on_cell_facet_hyperplanes(g, None, base_anchor_coords(g)))
    triangulation_module.base_anchor = lambda g: primitive_point(on_hyperplane)
    try:
        placed(g)
        assert Packing.of(g).anchor == tuple(primitive_point(on_hyperplane))
    finally:
        triangulation_module.base_anchor = base


def anchored_pass(cells=None):
    """The first ``cells`` cells of a placing pass that carries an anchor
    column of its own, all of them when None; a pass cut short is dropped
    part way."""
    g = theta_graph(1, 1, 2)
    anchor = tuple(range(1, g.vertex_count + len(g.edges) + 1))
    packing = Packing([p.coords for p in lattice_points(g)], anchor)
    return list(islice(pass_cells(g, packing=packing), cells))


CALLS = {
    "anchor_with_tie_broken_cells": anchor_with_tie_broken_cells,
    "cli.run": lambda: run(["conjecture", "theta", "--max-size", "3"]),
    "build_triangulation": lambda: build_triangulation(theta_graph(1, 1, 2)),
    "count_dilate_points": lambda: count_dilate_points(cycle_graph(3), 3),
    "hstar_ehrhart": lambda: hstar_ehrhart(triangle()),
    "hstar_ehrhart_with_interior_counts": lambda: hstar_ehrhart(multicycle((2, 1, 1))),
    "hstar_visibility": lambda: hstar_visibility(theta_graph(1, 1, 2)),
    "placed": lambda: placed(theta_graph(1, 1, 2)),
    "placing_pass.anchored": anchored_pass,
    "placing_pass.anchored_dropped": lambda: anchored_pass(10),
    "verify_graph": lambda: verify_graph(triangle()),
    "simple_paths": lambda: list(simple_paths(theta_graph(1, 1, 2))),
    "simple_paths_abandoned": lambda: next(simple_paths(theta_graph(1, 1, 2))),
    "simple_cycles": lambda: list(simple_cycles(theta_graph(1, 1, 2))),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()  # warm up anything built once per process
    gc.collect()
    gc.disable()
    try:
        call()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
