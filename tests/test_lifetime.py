"""Searches free their state when they return or are dropped part way, and
a CLI call builds no new argument parser.

A recursive closure that refers to itself through its own cell forms a
reference cycle, which keeps the whole search state alive until the next
full collection, and so does an argparse parser; in a long run that shows
as resident memory that climbs with every call.
"""

import gc

import pytest

import cosmopoly.hstar as hstar_module
from cosmopoly.cli import run
from cosmopoly.hstar import build_anchor, hstar_ehrhart, hstar_visibility
from cosmopoly.multigraph import cycle_graph, simple_cycles, simple_paths, theta_graph, triangle
from cosmopoly.polytope import count_dilate_points
from cosmopoly.sweep import verify_graph
from cosmopoly.triangulation import build_triangulation

from oracles import point_on_a_cell_facet_hyperplane


def anchor_after_a_dropped_pass():
    """build_anchor whose first candidate lies on a facet hyperplane, so that
    its placing pass is dropped part way through."""
    g = triangle()
    schedule = hstar_module._perturbed_anchor
    on_hyperplane = point_on_a_cell_facet_hyperplane(build_triangulation(g), schedule(g, 0))
    hstar_module._perturbed_anchor = (
        lambda g, index: on_hyperplane if index == 0 else schedule(g, index)
    )
    try:
        anchor = build_anchor(g)
    finally:
        hstar_module._perturbed_anchor = schedule
    assert anchor.perturbation_index == 1


CALLS = {
    "anchor_after_a_dropped_pass": anchor_after_a_dropped_pass,
    "cli.run": lambda: run(["conjecture", "theta", "--max-size", "3"]),
    "build_triangulation": lambda: build_triangulation(theta_graph(1, 1, 2)),
    "count_dilate_points": lambda: count_dilate_points(cycle_graph(3), 3),
    "hstar_ehrhart": lambda: hstar_ehrhart(triangle()),
    "hstar_visibility": lambda: hstar_visibility(theta_graph(1, 1, 2)),
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
