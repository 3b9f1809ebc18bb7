"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of every cosmopoly module and
replaces each one under every name any cosmopoly module holds it by (so
``cosmopoly.hstar.solve_exact`` is wrapped as well as
``cosmopoly.intlinalg.solve_exact``).  Each call is a span: its inclusive
time, and its self time, which is the inclusive time less the time of the
wrapped calls it made.  A layer's self time is the sum over its entry
points.  Search nodes are the change in the shared ``Budget.used`` across a
call.  Spans are folded into totals in memory; nothing is written while
tracing.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "sweep", "multigraph", "polytope", "grobner", "triangulation", "intlinalg", "hstar")

ENTRY_POINTS = {
    "cli": ("run",),
    "sweep": ("verify_graph", "canonical_form"),
    "multigraph": (
        "blocks",
        "connected_components",
        "connected_subgraphs",
        "induced_by_edges",
        "simple_cycles",
        "simple_paths",
    ),
    "polytope": ("lattice_points", "facet_inequalities", "count_dilate_points", "count_interior_points"),
    "grobner": (
        "default_good_order",
        "is_good_order",
        "obstruction_set",
        "fundamental_binomials",
        "zigzag_binomials",
        "cyclic_binomials",
    ),
    "triangulation": ("build_triangulation", "enumerate_triangulation", "decorated_view"),
    "intlinalg": ("solve_exact", "bareiss_determinant"),
    "hstar": (
        "hstar",
        "hstar_visibility",
        "hstar_ehrhart",
        "hstar_blocks",
        "build_anchor",
        "check_structure_theorems",
        "check_upper_bound_conjecture",
        "check_statistic_conjecture",
    ),
}

# Largest dilate t with a metric of its own; larger t are summed into "t5plus".
DILATE_T_NAMED = 4

def _graph_size(g) -> tuple[int, int]:
    return g.vertex_count, len(g.edges)


class Tracer:
    """Spans and counts of the wrapped entry points, totalled since ``reset``.

    ``events`` lists what the request checks need: ``("cells", size, n)``
    per enumeration and ``("dilate", size, t, N)`` per dilate count, where
    ``size`` is the (|V|, |E|) of the graph the layer was called on.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # entry points the program no longer has
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.events: list[tuple] = []
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    # -- spans --------------------------------------------------------------

    def _enter(self, key: str) -> None:
        self._depth[key] += 1
        self._stack.append([key, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        key, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self._depth[key] -= 1
        self.calls[key] += 1
        self.self_s[key] += dur - child
        if not self._depth[key]:  # count a re-entered function once
            self.incl[key] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._enter(key)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item

            return gen_wrapper

        probe = _PROBES.get(key)
        if probe is None:
            def wrapper(*args, **kwargs):
                self._enter(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit()

            return wrapper

        signature = inspect.signature(fn)

        def probed_wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            budget = bound.get("budget")
            if not hasattr(budget, "used"):  # an int or None: the callee makes its own
                budget = None
            before = budget.used if budget is not None else 0
            self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            nodes = budget.used - before if budget is not None else 0
            probe(self, bound, result, nodes)
            return result

        return probed_wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every entry point of the imported cosmopoly package under
        every name that any of its modules holds it by."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        holders = [
            module for name, module in sys.modules.items()
            if name == "cosmopoly" or name.startswith("cosmopoly.")
        ]
        self.missing = []
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"cosmopoly.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    # -- totals ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything traced since ``reset``."""
        incl, counts = self.incl, self.counts
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                self.self_s[f"{layer}.{name}"] for name in ENTRY_POINTS[layer]
            )
        nodes = counts["triangulation.search_nodes"]
        cells = counts["triangulation.cells"]
        m.update({
            "sweep.verify_graph.s": incl["sweep.verify_graph"],
            "triangulation.enumerate.s": incl["triangulation.enumerate_triangulation"],
            "triangulation.search_nodes": nodes,
            "triangulation.cells": cells,
            "triangulation.cells_per_node": cells / nodes if nodes else 0.0,
            "hstar.build_anchor.s": incl["hstar.build_anchor"],
            "hstar.anchor_retries": counts["hstar.anchor_retries"],
            "hstar.visibility.self_s": self.self_s["hstar.hstar_visibility"],
            "intlinalg.solve_exact.calls": self.calls["intlinalg.solve_exact"],
            "intlinalg.solve_exact.s": incl["intlinalg.solve_exact"],
            "polytope.count_dilate.s": incl["polytope.count_dilate_points"],
        })
        for t in range(DILATE_T_NAMED + 1):
            m[f"polytope.dilate_nodes.t{t}"] = counts[f"polytope.dilate_nodes.t{t}"]
        m["polytope.dilate_nodes.t5plus"] = counts["polytope.dilate_nodes.t5plus"]
        m.update({
            "polytope.facets.s": incl["polytope.facet_inequalities"],
            "grobner.obstruction_set.s": incl["grobner.obstruction_set"],
            "grobner.obstructions": counts["grobner.obstructions"],
            "hstar.blocks.s": incl["hstar.hstar_blocks"],
            "hstar.checks.s": sum(
                incl[f"hstar.{name}"]
                for name in (
                    "check_structure_theorems",
                    "check_upper_bound_conjecture",
                    "check_statistic_conjecture",
                )
            ),
        })
        return m


# Probes run after a wrapped call: (tracer, arguments by name, result, search nodes).


def _probe_enumerate(tr: Tracer, args: dict, result, nodes: int) -> None:
    tr.counts["triangulation.search_nodes"] += nodes
    tr.counts["triangulation.cells"] += len(result)
    tr.events.append(("cells", _graph_size(args["g"]), len(result)))


def _probe_dilate(tr: Tracer, args: dict, result, nodes: int) -> None:
    g, t = args["g"], args["t"]
    bucket = f"t{t}" if t <= DILATE_T_NAMED else "t5plus"
    tr.counts[f"polytope.dilate_nodes.{bucket}"] += nodes
    tr.events.append(("dilate", _graph_size(g), t, result))


def _probe_anchor(tr: Tracer, args: dict, result, nodes: int) -> None:
    tr.counts["hstar.anchor_retries"] += result.perturbation_index


def _probe_obstructions(tr: Tracer, args: dict, result, nodes: int) -> None:
    tr.counts["grobner.obstructions"] += len(result)


_PROBES = {
    "triangulation.enumerate_triangulation": _probe_enumerate,
    "polytope.count_dilate_points": _probe_dilate,
    "hstar.build_anchor": _probe_anchor,
    "grobner.obstruction_set": _probe_obstructions,
}

COUNT_METRICS = (
    "triangulation.search_nodes",
    "triangulation.cells",
    "hstar.anchor_retries",
    "intlinalg.solve_exact.calls",
    *(f"polytope.dilate_nodes.t{t}" for t in range(DILATE_T_NAMED + 1)),
    "polytope.dilate_nodes.t5plus",
    "grobner.obstructions",
)
