"""Command-line interface: graph files, command dispatch, JSON output, cache.

Commands: info, lattice-points, facets, triangulate, hstar, volume, verify,
conjecture.  Identical input and flags produce byte-identical output; the
content-addressed cache can only change wall time, never results.

Exit codes: 0 ok, 1 internal error, 2 parse or usage error (including a
disconnected graph for a command that needs a connected one, and ``auto``
refusing a graph with an ``Other`` block above the point cap), 3 budget
exceeded, 4 check failure (a theorem check fails, a cell breaks the
stroke rule, or the h* routes disagree:
``verify`` not ok, or any ERROR case of a ``conjecture`` sweep).  A
VIOLATED conjecture is a finding and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from typing import Sequence

from . import __version__
from .errors import (
    BudgetExceeded,
    CosmopolyError,
    DisconnectedGraph,
    GraphError,
    GraphFileError,
    NoMethodAvailable,
    StructureViolation,
    TheoremViolation,
    as_budget,
)
from .grobner import default_good_order, obstruction_set, reduced_generators
from .hstar import (
    check_structure_theorems,
    hstar as hstar_dispatch,
    resolve_method,
)
from .multigraph import Multigraph, blocks, connected_components
from .polytope import dimension, facet_inequalities, lattice_points
from .sweep import sweep_graphs, sweep_theta, verify_graph
from .triangulation import build_triangulation, decorated_view

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Graph files


def parse_graph_text(text: str) -> Multigraph:
    """Parse the edge-list format.

    '#' starts a comment; an optional first line ``vertices <n>`` fixes the
    vertex count and switches endpoints to 0-based indices (a later ``vertices``
    line is an error).  Edge lines are ``u v`` with an optional `` *k``
    multiplicity suffix; no endpoint holds a ``*``, and ``u u`` is a loop.
    Without the header, all-integer endpoints are taken as 0-based indices,
    otherwise endpoints are labels resolved in first-appearance order.
    """
    header_count = None
    raw_edges: list[tuple[int, str, str, int]] = []
    significant_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if significant_seen:
                raise GraphFileError(line_no, "'vertices <n>' must be the first line")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise GraphFileError(line_no, "header must be 'vertices <n>'")
            header_count = int(tokens[1])
            significant_seen = True
            continue
        significant_seen = True
        mult = 1
        if len(tokens) == 3 and tokens[2].startswith("*"):
            suffix = tokens[2][1:]
            if not suffix.isdecimal() or int(suffix) < 1:
                raise GraphFileError(line_no, f"bad multiplicity suffix {tokens[2]!r}")
            mult = int(suffix)
            tokens = tokens[:2]
        if len(tokens) != 2 or any("*" in t for t in tokens):
            raise GraphFileError(line_no, f"expected 'u v [*k]', got {raw.strip()!r}")
        raw_edges.append((line_no, tokens[0], tokens[1], mult))
    if not raw_edges:
        raise GraphFileError(1, "no edges in file")
    index_mode = header_count is not None or all(
        a.isdecimal() and b.isdecimal() for _, a, b, _ in raw_edges
    )
    labels: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    max_index = -1
    for line_no, a, b, mult in raw_edges:
        if index_mode:
            if not (a.isdecimal() and b.isdecimal()):
                raise GraphFileError(line_no, f"expected integer endpoints, got {a!r} {b!r}")
            u, v = int(a), int(b)
            if header_count is not None and (u >= header_count or v >= header_count):
                raise GraphFileError(line_no, f"endpoint beyond 'vertices {header_count}'")
            max_index = max(max_index, u, v)
        else:
            for tok in (a, b):
                if tok not in labels:
                    labels[tok] = len(labels)
            u, v = labels[a], labels[b]
        pairs.extend([(u, v)] * mult)
    vertex_count = header_count if header_count is not None else (
        max_index + 1 if index_mode else len(labels)
    )
    try:
        return Multigraph.from_pairs(vertex_count, pairs)
    except GraphError as exc:
        raise GraphFileError(raw_edges[0][0], str(exc)) from exc


def write_graph_text(g: Multigraph) -> str:
    """Canonical writer; parse(write(g)) reproduces g exactly."""
    lines = [f"vertices {g.vertex_count}"]
    lines += [f"{e.u} {e.v}" for e in g.edges]
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Multigraph:
    """Parse the graph file at ``path``, or stdin for ``-``."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise GraphError(f"cannot read graph file {path}: {reason}") from exc
    return parse_graph_text(text)


# ---------------------------------------------------------------------------
# Cache


def _cache_dir(args) -> str | None:
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get("COSMOPOLY_CACHE") or None


def _sha256(text: str) -> str:
    # imported here: only a call with a cache directory hashes
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _graph_hash(g: Multigraph) -> str:
    # The labeled graph, not its isomorphism class: lattice points, facets,
    # cells and the statistic verdict depend on labels and orientation.
    return _sha256(write_graph_text(g))


def _cache_header(g: Multigraph, command: str, params: dict) -> dict:
    """The fields a record stores to say which request it answers."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "graph_hash": _graph_hash(g),
        "command": command,
        # as a JSON round trip gives it back, so that a lookup can compare
        "params": json.loads(json.dumps(params)),
    }


def _cache_key(header: dict) -> str:
    return _sha256(json.dumps(header, sort_keys=True))


def _payload_digest(payload: dict) -> str:
    return _sha256(json.dumps(payload, sort_keys=True))


def cache_lookup(cache_dir: str, key: str, header: dict) -> dict | None:
    """The cached payload, or None on a miss: a record that cannot be read or
    parsed, is not a JSON object with an object payload, whose header fields
    differ from ``header``, the request's, or whose payload does not match
    the sha256 stored with it is a miss."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or any(record.get(k) != v for k, v in header.items()):
        return None
    payload = record.get("payload")
    if not isinstance(payload, dict) or record.get("payload_sha256") != _payload_digest(payload):
        return None
    return payload


def cache_store(cache_dir: str, key: str, header: dict, payload: dict,
                wall_time: float) -> None:
    """Write the record, with a sha256 of its payload, atomically; a store
    that fails only warns on stderr."""
    import tempfile

    record = {**header, "wall_time_s": wall_time, "payload": payload,
              "payload_sha256": _payload_digest(payload)}
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        print(f"warning: result not cached: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Command payloads


def _poly_payload(p) -> list[int]:
    return list(p.coeffs)


def cmd_info(g: Multigraph, args) -> dict:
    block_list = blocks(g)
    return {
        "schema_version": SCHEMA_VERSION,
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "loops": g.loop_count,
        "components": len(connected_components(g)),
        "blocks": [
            {
                "tag": b.tag,
                "vertices": list(b.vertices),
                "edge_ids": list(b.edge_ids),
                "multiplicity": b.multiplicity,
                "multiplicities": list(b.multiplicities) if b.multiplicities else None,
            }
            for b in block_list
        ],
        "dimension": dimension(g),
        "lattice_points": len(lattice_points(g)),
    }


def _render_info(payload: dict) -> str:
    lines = [
        f"vertices: {payload['vertices']}",
        f"edges: {payload['edges']} (loops: {payload['loops']})",
        f"components: {payload['components']}",
        f"dimension: {payload['dimension']}",
        f"lattice points: {payload['lattice_points']}",
        "blocks:",
    ]
    for b in payload["blocks"]:
        extra = ""
        if b["multiplicity"]:
            extra = f"({b['multiplicity']})"
        if b["multiplicities"]:
            extra = f"({','.join(map(str, b['multiplicities']))})"
        lines.append(f"  {b['tag']}{extra} vertices={b['vertices']} edges={b['edge_ids']}")
    return "\n".join(lines)


def cmd_lattice_points(g: Multigraph, args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "points": [{"name": p.name, "coords": list(p.coords)} for p in lattice_points(g)],
    }


def cmd_facets(g: Multigraph, args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "facets": [
            {
                "subgraph_vertices": list(f.subgraph_vertices),
                "subgraph_edges": list(f.subgraph_edges),
                "normal": list(f.normal),
            }
            for f in facet_inequalities(g, args.budget_nodes)
        ],
    }


def _decorated_dump(g: Multigraph, simplex, idx: int) -> str:
    view = decorated_view(simplex, g)
    lines = [f"graph cell_{idx} {{"]
    for v in range(g.vertex_count):
        color = "white" if v in view.white_vertices else "black"
        lines.append(f"  v{v} [fillcolor={color}];")
    for e in g.edges:
        roles = "+".join(sorted(view.edge_roles[e.id]))
        lines.append(f"  v{e.u} -- v{e.v} [label=\"e{e.id}:{roles}\"];")
    lines.append("}")
    return "\n".join(lines)


def cmd_triangulate(g: Multigraph, args) -> dict:
    bud = as_budget(args.budget_nodes)
    order = default_good_order(g, seed=args.order_seed)
    simplices = build_triangulation(g, order, bud)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "simplex_count": len(simplices),
        "simplices": [[p.name for p in s] for s in simplices],
        "obstructions": [sorted(p.name for p in o) for o in obstruction_set(g, order, bud)],
    }
    if args.generators:
        payload["reduced_generators"] = [
            {
                "family": b.family,
                "lhs": [[p.name, e] for p, e in b.lhs],
                "rhs": [[p.name, e] for p, e in b.rhs],
            }
            for b in reduced_generators(g)
        ]
    if args.decorated:
        payload["decorated"] = [
            _decorated_dump(g, s, i) for i, s in enumerate(simplices)
        ]
    return payload


def _render_triangulate(payload: dict) -> str:
    lines = [f"simplices: {payload['simplex_count']}"]
    lines += ["  " + " ".join(names) for names in payload["simplices"]]
    if "decorated" in payload:
        lines += ["", *payload["decorated"]]
    return "\n".join(lines)


def cmd_hstar(g: Multigraph, args) -> dict:
    method = resolve_method(g, args.method)
    h = hstar_dispatch(g, method=method, budget=args.budget_nodes, order_seed=args.order_seed)
    checks = check_structure_theorems(g, h)
    return {
        "schema_version": SCHEMA_VERSION,
        "coeffs": _poly_payload(h),
        "volume": h(1),
        "degree": h.degree,
        "codegree": dimension(g) + 1 - h.degree,
        "method": method,
        "checks": dict.fromkeys(checks, True),
    }


def _render_hstar(payload: dict) -> str:
    from .hstar import IntPolynomial

    h = IntPolynomial(payload["coeffs"])
    return "\n".join(
        [
            f"h* = {h}",
            f"volume = {payload['volume']}",
            f"degree = {payload['degree']}",
            f"codegree = {payload['codegree']}",
        ]
    )


def cmd_volume(g: Multigraph, args) -> dict:
    h = hstar_dispatch(
        g, method=args.method, budget=args.budget_nodes, order_seed=args.order_seed
    )
    return {"schema_version": SCHEMA_VERSION, "volume": h(1)}


def cmd_verify(g: Multigraph, args) -> dict:
    report = verify_graph(g, budget=args.budget_nodes, order_seed=args.order_seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "methods": {name: _poly_payload(p) for name, p in report.methods.items()},
        "skipped": report.skipped,
        "agree": report.agree,
        "theorem_checks": dict.fromkeys(report.theorem_checks, True),
        "conjectures": {c.name: c.status for c in report.conjectures},
        "ok": report.agree,
    }
    return payload


def _render_verify(payload: dict) -> str:
    from .hstar import IntPolynomial

    lines = []
    for name in sorted(payload["methods"]):
        lines.append(f"{name}: h* = {IntPolynomial(payload['methods'][name])}")
    for name in sorted(payload["skipped"]):
        lines.append(f"{name}: skipped ({payload['skipped'][name]})")
    lines.append(f"methods agree: {payload['agree']}")
    # a failed theorem check raises, so every check listed passed
    for name in sorted(payload["theorem_checks"]):
        lines.append(f"theorem {name}: ok")
    for name in sorted(payload["conjectures"]):
        lines.append(f"conjecture {name}: {payload['conjectures'][name]}")
    lines.append("verify: " + ("ok" if payload["ok"] else "FAILED"))
    return "\n".join(lines)


def cmd_conjecture(args) -> dict:
    if args.which == "theta":
        findings = sweep_theta(args.max_size, args.budget_nodes, args.order_seed)
    else:
        findings = sweep_graphs(args.which, args.max_size, args.budget_nodes, args.order_seed)
    return {
        "schema_version": SCHEMA_VERSION,
        "conjecture": args.which,
        "max_size": args.max_size,
        "findings": [
            {"label": label, "status": f.status, "detail": f.detail} for label, f in findings
        ],
        "violations": sum(1 for _, f in findings if f.status == "VIOLATED"),
    }


def _render_conjecture(payload: dict) -> str:
    lines = [
        f"{f['status']:9s} {f['label']}" for f in payload["findings"]
    ]
    lines.append(
        f"{payload['conjecture']}: {len(payload['findings'])} cases, "
        f"{payload['violations']} violations"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Driver

_GRAPH_COMMANDS = {
    "info": (cmd_info, _render_info),
    "lattice-points": (cmd_lattice_points, None),
    "facets": (cmd_facets, None),
    "triangulate": (cmd_triangulate, _render_triangulate),
    "hstar": (cmd_hstar, _render_hstar),
    "volume": (cmd_volume, lambda p: f"Vol = {p['volume']}"),
    "verify": (cmd_verify, _render_verify),
}


def _count(text: str) -> int:
    """A --budget-nodes or --max-size value: an int, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


@functools.cache  # once per process: a parser is a web of reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmopoly",
        description="Exact cosmological-polytope computations for multigraphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, budget=True, cache=True, seed=True):
        """--json, and those of the other flags that the command reads."""
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if budget:
            p.add_argument("--budget-nodes", type=_count, default=10_000_000, metavar="N",
                           help="cap on search-tree nodes before aborting (default 10M)")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help="result cache directory (or set COSMOPOLY_CACHE)")
        if seed:
            p.add_argument("--order-seed", type=int, default=None, metavar="S",
                           help="shuffle the term order within classes, reproducibly")

    for name in _GRAPH_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("graph", help="graph file path, or - for stdin")
        options(p, budget=name not in ("info", "lattice-points"),
                seed=name not in ("info", "lattice-points", "facets"))
        if name in ("hstar", "volume"):
            p.add_argument("--method", default="auto",
                           choices=["auto", "blocks", "visibility", "ehrhart"])
        if name == "triangulate":
            p.add_argument("--decorated", action="store_true",
                           help="append a DOT-like decorated dump per cell")
            p.add_argument("--generators", action="store_true",
                           help="include the reduced generating set in JSON output")

    p = sub.add_parser("conjecture")
    p.add_argument("which", choices=["upper-bound", "statistic", "theta"])
    p.add_argument("--max-size", type=_count, default=6, metavar="N",
                   help="sweep bound: |V|+|E| for graph sweeps, k+l+m for theta")
    options(p, cache=False)
    return parser


def _params_for_cache(args) -> dict:
    skip = {"command", "graph", "json", "cache_dir"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "conjecture":
            payload = cmd_conjecture(args)
            renderer = _render_conjecture
            failed = any(f["status"] == "ERROR" for f in payload["findings"])
        else:
            g = load_graph(args.graph)
            handler, renderer = _GRAPH_COMMANDS[args.command]
            cache_dir = _cache_dir(args)
            params = _params_for_cache(args)
            payload = None
            if cache_dir:
                header = _cache_header(g, args.command, params)
                key = _cache_key(header)
                payload = cache_lookup(cache_dir, key, header)
            if payload is None:
                started = time.monotonic()
                payload = handler(g, args)
                if cache_dir:
                    cache_store(cache_dir, key, header, payload, time.monotonic() - started)
            failed = args.command == "verify" and not payload["ok"]
    except (GraphFileError, GraphError, DisconnectedGraph, NoMethodAvailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TheoremViolation, StructureViolation) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except CosmopolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    exit_code = EXIT_CHECK if failed else EXIT_OK
    if args.json or renderer is None:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = renderer(payload)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`), which is not an error.
        # Point stdout at devnull so the interpreter's final flush cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
