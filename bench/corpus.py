"""Benchmark corpus: the graphs of each workload, their seeded relabelling,
and the reference output every request is checked against.

The program only ever sees graph text.  A seed permutes the vertex labels,
the edge order and the stored endpoint order of every graph; none of that
changes an h*-polynomial, so one reference per graph serves every seed.

References come from the closed forms (``theta_hstar``,
``hstar_closed_multicycle``) where the graph has one, and otherwise from
``references.json``, pinned from a run of the program on the unrelabelled
graphs.  Every reference is cross-checked against the pinned cell count of
the triangulation: h*(1) is the normalized volume.

Regenerate the pinned file with ``python3 bench/corpus.py pin``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Workload -> (CLI arguments before the graph operand, corpus graph labels).
# The graph operand is always "-": the text arrives on stdin.
WORKLOADS: dict[str, tuple[tuple[str, ...], tuple[str, ...] | None]] = {
    "visibility-large": (("hstar", "--method", "visibility", "--json"), ("theta(2,2,2)", "K4")),
    "ehrhart-dilates": (("hstar", "--method", "ehrhart", "--json"), ("C4", "mc(2,1,1)")),
    # None: every pinned graph of the |V|+|E| <= SWEEP_MAX_SIZE sweep
    "verify-sweep": (("verify", "--json"), None),
}

SWEEP_MAX_SIZE = 6

# Graphs named by the workloads above, with their closed form where one exists.
NAMED_GRAPHS: dict[str, tuple[int, list[tuple[int, int]], tuple[str, tuple[int, ...]] | None]] = {
    "theta(2,2,2)": (5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)], ("theta", (2, 2, 2))),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], None),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], ("multicycle", (1, 1, 1, 1))),
    "mc(2,1,1)": (3, [(0, 1), (0, 1), (1, 2), (2, 0)], ("multicycle", (2, 1, 1))),
}


@dataclass(frozen=True)
class Request:
    """One CLI call of a pass, with what its output must contain."""

    label: str
    argv: tuple[str, ...]
    text: str
    vertices: int
    edges: int
    hstar: tuple[int, ...]
    verify: dict | None  # expected verify facts; None for hstar requests


def relabel(vertices: int, edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """Random vertex permutation, edge order and endpoint order."""
    perm = list(range(vertices))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in out]
    rng.shuffle(out)
    return out


def graph_text(vertices: int, edges: list[tuple[int, int]]) -> str:
    return f"vertices {vertices}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def closed_form(hstar_module, form: tuple[str, tuple[int, ...]]) -> tuple[int, ...]:
    kind, params = form
    if kind == "theta":
        return hstar_module.theta_hstar(*params).coeffs
    if kind == "multicycle":
        return hstar_module.hstar_closed_multicycle(tuple(params)).coeffs
    raise ValueError(f"unknown closed form {kind!r}")


def _graph_entries(refs: dict) -> dict[str, dict]:
    """Label -> {vertices, edges, cells, hstar or closed_form} for every corpus graph."""
    out = {}
    for label, (nv, edges, form) in NAMED_GRAPHS.items():
        out[label] = {"vertices": nv, "edges": edges, "closed_form": form, **refs["graphs"][label]}
    for entry in refs["sweep"]:
        out[entry["label"]] = entry
    return out


def build_requests(workload: str, seed: int, hstar_module, refs: dict | None = None) -> list[Request]:
    """The requests of one pass of ``workload`` under ``seed``.

    ``hstar_module`` is the program's ``cosmopoly.hstar``, for the closed
    forms.  Raises ValueError when a reference contradicts its pinned cell
    count, which means the corpus file, not the program, is wrong.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    refs = load_references() if refs is None else refs
    command, labels = WORKLOADS[workload]
    entries = _graph_entries(refs)
    labels_are_sweep = labels is None
    if labels_are_sweep:
        labels = tuple(e["label"] for e in refs["sweep"])
    requests = []
    for label in labels:
        entry = entries[label]
        form = entry.get("closed_form")
        if form:
            h = tuple(closed_form(hstar_module, form))
        else:
            h = tuple(entry["hstar"])
        if sum(h) != entry["cells"]:
            raise ValueError(f"{label}: reference h*(1) = {sum(h)} but {entry['cells']} cells pinned")
        rng = random.Random(f"{seed}/{label}")
        edges = relabel(entry["vertices"], [tuple(e) for e in entry["edges"]], rng)
        requests.append(
            Request(
                label=label,
                argv=(*command, "-"),
                text=graph_text(entry["vertices"], edges),
                vertices=entry["vertices"],
                edges=len(edges),
                hstar=h,
                verify=refs["sweep_verify"] if labels_are_sweep else None,
            )
        )
    return requests


def check_output(req: Request, exit_code: int, stdout: str) -> str | None:
    """None when the output is right, else why it is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    h = list(req.hstar)
    if req.verify is None:
        expected = {
            "coeffs": h,
            "volume": sum(h),
            "degree": len(h) - 1,
            "codegree": req.vertices + req.edges - len(h) + 1,
            "method": req.argv[2],
        }
        for key, want in expected.items():
            if payload.get(key) != want:
                return f"{key} = {payload.get(key)!r}, expected {want!r}"
        if not payload.get("checks") or not all(payload["checks"].values()):
            return f"failed theorem checks {payload.get('checks')!r}"
        return None
    want = req.verify
    if payload.get("ok") is not True or payload.get("agree") is not True:
        return f"verify ok={payload.get('ok')!r} agree={payload.get('agree')!r}"
    methods = payload.get("methods", {})
    if sorted(methods) != sorted(want["methods"]):
        return f"methods {sorted(methods)}, expected {sorted(want['methods'])}"
    for name, coeffs in methods.items():
        if coeffs != h:
            return f"{name} h* {coeffs}, expected {h}"
    if sorted(payload.get("skipped", {})) != sorted(want["skipped"]):
        return f"skipped {sorted(payload.get('skipped', {}))}, expected {sorted(want['skipped'])}"
    checks = payload.get("theorem_checks", {})
    if sorted(checks) != sorted(want["theorem_checks"]) or not all(checks.values()):
        return f"theorem checks {checks!r}"
    if payload.get("conjectures") != want["conjectures"]:
        return f"conjectures {payload.get('conjectures')!r}, expected {want['conjectures']!r}"
    return None


# ---------------------------------------------------------------------------
# Pinning


def pin() -> dict:
    """Reference data from the program in ``src/`` on the unrelabelled graphs."""
    from run import call_cli, import_program

    cli, _ = import_program()
    from cosmopoly.hstar import IntPolynomial
    from cosmopoly.multigraph import MULTICYCLE, Multigraph, blocks
    from cosmopoly.sweep import enumerate_connected_multigraphs
    from cosmopoly.triangulation import build_triangulation

    def run(argv: list[str], text: str) -> dict:
        _, code, out = call_cli(cli, argv, text)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        return json.loads(out)

    def cells(g: Multigraph) -> int:
        return len(build_triangulation(g))

    graphs = {}
    for label, (nv, edges, form) in NAMED_GRAPHS.items():
        g = Multigraph.from_pairs(nv, edges)
        entry = {"cells": cells(g)}
        if form is None:
            entry["hstar"] = run(["hstar", "--method", "visibility", "--json", "-"],
                                 graph_text(nv, edges))["coeffs"]
        graphs[label] = entry

    sweep = []
    facts = []
    for i, g in enumerate(enumerate_connected_multigraphs(SWEEP_MAX_SIZE)):
        edges = [list(p) for p in g.edge_pairs()]
        payload = run(["verify", "--json", "-"], graph_text(g.vertex_count, g.edge_pairs()))
        h = IntPolynomial(payload["methods"]["blocks"])
        block_list = blocks(g)
        entry = {
            "label": f"sweep{i:02d}",
            "vertices": g.vertex_count,
            "edges": edges,
            "cells": cells(g),
        }
        facts.append({
            "methods": sorted(payload["methods"]),
            "skipped": sorted(payload["skipped"]),
            "theorem_checks": sorted(payload["theorem_checks"]),
            "conjectures": payload["conjectures"],
        })
        if len(block_list) == 1 and block_list[0].tag == MULTICYCLE:
            entry["closed_form"] = ["multicycle", list(block_list[0].multiplicities)]
        else:
            entry["hstar"] = list(h.coeffs)
        if h(1) != entry["cells"]:
            raise RuntimeError(f"{edges}: h*(1) = {h(1)} but {entry['cells']} cells")
        sweep.append(entry)
    if any(f != facts[0] for f in facts):
        raise RuntimeError("verify facts differ between sweep graphs; pin them per graph")
    return {
        "about": "pinned by `python3 bench/corpus.py pin` from the unrelabelled graphs",
        "graphs": graphs,
        "sweep_verify": facts[0],
        "sweep": sweep,
    }


def _write_pinned(path: Path, data: dict) -> None:
    # one graph per line keeps the file reviewable
    lines = [
        "{",
        f'  "about": {json.dumps(data["about"])},',
        f'  "sweep_verify": {json.dumps(data["sweep_verify"], sort_keys=True)},',
        '  "graphs": {',
    ]
    items = list(data["graphs"].items())
    for i, (label, entry) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(f"    {json.dumps(label)}: {json.dumps(entry, sort_keys=True)}{comma}")
    lines += ["  },", '  "sweep": [']
    for i, entry in enumerate(data["sweep"]):
        comma = "," if i + 1 < len(data["sweep"]) else ""
        lines.append(f"    {json.dumps(entry, sort_keys=True)}{comma}")
    lines += ["  ]", "}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["pin"]:
        sys.exit("usage: python3 bench/corpus.py pin")
    _write_pinned(REFERENCES, pin())
    print(f"wrote {REFERENCES}")
