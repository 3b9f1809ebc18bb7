"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a directory of run records (``bench/run.py --out``)
or a list of record files, separated by ``--``:

    python3 bench/compare.py base/*.json -- new/*.json

For every workload and metric it prints each side's median and quartiles
and a verdict.  Runs pair up by seed (in file order when the sides share
no seed).  For an end-to-end metric with bound b from BENCHMARK.json:

* ``unresolved``: one side's spread, the distance between its quartiles
  as a share of its median, exceeds b, and not every NEW run beats every
  BASE run;
* ``REGRESSION``: NEW's median is worse than BASE's by more than b;
* ``win``: at least 10 pairs, NEW better in at least 9 of 10 of them (ties
  count for neither), the medians further apart than BASE's own quartile
  distance, and no more failed requests than BASE;
* ``same`` otherwise.

Per-layer metrics have no bound: they get ``win``, ``loss`` (the same
pair rule, the other way) or ``same``.  The exit code is 1 when any
metric regressed or NEW failed more requests than BASE.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(items: list[str]) -> list[dict]:
    paths: list[Path] = []
    for item in items:
        p = Path(item)
        paths.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def share(num: float, den: float) -> float:
    if den == 0:
        return 0.0 if num == 0 else float("inf")
    return num / abs(den)


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    common = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    return common or list(zip(base, new))


def verdict(name: str, meta: dict, base: list[dict], new: list[dict]) -> tuple[str, str]:
    """(verdict, one-line detail) for metric ``name`` of one workload."""
    lower = meta["better"] == "lower"
    bvals = [r["metrics"][name]["value"] for r in base]
    nvals = [r["metrics"][name]["value"] for r in new]
    bq1, bmed, bq3 = quartiles(bvals)
    nq1, nmed, nq3 = quartiles(nvals)

    def better(a: float, b: float) -> bool:  # a better than b
        return a < b if lower else a > b

    matched = pairs(base, new)
    won = sum(better(n["metrics"][name]["value"], b["metrics"][name]["value"]) for b, n in matched)
    lost = sum(better(b["metrics"][name]["value"], n["metrics"][name]["value"]) for b, n in matched)
    gap = abs(nmed - bmed)
    worse = share(nmed - bmed if lower else bmed - nmed, bmed)
    fails_up = sum(r["failed"] for r in new) > sum(r["failed"] for r in base)
    enough = len(matched) >= MIN_PAIRS
    detail = (
        f"{bmed:.6g} [{bq1:.6g}, {bq3:.6g}] -> {nmed:.6g} [{nq1:.6g}, {nq3:.6g}] "
        f"{share(nmed - bmed, bmed):+.1%}, won {won}/{len(matched)}"
    )
    if "bound" in meta:
        bound = meta["bound"]
        spread = max(share(bq3 - bq1, bmed), share(nq3 - nq1, nmed))
        all_better = all(better(n, b) for n in nvals for b in bvals)
        if spread > bound and not all_better:
            return "unresolved", f"{detail}, spread {spread:.1%} > bound {bound:.0%}"
        if worse > bound:
            return "REGRESSION", f"{detail}, worse by more than {bound:.0%}"
    if enough and not fails_up and won >= WIN_SHARE * len(matched) and gap > bq3 - bq1:
        return "win", detail
    if "bound" not in meta and enough and lost >= WIN_SHARE * len(matched) and gap > nq3 - nq1:
        return "loss", detail
    return "same", detail


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether NEW regressed."""
    metas = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, records in ((0, base), (1, new)):
        for r in records:
            groups[(r["workload"], r["trace"])][side].append(r)
    lines, regressed = [], False
    for (workload, trace), (b, n) in sorted(groups.items()):
        if not b or not n:
            lines.append(f"{workload} trace {trace}: runs on one side only, not compared")
            continue
        bfail, nfail = sum(r["failed"] for r in b), sum(r["failed"] for r in n)
        lines.append(f"{workload} (trace {trace}): {len(b)} base runs, {len(n)} new runs, "
                     f"failed requests {bfail} -> {nfail}")
        regressed |= nfail > bfail
        names = [m for m in metas if all(m in r["metrics"] for r in b + n)]
        for name in names:
            v, detail = verdict(name, metas[name], b, n)
            regressed |= v == "REGRESSION"
            lines.append(f"  {v:10s} {name:30s} {detail} {metas[name]['unit']}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        base_items, new_items = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        base_items, new_items = [argv[0]], [argv[1]]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, regressed = compare(load_records(base_items), load_records(new_items), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
