"""Self-test of the benchmark itself.

    python3 bench/selftest.py [WORKLOAD ...]

* Two traced runs with the same seed give identical counts (cells, search
  nodes, solves, obstructions, dilate nodes), per pass and per request.
* On visibility-large the cells are 3456 and 2432, and there are two exact
  solves per cell wherever the anchor needed no retry.
* A deliberately wrong reference is reported as a failed request.
* The compare tool calls a clear gain a win, a clear loss a regression and
  a spread wider than the bound unresolved.

Takes about a minute; exits 1 on any failed check.
"""

from __future__ import annotations

import copy
import sys

import compare
import corpus
import layers
import run

SEED = 5
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def counts_of(record: dict) -> tuple[dict, list[dict]]:
    per_pass = {k: record["metrics"][k]["value"] for k in layers.COUNT_METRICS}
    return per_pass, record["requests_detail"]


def test_traced_counts_repeat(workload: str) -> None:
    first = run.run_workload(workload, SEED, 1, trace=True)
    second = run.run_workload(workload, SEED, 1, trace=True)
    check(first["failed"] == 0 and second["failed"] == 0, f"{workload}: traced runs have no failures")
    check(counts_of(first) == counts_of(second), f"{workload}: same seed, identical counts")
    if workload == "visibility-large":
        details = first["requests_detail"]
        check([d["cells"] for d in details] == [[3456], [2432]], "visibility-large: 3456 and 2432 cells")
        check(
            all(
                d.get("intlinalg.solve_exact.calls", 0) == 2 * d["cells"][0]
                for d in details if not d.get("hstar.anchor_retries")
            ),
            "visibility-large: two solves per cell without anchor retries",
        )


def test_wrong_reference_fails() -> None:
    refs = corpus.load_references()
    bad = copy.deepcopy(refs)
    entry = bad["sweep"][0]
    entry["hstar"] = [1, entry["hstar"][1] + 1]  # h*(1) kept equal to the pinned cells
    entry["cells"] += 1
    good = run.run_workload("verify-sweep", SEED, 1, trace=False, refs=refs)
    wrong = run.run_workload("verify-sweep", SEED, 1, trace=False, refs=bad)
    check(good["failed"] == 0 and run.summary(good)["correct"], "true references: no failure")
    passes = len(wrong["pass_samples_s"])
    check(
        wrong["failed"] == passes and not run.summary(wrong)["correct"]
        and wrong["metrics"]["ok_frac"]["value"] < 1,
        "wrong reference: one failed request per pass, correct is false",
    )


def test_compare_verdicts() -> None:
    spec = {
        "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }

    def records(values: list[float]) -> list[dict]:
        return [
            {"workload": "w", "trace": 0, "seed": i, "failed": 0,
             "metrics": {"pass_s": {"value": v, "unit": "s"}}}
            for i, v in enumerate(values)
        ]

    base = records([1.0 + 0.001 * i for i in range(10)])
    cases = {
        "win": [0.8 + 0.001 * i for i in range(10)],
        "REGRESSION": [1.2 + 0.001 * i for i in range(10)],
        "unresolved": [0.7, 1.3] * 5,
        "same": [1.0 + 0.001 * i for i in range(10)],
    }
    for want, values in cases.items():
        lines, _ = compare.compare(base, records(values), spec)
        check(lines[1].split()[0] == want, f"compare: {want}")


def main(argv: list[str]) -> int:
    workloads = argv or list(corpus.WORKLOADS)
    test_compare_verdicts()
    for workload in workloads:
        test_traced_counts_repeat(workload)
    test_wrong_reference_fails()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
