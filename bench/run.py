"""Benchmark of the cosmopoly CLI: closed-loop, in-process calls of
``cosmopoly.cli.run`` from one process and one thread, each call starting
after the previous one returned, with default flags and no cache.

    python3 bench/run.py --workload visibility-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run repeats passes over the workload's corpus (see corpus.py)
until ``--seconds`` have gone by, checks every output against its
reference, and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full record of the run (seed, environment, samples,
per-request counts) is written to ``--out``.

``--workload all`` runs every workload in a process of its own, so that
``peak_rss_mb`` is each workload's own peak, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402
import layers  # noqa: E402

# Set-up is timed in fresh interpreters, so that it counts every import the
# package makes; the median of these is setup_s.
SETUP_REPEATS = 9
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import cosmopoly.cli, cosmopoly.hstar, corpus
corpus.build_requests({workload!r}, {seed!r}, cosmopoly.hstar)
print(time.perf_counter() - t0)
"""
CHILD_TIMEOUT_S = 170

# A tiny graph run once per workload before timing, so that lazily
# initialised interpreter and library state does not land in the first pass.
WARMUP_TEXT = "vertices 2\n0 1\n"


def _env_start() -> dict:
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        # a checkout that is not a repository may sit inside one that is
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "cosmopoly").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    snippet = SETUP_SNIPPET.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", snippet],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def call_cli(cli, argv, text: str) -> tuple[float, int, str]:
    """One CLI call with ``text`` on stdin: (seconds, exit code, stdout)."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                code = cli.run(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is a failed request, not a crashed run
                traceback.print_exc(file=sys.stderr)
                code = -1
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = stdin
    return seconds, code, out.getvalue()


class Run:
    """Passes over one workload's requests, with their outcomes."""

    def __init__(self, cli, hstar_module, requests: list[corpus.Request]):
        self.cli = cli
        self.hstar = hstar_module
        self.requests = requests
        self.attempted = 0
        self.failures: list[str] = []

    def _record(self, req: corpus.Request, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{req.label}: {problem}")

    def timed_pass(self) -> tuple[float, list[float]]:
        """(pass seconds, per-request seconds); outputs are checked after timing."""
        outcomes = []
        t0 = time.perf_counter()
        for req in self.requests:
            outcomes.append(call_cli(self.cli, req.argv, req.text))
        pass_s = time.perf_counter() - t0
        for req, (_, code, out) in zip(self.requests, outcomes):
            self._record(req, corpus.check_output(req, code, out))
        return pass_s, [seconds for seconds, _, _ in outcomes]

    def traced_pass(self, tracer: layers.Tracer) -> tuple[float, dict, list[dict]]:
        """(pass seconds, per-layer metrics, per-request counts) under ``tracer``.

        The pass time sums the calls alone: the per-request counts and
        checks made between calls are not part of the tracing overhead."""
        tracer.reset()
        details = []
        pass_s = 0.0
        for req in self.requests:
            before = tracer.metrics()
            first_event = len(tracer.events)
            seconds, code, out = call_cli(self.cli, req.argv, req.text)
            pass_s += seconds
            after = tracer.metrics()
            problem = corpus.check_output(req, code, out)
            if problem is None:
                problem = self._check_events(req, tracer.events[first_event:])
            self._record(req, problem)
            counts = {k: after[k] - before[k] for k in layers.COUNT_METRICS}
            details.append({
                "label": req.label,
                "cells": [e[2] for e in tracer.events[first_event:] if e[0] == "cells"],
                "dilate_counts": {
                    e[2]: e[3] for e in tracer.events[first_event:] if e[0] == "dilate"
                },
                **{k: v for k, v in counts.items() if v},
            })
        return pass_s, tracer.metrics(), details

    def _check_events(self, req: corpus.Request, events: list[tuple]) -> str | None:
        """Cell counts against h*(1) and dilate counts against the N(t) that
        h* predicts, for layer calls made on the request's whole graph."""
        size = (req.vertices, req.edges)
        h = self.hstar.IntPolynomial(req.hstar)
        d = req.vertices + req.edges - 1
        for event in events:
            if event[1] != size:
                continue
            if event[0] == "cells" and event[2] != h(1):
                return f"{event[2]} cells, h*(1) = {h(1)}"
            if event[0] == "dilate":
                t, n = event[2], event[3]
                want = self.hstar.ehrhart_count_from_hstar(h, d, t)
                if n != want:
                    return f"N({t}) = {n}, h* predicts {want}"
        return None


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(run: Run, seconds: int) -> dict:
    """End-to-end numbers of closed-loop passes within ``seconds``: no pass
    starts that would, at the median pass time so far, end after them.

    Request latency percentiles are taken within each pass, over its
    requests, and then the median over passes is reported.  Pooling the
    calls of all passes instead would put the median of a two-graph corpus
    between its two clusters, on the extremes of each, where machine noise
    dominates."""
    deadline = time.perf_counter() + seconds
    pass_samples: list[float] = []
    p50_samples: list[float] = []
    p90_samples: list[float] = []
    while True:
        pass_s, per_request = run.timed_pass()
        pass_samples.append(pass_s)
        p50_samples.append(statistics.median(per_request))
        p90_samples.append(p90(per_request))
        if time.perf_counter() + statistics.median(pass_samples) > deadline:
            break
    ok = run.attempted - len(run.failures)
    return {
        "metrics": {
            "pass_s": statistics.median(pass_samples),
            "request_s_p50": statistics.median(p50_samples),
            "request_s_p90": statistics.median(p90_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": ok / run.attempted,
        },
        "pass_samples_s": pass_samples,
        "request_s_p50_per_pass": p50_samples,
        "request_s_p90_per_pass": p90_samples,
        "requests_per_pass": len(run.requests),
    }


def measure_traced(run: Run, seconds: int) -> dict:
    """Per-layer numbers: traced passes alternate with untraced ones within
    ``seconds``; the ratio of their medians is the tracing overhead."""
    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    details = None
    while True:
        plain.append(run.timed_pass()[0])
        tracer.install()
        try:
            pass_s, metrics, pass_details = run.traced_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(pass_s)
        per_pass.append(metrics)
        details = details or pass_details
        if time.perf_counter() + statistics.median(plain) + statistics.median(traced) > deadline:
            break
    first = per_pass[0]
    for metrics in per_pass[1:]:
        changed = [k for k in layers.COUNT_METRICS if metrics[k] != first[k]]
        if changed:
            run.failures.append(f"counts changed between identical passes: {changed}")
    out = {k: statistics.median(m[k] for m in per_pass) for k in first}
    out.update({k: first[k] for k in layers.COUNT_METRICS})
    out["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return {
        "metrics": out,
        "pass_samples_s": plain,
        "traced_pass_samples_s": traced,
        "missing_entry_points": tracer.missing,
        "requests_detail": details,
    }


def load_spec() -> dict:
    with open(SPEC, "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """The package from ``src/``; fails loudly if it is absent or shadowed."""
    if not (SRC / "cosmopoly" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cosmopoly package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cosmopoly.cli
    import cosmopoly.hstar

    if Path(cosmopoly.cli.__file__).resolve().parent != SRC / "cosmopoly":
        raise ImportError(f"cosmopoly imported from {cosmopoly.cli.__file__}, not {SRC}")
    return cosmopoly.cli, cosmopoly.hstar


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 refs: dict | None = None) -> dict:
    """One benchmark run in this process; returns its full record."""
    cli, hstar_module = import_program()
    env = _env_start()
    spec = load_spec()
    os.environ.pop("COSMOPOLY_CACHE", None)  # no cache: every call computes
    setup_samples = measure_setup(workload, seed)
    requests = corpus.build_requests(workload, seed, hstar_module, refs)
    run = Run(cli, hstar_module, requests)
    call_cli(cli, requests[0].argv, WARMUP_TEXT)

    if trace:
        result = measure_traced(run, seconds)
        declared = spec["per_layer"]
    else:
        result = measure(run, seconds)
        result["metrics"]["setup_s"] = statistics.median(setup_samples)
        declared = spec["end_to_end"]
    env["loadavg_end"] = list(os.getloadavg())
    values = result.pop("metrics")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "setup_samples_s": setup_samples,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": metrics,
        **result,
    }


def summary(record: dict) -> dict:
    """The result line: exactly correct, attempted, failed and metrics."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def write_record(record: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_table(workload: str, result: dict) -> None:
    """Every metric of a result line, in the order BENCHMARK.json declares them."""
    spec = load_spec()
    for meta in spec["end_to_end"] + spec["per_layer"]:
        m = result["metrics"].get(meta["name"])
        if m is not None:
            print(f"{workload:18s} {meta['name']:32s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    results = {}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 10 * args.seconds,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"seed {args.seed}, {args.seconds} s per workload, trace {args.trace}")
    for workload, result in results.items():
        print_table(workload, result)
        print(f"{workload:18s} {'failed/attempted':32s} {result['failed']:>10d}/{result['attempted']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "workloads": results}, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "results",
                        help="directory for the full run records (default bench/results)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record, args.out)
    print(f"workload {record['workload']}, seed {record['seed']}, "
          f"{record['attempted']} requests, {record['failed']} failed; record {path}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print_table(record["workload"], summary(record))
    print(json.dumps(summary(record), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
