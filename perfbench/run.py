"""Run the rotavg benchmark: one workload, or all of them, each in fresh child processes.

    python3 perfbench/run.py --workload sparse_10k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Every child is `worker.py`, started with BLAS pinned to one thread.  With
--trace 0 the workload is set up SETUP_RUNS times, each time in a new
process, and `setup_s` is the median; the last of those processes also
measures the end-to-end metrics.  With --trace 1 one process measures an
untraced window and then a traced one, each --seconds / 2 long, and reports
the per-layer metrics.  The last line of stdout is the JSON result; full
results, spans and written inputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 3
# Wall-clock budget for all child processes of one workload.
WORKLOAD_BUDGET_S = 170.0
# A run is correct when no program contract broke and at most this share of
# ops missed its accuracy limit.  The estimator breaks down on some inputs at
# 96-99% outliers (acceptance criterion 4 allows 2% of trials at 99%), and an
# input that breaks down fails again on every pass of its cycle: one such
# case among register_cloud's 32 is 3.1% of the ops.  An estimator that is
# actually broken misses on most ops.
ALLOWED_FAIL_SHARE = 0.10
# Reported with every workload but not gated: fail_rate can be 0, and
# error_deg_p50 varies across seeds by more than any allowed bound.
REPORTED = (("fail_rate", "ratio"), ("error_deg_p50", "deg"))
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {' '.join(args)} ran out of time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--out", OUT]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_child([*common, "--setup-only"], deadline)["setup_s"])
    result = _child([*common, "--trace", str(trace)], deadline)
    if not trace:
        setups.append(result["setup_s"])
        result["setup_runs_s"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["correct"] = not result["problems"] and (
        result["failed"] <= ALLOWED_FAIL_SHARE * result["attempted"]
    )
    return result


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def print_end_to_end(results: list[dict], gated: list[dict]) -> None:
    cols = [(m["name"], m["unit"]) for m in gated] + list(REPORTED)
    header = ["workload"] + [f"{n} [{u}]" for n, u in cols]
    rows = []
    for r in results:
        m = r["metrics"]
        row = [r["workload"]]
        for n, _ in cols:
            cell = _fmt(m[n])
            if n == "latency_tail_ms":
                cell += f" (p{m['latency_tail_percentile']:g}"
                if m["latency_tail_windows"] > 1:
                    cell += f", median of {m['latency_tail_windows']} windows"
                cell += f", n={m['latency_samples']})"
            elif n == "fail_rate":
                cell += f" ({r['failed']}/{r['attempted']})"
            row.append(cell)
        rows.append(row)
    _print_table(header, rows)


def print_per_layer(results: list[dict], per_layer: list[dict]) -> None:
    header = ["metric [unit]"] + [r["workload"] for r in results]
    rows = [
        [f"{m['name']} [{m['unit']}]"] + [_fmt(r["metrics"][m["name"]]) for r in results]
        for m in per_layer
    ]
    _print_table(header, rows)


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(line[i]) for line in [header, *rows]) for i in range(len(header))]
    for line in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rotavg benchmark")
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rotavg", "__init__.py")):
        print(f"error: no rotavg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        choices = ", ".join(names)
        print(f"error: unknown workload {args.workload!r}; choose from {choices} or all", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    results = []
    try:
        for name in names if args.workload == "all" else [args.workload]:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
            results.append(result)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        print_per_layer(results, listed)
    else:
        print_end_to_end(results, listed)
    for r in results:
        for problem in r["problems"]:
            print(f"problem: {r['workload']}: {problem}")
    print("env: " + json.dumps(results[-1]["env"], sort_keys=True))

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + m["name"]: {
            "value": r["metrics"][m["name"]],
            "unit": m["unit"],
        }
        for r in results
        for m in listed
    }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
