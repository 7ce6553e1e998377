"""Child process that sets up and measures one workload.

`run.py` starts it with the BLAS thread variables already set, so numpy
never sees another value.  It prints one JSON object on its last stdout
line.  With --setup-only it sets up, warms up, reports `setup_s` and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# Set-up time counts from here: importing numpy and rotavg is part of it.
_STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_ENV  # noqa: E402

# Latency percentiles to choose the tail from, highest first; the median is
# the fallback.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# Ops per tail window: one desk_sweep sweep.  Runs with fewer than two
# windows' worth of ops take the tail over all their ops.
TAIL_WINDOW = 300


@dataclass
class Window:
    ops: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    busy_s: float = 0.0
    first_cycle_errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def latencies_ms(self) -> list[float]:
        return sorted(self.latencies_in_order_ms())

    def latencies_in_order_ms(self) -> list[float]:
        return [op.latency_s * 1e3 for op in self.ops]


def measure(wl, seconds: float, min_calls: int, op_span) -> Window:
    """Closed loop, one caller: next call starts when the previous one ends.

    Runs until `seconds` have passed and at least `min_calls` calls are done.
    Only the calls are timed; checks run between them.
    """
    w = Window()
    k = 0
    deadline = time.perf_counter() + seconds
    while k < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            raw = wl.call(k, op_span)
        except Exception:  # an op that raises counts as failed; the loop goes on
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            got, bad = [workloads.Op(wall, math.inf, False)], []
        else:
            wall = time.perf_counter() - t0
            got, bad = wl.check(k, raw, wall)
        w.busy_s += wall
        w.ops += got
        w.problems += bad
        if k < wl.cycle:
            w.first_cycle_errors += [op.error_deg for op in got]
        k += 1
    return w


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it.

    Nearest-rank percentile over sorted latencies.  When not even the 75th
    percentile has that many samples above it, the tail is the median.
    """
    n = len(latencies_ms)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100.0))
        if n - rank >= TAIL_BEYOND:
            return p, latencies_ms[rank - 1]
    return 50.0, statistics.median(latencies_ms)


def windowed_tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(percentile, value, windows): the median over windows of each window's `tail`.

    The ops, in the order they ran, are cut into n // TAIL_WINDOW runs of
    consecutive ops (at least one), as equal in size as they can be.  A
    tail taken over a whole run moves with every burst of load from other
    programs on the machine; the median over windows does not.  The
    percentile reported is the median of the windows' percentiles.
    """
    n = len(latencies_ms)
    k = max(1, n // TAIL_WINDOW)
    tails = [tail(sorted(latencies_ms[i * n // k : (i + 1) * n // k])) for i in range(k)]
    return (
        statistics.median(p for p, _ in tails),
        statistics.median(v for _, v in tails),
        k,
    )


def end_to_end(w: Window, setup_s: float) -> dict:
    lat = w.latencies_ms()
    pct, tail_ms, windows = windowed_tail(w.latencies_in_order_ms())
    return {
        "throughput_ops_s": len(w.ops) / w.busy_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "latency_tail_percentile": pct,
        "latency_tail_windows": windows,
        "latency_samples": len(lat),
        "fail_rate": w.failed / len(w.ops),
        "error_deg_p50": statistics.median(w.first_cycle_errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for written inputs and spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(args.out, "work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, workdir)
    warm = measure(wl, 0.0, 1, contextlib.nullcontext)
    setup_s = time.perf_counter() - _STARTED
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace == 0:
        w = measure(wl, args.seconds, wl.cycle, contextlib.nullcontext)
        result["metrics"] = end_to_end(w, setup_s)
        windows = [warm, w]
    else:
        plain = measure(wl, args.seconds / 2, 1, contextlib.nullcontext)
        tracer = tracing.Tracer()
        with tracer.patch():
            traced = measure(wl, args.seconds / 2, 1, tracer.op)
        layers = tracing.layer_metrics(tracer.spans, workers=wl.workers)
        untraced_ms = statistics.median(plain.latencies_ms())
        traced_ms = statistics.median(traced.latencies_ms())
        layers["trace.latency_p50_ms"] = traced_ms
        layers["trace.untraced_latency_p50_ms"] = untraced_ms
        layers["trace.overhead_ratio"] = traced_ms / untraced_ms
        result["metrics"] = layers
        result["spans_file"] = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(result["spans_file"])
        windows = [warm, plain, traced]

    measured = windows[1:]
    result["attempted"] = sum(len(w.ops) for w in measured)
    result["failed"] = sum(w.failed for w in measured)
    result["problems"] = sorted({p for w in windows for p in w.problems})
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
