"""Span recorder for the traced benchmark run.

`Tracer.patch()` wraps the public rotavg functions listed in TARGETS.  Each
wrapped call records a span: name, start, end, parent span, op id, thread.
Each thread keeps its own parent stack.  A span opened on a worker thread
with an empty stack is parented to the innermost span open on the thread
that created the tracer.  That thread is the one that submitted the work to
the pool, so the worker pools in `bench.run_scenario` and
`registration.harvest_hypotheses` nest under their caller.  Spans stay in
memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# Module -> public functions whose calls become spans.  Span names are
# "<module>.<function>", e.g. "averaging.proxy_initialize".
TARGETS = {
    "rotavg.so3": ("log_map", "exp_map", "project_to_so3", "chordal_distance"),
    "rotavg.averaging": (
        "proxy_initialize",
        "select_inliers",
        "chordal_l2_mean",
        "weiszfeld_geodesic_l1",
        "robust_average",
    ),
    "rotavg.bench": ("generate_trial", "run_scenario"),
    "rotavg.fileio": ("read_rotations", "load_cloud"),
    "rotavg.registration": ("normalize_cloud", "corrupt_cloud", "harvest_hypotheses"),
    "rotavg.cli": ("main",),
}

# The benchmark opens a span with this name around each op; it is the root
# that the op's latency and self-time accounting refer to.
OP = "op"


def _n_samples(args, kwargs) -> int:
    return len(args[0] if args else kwargs["samples"])


# Counts read off a call's arguments or result, after its end time is taken.
_INFO = {
    "averaging.proxy_initialize": lambda a, kw, r: {"n": _n_samples(a, kw)},
    "averaging.robust_average": lambda a, kw, r: {"n": _n_samples(a, kw), "inliers": len(r.inliers)},
    "averaging.weiszfeld_geodesic_l1": lambda a, kw, r: {
        "iterations": r.iterations,
        "guard_fired": bool(r.guard_fired),
    },
    "fileio.read_rotations": lambda a, kw, r: {"rows": len(r[0])},
    "registration.harvest_hypotheses": lambda a, kw, r: {"hyps": len(r)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans for calls into rotavg; use as `with tracer.patch(): ...`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()
        self._next_op = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op: int | None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._home_stack[-1]
            except IndexError:
                parent = None
        if op is None and parent is not None:
            op = self.spans[parent].op
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op, threading.get_ident()))
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    @contextlib.contextmanager
    def op(self):
        """Span for one benchmark op; every span it encloses carries its op id."""
        with self._lock:
            op_id = self._next_op
            self._next_op += 1
        sid = self._open(OP, op_id)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(sid)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Wrap every TARGETS function in every rotavg namespace that binds it.

        `from rotavg.averaging import robust_average` binds the function in
        `cli`, `bench` and `registration` too, so each of those bindings is
        replaced.  All bindings are restored on exit.
        """
        saved = []
        try:
            for module_name, names in TARGETS.items():
                short = module_name.split(".", 1)[1]
                for name in names:
                    original = getattr(sys.modules[module_name], name)
                    traced = self.wrap(f"{short}.{name}", original)
                    for mod in _rotavg_modules():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                saved.append((mod, attr, original))
                                setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write_spans(self, path) -> None:
        """One JSON object per line, in the order the spans were opened."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _rotavg_modules():
    return [m for n, m in list(sys.modules.items()) if n == "rotavg" or n.startswith("rotavg.")]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap each other; the covered part is the
    union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for sid, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(sid, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = (
    ("so3.log_map.ms", "ms", "lower"),
    ("so3.log_map.calls", "count", "lower"),
    ("so3.exp_map.ms", "ms", "lower"),
    ("so3.exp_map.calls", "count", "lower"),
    ("so3.project_to_so3.ms", "ms", "lower"),
    ("so3.chordal_distance.ms", "ms", "lower"),
    ("averaging.proxy_initialize.ms", "ms", "lower"),
    ("averaging.proxy_initialize.share", "ratio", "lower"),
    ("averaging.proxy_initialize.pairs_per_s", "1/s", "higher"),
    ("averaging.select_inliers.ms", "ms", "lower"),
    ("averaging.chordal_l2_mean.ms", "ms", "lower"),
    ("averaging.weiszfeld_geodesic_l1.ms", "ms", "lower"),
    ("averaging.weiszfeld_geodesic_l1.iterations", "count", "lower"),
    ("averaging.inlier_fraction", "ratio", "higher"),
    ("averaging.guard_fired", "count", "lower"),
    ("averaging.robust_average.self_ms", "ms", "lower"),
    ("bench.generate_trial.ms", "ms", "lower"),
    ("bench.run_scenario.ms", "ms", "lower"),
    ("bench.pool_utilization", "ratio", "higher"),
    ("fileio.read_rotations.ms", "ms", "lower"),
    ("fileio.read_rotations.rows_per_s", "1/s", "higher"),
    ("fileio.load_cloud.ms", "ms", "lower"),
    ("registration.normalize_cloud.ms", "ms", "lower"),
    ("registration.corrupt_cloud.ms", "ms", "lower"),
    ("registration.harvest_hypotheses.ms", "ms", "lower"),
    ("registration.harvest_hypotheses.hyps_per_s", "1/s", "higher"),
    ("registration.harvest_hypotheses.share", "ratio", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("op.self_ms", "ms", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.latency_p50_ms", "ms", "lower"),
    ("trace.untraced_latency_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer figures from one traced window (the `trace.*` timings excepted).

    A layer's time per op is the median over ops of its self time inside
    the op, plus its self time outside every op divided by the op count.
    The second term charges work that serves ops from outside them, such as
    trial generation and the trial loop in `desk_sweep`.  A layer that was
    never called reads 0.
    """
    selfs = [st * 1e3 for st in self_times(spans)]
    op_ms = {s.op: (s.end - s.start) * 1e3 for s in spans if s.name == OP}
    n_ops = max(1, len(op_ms))
    inside = defaultdict(lambda: defaultdict(float))  # name -> op -> self ms
    calls = defaultdict(lambda: defaultdict(int))  # name -> op -> calls
    outside_ms = defaultdict(float)
    outside_calls = defaultdict(int)
    by_name = defaultdict(list)
    for span, st in zip(spans, selfs):
        by_name[span.name].append(span)
        if span.op is None:
            outside_ms[span.name] += st
            outside_calls[span.name] += 1
        else:
            inside[span.name][span.op] += st
            calls[span.name][span.op] += 1

    def ms(name):
        return _median(inside[name][o] for o in op_ms) + outside_ms[name] / n_ops

    def count(name):
        return _median(calls[name][o] for o in op_ms) + outside_calls[name] / n_ops

    def share(name):
        return _median(inside[name][o] / op_ms[o] for o in op_ms if op_ms[o] > 0.0)

    def rate(name, key, scale=lambda x: x):
        return _median(scale(s.info[key]) / (s.end - s.start) for s in by_name[name] if s.end > s.start)

    def info(name, fn):
        return _median(fn(s.info) for s in by_name[name] if s.op is not None)

    def accounted(o):
        return sum(per_op[o] for per_op in inside.values()) / op_ms[o]

    scenario_ids = {i for i, s in enumerate(spans) if s.name == "bench.run_scenario"}
    pool_busy = sum(s.end - s.start for s in spans if s.parent in scenario_ids)
    pool_wall = sum(spans[i].end - spans[i].start for i in scenario_ids)

    out = {}
    for layer in ("so3.log_map", "so3.exp_map"):
        out[f"{layer}.ms"] = ms(layer)
        out[f"{layer}.calls"] = count(layer)
    for layer in (
        "so3.project_to_so3",
        "so3.chordal_distance",
        "averaging.proxy_initialize",
        "averaging.select_inliers",
        "averaging.chordal_l2_mean",
        "averaging.weiszfeld_geodesic_l1",
        "bench.generate_trial",
        "bench.run_scenario",
        "fileio.read_rotations",
        "fileio.load_cloud",
        "registration.normalize_cloud",
        "registration.corrupt_cloud",
        "registration.harvest_hypotheses",
    ):
        out[f"{layer}.ms"] = ms(layer)
    out["averaging.proxy_initialize.share"] = share("averaging.proxy_initialize")
    out["averaging.proxy_initialize.pairs_per_s"] = rate(
        "averaging.proxy_initialize", "n", lambda n: float(n) * n
    )
    out["averaging.weiszfeld_geodesic_l1.iterations"] = info(
        "averaging.weiszfeld_geodesic_l1", lambda i: i["iterations"]
    )
    out["averaging.inlier_fraction"] = info("averaging.robust_average", lambda i: i["inliers"] / i["n"])
    weiszfeld = by_name["averaging.weiszfeld_geodesic_l1"]
    out["averaging.guard_fired"] = float(sum(s.info["guard_fired"] for s in weiszfeld))
    out["averaging.robust_average.self_ms"] = ms("averaging.robust_average")
    out["bench.pool_utilization"] = pool_busy / (pool_wall * workers) if pool_wall > 0.0 else 0.0
    out["fileio.read_rotations.rows_per_s"] = rate("fileio.read_rotations", "rows")
    out["registration.harvest_hypotheses.hyps_per_s"] = rate("registration.harvest_hypotheses", "hyps")
    out["registration.harvest_hypotheses.share"] = share("registration.harvest_hypotheses")
    out["cli.main.self_ms"] = ms("cli.main")
    out["op.self_ms"] = ms(OP)
    out["trace.accounted_share"] = _median(accounted(o) for o in op_ms if op_ms[o] > 0.0)
    return out
