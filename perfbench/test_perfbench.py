"""Tests for the benchmark's own code: python -m pytest perfbench"""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracing
import worker
import workloads
from rotavg import bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _span(name, start, end, parent=None, op=None, thread=0, **info):
    return tracing.Span(name, start, end, parent, op, thread, info)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0, thread=1),  # overlaps a: covered part is [1, 6]
        _span("a.x", 2.0, 3.0, parent=1),
        _span("c", 9.0, 12.0, parent=0),  # only [9, 10] lies inside root
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_charge_self_time_per_op_and_account_for_op_latency():
    spans = [
        _span("bench.run_scenario", 0.0, 0.100),
        _span(tracing.OP, 0.000, 0.010, parent=0, op=0),
        _span("averaging.robust_average", 0.001, 0.010, parent=1, op=0, n=100, inliers=25),
        _span("averaging.proxy_initialize", 0.002, 0.008, parent=2, op=0, n=100),
        _span(tracing.OP, 0.020, 0.040, parent=0, op=1, thread=1),
        _span("averaging.robust_average", 0.021, 0.040, parent=4, op=1, thread=1, n=100, inliers=50),
        _span("averaging.proxy_initialize", 0.022, 0.032, parent=5, op=1, thread=1, n=100),
        _span("bench.generate_trial", 0.050, 0.054, parent=0),
    ]
    m = tracing.layer_metrics(spans, workers=2)
    assert m["averaging.proxy_initialize.ms"] == pytest.approx(8.0)  # median of 6 and 10
    assert m["averaging.robust_average.self_ms"] == pytest.approx(6.0)  # median of 3 and 9
    assert m["averaging.proxy_initialize.share"] == pytest.approx(0.55)  # median of 0.6 and 0.5
    assert m["averaging.proxy_initialize.pairs_per_s"] == pytest.approx((1e4 / 0.006 + 1e4 / 0.010) / 2)
    assert m["averaging.inlier_fraction"] == pytest.approx(0.375)
    assert m["bench.generate_trial.ms"] == pytest.approx(2.0)  # 4 ms outside ops, 2 ops
    assert m["bench.run_scenario.ms"] == pytest.approx((100.0 - 34.0) / 2)
    assert m["bench.pool_utilization"] == pytest.approx(0.034 / (0.100 * 2))
    assert m["op.self_ms"] == pytest.approx(1.0)
    assert m["trace.accounted_share"] == pytest.approx(1.0)
    assert m["fileio.read_rotations.ms"] == 0.0


def _rotavg_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "rotavg" or name.startswith("rotavg.")
        for attr, value in vars(mod).items()
    }


def test_patch_replaces_every_binding_and_restore_makes_them_identical_again():
    import rotavg
    from rotavg import averaging, cli, registration

    before = _rotavg_bindings()
    original = averaging.robust_average
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patch():
            wrapped = averaging.robust_average
            assert wrapped is not original
            for mod in (rotavg, cli, bench, registration):
                assert mod.robust_average is wrapped
            raise RuntimeError("leave the block early")
    after = _rotavg_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_nest_per_thread_under_a_two_worker_pool():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        return threading.get_ident()

    traced_inner = tracer.wrap("inner", inner)

    def outer(_):
        barrier.wait()  # both workers hold an open "outer" span at once
        return traced_inner()

    traced_outer = tracer.wrap("outer", outer)
    with tracer.op():
        with ThreadPoolExecutor(max_workers=2) as ex:
            assert len(set(ex.map(traced_outer, range(2)))) == 2
    home, outers, inners = tracer.spans[0], tracer.spans[1:3], tracer.spans[3:]
    assert {s.name for s in outers} == {"outer"} and {s.name for s in inners} == {"inner"}
    for s in outers:
        assert s.parent == 0 and s.op == home.op
    for s in inners:
        parent = tracer.spans[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _tiny(name, tmp_path):
    if name == "sparse_10k":
        return workloads.Sparse10k(seed=3, n=2000, cycle=2)
    if name == "dense_file_3k":
        return workloads.DenseFile3k(seed=3, workdir=str(tmp_path), n=300, cycle=2)
    if name == "desk_sweep":
        scenarios = [bench.BenchScenario(200, 0.5, 5.0, 6, seed) for seed in (3, 4)]
        return workloads.DeskSweep(seed=3, scenarios=scenarios)
    return workloads.RegisterCloud(seed=3, cycle=2)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks_untraced_and_traced(name, tmp_path, in_root):
    wl = _tiny(name, tmp_path)
    plain = worker.measure(wl, 0.0, 2 * wl.cycle, contextlib.nullcontext)
    assert plain.problems == [] and plain.failed == 0 and plain.ops
    assert all(math.isfinite(e) for e in plain.first_cycle_errors)

    tracer = tracing.Tracer()
    with tracer.patch():
        traced = worker.measure(wl, 0.0, wl.cycle, tracer.op)
    assert traced.problems == [] and traced.failed == 0
    m = tracing.layer_metrics(tracer.spans, workers=wl.workers)
    assert m["trace.accounted_share"] == pytest.approx(1.0)
    assert m["averaging.proxy_initialize.ms"] > 0.0
    called = {
        "dense_file_3k": "fileio.read_rotations.ms",
        "desk_sweep": "bench.generate_trial.ms",
        "register_cloud": "registration.harvest_hypotheses.ms",
    }
    if name in called:
        assert m[called[name]] > 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert worker.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert worker.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert worker.tail([1.0, 2.0, 3.0, 4.0]) == (50.0, 2.5)


def test_windowed_tail_is_the_median_of_per_window_tails():
    window = [float(i) for i in range(1, worker.TAIL_WINDOW + 1)]
    p, v = worker.tail(window)
    # Fewer than two windows' worth of ops: one tail over all of them.
    assert worker.windowed_tail(window[::-1]) == (p, v, 1)
    # A burst that slows one window of three moves the pooled tail, not the median.
    slow = [x + 1000.0 for x in window]
    three = window + slow + window[::-1]
    assert worker.tail(sorted(three))[1] > 1000.0
    assert worker.windowed_tail(three) == (p, v, 3)


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    reported = set(tracing.layer_metrics([], workers=2)) | {
        "trace.latency_p50_ms",
        "trace.untraced_latency_p50_ms",
        "trace.overhead_ratio",
    }
    assert reported == {m["name"] for m in spec["per_layer"]}
    w = worker.Window(ops=[workloads.Op(0.1, 1.0, True)], busy_s=0.1, first_cycle_errors=[1.0])
    assert {m["name"] for m in spec["end_to_end"]} <= set(worker.end_to_end(w, 1.0))


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["--workload", "sparse_10k", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
