"""The summary of scripts/bench_pairs.py, on canned perfbench result lines."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def _stdout(throughput, setup, failed=0):
    """What perfbench/run.py prints for one workload: a table, the env: line, the JSON line."""
    metrics = {
        "throughput_ops_s": {"value": throughput, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
    }
    env = {"git_commit": None, "src_lines": 2138}
    result = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
    table = f"workload  throughput_ops_s [1/s]\nw  {throughput}\n"
    return f"{table}env: {json.dumps(env)}\n{json.dumps(result)}\n"


def _runs(rows):
    out = []
    for seed, (throughput, setup, failed) in enumerate(rows, start=1):
        run = bench_pairs.parse_run(_stdout(throughput, setup, failed))
        run["seed"] = seed
        out.append(run)
    return out


def test_parse_run_reads_the_last_json_line_and_the_env_line():
    run = bench_pairs.parse_run(_stdout(10.0, 2.0, failed=3))
    assert run["failed"] == 3 and run["attempted"] == 100
    assert run["metrics"]["setup_s"]["value"] == 2.0
    assert run["env"] == {"git_commit": None, "src_lines": 2138}


def test_summary_medians_wins_and_spread():
    parent = _runs([(10.0, 2.0, 0), (11.0, 2.1, 1), (12.0, 2.2, 0), (13.0, 2.3, 0)])
    change = _runs([(11.0, 2.0, 0), (10.0, 2.2, 0), (13.0, 2.1, 2), (14.0, 2.4, 0)])
    s = bench_pairs.summarize({"parent": parent, "change": change}, SPEC)
    assert s["seeds"] == [1, 2, 3, 4]
    assert s["failed_attempted"]["change"] == [[0, 100], [0, 100], [2, 100], [0, 100]]
    assert s["runs"]["parent"]["throughput_ops_s"] == [10.0, 11.0, 12.0, 13.0]
    tp = s["metrics"]["throughput_ops_s"]
    assert (tp["parent_median"], tp["change_median"]) == (11.5, 12.0)
    assert tp["change_wins"] == 3  # higher is better: pairs 1, 3 and 4
    # inclusive quartiles of 10..13 are 10.75 and 12.25
    assert tp["parent_iqr_share"] == pytest.approx(1.5 / 11.5)
    assert tp["status"] == "within_bound"
    setup = s["metrics"]["setup_s"]
    assert setup["change_wins"] == 1  # lower is better: only pair 3; pair 1 ties
    assert setup["pairs"] == 4


@pytest.mark.parametrize(
    "parent, change, status",
    [
        ([10.0, 10.0, 10.0], [7.0, 7.0, 7.0], "regressed"),  # 30% fewer ops/s, bound 25%
        ([10.0, 10.0, 10.0], [8.0, 8.0, 8.0], "within_bound"),
        ([5.0, 10.0, 15.0], [7.0, 7.0, 7.0], "unresolved"),  # parent IQR is 50% of its median
        ([5.0, 10.0, 15.0], [16.0, 17.0, 18.0], "within_bound"),  # every change run is better
        ([10.0], [5.0], "unresolved"),  # one run has no spread
    ],
)
def test_summary_status(parent, change, status):
    got = bench_pairs.summarize_metric(parent, change, "higher", 0.25)
    assert got["status"] == status
