"""Compare two commits on the benchmark in alternating pairs; write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label 21 \
        --workload desk_sweep:10 --workload register_cloud:10 \
        --workload sparse_10k:4 --workload dense_file_3k:4

PARENT and CHANGE are git revisions of this repository; for uncommitted
work, stage it and pass `$(git stash create)` as CHANGE.  Each is exported
with `git archive` into a temporary directory, and pair i (seed i, from 1)
runs `perfbench/run.py --workload w --seed i` once in each, the parent first
in odd pairs and the change first in even ones, so drift in machine speed
falls on both sides alike.  The checkouts hold no .git, so the script
records each side's commit and src/ tree itself.  It changes no file in the
repository apart from the BENCH file it writes.

For every workload and end-to-end metric of BENCHMARK.json the file gives
both medians, the parent's interquartile range as a share of its median,
and the pairs the change won (ties count for neither side).  A metric is
"unresolved" when that share is wider than the metric's bound, unless every
change run beats every parent run; otherwise it is "regressed" when the
change median is worse than the parent's by more than the bound, and
"within_bound" when it is not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The result of one perfbench/run.py: its last JSON line, with the env: line as "env"."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(
        (json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")), None
    )
    return result


def _iqr_share(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2 if q2 else None


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, parent spread, pair wins and status of one metric; run i of each side is pair i."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    share = _iqr_share(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if share is None or share > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        status = "within_bound" if all_better else "unresolved"
    elif sign * (c_med - p_med) < -bound * abs(p_med):
        status = "regressed"
    else:
        status = "within_bound"
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr_share": share,
        "bound": bound,
        "change_wins": wins,
        "pairs": min(len(parent), len(change)),
        "status": status,
    }


def summarize(runs: dict, spec: dict) -> dict:
    """Per-seed failures and per-metric summaries of one workload.

    runs maps "parent" and "change" to parse_run results in seed order;
    spec is BENCHMARK.json.
    """
    values = {
        side: {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[side]]
               for m in spec["end_to_end"]}
        for side in SIDES
    }
    return {
        "seeds": [r["seed"] for r in runs["parent"]],
        "failed_attempted": {
            side: [[r["failed"], r["attempted"]] for r in runs[side]] for side in SIDES
        },
        "runs": values,
        "metrics": {
            m["name"]: summarize_metric(
                values["parent"][m["name"]], values["change"][m["name"]], m["better"], m["bound"]
            )
            for m in spec["end_to_end"]
        },
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: str) -> None:
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def _run(checkout: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = parse_run(proc.stdout)
    result["seed"] = seed
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS",
                    help="a BENCHMARK.json workload and its number of pairs; repeatable")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        known = name in [w["name"] for w in spec["workloads"]]
        if not (known and pairs.isdigit() and int(pairs) > 0):
            ap.error(f"--workload wants NAME:PAIRS with a BENCHMARK.json name, got {item!r}")
        plan.append((name, int(pairs)))

    revs = {"parent": args.parent, "change": args.change}
    doc = {"label": args.label, "sides": {}, "workloads": {}}
    for side, rev in revs.items():
        doc["sides"][side] = {
            "rev": rev,
            "commit": _git("rev-parse", f"{rev}^{{commit}}"),
            "src_tree": _git("rev-parse", f"{rev}:src"),
            "env": None,
        }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            _export(revs[side], checkouts[side])
        for name, pairs in plan:
            runs = {side: [] for side in SIDES}
            for seed in range(1, pairs + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    runs[side].append(_run(checkouts[side], name, seed))
                    print(f"{name} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
            for side in SIDES:
                doc["sides"][side]["env"] = doc["sides"][side]["env"] or runs[side][0]["env"]
            doc["workloads"][name] = summarize(runs, spec)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
