"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --write perfbench/out/baseline.json
    python3 perfbench/baseline.py --compare perfbench/BASELINE.json perfbench/out/baseline.json

For each workload and end-to-end metric the file keeps the ten values, their
median, and the quartile spread: (Q3 - Q1) / median, with quartiles from
`statistics.quantiles(values, n=4)`.  --compare prints, for every workload
and gated metric, how far the second file's median is from the first's on
the worse side, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result_file(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median if median else None, "values": values}


def measure(spec: dict, seeds: list[int], seconds: int) -> dict:
    names = [m["name"] for m in spec["end_to_end"]] + ["fail_rate", "error_deg_p50"]
    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in spec["workloads"]:
        runs = []
        walls = []
        for seed in seeds:
            t0 = time.monotonic()
            verdict = _run("--workload", w["name"], "--seed", str(seed), "--seconds", str(seconds))
            walls.append(time.monotonic() - t0)
            runs.append((verdict, _result_file(w["name"], seed, 0)))
            print(w["name"], seed, json.dumps(runs[-1][1]["metrics"]), flush=True)
        first = ["--workload", w["name"], "--seed", str(seeds[0]), "--seconds", str(seconds)]
        _run(*first, "--trace", "1")
        doc["workloads"][w["name"]] = {
            "correct_runs": sum(v["correct"] for v, _ in runs),
            "attempted": sum(v["attempted"] for v, _ in runs),
            "failed": sum(v["failed"] for v, _ in runs),
            "end_to_end": {n: summarize([r["metrics"][n] for _, r in runs]) for n in names},
            "run_wall_s": walls,
            "per_layer_seed": seeds[0],
            "per_layer": _result_file(w["name"], seeds[0], 1)["metrics"],
        }
        doc["env"] = runs[-1][1]["env"]
    return doc


def compare(spec: dict, first: dict, second: dict) -> bool:
    ok = True
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = first["workloads"][w["name"]]["end_to_end"][m["name"]]
            b = second["workloads"][w["name"]]["end_to_end"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max(a["spread"], b["spread"])
            within = worse <= m["bound"] and (m["name"] == "setup_s" or spread <= m["bound"])
            ok &= within
            print(
                f"{w['name']:<15} {m['name']:<17} {a['median']:>12.5g} {b['median']:>12.5g} "
                f"worse {worse:+.3f}  spread {spread:.3f}  bound {m['bound']}  "
                f"{'ok' if within else 'OUT'}"
            )
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="'1-10' or '1,5,9'")
    ap.add_argument("--write", help="measure and write the baseline here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two baseline files")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        return 0 if compare(spec, *docs) else 1
    if not args.write:
        ap.error("give --write or --compare")
    doc = measure(spec, args.seeds, spec["run_seconds"])
    with open(args.write, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
