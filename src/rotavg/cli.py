"""Command-line front end.

Three subcommands:

``rotavg average``   robust-average a rotation list from a text file.
``rotavg bench``     Monte-Carlo accuracy/runtime sweeps on synthetic data.
``rotavg register``  recover the rotation between two corresponding clouds,
                     or corrupt one cloud into a full synthetic scenario.

Exit codes: 0 on success, 2 for unreadable/malformed inputs, unwritable
outputs or bad parameters, 3 when the numbers themselves defeat the computation
(non-rotation inputs without --repair, degenerate matrices, hypothesis
harvesting hitting its attempt cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from rotavg import bench, fileio, registration, so3
from rotavg.averaging import TludConfig, robust_average

__all__ = ["main"]


def _list_of(kind):
    """argparse type parsing a comma-separated list of kind (int or float)."""

    def parse(text: str) -> list:
        try:
            values = [kind(f) for f in text.split(",") if f.strip()]
        except ValueError:
            values = []
        if not values:  # a malformed field, or no field at all
            raise argparse.ArgumentTypeError(f"not a comma-separated {kind.__name__} list: {text!r}")
        return values

    return parse


def _dump_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _tlud_config(args: argparse.Namespace) -> TludConfig:
    return TludConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TludConfig)})


def _add_tlud_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon-c", type=float, default=TludConfig.epsilon_c, metavar="EPS",
                   help="chordal inlier threshold (default %(default)s)")
    p.add_argument("--delta", type=float, default=TludConfig.delta, metavar="D",
                   help="refinement stop threshold in radians (default %(default)s)")
    p.add_argument("--it-max", type=int, default=TludConfig.it_max, metavar="K",
                   help="max refinement iterations (default %(default)s)")
    p.add_argument("--realternate", type=int, default=TludConfig.realternate, metavar="R",
                   help="extra select/refine rounds until the inlier set settles (default %(default)s)")


def _cmd_average(args: argparse.Namespace) -> int:
    rotations, repaired = fileio.read_rotations(args.input, fmt=args.format, repair=args.repair)
    if repaired:
        print(f"warning: repaired {repaired} near-rotation row(s) by projection", file=sys.stderr)
    result = robust_average(rotations, _tlud_config(args))
    _dump_json(
        {
            "estimate": [float(v) for v in result.estimate.ravel()],
            "inlier_indices": [int(i) for i in result.inliers],
            "init_index": None if result.init_index is None else int(result.init_index),
            "iterations": int(result.iterations),
            "final_cost": float(result.final_cost),
        },
        args.out_json,
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}  # no --seed: each builder's default
    if args.preset == "desk":
        scenarios = bench.desk_preset(**seed)
    else:
        scenarios = bench.grid(args.n, args.ratio, args.sigma, args.trials, **seed)
    estimators = bench.default_estimators()
    methods = {}
    for name in args.methods.split(","):
        name = name.strip()
        if name not in estimators:
            raise ValueError(f"unknown method {name!r}; available: {', '.join(sorted(estimators))}")
        methods[name] = estimators[name]
    rows = bench.sweep(scenarios, methods)
    if args.no_timing:
        rows = bench.without_timing(rows)
    print(bench.format_summary_table(rows))
    if args.out_csv:
        bench.write_trials_csv(args.out_csv, rows)
    if args.out_json:
        bench.write_summary_json(args.out_json, rows)
    return 0


def _cmd_register(args: argparse.Namespace) -> int:
    src = fileio.load_cloud(args.src)
    if args.dst is not None:
        # Two-file mode: clouds already correspond point-for-point.
        dst = fileio.load_cloud(args.dst)
        scen = registration.RegistrationScenario(
            seed=args.seed, n_hypotheses=args.hypotheses, ratio_tolerance=args.ratio_tol
        )
    else:
        # Scenario mode: corrupt the cloud ourselves and score the recovery.
        src, dst, scen = registration.synthetic_pair(
            src, args.seed, args.outlier_fraction, n_points=args.points,
            n_hypotheses=args.hypotheses, noise_sigma=args.noise_sigma,
            ratio_tolerance=args.ratio_tol, scale=args.scale,
        )

    hyps = registration.harvest_hypotheses(src, dst, scen, attempt_cap=args.attempt_cap)
    if args.out_hypotheses:
        fileio.write_rotations(args.out_hypotheses, hyps, header="hypothesis rotations, row-major")
    result = robust_average(hyps, _tlud_config(args))
    payload = {
        "estimate": [float(v) for v in result.estimate.ravel()],
        "final_cost": float(result.final_cost),
        "inlier_count": int(len(result.inliers)),
        "iterations": int(result.iterations),
        "n_hypotheses": int(len(hyps)),
    }
    if args.dst is None:
        payload["error_deg"] = math.degrees(so3.geodesic_distance(result.estimate, scen.rotation))
    _dump_json(payload, args.out_json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotavg",
        description="Robust single rotation averaging: truncated-loss estimation, "
        "synthetic benchmarks, and hypothesis-based cloud registration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_avg = sub.add_parser(
        "average",
        help="robust-average a rotation list from a text file",
        description="Read rotations (mat9 or quat lines) and print the robust "
        "average as JSON on stdout.",
    )
    p_avg.add_argument("input", help="rotation list file")
    p_avg.add_argument("--format", choices=("mat9", "quat"), default="mat9",
                       help="input line format (default mat9)")
    p_avg.add_argument("--repair", action="store_true",
                       help="project near-rotation mat9 rows instead of rejecting them")
    _add_tlud_flags(p_avg)
    p_avg.add_argument("--out-json", metavar="PATH", help="also write the JSON result here")
    p_avg.set_defaults(func=_cmd_average)

    p_bench = sub.add_parser(
        "bench",
        help="Monte-Carlo accuracy/runtime sweeps on synthetic rotation sets",
        description="Run trials over a grid of sample counts, outlier ratios, "
        "and inlier noise levels; print a summary table.",
    )
    p_bench.add_argument("--n", type=_list_of(int), default=[100], metavar="N1,N2,...",
                         help="sample counts (default 100)")
    p_bench.add_argument("--ratio", type=_list_of(float), default=[0.7], metavar="R1,R2,...",
                         help="outlier ratios in [0,1) (default 0.7)")
    p_bench.add_argument("--sigma", type=_list_of(float), default=[5.0], metavar="S1,S2,...",
                         help="inlier noise std devs in degrees (default 5)")
    p_bench.add_argument("--trials", type=int, default=50, metavar="T",
                         help="trials per scenario (default 50)")
    p_bench.add_argument("--seed", type=int, default=None, metavar="S",
                         help="base seed; scenario i uses S+i (default 0; desk preset 7)")
    p_bench.add_argument("--methods", default="tlud", metavar="M1,M2,...",
                         help="estimators to run: tlud, geodesic_l1 (default tlud)")
    p_bench.add_argument("--preset", choices=("desk",), default=None,
                         help="ignore the grid flags and run a canned sweep")
    p_bench.add_argument("--no-timing", action="store_true",
                         help="write zeros for runtime fields (byte-reproducible outputs)")
    p_bench.add_argument("--out-csv", metavar="PATH", help="write per-trial rows as CSV")
    p_bench.add_argument("--out-json", metavar="PATH", help="write the summary as JSON")
    p_bench.set_defaults(func=_cmd_bench)

    p_reg = sub.add_parser(
        "register",
        help="recover the rotation between corresponding point clouds",
        description="With one cloud, build a synthetic corrupted copy and "
        "report the recovery error; with two clouds (corresponding "
        "point-for-point), estimate the rotation between them.",
    )
    scenario = registration.RegistrationScenario  # owns the scenario defaults
    p_reg.add_argument("src", help="source cloud (.xyz or ASCII .ply)")
    p_reg.add_argument("dst", nargs="?", default=None,
                       help="corresponding target cloud (omit for scenario mode)")
    p_reg.add_argument("--outlier-fraction", type=float, default=0.9, metavar="F",
                       help="scenario mode: fraction of points replaced, in [0, 0.98] (default 0.9)")
    p_reg.add_argument("--scale", type=float, default=None, metavar="S",
                       help="scenario mode: similarity scale in (1, 5) (default: drawn from seed)")
    p_reg.add_argument("--noise-sigma", type=float, default=scenario.noise_sigma, metavar="SIG",
                       help="scenario mode: Gaussian noise std dev (default %(default)s)")
    p_reg.add_argument("--points", type=int, default=1000, metavar="N",
                       help="scenario mode: downsample the cloud to N points (default 1000)")
    p_reg.add_argument("--hypotheses", type=int, default=scenario.n_hypotheses, metavar="H",
                       help="rotation hypotheses to harvest (default %(default)s)")
    p_reg.add_argument("--ratio-tol", type=float, default=scenario.ratio_tolerance, metavar="TOL",
                       help="triangle side-ratio agreement tolerance (default %(default)s)")
    p_reg.add_argument("--seed", type=int, default=scenario.seed, metavar="S",
                       help="scenario seed (default %(default)s)")
    p_reg.add_argument("--attempt-cap", type=int, default=1_000_000, metavar="A",
                       help="max 3-point samples before giving up (default 1000000)")
    p_reg.add_argument("--workers", type=int, default=1, metavar="W",
                       help="ignored (harvesting is serial); kept because the benchmark "
                       "harness, perfbench/workloads.py, passes --workers 2")
    _add_tlud_flags(p_reg)
    p_reg.add_argument("--out-hypotheses", metavar="PATH",
                       help="write harvested hypotheses as mat9 text")
    p_reg.add_argument("--out-json", metavar="PATH", help="also write the JSON result here")
    p_reg.set_defaults(func=_cmd_register)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (so3.NotARotation, so3.DegenerateMatrix, registration.AttemptCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # OSError: unreadable/unwritable paths; ValueError: format errors, EmptyInput, TooFewPoints
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
