"""Seeded Monte-Carlo benchmarks for the rotation averaging estimators.

Each trial owns an RNG stream derived from (scenario seed, trial index), so
reports are reproducible.  Results can be dumped as a per-trial CSV plus a
per-scenario JSON summary; the column order of the CSV is part of the file
contract.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from rotavg import so3
from rotavg.averaging import (
    AveragingResult, TludConfig, _as_rotation, _count, _nonnegative, geodesic_l1_mean,
    robust_average,
)

__all__ = [
    "FAILURE_THRESHOLD_DEG",
    "TRIAL_CSV_COLUMNS",
    "BenchScenario",
    "BenchReport",
    "SweepRow",
    "random_inlier",
    "random_outlier",
    "generate_trial",
    "run_scenario",
    "sweep",
    "grid",
    "default_estimators",
    "desk_preset",
    "without_timing",
    "write_trials_csv",
    "write_summary_json",
    "format_summary_table",
]

# A trial counts as a failure when the estimate is more than this far from
# the planted rotation.
FAILURE_THRESHOLD_DEG = 10.0

# Per-trial CSV schema, in this exact order.
TRIAL_CSV_COLUMNS = (
    "method",
    "n_samples",
    "outlier_ratio",
    "sigma_deg",
    "trial",
    "error_deg",
    "runtime_ms",
)


def _seed(seed: int) -> int:
    """seed, or ValueError unless it is an integer in [0, 2**64) and not a bool."""
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return seed


def _stream(seed: int, *tags: int) -> np.random.Generator:
    """The generator behind every seeded draw in the package."""
    return np.random.default_rng(np.random.SeedSequence([_seed(seed), *tags]))


@dataclass(frozen=True)
class BenchScenario:
    """One benchmark configuration.

    n_outliers is round(outlier_ratio * n_samples); the remaining samples are
    inliers and there must be at least one of them.
    """

    n_samples: int
    outlier_ratio: float
    sigma_deg: float
    n_trials: int
    seed: int

    def __post_init__(self) -> None:
        _count("n_samples", self.n_samples)
        if not 0.0 <= self.outlier_ratio < 1.0:
            raise ValueError(f"outlier_ratio must lie in [0, 1), got {self.outlier_ratio}")
        _nonnegative("sigma_deg", self.sigma_deg)
        _count("n_trials", self.n_trials)
        _seed(self.seed)
        if self.n_inliers < 1:
            raise ValueError(
                f"ratio {self.outlier_ratio} at n_samples {self.n_samples} leaves no inliers"
            )

    @property
    def n_outliers(self) -> int:
        return int(round(self.outlier_ratio * self.n_samples))

    @property
    def n_inliers(self) -> int:
        return self.n_samples - self.n_outliers


@dataclass
class BenchReport:
    """Per-trial errors and runtimes of one run; the summary statistics follow them."""

    per_trial_error_deg: np.ndarray
    per_trial_runtime_ms: np.ndarray

    @property
    def mean_error_deg(self) -> float:
        return float(np.mean(self.per_trial_error_deg))

    @property
    def median_error_deg(self) -> float:
        return float(np.median(self.per_trial_error_deg))

    @property
    def failure_count(self) -> int:
        return int(np.sum(self.per_trial_error_deg > FAILURE_THRESHOLD_DEG))

    @property
    def median_runtime_ms(self) -> float:
        return float(np.median(self.per_trial_runtime_ms))


@dataclass
class SweepRow:
    method: str
    scenario: BenchScenario
    report: BenchReport


def random_inlier(
    truth: np.ndarray, sigma_deg: float, rng: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """Perturb truth by an isotropic tangent-space Gaussian.

    The perturbation vector has independent N(0, (sigma_deg * pi/180)^2)
    components and is applied as exp(e) @ truth.  sigma_deg == 0 returns the
    truth exactly.  A truth that is not a rotation raises so3.NotARotation,
    a negative or non-finite sigma_deg ValueError.
    """
    truth = _as_rotation(truth, "truth")
    _nonnegative("sigma_deg", sigma_deg)
    m = 1 if n is None else n
    e = rng.normal(0.0, math.radians(sigma_deg), size=(m, 3))
    out = so3.exp_map(e) @ truth
    return out[0] if n is None else out


def random_outlier(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Random orientation built column by column.

    First column: uniform random unit vector.  Second: uniform random unit
    vector perpendicular to the first.  Third: their cross product.  The
    construction doubles as the sampler for planted ground-truth rotations.
    """
    m = 1 if n is None else n
    c1 = rng.normal(size=(m, 3))
    c1 /= np.linalg.norm(c1, axis=1, keepdims=True)
    raw = rng.normal(size=(m, 3))
    c2 = raw - np.sum(raw * c1, axis=1, keepdims=True) * c1
    while True:
        bad = np.linalg.norm(c2, axis=1) < 1e-12
        if not bad.any():
            break
        fresh = rng.normal(size=(int(bad.sum()), 3))
        c2[bad] = fresh - np.sum(fresh * c1[bad], axis=1, keepdims=True) * c1[bad]
    c2 /= np.linalg.norm(c2, axis=1, keepdims=True)
    c3 = np.cross(c1, c2)
    R = np.stack([c1, c2, c3], axis=-1)
    return R[0] if n is None else R


def generate_trial(scenario: BenchScenario, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic inputs for one trial: (shuffled samples, planted truth)."""
    if not (isinstance(trial, numbers.Integral) and 0 <= trial < scenario.n_trials):
        raise ValueError(f"trial must be an integer in [0, {scenario.n_trials}), got {trial}")
    rng = _stream(scenario.seed, trial)
    truth = random_outlier(rng)
    inliers = random_inlier(truth, scenario.sigma_deg, rng, n=scenario.n_inliers)
    outliers = random_outlier(rng, n=scenario.n_outliers)
    samples = np.concatenate([inliers, outliers], axis=0)
    return samples[rng.permutation(scenario.n_samples)], truth


def run_scenario(scenario: BenchScenario, method) -> BenchReport:
    """Run one scenario's trials through one estimator.

    Args:
        scenario: what to generate.
        method: callable mapping an (N, 3, 3) stack to an object with an
            ``estimate`` attribute (an AveragingResult works).

    An exception out of the estimator is recorded as an infinite error for
    that trial rather than aborting the run.  Runtime measures the estimator
    call only, not data generation.
    """
    errors = np.empty(scenario.n_trials)
    runtimes = np.empty(scenario.n_trials)
    for trial in range(scenario.n_trials):
        samples, truth = generate_trial(scenario, trial)
        t0 = time.perf_counter()
        try:
            res = method(samples)
            errors[trial] = math.degrees(so3.geodesic_distance(res.estimate, truth))
        except Exception:
            errors[trial] = math.inf
        runtimes[trial] = (time.perf_counter() - t0) * 1e3
    return BenchReport(errors, runtimes)


def sweep(scenarios, methods, n_workers: int = 1) -> list[SweepRow]:
    """Cartesian product of scenarios and named estimators, in given order.

    Both methods of a scenario see identical trial data (the data streams
    depend only on the scenario seed, never on the estimator).

    n_workers is ignored: trials run one after another.  It stays because
    the benchmark harness (perfbench/workloads.py, desk_sweep) passes it.
    """
    rows: list[SweepRow] = []
    for scen in scenarios:
        for name, fn in methods.items():
            rows.append(SweepRow(name, scen, run_scenario(scen, fn)))
    return rows


def grid(ns, ratios, sigmas, n_trials: int, seed: int = 0) -> list[BenchScenario]:
    """One scenario per (n, ratio, sigma), n outermost and sigma innermost.

    Scenario i of the list, in that order, gets seed + i; each runs
    n_trials trials.
    """
    points = [(n, r, s) for n in ns for r in ratios for s in sigmas]
    return [
        BenchScenario(n_samples=n, outlier_ratio=r, sigma_deg=s, n_trials=n_trials, seed=seed + i)
        for i, (n, r, s) in enumerate(points)
    ]


def default_estimators(config: TludConfig | None = None) -> dict:
    """Named estimator handles for sweeps: robust averaging plus the plain
    geodesic median baseline."""
    cfg = config if config is not None else TludConfig()

    def tlud(samples: np.ndarray) -> AveragingResult:
        return robust_average(samples, cfg)

    def baseline(samples: np.ndarray) -> AveragingResult:
        return geodesic_l1_mean(samples, delta=cfg.delta, it_max=cfg.it_max)

    return {"tlud": tlud, "geodesic_l1": baseline}


def desk_preset(seed: int = 7) -> list[BenchScenario]:
    """The two desk-scale stress scenarios: 90% and 99% outliers at N=1000."""
    return [
        BenchScenario(n_samples=1000, outlier_ratio=0.90, sigma_deg=5.0, n_trials=100, seed=seed),
        BenchScenario(n_samples=1000, outlier_ratio=0.99, sigma_deg=5.0, n_trials=200, seed=seed + 1),
    ]


def without_timing(rows: list[SweepRow]) -> list[SweepRow]:
    """Copies of rows with all runtimes 0.0 (the rows keep theirs): runtimes are
    all that a seed leaves unfixed, so the writers then give the same bytes."""
    out = []
    for row in rows:
        zero = np.zeros_like(row.report.per_trial_runtime_ms)
        out.append(replace(row, report=replace(row.report, per_trial_runtime_ms=zero)))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trials_csv(path, rows: list[SweepRow]) -> None:
    """One line per trial in TRIAL_CSV_COLUMNS order."""
    with open(path, "w", newline="") as f:
        f.write(",".join(TRIAL_CSV_COLUMNS) + "\n")
        for row in rows:
            s = row.scenario
            errs = row.report.per_trial_error_deg
            runs = row.report.per_trial_runtime_ms
            for t in range(s.n_trials):
                f.write(
                    f"{row.method},{s.n_samples},{_fmt(s.outlier_ratio)},{_fmt(s.sigma_deg)},"
                    f"{t},{_fmt(errs[t])},{_fmt(runs[t])}\n"
                )


def _summary_dict(row: SweepRow) -> dict:
    r = row.report
    return {
        "method": row.method,
        **asdict(row.scenario),
        "mean_error_deg": r.mean_error_deg,
        "median_error_deg": r.median_error_deg,
        "failure_count": r.failure_count,
        "failure_threshold_deg": FAILURE_THRESHOLD_DEG,
        "median_runtime_ms": r.median_runtime_ms,
    }


def write_summary_json(path, rows: list[SweepRow]) -> None:
    """Per-scenario summary statistics as a JSON document."""
    doc = {"scenarios": [_summary_dict(row) for row in rows]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def format_summary_table(rows: list[SweepRow]) -> str:
    """Fixed-width human summary, one line per (scenario, method)."""
    header = (
        f"{'method':<12} {'N':>6} {'ratio':>6} {'sigma':>6} {'trials':>6} "
        f"{'mean_deg':>10} {'median_deg':>10} {'fail':>5} {'med_ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        s = row.scenario
        r = row.report
        lines.append(
            f"{row.method:<12} {s.n_samples:>6} {s.outlier_ratio:>6.2f} {s.sigma_deg:>6.2f} "
            f"{s.n_trials:>6} {r.mean_error_deg:>10.4f} {r.median_error_deg:>10.4f} "
            f"{r.failure_count:>5} {r.median_runtime_ms:>9.3f}"
        )
    return "\n".join(lines)
