import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from rotavg import so3
from rotavg.averaging import robust_average
from rotavg.bench import (
    FAILURE_THRESHOLD_DEG,
    TRIAL_CSV_COLUMNS,
    BenchScenario,
    SweepRow,
    default_estimators,
    desk_preset,
    format_summary_table,
    generate_trial,
    grid,
    random_inlier,
    random_outlier,
    run_scenario,
    sweep,
    without_timing,
    write_summary_json,
    write_trials_csv,
)


# --------------------------------------------------------------------------
# scenario arithmetic


def test_scenario_split_counts():
    s = BenchScenario(n_samples=100, outlier_ratio=0.9, sigma_deg=5.0, n_trials=1, seed=0)
    assert (s.n_outliers, s.n_inliers) == (90, 10)
    s = BenchScenario(n_samples=10, outlier_ratio=0.33, sigma_deg=5.0, n_trials=1, seed=0)
    assert (s.n_outliers, s.n_inliers) == (3, 7)
    s = BenchScenario(n_samples=1000, outlier_ratio=0.99, sigma_deg=5.0, n_trials=1, seed=0)
    assert (s.n_outliers, s.n_inliers) == (990, 10)


def test_scenario_validation():
    ok = dict(n_samples=10, outlier_ratio=0.5, sigma_deg=5.0, n_trials=1, seed=0)
    BenchScenario(**ok)
    for field, bad in (
        ("outlier_ratio", 1.0),
        ("outlier_ratio", -0.1),
        ("n_samples", 0),
        ("n_samples", 50.5),
        ("sigma_deg", -1.0),
        ("sigma_deg", math.nan),
        ("sigma_deg", math.inf),
        ("n_trials", 0),
        ("n_trials", 2.5),
        ("n_trials", math.nan),
        ("n_trials", True),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 1.5),
        ("seed", True),
    ):
        with pytest.raises(ValueError, match=field):
            BenchScenario(**{**ok, field: bad})
    # a ratio that rounds every sample to outlier leaves no inliers
    with pytest.raises(ValueError):
        BenchScenario(n_samples=10, outlier_ratio=0.97, sigma_deg=5.0, n_trials=1, seed=0)


# --------------------------------------------------------------------------
# samplers


def test_random_inlier_zero_sigma_is_truth():
    rng = np.random.default_rng(60)
    truth = random_outlier(rng)
    assert np.allclose(random_inlier(truth, 0.0, rng), truth, atol=1e-15)


def test_random_inlier_rejects_bad_truth_and_sigma():
    rng = np.random.default_rng(63)
    truth = random_outlier(rng)
    # both used to come back as matrices: all zeros, and all NaN
    with pytest.raises(so3.NotARotation, match="truth"):
        random_inlier(np.zeros((3, 3)), 1.0, rng)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="sigma_deg"):
            random_inlier(truth, bad, rng, n=4)


def test_random_inlier_noise_statistics():
    # law of large numbers: per-axis std of the tangent residuals within 5%
    # of the requested 5 degrees, mean within 3 sigma / sqrt(n) of zero
    rng = np.random.default_rng(61)
    truth = random_outlier(rng)
    n = 10_000
    draws = random_inlier(truth, 5.0, rng, n=n)
    resid = so3.log_map(draws @ truth.T)
    sigma = math.radians(5.0)
    assert np.abs(resid.std(axis=0, ddof=1) / sigma - 1.0).max() < 0.05
    assert np.abs(resid.mean(axis=0)).max() < 3.0 * sigma / math.sqrt(n)


def test_random_outlier_produces_rotations():
    rng = np.random.default_rng(62)
    R = random_outlier(rng, n=1000)
    assert so3.is_rotation(R).all()


def test_random_outlier_direction_uniformity():
    # the first column should be uniform on the sphere: Rayleigh statistic
    # 3n|mean|^2 ~ chi^2(3) under uniformity, and the z-coordinate is
    # uniform on [-1, 1]
    rng = np.random.default_rng(63)
    n = 10_000
    cols = random_outlier(rng, n=n)[:, :, 0]
    rayleigh = 3.0 * n * float(np.linalg.norm(cols.mean(axis=0)) ** 2)
    assert rayleigh < stats.chi2.ppf(0.99, df=3)
    ks = stats.kstest(cols[:, 2], stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert ks.pvalue > 0.01


def test_random_outlier_angles_spread_out():
    # uniform rotations concentrate angles near pi, not near identity:
    # P(angle < 0.36 rad) is about 0.25%
    rng = np.random.default_rng(64)
    R = random_outlier(rng, n=10_000)
    near_identity = np.mean(so3.geodesic_distance(R, np.eye(3)) < 0.36)
    assert near_identity < 0.02


# --------------------------------------------------------------------------
# trials


def test_generate_trial_structure():
    scen = BenchScenario(n_samples=50, outlier_ratio=0.0, sigma_deg=0.0, n_trials=2, seed=5)
    samples, truth = generate_trial(scen, 0)
    assert samples.shape == (50, 3, 3)
    assert np.allclose(samples, truth[None], atol=1e-15)  # no outliers, no noise
    again, truth2 = generate_trial(scen, 0)
    assert np.array_equal(again, samples) and np.array_equal(truth2, truth)
    other, _ = generate_trial(scen, 1)
    assert not np.allclose(other, samples)
    with pytest.raises(ValueError):
        generate_trial(scen, 2)
    for bad in (-1, 0.5, math.nan):
        with pytest.raises(ValueError, match="trial"):
            generate_trial(scen, bad)


def test_run_scenario_clean_data_is_exact():
    scen = BenchScenario(n_samples=30, outlier_ratio=0.0, sigma_deg=0.0, n_trials=5, seed=6)
    rep = run_scenario(scen, robust_average)
    # the angle between two representations of the same rotation reads as
    # ~sqrt(trace rounding) through arccos, so "zero" means < 1e-5 degrees
    assert np.allclose(rep.per_trial_error_deg, 0.0, atol=1e-5)
    assert rep.failure_count == 0
    assert len(rep.per_trial_error_deg) == 5


def test_run_scenario_90pct_outliers_never_fails():
    scen = BenchScenario(n_samples=100, outlier_ratio=0.9, sigma_deg=5.0, n_trials=100, seed=7)
    rep = run_scenario(scen, robust_average)
    assert rep.failure_count == 0
    assert rep.median_error_deg < 5.0


def test_run_scenario_error_metric_is_geodesic():
    scen = BenchScenario(n_samples=40, outlier_ratio=0.5, sigma_deg=5.0, n_trials=3, seed=8)
    rep = run_scenario(scen, robust_average)
    for trial in range(3):
        samples, truth = generate_trial(scen, trial)
        res = robust_average(samples)
        expected = math.degrees(so3.geodesic_distance(res.estimate, truth))
        assert math.isclose(rep.per_trial_error_deg[trial], expected, abs_tol=1e-12)


def test_run_scenario_deterministic_and_worker_invariant():
    scen = BenchScenario(n_samples=60, outlier_ratio=0.8, sigma_deg=5.0, n_trials=8, seed=9)
    a = run_scenario(scen, robust_average)
    b = run_scenario(scen, robust_average)
    assert np.array_equal(a.per_trial_error_deg, b.per_trial_error_deg)
    assert a.failure_count == b.failure_count


def test_run_scenario_estimator_exception_is_a_failure():
    calls = {"n": 0}

    def flaky(samples):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("boom")
        return robust_average(samples)

    scen = BenchScenario(n_samples=20, outlier_ratio=0.0, sigma_deg=1.0, n_trials=6, seed=10)
    rep = run_scenario(scen, flaky)
    errs = np.asarray(rep.per_trial_error_deg)
    assert np.isinf(errs).sum() == 3
    assert rep.failure_count == 3  # inf > 10 degrees


def test_report_summaries_follow_the_data():
    # the summary statistics are read off the per-trial arrays, so a copy
    # with other errors reports other numbers
    scen = BenchScenario(n_samples=30, outlier_ratio=0.5, sigma_deg=2.0, n_trials=5, seed=12)
    rep = run_scenario(scen, robust_average)
    assert rep.failure_count == 0
    worse = dataclasses.replace(rep, per_trial_error_deg=rep.per_trial_error_deg + 20.0)
    assert worse.failure_count == 5
    assert worse.median_error_deg == rep.median_error_deg + 20.0
    assert worse.mean_error_deg == float(np.mean(rep.per_trial_error_deg + 20.0))
    assert worse.median_runtime_ms == rep.median_runtime_ms
    assert without_timing([SweepRow("tlud", scen, rep)])[0].report.median_runtime_ms == 0.0


def test_failure_threshold_value():
    assert FAILURE_THRESHOLD_DEG == 10.0


def test_tlud_matches_baseline_without_outliers():
    # with no outliers both estimators average everything; mean errors agree
    # within 10%
    scen = BenchScenario(n_samples=60, outlier_ratio=0.0, sigma_deg=5.0, n_trials=30, seed=11)
    est = default_estimators()
    tlud = run_scenario(scen, est["tlud"])
    base = run_scenario(scen, est["geodesic_l1"])
    assert abs(tlud.mean_error_deg - base.mean_error_deg) <= 0.10 * base.mean_error_deg


# --------------------------------------------------------------------------
# sweeps and writers


def test_sweep_shapes():
    assert sweep([], default_estimators()) == []
    scens = [
        BenchScenario(n_samples=20, outlier_ratio=r, sigma_deg=5.0, n_trials=2, seed=12 + i)
        for i, r in enumerate((0.0, 0.5, 0.8))
    ]
    rows = sweep(scens, default_estimators())
    assert len(rows) == 6  # 2 methods x 3 scenarios
    assert [r.method for r in rows].count("tlud") == 3
    for row in rows:
        assert len(row.report.per_trial_error_deg) == row.scenario.n_trials


def test_grid_matches_nested_loop_order_and_seeds():
    ns, ratios, sigmas = [50, 120], [0.3, 0.6, 0.9], [1.0, 5.0]
    expected = []
    for n in ns:
        for ratio in ratios:
            for sigma in sigmas:
                expected.append(
                    BenchScenario(
                        n_samples=n, outlier_ratio=ratio, sigma_deg=sigma, n_trials=4,
                        seed=11 + len(expected),
                    )
                )
    assert grid(ns, ratios, sigmas, 4, seed=11) == expected
    assert [s.seed for s in grid([10], [0.5], [1.0, 2.0], 3)] == [0, 1]
    assert grid([], [0.5], [1.0], 3) == []
    with pytest.raises(ValueError):
        grid([10], [1.0], [1.0], 3)


def test_desk_preset_matches_acceptance_scale():
    scens = desk_preset(7)
    assert [s.n_samples for s in scens] == [1000, 1000]
    assert [s.outlier_ratio for s in scens] == [0.90, 0.99]
    assert [s.sigma_deg for s in scens] == [5.0, 5.0]
    assert [s.n_trials for s in scens] == [100, 200]
    assert [s.seed for s in scens] == [7, 8]


def test_csv_writer_layout(tmp_path):
    scen = BenchScenario(n_samples=20, outlier_ratio=0.5, sigma_deg=5.0, n_trials=3, seed=13)
    rows = sweep([scen], {"tlud": default_estimators()["tlud"]})
    path = tmp_path / "trials.csv"
    write_trials_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRIAL_CSV_COLUMNS)
    assert TRIAL_CSV_COLUMNS == (
        "method",
        "n_samples",
        "outlier_ratio",
        "sigma_deg",
        "trial",
        "error_deg",
        "runtime_ms",
    )
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "tlud"
    assert int(first[1]) == 20 and float(first[2]) == 0.5 and int(first[4]) == 0
    # error values round-trip exactly through repr
    assert float(first[5]) == rows[0].report.per_trial_error_deg[0]
    assert float(first[6]) > 0.0


def test_csv_writer_no_timing_zeroes_runtime(tmp_path):
    scen = BenchScenario(n_samples=20, outlier_ratio=0.5, sigma_deg=5.0, n_trials=2, seed=14)
    rows = sweep([scen], {"tlud": default_estimators()["tlud"]})
    path = tmp_path / "trials.csv"
    write_trials_csv(path, without_timing(rows))
    for line in path.read_text().splitlines()[1:]:
        assert line.rsplit(",", 1)[1] == "0.0"
    # the copies are zeroed, not the rows the sweep returned
    assert (rows[0].report.per_trial_runtime_ms > 0.0).all()
    assert rows[0].report.median_runtime_ms > 0.0


def test_json_summary_recomputes(tmp_path):
    scen = BenchScenario(n_samples=30, outlier_ratio=0.6, sigma_deg=5.0, n_trials=4, seed=15)
    rows = sweep([scen], default_estimators())
    path = tmp_path / "summary.json"
    write_summary_json(path, rows)
    payload = json.loads(path.read_text())
    assert len(payload["scenarios"]) == 2
    for entry, row in zip(payload["scenarios"], rows):
        errs = np.asarray(row.report.per_trial_error_deg)
        assert entry["method"] == row.method
        assert entry["failure_threshold_deg"] == 10.0
        assert math.isclose(entry["median_error_deg"], float(np.median(errs)), abs_tol=1e-12)
        assert entry["failure_count"] == int((errs > 10.0).sum())


def test_summary_table_mentions_every_row():
    scen = BenchScenario(n_samples=20, outlier_ratio=0.5, sigma_deg=5.0, n_trials=2, seed=16)
    rows = sweep([scen], default_estimators())
    table = format_summary_table(rows)
    assert "tlud" in table and "geodesic_l1" in table
    assert "median_deg" in table.splitlines()[0]
