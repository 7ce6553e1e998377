"""Acceptance gate: one test per release criterion, in order.

Every test prints a single ``[criterion N] PASS``/``FAIL`` line (visible
under ``pytest -s``) before asserting, so a red run names the broken
criterion directly.  Budgets and tolerances sit next to the checks they
govern; they are contracts, not suggestions — do not loosen them to make
a failing build green.
"""

import contextlib
import io
import math
import os
from time import perf_counter

import numpy as np

from rotavg import bench, registration, so3
from rotavg.averaging import proxy_initialize, robust_average, select_inliers
from rotavg.cli import main
from rotavg.fileio import load_cloud, write_rotations

HERE = os.path.dirname(__file__)
STANDIN = os.path.join(HERE, "..", "data", "standin_cloud.xyz")

# (cost_history, guard_fired) pairs harvested from every robust_average call
# the suite makes through _recording_tlud; criterion 7 audits them all.
DESCENT_RECORDS: list[tuple[tuple[float, ...], bool]] = []


def _recording_tlud(samples: np.ndarray):
    res = robust_average(samples)
    DESCENT_RECORDS.append((tuple(res.cost_history), res.guard_fired))
    return res


def contaminated(rng, n, n_out, sigma_rad=0.05):
    """n rotations around a random truth: n - n_out perturbed copies, n_out uniform."""
    truth = bench.random_outlier(rng)
    inl = so3.exp_map(rng.normal(0.0, sigma_rad, size=(n - n_out, 3))) @ truth
    out = bench.random_outlier(rng, n=n_out)
    stack = np.concatenate([inl, out.reshape(-1, 3, 3)], axis=0)
    return stack[rng.permutation(n)], truth


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")


# --------------------------------------------------------------------------


def test_criterion_1_metric_identities():
    t0 = perf_counter()
    rng = np.random.default_rng(1001)
    n = 10_000
    tol = 1e-9

    A = so3.exp_map(rng.normal(size=(n, 3)))
    B = so3.exp_map(rng.normal(size=(n, 3)))
    dg = so3.geodesic_distance(A, B)
    dc = so3.chordal_distance(A, B)
    worst_relation = float(np.abs(dc - 2.0 * math.sqrt(2.0) * np.sin(dg / 2.0)).max())

    # log∘exp over the whole ball, sampled densely toward the far edge
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    norms = np.concatenate(
        [
            rng.uniform(1e-6, math.pi - 1e-3, size=n - 2000),
            math.pi - 10.0 ** rng.uniform(-12.0, -3.0, size=2000),
        ]
    )
    v = axes * norms[:, None]
    worst_roundtrip = float(np.abs(so3.log_map(so3.exp_map(v)) - v).max())
    worst_matrix = float(np.abs(so3.exp_map(so3.log_map(A)) - A).max())

    # both metrics are unchanged by a common left and right rotation
    L = so3.exp_map(rng.normal(size=(n, 3)))
    Rm = so3.exp_map(rng.normal(size=(n, 3)))
    worst_invariance = max(
        float(np.abs(so3.geodesic_distance(L @ A @ Rm, L @ B @ Rm) - dg).max()),
        float(np.abs(so3.chordal_distance(L @ A @ Rm, L @ B @ Rm) - dc).max()),
    )

    # the projection of a general matrix beats every sampled rotation
    M = rng.normal(size=(n, 3, 3))
    P = so3.project_to_so3(M)
    base = np.linalg.norm((M - P).reshape(n, 9), axis=1)
    worst_gap = -math.inf
    for _ in range(8):
        C = so3.exp_map(rng.normal(size=(n, 3)))
        alt = np.linalg.norm((M - C).reshape(n, 9), axis=1)
        worst_gap = max(worst_gap, float((base - alt).max()))
    for eps in (1e-4, 1e-2, 0.3):
        C = so3.exp_map(eps * rng.normal(size=(n, 3))) @ P
        alt = np.linalg.norm((M - C).reshape(n, 9), axis=1)
        worst_gap = max(worst_gap, float((base - alt).max()))

    elapsed = perf_counter() - t0
    worst = max(worst_relation, worst_roundtrip, worst_matrix, worst_invariance, worst_gap)
    ok = worst < tol and elapsed < 5.0
    _verdict(1, ok, f"worst residual {worst:.2e} (tol {tol:.0e}), {elapsed:.1f}s of 5s")
    assert ok, (worst_relation, worst_roundtrip, worst_matrix, worst_invariance, worst_gap, elapsed)


def test_criterion_2_proxy_matches_exhaustive_search():
    from _oracles import frobenius_scalar, proxy_scalar

    t0 = perf_counter()
    rng = np.random.default_rng(1002)
    mismatches = 0
    for _ in range(200):
        n_out = int(rng.integers(0, 45))
        samples, _ = contaminated(rng, 50, n_out, sigma_rad=rng.uniform(0.01, 0.2))
        idx, chosen = proxy_initialize(samples)
        oracle_idx, _ = proxy_scalar(samples, 0.5)
        inliers = select_inliers(chosen, samples)
        oracle_inliers = [
            i for i in range(50) if frobenius_scalar(samples[i], samples[oracle_idx]) <= 0.5
        ]
        if idx != oracle_idx or not np.array_equal(chosen, samples[idx]):
            mismatches += 1
        elif list(inliers) != oracle_inliers:
            mismatches += 1
    elapsed = perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(2, ok, f"{mismatches} mismatches in 200 instances, {elapsed:.1f}s of 10s")
    assert ok, (mismatches, elapsed)


def test_criterion_3_accuracy_at_90pct_outliers():
    scen = bench.desk_preset(7)[0]
    t0 = perf_counter()
    rep = bench.run_scenario(scen, _recording_tlud)
    elapsed = perf_counter() - t0
    ok = rep.median_error_deg < 2.0 and rep.failure_count == 0 and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"median {rep.median_error_deg:.3f}° (<2°), failures {rep.failure_count}/"
        f"{scen.n_trials} (need 0), {elapsed:.1f}s of 60s",
    )
    assert ok, (rep.median_error_deg, rep.failure_count, elapsed)


def test_criterion_4_breakdown_at_99pct_outliers():
    scen = bench.desk_preset(7)[1]
    t0 = perf_counter()
    rep = bench.run_scenario(scen, _recording_tlud)
    elapsed = perf_counter() - t0
    failure_rate = rep.failure_count / scen.n_trials
    ok = failure_rate <= 0.02 and elapsed < 180.0
    _verdict(
        4,
        ok,
        f"failures {rep.failure_count}/{scen.n_trials} = {100 * failure_rate:.1f}% "
        f"(≤2%), {elapsed:.1f}s of 180s",
    )
    assert ok, (rep.failure_count, elapsed)


def test_criterion_5_latency_budget():
    rng = np.random.default_rng(1005)
    scen = bench.BenchScenario(
        n_samples=1000, outlier_ratio=0.99, sigma_deg=5.0, n_trials=1, seed=int(rng.integers(1 << 32))
    )
    samples, _ = bench.generate_trial(scen, 0)

    robust_average(samples)  # warm-up: first call pays allocator/BLAS setup
    full_ms, proxy_ms = [], []
    for _ in range(7):
        t0 = perf_counter()
        robust_average(samples)
        full_ms.append(1e3 * (perf_counter() - t0))
        t0 = perf_counter()
        proxy_initialize(samples)
        proxy_ms.append(1e3 * (perf_counter() - t0))
    med_full = float(np.median(full_ms))
    med_proxy = float(np.median(proxy_ms))
    ok = med_full <= 200.0 and med_proxy <= 100.0
    _verdict(
        5,
        ok,
        f"robust_average median {med_full:.1f}ms (≤200ms), "
        f"proxy {med_proxy:.1f}ms (≤100ms) at N=1000",
    )
    assert ok, (med_full, med_proxy)


def test_criterion_6_registration_recovery_matrix():
    src_raw = load_cloud(STANDIN)
    t0 = perf_counter()
    hits, errors = {}, {}
    for frac, limit_deg in ((0.90, 3.0), (0.96, 10.0)):
        errs = []
        for seed in range(10):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, registration._TAG_NORMALIZE])
            )
            src = registration.normalize_cloud(src_raw, 1000, rng)
            scen = registration.make_scenario(
                seed=seed, outlier_fraction=frac, noise_sigma=0.01, n_hypotheses=2000
            )
            dst = registration.corrupt_cloud(src, scen)
            res = registration.register_rotation(src, dst, scen)
            errs.append(math.degrees(so3.geodesic_distance(res.estimate, scen.rotation)))
        hits[frac] = sum(e < limit_deg for e in errs)
        errors[frac] = [round(e, 2) for e in errs]
    elapsed = perf_counter() - t0
    ok = hits[0.90] >= 9 and hits[0.96] >= 8 and elapsed < 300.0
    _verdict(
        6,
        ok,
        f"90% outliers: {hits[0.90]}/10 under 3° (need 9); "
        f"96%: {hits[0.96]}/10 under 10° (need 8); {elapsed:.0f}s of 300s",
    )
    assert ok, (hits, errors, elapsed)


def test_criterion_7_refinement_cost_never_increases():
    rng = np.random.default_rng(1007)
    for _ in range(300):
        n = int(rng.integers(5, 120))
        n_out = int(rng.integers(0, n))
        samples, _ = contaminated(rng, n, n_out, sigma_rad=rng.uniform(0.005, 0.3))
        res = robust_average(samples)
        DESCENT_RECORDS.append((tuple(res.cost_history), res.guard_fired))

    checked = violations = 0
    worst_rise = -math.inf
    for history, guard in DESCENT_RECORDS:
        if guard:
            continue  # excluded samples change the objective mid-flight
        checked += 1
        if len(history) > 1:
            rise = float(np.diff(history).max())
            worst_rise = max(worst_rise, rise)
            violations += int(rise > 1e-12)
    ok = violations == 0 and checked >= 200
    _verdict(
        7,
        ok,
        f"0 rises above 1e-12 required: {violations} violations over {checked} "
        f"guard-free runs (worst step {worst_rise:.2e})",
    )
    assert ok, (violations, checked, worst_rise)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_8_seeded_runs_are_byte_identical(tmp_path):
    checks: list[tuple[str, bool]] = []

    rng = np.random.default_rng(1008)
    rot_path = tmp_path / "samples.txt"
    write_rotations(rot_path, contaminated(rng, 200, 150)[0])
    avg_runs = []
    for tag in ("a", "b"):
        out_json = tmp_path / f"avg_{tag}.json"
        code, out = _run_cli(["average", str(rot_path), "--out-json", str(out_json)])
        avg_runs.append((code, out, out_json.read_bytes()))
    checks.append(
        (
            "average twice",
            avg_runs[0] == avg_runs[1]
            and avg_runs[0][0] == 0
            and avg_runs[0][1].encode() == avg_runs[0][2],
        )
    )

    reg_argv = [
        "register", STANDIN, "--outlier-fraction", "0.8", "--points", "250",
        "--hypotheses", "150", "--seed", "11",
    ]
    reg_a = _run_cli(reg_argv)
    reg_b = _run_cli(reg_argv)
    reg_par = _run_cli(reg_argv + ["--workers", "4"])
    checks.append(("register twice", reg_a == reg_b and reg_a[0] == 0))
    checks.append(("register serial vs 4 workers", reg_a == reg_par))

    def bench_run(tag: str, timed: bool):
        csv = tmp_path / f"bench_{tag}.csv"
        js = tmp_path / f"bench_{tag}.json"
        argv = [
            "bench", "--n", "120", "--ratio", "0.6", "--sigma", "5",
            "--trials", "6", "--seed", "4",
            "--out-csv", str(csv), "--out-json", str(js),
        ]
        if not timed:
            argv.append("--no-timing")
        code, out = _run_cli(argv)
        assert code == 0
        return out, csv.read_bytes(), js.read_bytes()

    ba = bench_run("a", timed=False)
    bb = bench_run("b", timed=False)
    bc = bench_run("c", timed=False)
    checks.append(("bench untimed twice", ba == bb))
    checks.append(("bench untimed third run", ba == bc))

    def stable_columns(run) -> list[list[str]]:
        rows = [line.split(",") for line in run[1].decode().splitlines()]
        return [row[:-1] for row in rows]  # drop runtime_ms, keep the rest

    ta = bench_run("ta", timed=True)
    tb = bench_run("tb", timed=True)
    checks.append(("bench timed non-runtime columns", stable_columns(ta) == stable_columns(tb)))

    failed = [label for label, good in checks if not good]
    ok = not failed
    _verdict(8, ok, f"{len(checks)} byte-identity checks" + (f"; failed: {failed}" if failed else ""))
    assert ok, failed
