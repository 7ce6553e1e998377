import dataclasses
import math

import numpy as np
import pytest

from rotavg import so3
from rotavg.averaging import (
    _GRID_MIN_N,
    AveragingResult,
    EmptyInput,
    TludConfig,
    chordal_l2_mean,
    geodesic_l1_mean,
    proxy_initialize,
    robust_average,
    select_inliers,
    tlud_cost_geodesic,
    weiszfeld_geodesic_l1,
)

from _oracles import (
    chordal_mean_descent,
    geodesic_scalar,
    proxy_scalar,
    robust_average_stages,
    tangent_grid_min,
    tlud_geodesic_scalar,
)

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def random_rotations(rng, n):
    return so3.exp_map(rng.normal(size=(n, 3)))


def contaminated_set(rng, n, n_out, sigma_rad):
    """(samples, truth): n - n_out noisy copies of truth + n_out random, shuffled."""
    truth = random_rotations(rng, 1)[0]
    inl = so3.exp_map(rng.normal(0.0, sigma_rad, size=(n - n_out, 3))) @ truth
    out = random_rotations(rng, n_out)
    samples = np.concatenate([inl, out])[rng.permutation(n)]
    return samples, truth


# --------------------------------------------------------------------------
# config


def test_config_defaults_and_derived_threshold():
    cfg = TludConfig()
    assert (cfg.epsilon_c, cfg.delta, cfg.it_max, cfg.realternate) == (0.5, 0.001, 10, 0)
    assert math.isclose(cfg.epsilon_g, 2.0 * math.asin(0.5 / TWO_SQRT_TWO), rel_tol=0, abs_tol=0)
    assert abs(cfg.epsilon_g - 0.3554) < 1e-4
    # the two thresholds select the same residuals by construction
    assert math.isclose(TWO_SQRT_TWO * math.sin(cfg.epsilon_g / 2.0), cfg.epsilon_c, abs_tol=1e-15)


def test_config_validation():
    for bad in (
        dict(epsilon_c=0.0),
        dict(epsilon_c=-1.0),
        dict(epsilon_c=TWO_SQRT_TWO),
        dict(delta=0.0),
        dict(it_max=0),
        dict(it_max=2.5),
        dict(it_max=math.nan),
        dict(it_max=True),
        dict(realternate=-1),
        dict(realternate=1.5),
        dict(realternate=math.nan),
        dict(realternate=False),
    ):
        with pytest.raises(ValueError):
            TludConfig(**bad)


# --------------------------------------------------------------------------
# truncated costs


def test_tlud_costs_trivial_cases():
    rng = np.random.default_rng(30)
    R = random_rotations(rng, 1)[0]
    three = np.stack([R, R, R])
    assert tlud_cost_geodesic(R, three, 0.3554) == 0.0
    half_turn = np.diag([1.0, -1.0, -1.0])
    assert np.isclose(tlud_cost_geodesic(np.eye(3), half_turn[None], 0.3554), 0.3554)


def test_tlud_costs_match_scalar_loops():
    rng = np.random.default_rng(31)
    for _ in range(10):
        samples = random_rotations(rng, 20)
        center = random_rotations(rng, 1)[0]
        assert np.isclose(
            tlud_cost_geodesic(center, samples, 0.3554),
            tlud_geodesic_scalar(center, samples, 0.3554),
            atol=1e-12,
        )


def test_tlud_costs_saturate_same_elements():
    # chordal cutoff at eps_c and geodesic cutoff at the matching eps_g
    # truncate exactly the same samples (monotone distance relation)
    rng = np.random.default_rng(32)
    cfg = TludConfig()
    center = random_rotations(rng, 1)[0]
    samples = random_rotations(rng, 300)
    dc = so3.chordal_distance(samples, center)
    dg = so3.geodesic_distance(samples, center)
    clear = (np.abs(dc - cfg.epsilon_c) > 1e-9) & (np.abs(dg - cfg.epsilon_g) > 1e-9)
    assert np.array_equal((dc < cfg.epsilon_c)[clear], (dg < cfg.epsilon_g)[clear])


def test_tlud_cost_empty_input():
    with pytest.raises(EmptyInput):
        tlud_cost_geodesic(np.eye(3), np.empty((0, 3, 3)), 0.3554)


# --------------------------------------------------------------------------
# proxy initialization


def test_proxy_single_sample_and_tie_break():
    rng = np.random.default_rng(33)
    R = random_rotations(rng, 1)[0]
    idx, chosen = proxy_initialize(R[None])
    assert idx == 0 and np.array_equal(chosen, R)
    # two identical leaders tie; the far third is never competitive
    samples = np.stack([np.eye(3), np.eye(3), so3.exp_map([0.0, 0.0, 3.0])])
    idx, chosen = proxy_initialize(samples, epsilon_c=0.5)
    assert idx == 0
    assert np.array_equal(chosen, np.eye(3))


def test_proxy_matches_scalar_oracle():
    rng = np.random.default_rng(34)
    for trial in range(25):
        n_out = int(rng.integers(0, 40))
        samples, _ = contaminated_set(rng, 50, n_out, 0.08)
        idx, chosen = proxy_initialize(samples, epsilon_c=0.5)
        oracle_idx, oracle_costs = proxy_scalar(samples, 0.5)
        assert idx == oracle_idx
        assert np.array_equal(chosen, samples[idx])


def test_proxy_empty_input():
    with pytest.raises(EmptyInput):
        proxy_initialize(np.empty((0, 3, 3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda Rs: select_inliers(np.eye(3), Rs),
        chordal_l2_mean,
        lambda Rs: weiszfeld_geodesic_l1(Rs, np.eye(3)),
        geodesic_l1_mean,
    ],
    ids=["select_inliers", "chordal_l2_mean", "weiszfeld", "geodesic_l1_mean"],
)
def test_every_stage_rejects_an_empty_stack(call):
    # one error type for an empty stack, whichever stage reads it
    for empty in (np.empty((0, 3, 3)), []):
        with pytest.raises(EmptyInput):
            call(empty)


@pytest.mark.parametrize(
    "call",
    [
        proxy_initialize,
        lambda Rs: select_inliers(np.eye(3), Rs),
        chordal_l2_mean,
        lambda Rs: weiszfeld_geodesic_l1(Rs, np.eye(3)),
        lambda Rs: tlud_cost_geodesic(np.eye(3), Rs, 0.3554),
        geodesic_l1_mean,
        robust_average,
    ],
    ids=["proxy", "select_inliers", "chordal_l2_mean", "weiszfeld", "tlud_geodesic",
         "geodesic_l1_mean", "robust_average"],
)
def test_stack_shapes(call):
    # one 3x3 matrix is a stack of one; nine values per row are not a stack
    R = so3.exp_map([0.1, 0.2, 0.3])
    call(R)
    for bad in (R.reshape(1, 9), np.stack([R, R]).reshape(2, 9), R[None, None]):
        with pytest.raises(ValueError, match="expected a stack of 3x3 rotations"):
            call(bad)


def _stack_with_one_bad_sample(bad_index, bad_value):
    """500 samples at 90% outliers, with one sample replaced by bad_value."""
    rng = np.random.default_rng(54)
    samples, _ = contaminated_set(rng, 500, 450, math.radians(5.0))
    samples[bad_index] = bad_value
    return samples


def test_scaled_identity_is_rejected_not_chosen():
    # 6 - 2<3I, R> clips to zero for any rotation R, so before inputs were
    # checked 3I won the proxy with zero cost and dragged the estimate off
    samples = _stack_with_one_bad_sample(7, 3.0 * np.eye(3))
    for call in (proxy_initialize, robust_average, lambda s: select_inliers(np.eye(3), s)):
        with pytest.raises(so3.NotARotation, match="matrix 7 is not a rotation"):
            call(samples)


def test_nan_sample_is_rejected():
    nan_matrix = np.eye(3)
    nan_matrix[1, 2] = np.nan
    samples = _stack_with_one_bad_sample(3, nan_matrix)
    for call in (proxy_initialize, robust_average, chordal_l2_mean):
        with pytest.raises(so3.NotARotation, match="matrix 3 has a non-finite entry"):
            call(samples)
    with pytest.raises(so3.NotARotation, match="matrix 3 has a non-finite entry"):
        weiszfeld_geodesic_l1(samples, np.eye(3))


_NAN_MATRIX = np.full((3, 3), np.nan)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda Rs: select_inliers(_NAN_MATRIX, Rs), "center"),
        (lambda Rs: tlud_cost_geodesic(_NAN_MATRIX, Rs, 0.3554), "center"),
        (lambda Rs: tlud_cost_geodesic(3.0 * np.eye(3), Rs, 0.3554), "center"),
        (lambda Rs: tlud_cost_geodesic(np.eye(3)[None], Rs, 0.3554), "center"),
        (lambda Rs: weiszfeld_geodesic_l1(Rs[:2], _NAN_MATRIX), "seed"),
    ],
    ids=["select_inliers-nan", "tlud_geodesic-nan", "tlud_geodesic-3I", "tlud_geodesic-stack",
         "weiszfeld-nan-seed"],
)
def test_center_and_seed_must_be_rotations(call, name):
    # before these checks the calls returned [], nan, 2.5 and an all-NaN estimate
    samples = np.repeat(np.eye(3)[None], 5, axis=0)
    with pytest.raises(so3.NotARotation, match=f"^{name} is not a finite 3x3 rotation"):
        call(samples)


@pytest.mark.parametrize(
    "call",
    [
        lambda Rs: proxy_initialize(Rs[:50], math.nan),
        lambda Rs: proxy_initialize(Rs, math.nan),
        lambda Rs: select_inliers(np.eye(3), Rs, math.nan),
        lambda Rs: select_inliers(np.eye(3), Rs, -1.0),
        lambda Rs: tlud_cost_geodesic(np.eye(3), Rs, math.nan),
        lambda Rs: tlud_cost_geodesic(np.eye(3), Rs, -1.0),
        lambda Rs: weiszfeld_geodesic_l1(Rs[:2], np.eye(3), delta=math.nan),
        lambda Rs: TludConfig(delta=math.nan),
    ],
    ids=["proxy-nan-n50", "proxy-nan-n1200", "select_inliers-nan", "select_inliers-negative",
         "tlud_geodesic-nan", "tlud_geodesic-negative", "weiszfeld-nan-delta", "config-nan-delta"],
)
def test_thresholds_must_be_positive(call):
    # before this check these raised IndexError, returned [], nan or -1200.0,
    # or were accepted
    samples = random_rotations(np.random.default_rng(58), 1200)
    with pytest.raises(ValueError, match="must be positive, got"):
        call(samples)


# --------------------------------------------------------------------------
# inlier selection


def test_select_inliers_trivial_cases():
    rng = np.random.default_rng(36)
    samples = random_rotations(rng, 10)
    inl = select_inliers(samples[3], samples)
    assert 3 in inl
    # half-turns of the center sit at chordal distance 2*sqrt(2) > 0.5
    center = np.eye(3)
    axes = np.eye(3)
    far = np.stack([so3.exp_map(a * math.pi) for a in axes])
    assert select_inliers(center, far, 0.5).size == 0


def test_select_inliers_equals_geodesic_rule():
    rng = np.random.default_rng(37)
    cfg = TludConfig()
    for _ in range(20):
        samples = random_rotations(rng, 200)
        center = random_rotations(rng, 1)[0]
        chordal_set = select_inliers(center, samples, cfg.epsilon_c)
        geodesic_set = np.flatnonzero(so3.geodesic_distance(samples, center) <= cfg.epsilon_g)
        assert np.array_equal(chordal_set, geodesic_set)


def test_select_inliers_threshold_is_inclusive():
    # a sample exactly at the cutoff stays in (<=, not <)
    eps_c = 0.5
    eps_g = 2.0 * math.asin(eps_c / TWO_SQRT_TWO)
    boundary = so3.exp_map([0.0, 0.0, eps_g])
    inl = select_inliers(np.eye(3), boundary[None], eps_c)
    dc = so3.chordal_distance(boundary, np.eye(3))
    if dc <= eps_c:  # float rounding may land a hair either side; pin the rule
        assert np.array_equal(inl, [0])
    else:
        assert inl.size == 0
    inside = so3.exp_map([0.0, 0.0, eps_g - 1e-12])
    assert np.array_equal(select_inliers(np.eye(3), inside[None], eps_c), [0])


def test_chordal_distance_and_its_users_ignore_memory_layout():
    # summed in memory order, a Fortran-order stack adds its nine squares in
    # another order and comes out some bits off, which can move a sample
    # across epsilon_c
    rng = np.random.default_rng(41)
    samples = random_rotations(rng, 300)
    center = random_rotations(rng, 1)[0]
    eps_c = 1.5
    want = (
        so3.chordal_distance(samples, center).tobytes(),
        select_inliers(center, samples, eps_c).tobytes(),
    )
    layouts = (np.asfortranarray, lambda a: np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2))
    for view in layouts:
        for Rs, C in ((view(samples), center), (samples, view(center)), (view(samples), view(center))):
            got = (
                so3.chordal_distance(Rs, C).tobytes(),
                select_inliers(C, Rs, eps_c).tobytes(),
            )
            assert got == want


# --------------------------------------------------------------------------
# chordal mean


def test_chordal_mean_trivial_cases():
    rng = np.random.default_rng(38)
    R = random_rotations(rng, 1)[0]
    assert np.allclose(chordal_l2_mean(np.stack([R, R, R])), R, atol=1e-12)
    pair = np.stack([so3.exp_map([0, 0, 0.3]), so3.exp_map([0, 0, -0.3])])
    assert np.allclose(chordal_l2_mean(pair), np.eye(3), atol=1e-12)


def test_chordal_mean_stays_near_cluster_and_matches_descent_oracle():
    rng = np.random.default_rng(39)
    for _ in range(5):
        R = random_rotations(rng, 1)[0]
        cluster = so3.exp_map(rng.normal(0.0, 0.05, size=(10, 3))) @ R
        mean = chordal_l2_mean(cluster)
        assert so3.geodesic_distance(mean, R) < 0.05
        oracle = chordal_mean_descent(cluster)
        assert so3.geodesic_distance(mean, oracle) < 1e-5


def test_chordal_mean_ignores_memory_layout():
    # summed in place, a Fortran-order stack would add its rows pairwise
    # rather than in order, and come out some bits off
    samples = random_rotations(np.random.default_rng(40), 300)
    expected = chordal_l2_mean(samples).tobytes()
    for view in (np.asfortranarray(samples), samples.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
        assert chordal_l2_mean(view).tobytes() == expected


def test_chordal_mean_degenerate_sum():
    # two antipodal half-turns sum to a rank-deficient matrix
    degenerate = np.stack([np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])])
    with pytest.raises(so3.DegenerateMatrix):
        chordal_l2_mean(degenerate)


# --------------------------------------------------------------------------
# weiszfeld refinement


def test_weiszfeld_identical_samples_one_iteration():
    rng = np.random.default_rng(41)
    R = random_rotations(rng, 1)[0]
    res = weiszfeld_geodesic_l1(np.stack([R, R, R]), R)
    assert np.array_equal(res.estimate, R)
    assert res.iterations == 1
    assert res.update_norms.tolist() == [0.0]
    assert res.final_cost == 0.0
    assert res.guard_fired  # the coincidence guard is what stopped it


def test_weiszfeld_collinear_median():
    # three rotations about one axis at angles -0.2, 0, 0.2: the geodesic
    # median is the middle one
    samples = so3.exp_map(np.array([[0, 0, -0.2], [0, 0, 0.0], [0, 0, 0.2]]))
    seed = so3.exp_map([0, 0, 0.05])
    res = weiszfeld_geodesic_l1(samples, seed, delta=0.001, it_max=10)
    assert so3.geodesic_distance(res.estimate, np.eye(3)) < 0.001
    assert res.iterations <= 10
    assert len(res.update_norms) == res.iterations
    assert len(res.cost_history) == res.iterations + 1


def test_weiszfeld_descent_and_local_optimality():
    rng = np.random.default_rng(42)
    for _ in range(5):
        R = random_rotations(rng, 1)[0]
        cluster = so3.exp_map(rng.normal(0.0, 0.1, size=(15, 3))) @ R
        seed = chordal_l2_mean(cluster)
        res = weiszfeld_geodesic_l1(cluster, seed, delta=1e-6, it_max=60)
        # cost never increases (tol 1e-12) when the guard stayed quiet
        assert not res.guard_fired
        assert np.all(np.diff(res.cost_history) <= 1e-12)
        # final cost <= seed cost
        assert res.final_cost <= res.cost_history[0] + 1e-12
        # no rotation in a dense tangent ball around the result does better
        # than the result by more than the grid tolerance
        def cost(Q):
            return sum(geodesic_scalar(S, Q) for S in cluster)

        assert cost(res.estimate) <= tangent_grid_min(cost, res.estimate, 0.02, 8) + 1e-3


def test_result_summaries_follow_the_data():
    # iterations and final_cost are read off the arrays, so a copy with other
    # arrays reports other numbers
    rng = np.random.default_rng(45)
    cluster = so3.exp_map(rng.normal(0.0, 0.1, size=(12, 3)))
    res = weiszfeld_geodesic_l1(cluster, np.eye(3), delta=1e-9, it_max=4)
    assert res.iterations == 4
    shorter = dataclasses.replace(
        res, update_norms=res.update_norms[:2], cost_history=res.cost_history[:3]
    )
    assert shorter.iterations == 2
    assert shorter.final_cost == float(res.cost_history[2]) != res.final_cost


def test_weiszfeld_guard_excludes_coincident_sample():
    rng = np.random.default_rng(43)
    R = random_rotations(rng, 1)[0]
    others = so3.exp_map(rng.normal(0.0, 0.1, size=(6, 3))) @ R
    samples = np.concatenate([R[None], others])
    res = weiszfeld_geodesic_l1(samples, R, delta=1e-5, it_max=50)
    assert res.guard_fired  # seed coincides with samples[0] on iteration one
    assert so3.geodesic_distance(res.estimate, R) < 0.2


def test_weiszfeld_errors():
    rng = np.random.default_rng(44)
    samples = random_rotations(rng, 4)
    with pytest.raises(EmptyInput):
        weiszfeld_geodesic_l1(samples[:0], np.eye(3))
    with pytest.raises(ValueError):
        weiszfeld_geodesic_l1(samples[:1], np.eye(3), delta=0.0)
    for it_max in (0, 2.5, math.nan):
        with pytest.raises(ValueError, match="it_max"):
            weiszfeld_geodesic_l1(samples[:1], np.eye(3), it_max=it_max)


# --------------------------------------------------------------------------
# the full estimator


def test_robust_average_single_sample():
    rng = np.random.default_rng(45)
    R = random_rotations(rng, 1)[0]
    res = robust_average(R[None])
    assert np.allclose(res.estimate, R, atol=1e-12)
    assert res.inliers.tolist() == [0]
    assert res.init_index == 0
    with pytest.raises(EmptyInput):
        robust_average(np.empty((0, 3, 3)))


def test_robust_average_separated_clusters():
    # ten copies of the truth plus ninety far outliers, all pairwise far
    # from the cluster: the estimate must land on the cluster exactly
    rng = np.random.default_rng(46)
    cfg = TludConfig()
    R = random_rotations(rng, 1)[0]
    outliers = []
    while len(outliers) < 90:
        cand = random_rotations(rng, 1)[0]
        if so3.geodesic_distance(cand, R) > 2.0 * cfg.epsilon_g:
            outliers.append(cand)
    samples = np.concatenate([np.stack([R] * 10), np.stack(outliers)])
    perm = rng.permutation(100)
    res = robust_average(samples[perm])
    assert so3.geodesic_distance(res.estimate, R) < 1e-6
    copies = set(np.flatnonzero(perm < 10).tolist())
    assert copies.issubset(set(res.inliers.tolist()))


def test_robust_average_tracks_oracle_on_true_inliers():
    # the robust estimate should be nearly as good as running the same
    # refinement on the ground-truth inlier subset alone
    rng = np.random.default_rng(47)
    sigma = math.radians(5.0)
    errors, oracle_errors = [], []
    for _ in range(100):
        truth = random_rotations(rng, 1)[0]
        inl = so3.exp_map(rng.normal(0.0, sigma, size=(10, 3))) @ truth
        out = random_rotations(rng, 90)
        samples = np.concatenate([inl, out])
        res = robust_average(samples)
        errors.append(so3.geodesic_distance(res.estimate, truth))
        seed = chordal_l2_mean(samples[:10])
        oracle = weiszfeld_geodesic_l1(samples[:10], seed)
        oracle_errors.append(so3.geodesic_distance(oracle.estimate, truth))
    assert np.median(errors) <= 1.5 * np.median(oracle_errors)


def test_robust_average_equivariance():
    rng = np.random.default_rng(48)
    samples, _ = contaminated_set(rng, 60, 40, 0.08)
    S = random_rotations(rng, 1)[0]
    base = robust_average(samples)
    left = robust_average(S @ samples)
    right = robust_average(samples @ S)
    assert np.allclose(left.estimate, S @ base.estimate, atol=1e-9)
    assert np.allclose(right.estimate, base.estimate @ S, atol=1e-9)
    assert np.array_equal(left.inliers, base.inliers)
    assert np.array_equal(right.inliers, base.inliers)


def test_robust_average_permutation_invariance():
    rng = np.random.default_rng(49)
    samples, _ = contaminated_set(rng, 80, 56, 0.08)
    base = robust_average(samples)
    perm = rng.permutation(80)
    permuted = robust_average(samples[perm])
    assert np.allclose(permuted.estimate, base.estimate, atol=1e-12)
    assert permuted.init_index == int(np.flatnonzero(perm == base.init_index)[0])
    assert np.array_equal(np.sort(perm[permuted.inliers]), base.inliers)


def test_robust_average_beats_every_input_on_truncated_cost():
    rng = np.random.default_rng(50)
    cfg = TludConfig()
    for _ in range(20):
        samples, _ = contaminated_set(rng, 60, 42, 0.08)
        res = robust_average(samples, cfg)
        if res.update_norms[-1] >= cfg.delta:
            continue  # only converged runs carry the guarantee
        est_cost = tlud_cost_geodesic(res.estimate, samples, cfg.epsilon_g)
        input_costs = [tlud_cost_geodesic(s, samples, cfg.epsilon_g) for s in samples]
        assert est_cost <= min(input_costs) + 1e-9


def test_robust_average_realternate_refreshes_inliers():
    rng = np.random.default_rng(51)
    samples, truth = contaminated_set(rng, 100, 70, 0.12)
    single = robust_average(samples, TludConfig(realternate=0))
    alt = robust_average(samples, TludConfig(realternate=5))
    # the re-alternating run must also land near the truth, and its inlier
    # set is the fixed point of select-around-estimate
    assert so3.geodesic_distance(alt.estimate, truth) < 0.15
    refreshed = select_inliers(alt.estimate, samples)
    assert np.array_equal(refreshed, alt.inliers) or so3.geodesic_distance(
        alt.estimate, single.estimate
    ) < 1e-6


def _assert_same_result(a, b):
    for f in dataclasses.fields(AveragingResult):
        x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


@pytest.mark.parametrize("realternate", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [_GRID_MIN_N - 1, _GRID_MIN_N + 200])
def test_robust_average_matches_stage_composition(n, realternate):
    # geodesic_l1_mean on the inlier rows gives the bytes of the chordal seed
    # and the Weiszfeld refinement written out stage by stage
    rng = np.random.default_rng(60 + realternate)
    cfg = TludConfig(realternate=realternate)
    for n_out in (int(0.9 * n), int(0.3 * n)):
        samples, _ = contaminated_set(rng, n, n_out, 0.15)
        _assert_same_result(robust_average(samples, cfg), robust_average_stages(samples, cfg))


def test_robust_average_matches_stage_composition_on_list_and_single_input():
    rng = np.random.default_rng(61)
    samples, _ = contaminated_set(rng, 40, 20, 0.15)
    cfg = TludConfig(realternate=2)
    listed = samples.tolist()
    _assert_same_result(robust_average(listed, cfg), robust_average_stages(listed, cfg))
    _assert_same_result(robust_average(samples[3]), robust_average_stages(samples[3], TludConfig()))


def test_robust_average_checks_each_row_once_per_reading_stage(monkeypatch):
    # proxy_initialize and select_inliers read all N samples, chordal_l2_mean
    # and weiszfeld_geodesic_l1 the k inliers; robust_average and
    # geodesic_l1_mean add no check of their own, so 2N + 2k rows in all
    rows = []
    check = so3.check_rotations

    def counted(m, *args, **kwargs):
        rows.append(len(m))
        return check(m, *args, **kwargs)

    monkeypatch.setattr(so3, "check_rotations", counted)
    samples, _ = contaminated_set(np.random.default_rng(62), 300, 240, 0.08)
    k = len(robust_average(samples).inliers)
    assert 0 < k < 300
    assert rows == [300, 300, k, k]


def test_geodesic_l1_mean_baseline():
    rng = np.random.default_rng(52)
    R = random_rotations(rng, 1)[0]
    cluster = so3.exp_map(rng.normal(0.0, 0.05, size=(30, 3))) @ R
    res = geodesic_l1_mean(cluster)
    assert so3.geodesic_distance(res.estimate, R) < 0.05
    assert res.init_index is None
    assert res.inliers.tolist() == list(range(30))


def test_result_shape_contracts():
    rng = np.random.default_rng(53)
    samples, _ = contaminated_set(rng, 40, 20, 0.08)
    res = robust_average(samples)
    assert isinstance(res, AveragingResult)
    assert so3.is_rotation(res.estimate)
    assert res.iterations <= TludConfig().it_max
    assert len(res.update_norms) == res.iterations
    assert len(res.cost_history) == res.iterations + 1
    assert np.isclose(
        res.final_cost,
        float(np.sum(so3.geodesic_distance(samples[res.inliers], res.estimate))),
        atol=1e-12,
    )
