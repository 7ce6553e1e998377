import dataclasses
import logging
import math
import os
import warnings

import numpy as np
import pytest

from rotavg import bench, registration, so3
from rotavg.fileio import load_cloud
from rotavg.registration import (
    AttemptCapExceeded,
    RegistrationScenario,
    TooFewPoints,
    corrupt_cloud,
    harvest_hypotheses,
    make_scenario,
    normalize_cloud,
    register_rotation,
    synthetic_pair,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data", "standin_cloud.xyz")


def blob(rng, n=500):
    return rng.normal(size=(n, 3)) * np.array([1.0, 0.7, 0.4])


def columns(src, dst):
    """The (6, n) coordinate-row layout _ratio_test reads, as the harvest builds it."""
    return np.ascontiguousarray(np.concatenate([src, dst], axis=1).T)


def ratio_check(src, dst, tol):
    """Whether the ratio test keeps one corresponding triangle."""
    return bool(registration._ratio_test(columns(src, dst), np.array([[0, 1, 2]]), tol)[0])


# --------------------------------------------------------------------------
# scenario


def test_scenario_validation():
    make_scenario(seed=0, outlier_fraction=0.5)  # fine
    with pytest.raises(ValueError):
        make_scenario(seed=0, outlier_fraction=0.99)
    with pytest.raises(ValueError):
        make_scenario(seed=0, outlier_fraction=-0.1)
    with pytest.raises(ValueError):
        make_scenario(seed=0, outlier_fraction=0.5, scale=1.0)
    with pytest.raises(ValueError):
        make_scenario(seed=0, outlier_fraction=0.5, scale=5.0)
    with pytest.raises(ValueError):
        make_scenario(seed=0, outlier_fraction=0.5, noise_sigma=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            make_scenario(seed=0, outlier_fraction=0.5, noise_sigma=bad)
    with pytest.raises(ValueError, match="ratio_tolerance"):
        make_scenario(seed=0, outlier_fraction=0.5, ratio_tolerance=math.nan)
    for bad in (0, 2.5, math.nan, True):
        with pytest.raises(ValueError, match="n_hypotheses"):
            make_scenario(seed=0, outlier_fraction=0.5, n_hypotheses=bad)
    for bad in (-3, 1.5, math.nan, 2**64, True):
        with pytest.raises(ValueError, match="seed"):
            make_scenario(seed=bad, outlier_fraction=0.5)
        with pytest.raises(ValueError, match="seed"):
            RegistrationScenario(seed=bad)
    with pytest.raises(ValueError, match="seed"):
        synthetic_pair(blob(np.random.default_rng(70), 50), 1.5, 0.5, n_points=20)
    for bad in (1.0, 5.0, math.nan):
        with pytest.raises(ValueError, match="scale"):
            RegistrationScenario(fixed_scale=bad)
    # the transform is drawn from the seed, never given
    given = {"scale": 2.0, "rotation": np.eye(3), "translation": np.zeros(3)}
    for kwargs in (given, *({k: v} for k, v in given.items())):
        with pytest.raises(TypeError):
            RegistrationScenario(**kwargs)


def test_scenario_replace_keeps_the_transform():
    # the drawn scale stays out of fixed_scale, so replace redraws the same
    # scale and then the same rotation and translation
    for fixed in (None, 2.5):
        scen = make_scenario(seed=31, outlier_fraction=0.9, scale=fixed)
        more = dataclasses.replace(scen, n_hypotheses=4000)
        assert more.n_hypotheses == 4000 and more.fixed_scale == fixed
        assert more.scale == scen.scale
        assert more.rotation.tobytes() == scen.rotation.tobytes()
        assert more.translation.tobytes() == scen.translation.tobytes()


def test_make_scenario_draws_are_deterministic_and_in_range():
    a = make_scenario(seed=17, outlier_fraction=0.3)
    b = make_scenario(seed=17, outlier_fraction=0.3)
    assert a.scale == b.scale
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)
    assert 1.0 < a.scale < 5.0
    assert so3.is_rotation(a.rotation)
    assert (np.abs(a.translation) <= 1.0).all()
    assert isinstance(a.rotation, np.ndarray)
    assert a.translation.shape == (3,)
    c = make_scenario(seed=18, outlier_fraction=0.3)
    assert c.scale != a.scale


class QueuedRng:
    """Generator stand-in whose normal and uniform calls return queued values."""

    def __init__(self, normal=(), uniform=()):
        self.queues = {"normal": list(normal), "uniform": list(uniform)}

    def normal(self, *args, **kwargs):
        return self.queues["normal"].pop(0)

    def uniform(self, *args, **kwargs):
        return self.queues["uniform"].pop(0)


def test_random_outlier_redraws_a_parallel_second_column():
    # the scenario's rotation comes from bench.random_outlier
    x, y = np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    rng = QueuedRng(normal=[x.copy(), 2.0 * x, y])
    R = bench.random_outlier(rng)
    assert so3.is_rotation(R) and np.array_equal(R[:, 1], y[0])
    assert rng.queues["normal"] == []


def test_scenario_redraws_a_scale_of_exactly_one(monkeypatch):
    rng = QueuedRng(normal=[np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])],
                    uniform=[1.0, 2.5, np.array([0.1, 0.2, 0.3])])
    monkeypatch.setattr(registration, "_stream", lambda seed, *tags: rng)
    scen = RegistrationScenario()
    assert scen.scale == 2.5
    assert so3.is_rotation(scen.rotation)
    assert np.array_equal(scen.translation, [0.1, 0.2, 0.3])
    assert rng.queues == {"normal": [], "uniform": []}


# --------------------------------------------------------------------------
# normalize


def test_normalize_cloud_fits_unit_cube():
    rng = np.random.default_rng(70)
    for _ in range(5):
        cloud = blob(rng) * rng.uniform(0.1, 40.0) + rng.normal(size=3) * 10.0
        out = normalize_cloud(cloud, 200, rng)
        assert out.shape == (200, 3)
        lo, hi = out.min(axis=0), out.max(axis=0)
        assert (lo >= -0.5 - 1e-12).all() and (hi <= 0.5 + 1e-12).all()
        assert abs((hi - lo).max() - 1.0) < 1e-12


def test_normalize_cloud_preserves_shape():
    # squeezed to the cube, relative geometry survives: pairwise distance
    # ratios are untouched by a similarity transform
    rng = np.random.default_rng(71)
    cloud = blob(rng, 60)
    out = normalize_cloud(cloud, 60, rng)
    # same point multiset up to scale+shift: sort both by distance from
    # their own centroid and compare ratio constancy
    d_in = np.linalg.norm(cloud - cloud.mean(axis=0), axis=1)
    d_out = np.linalg.norm(out - out.mean(axis=0), axis=1)
    ratio = np.sort(d_out)[1:] / np.sort(d_in)[1:]
    assert ratio.std() < 1e-9


def test_normalize_cloud_errors():
    rng = np.random.default_rng(72)
    with pytest.raises(TooFewPoints):
        normalize_cloud(blob(rng, 10), 11, rng)
    with pytest.raises(ValueError):
        normalize_cloud(np.zeros((5, 3)), 5, rng)  # zero extent
    for bad in (0, 10.5, math.nan, True):
        with pytest.raises(ValueError, match="target_count"):
            normalize_cloud(blob(rng, 20), bad, rng)
    with pytest.raises(ValueError, match="point array"):
        normalize_cloud(np.zeros((5, 2)), 5, rng)


# --------------------------------------------------------------------------
# corrupt


def test_corrupt_cloud_pure_similarity():
    rng = np.random.default_rng(73)
    src = normalize_cloud(blob(rng), 300, rng)
    scen = make_scenario(seed=3, outlier_fraction=0.0, noise_sigma=0.0)
    dst = corrupt_cloud(src, scen)
    expected = scen.scale * (src @ scen.rotation.T) + scen.translation
    assert np.allclose(dst, expected, atol=1e-12)


def test_corrupt_cloud_replacement_count_and_ball():
    rng = np.random.default_rng(74)
    src = normalize_cloud(blob(rng, 2000), 1000, rng)
    scen = make_scenario(seed=4, outlier_fraction=0.96, noise_sigma=0.0)
    dst = corrupt_cloud(src, scen)
    expected = scen.scale * (src @ scen.rotation.T) + scen.translation
    moved = ~np.isclose(dst, expected, atol=1e-9).all(axis=1)
    assert moved.sum() == round(0.96 * 1000) == 960
    radius = math.sqrt(3.0) * scen.scale / 2.0
    center = (expected + 0.0).mean(axis=0)  # noise_sigma = 0: centroid is exact
    dist = np.linalg.norm(dst[moved] - center, axis=1)
    assert (dist <= radius + 1e-9).all()
    # the ball is actually used, not just its center
    assert dist.max() > 0.8 * radius and dist.min() < 0.4 * radius


def test_corrupt_cloud_determinism():
    rng = np.random.default_rng(75)
    src = normalize_cloud(blob(rng), 200, rng)
    scen = make_scenario(seed=5, outlier_fraction=0.5)
    assert np.array_equal(corrupt_cloud(src, scen), corrupt_cloud(src, scen))


def test_synthetic_pair_matches_hand_built_scenario():
    # acceptance criterion 6 builds its scenarios by hand, in this order
    cloud = load_cloud(DATA)
    for seed, frac in ((0, 0.90), (3, 0.96), (9, 0.90), (1584494583, 0.96)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, registration._TAG_NORMALIZE]))
        src = normalize_cloud(cloud, 1000, rng)
        scen = make_scenario(seed=seed, outlier_fraction=frac, noise_sigma=0.01, n_hypotheses=2000)
        dst = corrupt_cloud(src, scen)
        got = synthetic_pair(cloud, seed, frac, noise_sigma=0.01, n_hypotheses=2000)
        assert got[0].tobytes() == src.tobytes()
        assert got[1].tobytes() == dst.tobytes()
        for f in dataclasses.fields(RegistrationScenario):
            a, b = getattr(got[2], f.name), getattr(scen, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    assert synthetic_pair(cloud, 5, 0.5, n_points=300, scale=2.0)[0].shape == (300, 3)


# --------------------------------------------------------------------------
# triangle filter


def test_triangle_ratio_check_similar_and_stretched():
    rng = np.random.default_rng(76)
    src = rng.normal(size=(3, 3))
    # scaling is a similarity: ratios agree to rounding error
    assert ratio_check(src, 3.0 * src, tol=1e-12) is True
    R = so3.exp_map(rng.normal(size=3))
    assert ratio_check(src, src @ R.T, tol=1e-9) is True
    # stretch one vertex away: side ratios disagree by far more than 10%,
    # and only the ratios reject it, since with the filter off it passes
    bad = src.copy()
    bad[0] = bad[1] + 2.0 * (bad[0] - bad[1])
    assert ratio_check(src, bad, tol=0.1) is False
    assert ratio_check(src, bad, tol=math.inf) is True


def test_triangle_ratio_check_degenerate():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dst = src.copy()
    dst[1] = dst[0]  # zero-length side
    # rejected in either cloud, even with the filter off
    for tol in (0.1, math.inf):
        assert ratio_check(src, dst, tol) is False
        assert ratio_check(dst, src, tol) is False
        assert ratio_check(np.zeros((3, 3)), np.zeros((3, 3)), tol) is False  # longest side 0
    # flat means a height below 1e-9 of the longest side, at any unit
    for height, kept in ((2e-9, True), (5e-10, False)):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, height, 0.0]])
        for unit in (1e-12, 1.0, 1e150):
            assert ratio_check(src, unit * tri, math.inf) is kept
            assert ratio_check(unit * tri, src, math.inf) is kept


def test_triangle_filter_accepts_inlier_triples_under_noise():
    # corresponding triangles with sides > 0.2 in a sigma = 0.01 scenario
    # pass the default tolerance almost always
    rng = np.random.default_rng(77)
    src = normalize_cloud(load_cloud(DATA), 1000, rng)
    scen = make_scenario(seed=6, outlier_fraction=0.0, noise_sigma=0.01)
    dst = corrupt_cloud(src, scen)
    triples = []
    while len(triples) < 500:
        idx = rng.choice(len(src), size=3, replace=False)
        sides = np.linalg.norm(src[idx] - np.roll(src[idx], 1, axis=0), axis=1)
        if sides.min() >= 0.2:
            triples.append(idx)
    cols, triples = columns(src, dst), np.array(triples)
    assert registration._ratio_test(cols, triples, math.inf).all()  # none is flat
    assert registration._ratio_test(cols, triples, 0.1).mean() > 0.90


# --------------------------------------------------------------------------
# three-point alignment


def test_align_three_points_exact():
    rng = np.random.default_rng(78)
    from _oracles import horn_rotation

    src, truth = [], []
    for _ in range(50):
        src.append(rng.normal(size=(3, 3)))
        truth.append(so3.exp_map(rng.normal(size=3)))
    src, truth = np.array(src), np.array(truth)
    dst = src @ truth.transpose(0, 2, 1)
    # all 50 in one batch, so each row must come back in its own place
    est = registration._align_batch(src, dst)
    assert est.shape == (50, 3, 3)
    assert np.allclose(est, truth, atol=1e-9)
    # scale and translation on either side must not matter
    est2 = registration._align_batch(1.7 * src - 4.0, 3.0 * dst + np.array([1.0, -2.0, 0.5]))
    assert np.allclose(est2, truth, atol=1e-9)
    # oracle self-check on exact data
    src = rng.normal(size=(3, 3))
    R = so3.exp_map(rng.normal(size=3))
    centered = src - src.mean(axis=0)
    assert np.allclose(horn_rotation(centered, centered @ R.T), R, atol=1e-9)


def test_align_three_points_matches_horn_oracle_under_noise():
    rng = np.random.default_rng(79)
    from _oracles import horn_rotation

    for _ in range(30):
        src = rng.normal(size=(3, 3))
        R = so3.exp_map(rng.normal(size=3))
        dst = src @ R.T + rng.normal(0.0, 0.01, size=(3, 3))
        (est,) = registration._align_batch(src[None], dst[None])
        # feed the oracle the same centered/RMS-normalized points the
        # library sees, so both solve the identical orientation problem
        sc = src - src.mean(axis=0)
        dc = dst - dst.mean(axis=0)
        sc /= math.sqrt((sc * sc).sum() / 3.0)
        dc /= math.sqrt((dc * dc).sum() / 3.0)
        oracle = horn_rotation(sc, dc)
        assert np.allclose(est, oracle, atol=1e-6)


def test_align_three_points_collinear():
    line = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    same = np.ones((3, 3))
    rng = np.random.default_rng(91)
    good = rng.normal(size=(2, 3, 3))
    truth = so3.exp_map(rng.normal(size=(4, 3)))
    batch = np.array([line, good[0], same, good[1]])
    src, dst = batch.reshape(12, 3), (batch @ truth.transpose(0, 2, 1)).reshape(12, 3)
    idx = np.arange(12).reshape(4, 3)
    # collinear and coincident triples never reach alignment, even with the filter off
    for tol in (0.1, math.inf):
        kept = registration._ratio_test(columns(src, dst), idx, tol)
        assert kept.tolist() == [False, True, False, True]
    # the kept rows align in their order
    est = registration._align_batch(src[idx[kept]], dst[idx[kept]])
    assert est.shape == (2, 3, 3)
    assert np.allclose(est, truth[[1, 3]], atol=1e-9)


# --------------------------------------------------------------------------
# harvesting


def test_harvest_clean_scenario_reproduces_truth():
    rng = np.random.default_rng(80)
    src = normalize_cloud(load_cloud(DATA), 400, rng)
    scen = make_scenario(seed=8, outlier_fraction=0.0, noise_sigma=0.0, n_hypotheses=200)
    dst = corrupt_cloud(src, scen)
    hyps = harvest_hypotheses(src, dst, scen)
    assert hyps.shape == (200, 3, 3)
    assert so3.is_rotation(hyps).all()
    # compare entries, not arccos distance: the metric bottoms out near
    # sqrt(eps) for matrices that agree to rounding error
    assert np.allclose(hyps, scen.rotation, atol=1e-9)


def test_harvest_deterministic_and_worker_invariant():
    rng = np.random.default_rng(81)
    src = normalize_cloud(load_cloud(DATA), 500, rng)
    scen = make_scenario(seed=9, outlier_fraction=0.8, n_hypotheses=300)
    dst = corrupt_cloud(src, scen)
    a = harvest_hypotheses(src, dst, scen)
    b = harvest_hypotheses(src, dst, scen)
    assert np.array_equal(a, b)


def test_harvest_attempt_cap():
    rng = np.random.default_rng(82)
    src = normalize_cloud(load_cloud(DATA), 300, rng)
    scen = make_scenario(
        seed=10, outlier_fraction=0.9, noise_sigma=0.05, n_hypotheses=500, ratio_tolerance=0.0
    )
    dst = corrupt_cloud(src, scen)
    # zero tolerance on noisy data accepts (almost) nothing
    with pytest.raises(AttemptCapExceeded):
        harvest_hypotheses(src, dst, scen, attempt_cap=20_000)
    # a collinear or coincident cloud aligns no triple: it fails before any attempt
    line = rng.uniform(-0.5, 0.5, (300, 1)) * np.array([0.6, 0.3, 0.2])
    point = np.tile([0.1, -0.2, 0.3], (300, 1))
    scen = RegistrationScenario(n_hypotheses=50)
    for a, b, name in ((line, line, "src"), (point, point, "src"), (src, line, "dst"),
                       (src, point, "dst")):
        with pytest.raises(so3.DegenerateMatrix, match=f"{name} points are collinear"):
            harvest_hypotheses(a, b, scen, attempt_cap=1)


def test_harvest_filter_enriches_inliers():
    rng = np.random.default_rng(83)
    src = normalize_cloud(load_cloud(DATA), 1000, rng)
    scen = make_scenario(seed=11, outlier_fraction=0.9, n_hypotheses=400)
    dst = corrupt_cloud(src, scen)
    filtered = harvest_hypotheses(src, dst, scen)
    unfiltered_scen = make_scenario(
        seed=11, outlier_fraction=0.9, n_hypotheses=400, ratio_tolerance=math.inf
    )
    unfiltered = harvest_hypotheses(src, dst, unfiltered_scen)
    good = lambda h: float(np.mean(so3.geodesic_distance(h, scen.rotation) < 0.36))
    assert good(filtered) > good(unfiltered)
    assert good(filtered) > 0.1**3  # far above the raw all-inlier-triple rate


def test_harvest_input_validation():
    rng = np.random.default_rng(84)
    cloud = blob(rng, 50)
    scen = make_scenario(seed=12, outlier_fraction=0.0)
    with pytest.raises(ValueError):
        harvest_hypotheses(cloud, cloud[:20], scen)
    with pytest.raises(TooFewPoints):
        harvest_hypotheses(cloud[:2], cloud[:2], scen)
    for bad in (0, 2.5, math.nan):
        # a NaN cap used to end in ZeroDivisionError from accepted / attempts
        with pytest.raises(ValueError, match="attempt_cap"):
            harvest_hypotheses(cloud, cloud, scen, attempt_cap=bad)


def _oracle_batches(src, dst, seed, n_batches, tol=0.1):
    """Check the harvest against the scalar oracle on the same triples.

    Triple by triple, _ratio_test keeps what the oracle keeps, and the
    harvest of all kept triples over n_batches returns the oracle's
    rotations.  Returns the sampled triples and the masks of those kept
    with the filter off (not flat) and on, concatenated over the batches.
    """
    from _oracles import harvest_triples_scalar

    cols = columns(src, dst)
    triples, solid, kept, want = [], [], [], []
    for b in range(n_batches):
        rng = registration._stream(seed, registration._TAG_HARVEST, b)
        idx = registration._distinct_triples(rng, len(src), registration._HARVEST_BATCH)
        rotations = [harvest_triples_scalar(src, dst, [t], tol) for t in idx]
        mask = registration._ratio_test(cols, idx, tol)
        assert mask.tolist() == [bool(r) for r in rotations], b
        triples.append(idx)
        solid.append(registration._ratio_test(cols, idx, math.inf))
        kept.append(mask)
        want += [r[0] for r in rotations if r]
    scen = RegistrationScenario(seed, n_hypotheses=len(want), ratio_tolerance=tol)
    got = harvest_hypotheses(src, dst, scen, attempt_cap=n_batches * registration._HARVEST_BATCH)
    assert np.abs(got - np.array(want)).max() < 1e-9
    return np.concatenate(triples), np.concatenate(solid), np.concatenate(kept)


@pytest.mark.parametrize("fraction, seed", [(0.90, 16), (0.96, 17)])
def test_harvest_batch_matches_scalar_oracle(fraction, seed):
    rng = np.random.default_rng(seed)
    src = normalize_cloud(load_cloud(DATA), 1000, rng)
    scen = make_scenario(seed=seed, outlier_fraction=fraction)
    dst = corrupt_cloud(src, scen)
    _, solid, kept = _oracle_batches(src, dst, seed, n_batches=3)
    assert solid.all() and kept.any()  # only the ratios reject a triple here


def test_harvest_batch_oracle_drops_duplicated_points():
    rng = np.random.default_rng(87)
    base = normalize_cloud(load_cloud(DATA), 200, rng)
    src = np.concatenate([base, base, base + 1e-11])  # sides 0 and ~2e-11
    scen = make_scenario(seed=18, outlier_fraction=0.0, noise_sigma=0.0)
    dst = corrupt_cloud(src, scen)
    _, solid, kept = _oracle_batches(src, dst, 18, n_batches=1)
    assert not solid.all()
    assert np.array_equal(kept, solid) and kept.sum() > 3000


def test_harvest_batch_oracle_drops_collinear_triples():
    rng = np.random.default_rng(88)
    base = normalize_cloud(load_cloud(DATA), 200, rng)
    line = np.array([0.1, -0.2, 0.05]) + rng.uniform(-0.5, 0.5, (200, 1)) * np.array([0.6, 0.3, 0.2])
    src = np.concatenate([base, line])
    scen = make_scenario(seed=19, outlier_fraction=0.5)
    dst = corrupt_cloud(src, scen)
    triples, solid, kept = _oracle_batches(src, dst, 19, n_batches=2)
    on_line = (triples >= 200).all(axis=1)
    assert on_line.any() and not solid[on_line].any()  # dropped even with the filter off
    assert kept.any()


def test_harvest_does_not_depend_on_units():
    # flatness is relative, so no unit of the clouds decides a triple; with
    # an absolute side tolerance the 1e-10 clouds kept none and hit the cap
    src, dst, scen = synthetic_pair(load_cloud(DATA), 22, 0.9, n_points=300, n_hypotheses=300)
    want = harvest_hypotheses(src, dst, scen)
    for unit in (1e-10, 1e150):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = harvest_hypotheses(unit * src, unit * dst, scen)
        assert np.abs(got - want).max() < 1e-12, unit


def test_harvest_reports_counts(caplog):
    rng = np.random.default_rng(89)
    src = normalize_cloud(load_cloud(DATA), 500, rng)
    scen = make_scenario(seed=20, outlier_fraction=0.8, n_hypotheses=300)
    dst = corrupt_cloud(src, scen)
    with caplog.at_level(logging.DEBUG, logger="rotavg.registration"):
        hyps = harvest_hypotheses(src, dst, scen)
    (rec,) = [r for r in caplog.records if r.name == "rotavg.registration"]
    assert rec.levelno == logging.DEBUG
    assert rec.attempts == registration._HARVEST_BATCH * rec.batches
    assert rec.accepted >= len(hyps) == 300
    assert rec.acceptance_rate == rec.accepted / rec.attempts
    assert "batches" in rec.getMessage()

    strict = make_scenario(seed=20, outlier_fraction=0.8, n_hypotheses=300, ratio_tolerance=0.0)
    cap = 5 * registration._HARVEST_BATCH // 2  # the third batch is cut short
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="rotavg.registration"):
        with pytest.raises(AttemptCapExceeded) as info:
            harvest_hypotheses(src, dst, strict, attempt_cap=cap)
    (rec,) = [r for r in caplog.records if r.name == "rotavg.registration"]
    assert info.value.attempts == rec.attempts == cap
    assert info.value.accepted == rec.accepted < 300
    assert rec.batches == 3


def test_non_finite_cloud_is_rejected_at_once():
    rng = np.random.default_rng(90)
    good = normalize_cloud(blob(rng, 300), 300, rng)
    scen = make_scenario(seed=21, outlier_fraction=0.9)
    for bad_value in (np.nan, np.inf):
        bad = good.copy()
        bad[17, 1] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            normalize_cloud(bad, 200, rng)
        with pytest.raises(ValueError, match="non-finite"):
            corrupt_cloud(bad, scen)
        with pytest.raises(ValueError, match="non-finite"):
            harvest_hypotheses(good, bad, scen)
        with pytest.raises(ValueError, match="non-finite"):
            harvest_hypotheses(bad, good, scen)


# --------------------------------------------------------------------------
# end-to-end


def test_register_rotation_clean_is_exact():
    rng = np.random.default_rng(85)
    src = normalize_cloud(load_cloud(DATA), 400, rng)
    scen = make_scenario(seed=13, outlier_fraction=0.0, noise_sigma=0.0, n_hypotheses=200)
    dst = corrupt_cloud(src, scen)
    res = register_rotation(src, dst, scen)
    assert so3.geodesic_distance(res.estimate, scen.rotation) < 1e-6


def test_register_rotation_90pct_outliers():
    rng = np.random.default_rng(86)
    src = normalize_cloud(load_cloud(DATA), 1000, rng)
    scen = make_scenario(seed=14, outlier_fraction=0.9, n_hypotheses=2000)
    dst = corrupt_cloud(src, scen)
    res = register_rotation(src, dst, scen)
    err_deg = math.degrees(so3.geodesic_distance(res.estimate, scen.rotation))
    assert err_deg < 3.0
