"""The two exact proxy searches: the quaternion-grid neighbour search and the
dense Gram product.  Both are compared with the exhaustive difference-form
cost, on inputs chosen to stress the grid: clusters around a half turn (where
canonical quaternions flip sign), exact duplicates, and every threshold from
tight to nearly the whole group.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotavg import averaging, so3
from rotavg.averaging import _dense_costs, _grid_costs, _lowest_least, proxy_initialize
from rotavg.fileio import write_rotations

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def exhaustive_costs(samples, eps):
    """sum_i min(||Ri - Rj||_F, eps) for every j, in difference form."""
    X = samples.reshape(len(samples), 9)
    diff = X[:, None, :] - X[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return np.minimum(d, eps).sum(axis=0)


def expected_index(costs):
    """Lowest index among candidates within 1e-12 of the best exhaustive cost."""
    return int(np.flatnonzero(costs <= costs.min() + 1e-12)[0])


@st.composite
def stacks(draw):
    """Small rotation stacks that put pairs on both sides of the w = 0 seam."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["half_turn", "uniform", "mixed"]))
    spread = draw(st.sampled_from([1e-3, 0.05, 0.3]))
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    center = so3.exp_map(math.pi * axis / np.linalg.norm(axis))
    near = so3.exp_map(rng.normal(0.0, spread, size=(n, 3))) @ center
    uniform = so3.exp_map(rng.uniform(-math.pi, math.pi, size=(n, 3)))
    if kind == "half_turn":
        samples = near
    elif kind == "uniform":
        samples = uniform
    else:
        samples = np.where(rng.random(n)[:, None, None] < 0.5, near, uniform)
    n_dup = draw(st.integers(0, n // 2))
    if n_dup:
        samples[rng.choice(n, n_dup, replace=False)] = samples[rng.choice(n, n_dup)]
    return samples


EPSILONS = st.sampled_from([0.05, 0.5, 1.5, 2.8])


@settings(max_examples=200, deadline=None)
@given(samples=stacks(), eps=EPSILONS)
def test_grid_costs_match_exhaustive(samples, eps):
    costs = _grid_costs(samples, eps)
    ref = exhaustive_costs(samples, eps)
    assert costs is not None
    assert np.abs(costs - ref).max() <= 1e-9
    assert _lowest_least(costs) == expected_index(ref)


@settings(max_examples=200, deadline=None)
@given(samples=stacks(), eps=EPSILONS, block_size=st.sampled_from([1, 7, 256]))
def test_dense_costs_match_exhaustive(samples, eps, block_size):
    X = np.ascontiguousarray(samples.reshape(len(samples), 9))
    costs = _dense_costs(X, eps, block_size)
    ref = exhaustive_costs(samples, eps)
    assert np.abs(costs - ref).max() <= 1e-9
    assert _lowest_least(costs) == expected_index(ref)


def test_self_pair_costs_exactly_zero():
    rng = np.random.default_rng(60)
    R = so3.exp_map(rng.normal(size=(500, 3)))
    X = np.ascontiguousarray(R.reshape(500, 9))
    for costs in (_dense_costs(X[:1], 0.5), _grid_costs(R[:1], 0.5)):
        assert costs.tolist() == [0.0]
    # copies of one sample are all at exactly zero from each other
    copies = np.repeat(R[:1], 300, axis=0)
    for costs in (_dense_costs(copies.reshape(300, 9), 0.5), _grid_costs(copies, 0.5)):
        assert np.array_equal(costs, np.zeros(300))
    # the Gram form alone gives a self distance of up to ~1e-7; with nothing
    # else inside a tight ball every sample costs eps per other sample
    eps = 1e-3
    ref = exhaustive_costs(R, eps)
    assert np.abs(ref - eps * 499).max() < 1e-12
    assert np.abs(_dense_costs(X, eps) - ref).max() < 1e-12
    assert np.abs(_grid_costs(R, eps) - ref).max() < 1e-12
    # all 500 tie, so the lowest index wins
    assert proxy_initialize(R, eps)[0] == 0


@pytest.mark.parametrize("eps", [0.05, 0.5, 1.5, 2.8])
def test_searches_are_exact_on_near_rotations(eps):
    # pairs a few 1e-6 either side of the threshold, with every matrix up to
    # about 1e-6 off a rotation: the grid's search radius must absorb both,
    # and the Gram form must not assume |R|^2 == 3
    rng = np.random.default_rng(64)
    theta = 2.0 * math.asin(eps / TWO_SQRT_TWO)
    base = so3.exp_map(rng.normal(size=(200, 3)) * 2.0)
    axes = rng.normal(size=(200, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    partner = so3.exp_map(axes * (theta + rng.uniform(-3e-6, 3e-6, 200))[:, None]) @ base
    samples = np.concatenate([base, partner]) + rng.normal(0.0, 1.5e-7, size=(400, 3, 3))
    samples = samples[so3.is_rotation(samples, tol=so3.ROTATION_TOL)]
    assert len(samples) > 300
    ref = exhaustive_costs(samples, eps)
    X = np.ascontiguousarray(samples.reshape(len(samples), 9))
    assert np.abs(_grid_costs(samples, eps) - ref).max() <= 1e-9
    assert np.abs(_dense_costs(X, eps) - ref).max() <= 1e-9


def test_grid_chunking_never_changes_the_answer(monkeypatch):
    rng = np.random.default_rng(61)
    truth = so3.exp_map(rng.normal(size=3))
    R = np.concatenate(
        [so3.exp_map(rng.normal(0.0, 0.05, size=(100, 3))) @ truth, so3.exp_map(rng.normal(size=(400, 3)))]
    )
    ref = exhaustive_costs(R, 0.5)
    for chunk in (1, 37, 5000, 1 << 20):
        monkeypatch.setattr(averaging, "_PAIR_CHUNK", chunk)
        costs = _grid_costs(R, 0.5)
        assert np.abs(costs - ref).max() < 1e-12
        assert _lowest_least(costs) == expected_index(ref)


def test_grid_declines_when_it_cannot_help():
    rng = np.random.default_rng(62)
    R = so3.exp_map(rng.normal(size=(50, 3)))
    # a padded ball that covers the whole group: only the dense search applies
    assert _grid_costs(R, TWO_SQRT_TWO - 1e-9) is None
    # more candidate pairs than allowed
    assert _grid_costs(R, 0.5, max_pairs=10) is None
    assert _grid_costs(R, 0.5, max_pairs=2500) is not None


def test_proxy_accepts_any_positive_threshold():
    # epsilon_c >= 2 sqrt(2) truncates nothing; it falls back to the dense path
    rng = np.random.default_rng(63)
    R = so3.exp_map(rng.normal(size=(averaging._GRID_MIN_N, 3)))
    idx, _ = proxy_initialize(R, epsilon_c=3.0)
    X = np.ascontiguousarray(R.reshape(len(R), 9))
    assert idx == int(np.argmin(_dense_costs(X, 3.0)))


def planted(seed, n, outlier_ratio, sigma_rad=math.radians(5.0)):
    rng = np.random.default_rng(seed)
    truth = so3.exp_map(rng.normal(size=3))
    n_out = int(round(outlier_ratio * n))
    inliers = so3.exp_map(rng.normal(0.0, sigma_rad, size=(n - n_out, 3))) @ truth
    return np.concatenate([inliers, so3.exp_map(rng.uniform(-math.pi, math.pi, size=(n_out, 3)))])


def test_path_choice_follows_the_candidate_count():
    n = 2000
    share = averaging._GRID_MAX_SHARE * n * n
    sparse = planted(64, n, 0.9)
    dense = planted(65, n, 0.0)
    assert _grid_costs(sparse, 0.5, max_pairs=share) is not None
    assert _grid_costs(dense, 0.5, max_pairs=share) is None
    for samples in (sparse, dense):
        X = np.ascontiguousarray(samples.reshape(n, 9))
        dense_idx = int(np.argmin(_dense_costs(X, 0.5)))
        assert proxy_initialize(samples)[0] == dense_idx


def _run(args, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, check=True, timeout=120
    ).stdout


PROXY_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_proxy_search import planted
from rotavg.averaging import proxy_initialize
idx, chosen = proxy_initialize(planted(66, 4000, 0.9))
print(idx, chosen.tobytes().hex())
"""


def test_results_do_not_depend_on_blas_threads(tmp_path):
    # grid path: the proxy index on a sparse stack
    n = 4000
    assert _grid_costs(planted(66, n, 0.9), 0.5, max_pairs=averaging._GRID_MAX_SHARE * n * n) is not None
    script = PROXY_SCRIPT.format(tests=os.path.dirname(__file__))
    outputs = [_run(["-c", script], threads) for threads in (1, 2)]
    assert outputs[0] == outputs[1]

    # dense path: `rotavg average` on a file with no outliers
    n = 3000
    samples = planted(67, n, 0.0)
    assert _grid_costs(samples, 0.5, max_pairs=averaging._GRID_MAX_SHARE * n * n) is None
    path = tmp_path / "dense.mat9"
    write_rotations(path, samples)
    outputs = [_run(["-m", "rotavg.cli", "average", str(path)], threads) for threads in (1, 2)]
    assert outputs[0] == outputs[1]
    assert b'"estimate"' in outputs[0]
