"""Symmetries of robust_average on benchmark stacks.

The truncated cost depends on the samples only through their pairwise
distances, which a common left or right rotation and a reordering all
preserve.  So rotating every sample by Q, on either side, rotates the
estimate by Q on that side, and shuffling the samples shuffles the inliers
and leaves the estimate alone.  The second holds only when the proxy winner
is unique: with two candidates at the same cost the lowest index wins, and a
shuffle can change which one that is.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotavg import averaging, so3
from rotavg.averaging import TludConfig, robust_average
from rotavg.bench import BenchScenario, generate_trial, random_outlier

SYMMETRY = settings(max_examples=25, deadline=None)


@st.composite
def trials(draw):
    """generate_trial stacks of up to 400 samples at 0-90% outliers."""
    n = draw(st.integers(1, 400))
    n_out = draw(st.integers(0, int(0.9 * n)))
    sigma = draw(st.sampled_from([1.0, 5.0, 10.0]))
    scen = BenchScenario(n, n_out / n, sigma, n_trials=1, seed=draw(st.integers(0, 2**32 - 1)))
    return generate_trial(scen, 0)[0]


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _turn(side, Q, Rs):
    return Q @ Rs if side == "left" else Rs @ Q


def _assert_rotation_rotates_the_estimate(samples, Q, side):
    res = robust_average(samples)
    turned = robust_average(_turn(side, Q, samples))
    assert so3.geodesic_distance(turned.estimate, _turn(side, Q, res.estimate)) <= 1e-12
    assert np.array_equal(turned.inliers, res.inliers)
    assert turned.init_index == res.init_index


@SYMMETRY
@given(samples=trials(), side=st.sampled_from(["left", "right"]), data=st.data())
def test_left_rotation_rotates_the_estimate(samples, side, data):
    # up to 400 samples: the dense proxy search
    _assert_rotation_rotates_the_estimate(samples, random_outlier(_rng(data.draw)), side)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("outlier_ratio, seed", [(0.90, 41), (0.99, 42)])
def test_rotation_rotates_the_grid_estimate(outlier_ratio, seed, side):
    samples = generate_trial(BenchScenario(2000, outlier_ratio, 5.0, 1, seed=seed), 0)[0]
    assert len(samples) >= averaging._GRID_MIN_N  # the neighbour-grid proxy search
    _assert_rotation_rotates_the_estimate(samples, random_outlier(np.random.default_rng(seed)), side)


@SYMMETRY
@given(samples=trials(), data=st.data())
def test_shuffle_leaves_the_estimate(samples, data):
    eps = TludConfig().epsilon_c
    costs = np.sort(averaging._dense_costs(samples.reshape(-1, 9), eps))  # the proxy's own costs
    assume(len(costs) == 1 or costs[1] - costs[0] >= 1e-6)
    perm = _rng(data.draw).permutation(len(samples))
    res = robust_average(samples)
    shuffled = robust_average(samples[perm])
    # shuffled row i is original row perm[i]
    assert np.array_equal(np.sort(perm[shuffled.inliers]), res.inliers)
    assert so3.geodesic_distance(shuffled.estimate, res.estimate) <= 1e-9
