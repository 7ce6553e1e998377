import math
import warnings

import numpy as np
import pytest

from rotavg import so3

from _oracles import (
    log_near_pi_scalar,
    log_via_quaternion,
    project_bruteforce,
    quat_from_matrix,
    quat_to_matrix,
    rodrigues,
)


def random_rotations(rng, n):
    return so3.exp_map(rng.normal(size=(n, 3)))


# --------------------------------------------------------------------------
# hat / vee


def test_hat_known_values():
    assert np.array_equal(so3.hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(so3.hat([1.0, 2.0, 3.0]), expected)
    with pytest.raises(ValueError, match="trailing dimension 3"):
        so3.hat([1.0, 2.0])


def test_hat_is_cross_product():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v, w = rng.normal(size=(2, 3))
        assert np.allclose(so3.hat(v) @ w, np.cross(v, w), atol=1e-12)


def test_vee_known_values():
    assert np.array_equal(so3.vee(np.zeros((3, 3))), np.zeros(3))
    s = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(so3.vee(s), np.array([1.0, 2.0, 3.0]))


def test_hat_vee_roundtrip():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(100, 3))
    assert np.allclose(so3.vee(so3.hat(v)), v, atol=0)


def test_vee_rejects_non_skew():
    with pytest.raises(so3.NotSkewSymmetric):
        so3.vee(np.eye(3))
    # tiny symmetric contamination inside tolerance is ignored
    s = so3.hat([0.5, -1.0, 2.0]) + 1e-9 * np.ones((3, 3))
    assert np.allclose(so3.vee(s), [0.5, -1.0, 2.0], atol=1e-8)


# --------------------------------------------------------------------------
# exp_map


def test_exp_known_values():
    assert np.allclose(so3.exp_map([0.0, 0.0, 0.0]), np.eye(3), atol=0)
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(so3.exp_map([0.0, 0.0, math.pi / 2]), quarter, atol=1e-15)
    assert np.allclose(so3.exp_map([math.pi, 0.0, 0.0]), np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_exp_outputs_are_rotations():
    rng = np.random.default_rng(9)
    R = so3.exp_map(rng.normal(size=(200, 3)) * rng.uniform(0.01, 2.0, size=(200, 1)))
    assert so3.is_rotation(R).all()


def test_exp_small_angle_limit():
    v = np.array([1e-10, -2e-10, 5e-11])
    R = so3.exp_map(v)
    # at this scale the map is I + hat(v) to machine precision
    assert np.allclose(R, np.eye(3) + so3.hat(v), atol=1e-18)
    assert so3.is_rotation(R)


def test_exp_matches_independent_rodrigues():
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = rng.normal(size=3) * rng.uniform(1e-6, 3.0)
        assert np.allclose(so3.exp_map(v), rodrigues(v), atol=1e-12)


# --------------------------------------------------------------------------
# log_map


def test_log_identity_is_zero():
    assert np.array_equal(so3.log_map(np.eye(3)), np.zeros(3))


def test_log_of_non_finite_matrix_is_nan():
    # a NaN entry gives a NaN angle and an inf on the diagonal angle 0; the
    # log must not read either as the identity's [0, 0, 0]
    rng = np.random.default_rng(15)
    good = so3.exp_map(rng.normal(size=(8, 3)))
    good[4] = so3.exp_map([0.0, math.pi, 0.0])  # a near-pi row keeps its branch
    R = good.copy()
    R[1, 1, 2] = math.nan
    R[3, 0, 0] = math.inf
    R[5, 2, 1] = -math.inf
    R[6, 1, 1] = -math.inf  # angle pi: must not take the near-pi branch either
    R[7, 0, 2] = math.inf
    v = so3.log_map(R)
    bad = [1, 3, 5, 6, 7]
    assert np.isnan(v[bad]).all()
    ok = [0, 2, 4]
    assert v[ok].tobytes() == so3.log_map(good[ok]).tobytes()
    assert np.isnan(so3.log_map(R[1])).all()


def test_log_exp_roundtrip_bulk():
    # norms kept inside (1e-6, pi - 1e-3): the regime where log is smooth
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    v = dirs * rng.uniform(1e-6, math.pi - 1e-3, size=(2000, 1))
    assert np.abs(so3.log_map(so3.exp_map(v)) - v).max() < 1e-9


def test_log_matches_quaternion_oracle():
    rng = np.random.default_rng(12)
    # oracle self-check first: quaternion roundtrip reproduces the matrix
    for _ in range(50):
        R = so3.exp_map(rng.normal(size=3))
        assert np.allclose(quat_to_matrix(quat_from_matrix(R)), R, atol=1e-12)
    for _ in range(500):
        R = so3.exp_map(rng.normal(size=3) * rng.uniform(0.01, 1.0))
        v = so3.log_map(R)
        o = log_via_quaternion(R)
        assert np.allclose(v, o, atol=1e-9)


def test_log_near_pi_band():
    rng = np.random.default_rng(13)
    for eps in (5e-7, 1e-8, 1e-10, 0.0):
        for _ in range(40):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            v_true = axis * (math.pi - eps)
            R = so3.exp_map(v_true)
            v = so3.log_map(R)
            assert abs(np.linalg.norm(v) - (math.pi - eps)) < 1e-10
            # at exactly pi the sign is a convention, so compare both
            err = min(np.linalg.norm(v - v_true), np.linalg.norm(v + v_true))
            assert err < 1e-9
            # and the recovered vector must reproduce R tightly
            assert np.allclose(so3.exp_map(v), R, atol=1e-9)
            o = log_via_quaternion(R)
            assert min(np.linalg.norm(v - o), np.linalg.norm(v + o)) < 1e-6


def test_log_half_turn_axes():
    # diag(1,-1,-1) is the half-turn about x; axis sign is canonical
    v = so3.log_map(np.diag([1.0, -1.0, -1.0]))
    assert np.allclose(v, [math.pi, 0.0, 0.0], atol=1e-12)
    o = log_via_quaternion(np.diag([1.0, -1.0, -1.0]))
    assert min(np.linalg.norm(v - o), np.linalg.norm(v + o)) < 1e-12
    # the same at exact pi about a skew axis
    axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    R = so3.exp_map(axis * math.pi)
    v = so3.log_map(R)
    assert v[0] > 0.0  # first nonzero component positive
    assert min(np.linalg.norm(v - axis * math.pi), np.linalg.norm(v + axis * math.pi)) < 1e-6


def _half_turn(axis):
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2.0 * np.outer(a, a) - np.eye(3)


def test_log_near_pi_batch_matches_scalar_oracle():
    rng = np.random.default_rng(28)
    exact = [
        np.diag([1.0, -1.0, -1.0]),
        np.diag([-1.0, -1.0, 1.0]),
        np.diag([-1.0, 1.0, -1.0]),
        so3.exp_map(np.ones(3) / math.sqrt(3.0) * math.pi),
        _half_turn([1.0, 1.0, 1.0]),
        # the dominant diagonal entry is not the first nonzero component, so
        # the row it picks starts negative and the sign rule must flip it
        _half_turn([0.3, -0.9, 0.2]),
        _half_turn([0.0, 0.2, -0.9]),
    ]
    R = np.concatenate([np.stack(exact), _near_pi_rotations(rng, 2000)])
    theta = so3.geodesic_distance(R, np.eye(3))
    in_band = theta >= math.pi - so3.NEAR_PI_BAND
    assert in_band[: len(exact)].all() and in_band.sum() > 1500
    v = so3.log_map(R)
    ref = np.stack([log_near_pi_scalar(r) for r in R[in_band]])
    assert np.abs(v[in_band] - ref).max() <= 1e-15
    # exact half turns: the sign convention, not just closeness
    assert np.array_equal(np.sign(v[: len(exact)]), np.sign(ref[: len(exact)]))
    assert v[5, 0] > 0.0 and v[6, 1] > 0.0


# --------------------------------------------------------------------------
# distances


def test_geodesic_known_values():
    rng = np.random.default_rng(14)
    R = so3.exp_map(rng.normal(size=3))
    # self-distance is rounding noise only, with no conditioning floor
    assert so3.geodesic_distance(R, R) < 1e-12
    assert np.isclose(so3.geodesic_distance(np.eye(3), so3.exp_map([0, 0, 0.3])), 0.3, atol=1e-12)
    assert np.isclose(
        so3.geodesic_distance(np.eye(3), np.diag([1.0, -1.0, -1.0])), math.pi, atol=1e-12
    )


def test_geodesic_metric_axioms():
    rng = np.random.default_rng(15)
    A, B, C = (random_rotations(rng, 200) for _ in range(3))
    dab = so3.geodesic_distance(A, B)
    assert np.allclose(dab, so3.geodesic_distance(B, A), atol=1e-9)
    assert (dab >= 0).all() and (dab <= math.pi + 1e-12).all()
    dac = so3.geodesic_distance(A, C)
    dcb = so3.geodesic_distance(C, B)
    assert (dab <= dac + dcb + 1e-9).all()


def test_geodesic_bi_invariance():
    rng = np.random.default_rng(16)
    A, B, S = (random_rotations(rng, 200) for _ in range(3))
    d = so3.geodesic_distance(A, B)
    assert np.allclose(so3.geodesic_distance(S @ A, S @ B), d, atol=1e-9)
    assert np.allclose(so3.geodesic_distance(A @ S, B @ S), d, atol=1e-9)


def test_chordal_known_values_and_identity():
    rng = np.random.default_rng(17)
    R = random_rotations(rng, 1)[0]
    assert so3.chordal_distance(R, R) == 0.0
    assert np.isclose(
        so3.chordal_distance(np.eye(3), np.diag([1.0, -1.0, -1.0])), 2.0 * math.sqrt(2.0), atol=1e-12
    )
    A, B = random_rotations(rng, 100), random_rotations(rng, 100)
    dc = so3.chordal_distance(A, B)
    dg = so3.geodesic_distance(A, B)
    assert np.allclose(dc, 2.0 * math.sqrt(2.0) * np.sin(dg / 2.0), atol=1e-9)
    # and the chordal value really is the Frobenius norm of the difference
    assert np.allclose(dc, np.linalg.norm((A - B).reshape(100, 9), axis=1), atol=1e-12)


# --------------------------------------------------------------------------
# projection


def test_project_fixed_points_and_scaling():
    rng = np.random.default_rng(18)
    R = random_rotations(rng, 20)
    assert np.allclose(so3.project_to_so3(R), R, atol=1e-12)
    assert np.allclose(so3.project_to_so3(2.0 * R), R, atol=1e-12)


def test_project_output_is_rotation():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(500, 3, 3))
    P = so3.project_to_so3(M)
    assert so3.is_rotation(P).all()


def test_project_matches_bruteforce_oracle():
    rng = np.random.default_rng(20)
    for _ in range(4):
        R = random_rotations(rng, 1)[0]
        M = R + 0.05 * rng.normal(size=(3, 3))
        P = so3.project_to_so3(M)
        G = project_bruteforce(M)
        # the closed form must be at least as close as the search's best
        assert np.linalg.norm(M - P) <= np.linalg.norm(M - G) + 1e-9
        assert so3.geodesic_distance(P, G) < 0.05


def test_project_optimality_against_sampled_rotations():
    rng = np.random.default_rng(21)
    M = rng.normal(size=(200, 3, 3))
    P = so3.project_to_so3(M)
    dP = np.linalg.norm((M - P).reshape(200, 9), axis=1)
    for _ in range(20):
        Q = random_rotations(rng, 200)
        dQ = np.linalg.norm((M - Q).reshape(200, 9), axis=1)
        assert (dP <= dQ + 1e-9).all()
    # including rotations near the projection itself
    for scale in (1e-3, 1e-2, 0.1):
        Q = so3.exp_map(rng.normal(size=(200, 3)) * scale) @ P
        dQ = np.linalg.norm((M - Q).reshape(200, 9), axis=1)
        assert (dP <= dQ + 1e-9).all()


def test_project_degenerate_inputs():
    with pytest.raises(so3.DegenerateMatrix):
        so3.project_to_so3(np.zeros((3, 3)))
    with pytest.raises(so3.DegenerateMatrix):
        so3.project_to_so3(np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
    with pytest.raises(so3.DegenerateMatrix):
        so3.project_to_so3(np.diag([1.0, 1e-13, 1e-13]))
    # a negative-determinant matrix with tied small singular values has two
    # equally good projections; refuse rather than pick silently
    with pytest.raises(so3.DegenerateMatrix):
        so3.project_to_so3(np.diag([1.0, 0.5, -0.5]))
    # but a clean reflection-free near-singular case still projects
    P = so3.project_to_so3(np.diag([1.0, 0.5, 1e-6]))
    assert so3.is_rotation(P)


def test_nearest_rotations_matches_project_per_matrix():
    rng = np.random.default_rng(23)
    R = random_rotations(rng, 40)
    degenerate = [
        np.zeros((3, 3)),
        np.outer([1.0, 2.0, 0.0], [0.0, 1.0, 1.0]),
        np.diag([1.0, 1e-13, 1e-13]),
        np.diag([1.0, 0.5, -0.5]),
        np.diag([2.0, 1.0, -1.0]) @ R[0],
    ]
    M = np.concatenate([
        rng.normal(size=(40, 3, 3)),
        R + rng.normal(0.0, 1e-3, size=(40, 3, 3)),
        np.diag([-3.0, 2.0, 1.0]) @ R,  # det < 0: every row needs the sign fix
        np.diag([1.0, 0.5, 1e-6])[None],
        np.stack(degenerate),
    ])
    M = M[rng.permutation(len(M))]
    Rs, s, unique = so3.nearest_rotations(M)
    assert Rs.shape == M.shape and s.shape == (len(M), 3)
    assert np.allclose(s, np.linalg.svd(M, compute_uv=False), rtol=1e-12, atol=1e-14)
    assert so3.is_rotation(Rs).all()  # a rotation even where it is not unique
    assert (~unique).sum() == len(degenerate)
    for k, m in enumerate(M):
        try:
            P = so3.project_to_so3(m)
        except so3.DegenerateMatrix:
            assert not unique[k]
        else:
            assert unique[k]
            assert P.tobytes() == Rs[k].tobytes()


def test_is_rotation_rejects_imposters():
    rng = np.random.default_rng(22)
    R = random_rotations(rng, 1)[0]
    assert so3.is_rotation(R)
    assert not so3.is_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    assert not so3.is_rotation(1.01 * R)  # scaled
    assert not so3.is_rotation(R + 1e-6)  # drifted
    assert not so3.is_rotation(np.eye(4))  # not 3x3
    assert not so3.is_rotation(R.reshape(9))


def test_is_rotation_matches_matmul_and_det():
    rng = np.random.default_rng(23)
    m = random_rotations(rng, 200) + rng.normal(0.0, 1e-7, size=(200, 3, 3))
    orth = np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1))
    det = np.linalg.det(m)
    for tol in (1e-9, 1e-7, 1e-6):
        expected = (orth <= tol) & (np.abs(det - 1.0) <= tol)
        clear = (np.abs(orth - tol) > 1e-12) & (np.abs(np.abs(det - 1.0) - tol) > 1e-12)
        assert np.array_equal(so3.is_rotation(m, tol=tol)[clear], expected[clear])
    assert so3.is_rotation(m[0].reshape(1, 1, 3, 3)).shape == (1, 1)
    assert not so3.is_rotation(np.full((3, 3), np.nan))


def test_check_rotations_names_the_offender():
    rng = np.random.default_rng(24)
    R = random_rotations(rng, 5)
    so3.check_rotations(R)
    so3.check_rotations(np.empty((0, 3, 3)))
    so3.check_rotations(R + 0.5 * so3.ROTATION_TOL / 3.0)  # within tolerance
    bad = R.copy()
    bad[2] *= 3.0
    with pytest.raises(so3.NotARotation, match="matrix 2 is not a rotation"):
        so3.check_rotations(bad)
    bad = R.copy()
    bad[4, 0, 1] = np.inf
    with pytest.raises(so3.NotARotation, match="matrix 4 has a non-finite entry"):
        so3.check_rotations(bad)
    with pytest.raises(so3.NotARotation):
        so3.check_rotations(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ValueError, match="trailing 3x3"):
        so3.check_rotations(R.reshape(5, 9))
    assert issubclass(so3.NotARotation, ValueError)


# --------------------------------------------------------------------------
# quaternions


def _near_pi_rotations(rng, n):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    gaps = np.concatenate([[0.0], 10.0 ** rng.uniform(-15.0, math.log10(so3.NEAR_PI_BAND), n - 1)])
    return so3.exp_map(axes * (math.pi - gaps)[:, None])


def test_quaternion_round_trip_including_near_pi():
    rng = np.random.default_rng(25)
    R = np.concatenate([random_rotations(rng, 500), _near_pi_rotations(rng, 200), np.eye(3)[None]])
    q = so3.matrix_to_quaternion(R)
    assert q.shape == (len(R), 4)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-15)
    assert np.abs(so3.quaternion_to_matrix(q) - R).max() < 1e-14
    # R -> q -> R -> q reproduces q up to sign (the sign is free only at w == 0)
    q2 = so3.matrix_to_quaternion(so3.quaternion_to_matrix(q))
    assert np.minimum(np.abs(q2 - q).max(axis=1), np.abs(q2 + q).max(axis=1)).max() < 1e-14


def test_quaternion_sign_convention_and_oracle():
    rng = np.random.default_rng(26)
    R = np.concatenate([random_rotations(rng, 300), _near_pi_rotations(rng, 50)])
    q = so3.matrix_to_quaternion(R)
    assert (q[:, 0] >= 0.0).all()
    for r, qq in zip(R, q):
        ref = quat_from_matrix(r)
        assert min(np.abs(ref - qq).max(), np.abs(ref + qq).max()) < 1e-14
        if qq[0] > 1e-12:
            assert np.abs(ref - qq).max() < 1e-14
    assert np.array_equal(so3.matrix_to_quaternion(np.eye(3)), [1.0, 0.0, 0.0, 0.0])
    half_turn_x = np.diag([1.0, -1.0, -1.0])
    assert np.allclose(np.abs(so3.matrix_to_quaternion(half_turn_x)), [0.0, 1.0, 0.0, 0.0])


def test_quaternion_to_matrix_normalises_and_ignores_sign():
    rng = np.random.default_rng(27)
    q = rng.normal(size=(50, 4))
    R = so3.quaternion_to_matrix(q)
    assert so3.is_rotation(R).all()
    assert np.allclose(R, so3.quaternion_to_matrix(-3.0 * q), atol=1e-15)
    assert np.allclose(R[7], quat_to_matrix(q[7]), atol=1e-15)
    assert so3.quaternion_to_matrix(q.reshape(5, 10, 4)).shape == (5, 10, 3, 3)
    with pytest.raises(ValueError):
        so3.quaternion_to_matrix(np.ones(3))


def test_quaternion_to_matrix_extreme_scales_and_bad_rows():
    quarter_turn_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    extreme = [[1e200, 1e200, 0, 0], [1e308, 1e308, 0, 0], [1e-170, 1e-170, 0, 0],
               [5e-324, 5e-324, 0, 0]]
    ordinary = np.random.default_rng(29).normal(size=(20, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = so3.quaternion_to_matrix(np.concatenate([extreme, ordinary]))
    assert np.abs(R[: len(extreme)] - quarter_turn_x).max() < 1e-15
    # an extreme row does not change the arithmetic of the rows beside it
    assert np.array_equal(R[len(extreme):], so3.quaternion_to_matrix(ordinary))
    for bad in ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite and nonzero"):
            so3.quaternion_to_matrix(np.array([[1.0, 0.0, 0.0, 0.0], bad]))


def test_is_rotation_rejects_huge_entries_quietly():
    m = np.eye(3)
    m[0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not so3.is_rotation(m)
        assert not so3.is_rotation(np.full((3, 3), 1e300))
