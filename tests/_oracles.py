"""Independent reference implementations used to check the library.

Everything here is computed by a different route than the package uses:
quaternion algebra instead of matrix logarithms, eigen-decomposition
(Horn's absolute orientation) instead of SVD Procrustes, plain Python
loops instead of blocked matrix products, and brute-force grid/descent
searches instead of closed forms.  None of it imports the package, except
the file readers at the end: they are the package's former line-at-a-time
readers, kept as the reference for the batched ones, and raise the package's
exception types with the package's own so3 checks.  log_near_pi_scalar is
likewise the package's former per-row near-half-turn logarithm, kept as the
reference for the batched one.  robust_average_stages is the package's
former robust_average, which ran the chordal seed and the Weiszfeld
refinement over inlier indices of the whole stack; it is the reference for
the present one, which runs geodesic_l1_mean on the inlier rows.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np


# --------------------------------------------------------------------------
# quaternion route to the matrix logarithm


def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0.

    Four-branch extraction keyed on the largest of trace and diagonal
    entries, so some pivot is always well away from zero.
    """
    R = np.asarray(R, dtype=float)
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t > max(R[0, 0], R[1, 1], R[2, 2]):
        s = math.sqrt(1.0 + t) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def log_via_quaternion(R) -> np.ndarray:
    """Rotation vector of R computed through its quaternion.

    theta = 2 atan2(|vec|, w) lands in [0, pi] because w >= 0;
    the axis is the vector part.  At theta == pi the axis sign is the
    quaternion branch's own pick, so compare against both signs.
    """
    q = quat_from_matrix(R)
    vec_norm = float(np.linalg.norm(q[1:]))
    if vec_norm < 1e-300:
        return np.zeros(3)
    theta = 2.0 * math.atan2(vec_norm, float(q[0]))
    return (theta / vec_norm) * q[1:]


def log_near_pi_scalar(R) -> np.ndarray:
    """Rotation vector of one rotation within so3.NEAR_PI_BAND of a half turn.

    The axis is the dominant row of the symmetric part, the angle comes from
    ||w|| = 2 sin(theta), and the sign from the skew part w; at exactly pi,
    where w vanishes, the first nonzero axis component is made positive.
    """
    R = np.asarray(R, dtype=float)
    A = 0.5 * (0.5 * (R + R.T) + np.eye(3))
    k = int(np.argmax(np.diag(A)))
    axis = A[k] / np.sqrt(A[k, k])
    axis = axis / np.linalg.norm(axis)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    wn = float(np.linalg.norm(w))
    theta = np.pi - np.arcsin(min(1.0, 0.5 * wn))
    if wn > 1e-12:
        if float(axis @ w) < 0.0:
            axis = -axis
    else:
        for c in axis:
            if abs(c) > 1e-9:
                if c < 0.0:
                    axis = -axis
                break
    return theta * axis


# --------------------------------------------------------------------------
# Horn's closed-form absolute orientation (eigenvector route)


def horn_rotation(src, dst) -> np.ndarray:
    """Rotation R maximizing sum_i dst_i . (R src_i), by Horn's method.

    Builds the symmetric 4x4 quaternion form of the cross-covariance and
    takes the eigenvector of the largest eigenvalue.  Centering/scaling is
    the caller's business; this is the pure orientation step.
    """
    a = np.asarray(src, dtype=float)
    b = np.asarray(dst, dtype=float)
    S = a.T @ b  # S[i, j] = sum_k a_k[i] * b_k[j]
    N = np.array(
        [
            [S[0, 0] + S[1, 1] + S[2, 2], S[1, 2] - S[2, 1], S[2, 0] - S[0, 2], S[0, 1] - S[1, 0]],
            [S[1, 2] - S[2, 1], S[0, 0] - S[1, 1] - S[2, 2], S[0, 1] + S[1, 0], S[2, 0] + S[0, 2]],
            [S[2, 0] - S[0, 2], S[0, 1] + S[1, 0], -S[0, 0] + S[1, 1] - S[2, 2], S[1, 2] + S[2, 1]],
            [S[0, 1] - S[1, 0], S[2, 0] + S[0, 2], S[1, 2] + S[2, 1], -S[0, 0] - S[1, 1] + S[2, 2]],
        ]
    )
    vals, vecs = np.linalg.eigh(N)
    return quat_to_matrix(vecs[:, -1])


def harvest_triples_scalar(src, dst, triples, tol: float, flat_tol: float = 1e-9) -> list:
    """Rotations of the index triples that pass the side-ratio test, one by one.

    A triangle is flat when twice its area, |(p1-p0) x (p2-p0)|, is below
    flat_tol times its longest side squared, or its longest side is 0; a
    triple with either triangle flat is dropped.  Sides by math.dist; the
    rest pass when max(r)/min(r) - 1 <= tol for the ratios r = dst/src, and
    get Horn's rotation between the centered, RMS-normalized points.
    """
    out = []
    for tri in triples:
        a = [[float(v) for v in src[i]] for i in tri]
        b = [[float(v) for v in dst[i]] for i in tri]
        ls = [math.dist(a[1], a[0]), math.dist(a[2], a[1]), math.dist(a[0], a[2])]
        ld = [math.dist(b[1], b[0]), math.dist(b[2], b[1]), math.dist(b[0], b[2])]
        if _flat(a, max(ls), flat_tol) or _flat(b, max(ld), flat_tol):
            continue  # every side of a triangle that is not flat is > 0
        r = [y / x for x, y in zip(ls, ld)]
        if max(r) / min(r) - 1.0 > tol:
            continue
        out.append(horn_rotation(_unit_rms(a), _unit_rms(b)))
    return out


def _flat(p, longest: float, flat_tol: float) -> bool:
    u = [p[1][k] - p[0][k] for k in range(3)]
    v = [p[2][k] - p[0][k] for k in range(3)]
    cross = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    return longest == 0.0 or math.hypot(*cross) < flat_tol * longest * longest


def _unit_rms(p) -> np.ndarray:
    c = [sum(q[k] for q in p) / 3.0 for k in range(3)]
    centered = [[q[k] - c[k] for k in range(3)] for q in p]
    rms = math.sqrt(sum(v * v for q in centered for v in q) / 3.0)
    return np.array(centered) / rms


# --------------------------------------------------------------------------
# scalar-loop re-evaluations (no vectorization, no shared code)


def frobenius_scalar(A, B) -> float:
    s = 0.0
    for i in range(3):
        for j in range(3):
            d = float(A[i][j]) - float(B[i][j])
            s += d * d
    return math.sqrt(s)


def geodesic_scalar(A, B) -> float:
    t = 0.0
    for i in range(3):
        for k in range(3):
            t += float(A[i][k]) * float(B[i][k])  # trace(A B^T)
    c = (t - 1.0) / 2.0
    c = min(1.0, max(-1.0, c))
    return math.acos(c)


def tlud_geodesic_scalar(center, samples, eps: float) -> float:
    return sum(min(eps, geodesic_scalar(s, center)) for s in samples)


def proxy_scalar(samples, eps: float):
    """Exhaustive double-loop argmin of the truncated chordal cost.

    Returns (index, list of per-candidate costs); ties go to the lowest
    index because the scan keeps the first strict improvement.
    """
    n = len(samples)
    costs = []
    best, best_cost = 0, float("inf")
    for j in range(n):
        c = 0.0
        for i in range(n):
            c += min(eps, frobenius_scalar(samples[i], samples[j]))
        costs.append(c)
        if c < best_cost:
            best, best_cost = j, c
    return best, costs


# --------------------------------------------------------------------------
# self-contained Rodrigues map for the search oracles


def rodrigues(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    K = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    if theta < 1e-12:
        return np.eye(3) + K
    return np.eye(3) + (math.sin(theta) / theta) * K + ((1.0 - math.cos(theta)) / theta**2) * (K @ K)


def fibonacci_axes(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors (spherical Fibonacci spiral)."""
    i = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def project_bruteforce(M, n_axes: int = 400, n_angles: int = 180, refine: int = 40) -> np.ndarray:
    """Frobenius-closest rotation to M by axis/angle grid search plus polish.

    Coarse search over a Fibonacci axis grid and an angle sweep, then
    shrinking random tangent perturbations around the incumbent.
    """
    M = np.asarray(M, dtype=float)
    best, best_d = np.eye(3), float(np.linalg.norm(M - np.eye(3)))
    for axis in fibonacci_axes(n_axes):
        for ang in np.linspace(-math.pi, math.pi, n_angles, endpoint=False):
            R = rodrigues(axis * ang)
            d = float(np.linalg.norm(M - R))
            if d < best_d:
                best, best_d = R, d
    rng = np.random.default_rng(12345)
    radius = 2.0 * math.pi / n_angles
    for _ in range(refine):
        improved = False
        for w in rng.normal(size=(60, 3)):
            R = rodrigues(radius * w / np.linalg.norm(w) * rng.random()) @ best
            d = float(np.linalg.norm(M - R))
            if d < best_d:
                best, best_d = R, d
                improved = True
        if not improved:
            radius *= 0.5
    return best


def chordal_mean_descent(samples, iters: int = 400) -> np.ndarray:
    """Minimize sum ||R_i - Q||_F^2 over SO(3) by tangent-space descent.

    Equivalent to maximizing trace(Q^T S) with S the sample sum; the
    gradient step uses central differences, so the route shares nothing
    with an SVD-based projection.
    """
    S = np.zeros((3, 3))
    for R in samples:
        S = S + np.asarray(R, dtype=float)

    def cost(Q):
        return -float(np.trace(Q.T @ S))

    Q = np.asarray(samples[0], dtype=float).copy()
    step = 0.5
    h = 1e-6
    for _ in range(iters):
        g = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            g[k] = (cost(rodrigues(e) @ Q) - cost(rodrigues(-e) @ Q)) / (2.0 * h)
        gn = float(np.linalg.norm(g))
        if gn < 1e-12:
            break
        while step > 1e-14 and cost(rodrigues(-step * g / gn) @ Q) >= cost(Q):
            step *= 0.5
        if step <= 1e-14:
            break
        Q = rodrigues(-step * g / gn) @ Q
        step *= 1.3
    return Q


def tangent_grid_min(cost_fn, R0, radius: float = 0.02, steps: int = 10) -> float:
    """Minimum of cost_fn over a dense tangent-ball grid around R0.

    (2*steps+1)^3 evaluations; used to certify that an iterate is a local
    minimizer down to the grid resolution.
    """
    R0 = np.asarray(R0, dtype=float)
    ticks = np.linspace(-radius, radius, 2 * steps + 1)
    best = cost_fn(R0)
    for a in ticks:
        for b in ticks:
            for c in ticks:
                val = cost_fn(rodrigues((a, b, c)) @ R0)
                if val < best:
                    best = val
    return best


# --------------------------------------------------------------------------
# line-at-a-time file readers


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text and not text.startswith("#"):
                yield lineno, text


def read_rotations_lines(path, fmt: str = "mat9", repair: bool = False):
    """rotavg.fileio.read_rotations, checking each line before the next."""
    from rotavg import so3
    from rotavg.fileio import RotationFormatError, RotationInvariantError

    n_fields = 9 if fmt == "mat9" else 4
    rotations = []
    repaired = 0
    for lineno, text in _data_lines(path):
        fields = text.split()
        if len(fields) != n_fields:
            raise RotationFormatError(lineno, f"expected {n_fields} fields, got {len(fields)}")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise RotationFormatError(lineno, f"non-numeric field in {text!r}") from None
        if not all(np.isfinite(values)):
            raise RotationFormatError(lineno, "non-finite value")
        if fmt == "quat":
            if float(np.linalg.norm(values)) < 1e-12:
                raise RotationFormatError(lineno, "zero-norm quaternion")
            rotations.append(values)
            continue
        r = np.array(values).reshape(3, 3)
        if so3.is_rotation(r, tol=so3.ROTATION_TOL):
            rotations.append(r)
            continue
        if not repair:
            raise RotationInvariantError(
                lineno, "entries do not form a rotation matrix (use repair to project)"
            )
        try:
            rotations.append(so3.project_to_so3(r))
        except so3.DegenerateMatrix:
            raise RotationInvariantError(lineno, "matrix is too degenerate to repair") from None
        repaired += 1
    if fmt == "quat":
        return so3.quaternion_to_matrix(np.array(rotations).reshape(-1, 4)), 0
    return np.array(rotations).reshape(-1, 3, 3), repaired


def read_xyz_lines(path) -> np.ndarray:
    """rotavg.fileio.read_xyz, checking each line before the next."""
    from rotavg.fileio import CloudFormatError

    points = []
    for lineno, text in _data_lines(path):
        fields = text.split()
        if len(fields) != 3:
            raise CloudFormatError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            xyz = [float(f) for f in fields]
        except ValueError:
            raise CloudFormatError(f"line {lineno}: non-numeric field in {text!r}") from None
        if not all(np.isfinite(xyz)):
            raise CloudFormatError(f"line {lineno}: non-finite coordinate")
        points.append(xyz)
    if not points:
        raise CloudFormatError(f"no points found in {os.fspath(path)}")
    return np.array(points)


# --------------------------------------------------------------------------
# the estimator written out stage by stage


def robust_average_stages(samples, config):
    """Proxy, then select, chordal seed and Weiszfeld over the inlier rows.

    The same rounds as robust_average: with config.realternate > 0 the
    select/refine pair repeats around the estimate until the inlier set
    stops changing or empties.
    """
    from rotavg.averaging import (
        chordal_l2_mean,
        proxy_initialize,
        select_inliers,
        weiszfeld_geodesic_l1,
    )

    Rs = np.asarray(samples, dtype=float).reshape(-1, 3, 3)
    init_index, center = proxy_initialize(Rs, config.epsilon_c)
    result = None
    for _ in range(1 + config.realternate):
        inliers = select_inliers(center, Rs, config.epsilon_c)
        if result is not None and (inliers.size == 0 or np.array_equal(inliers, result.inliers)):
            break
        seed = chordal_l2_mean(Rs[inliers])
        result = weiszfeld_geodesic_l1(Rs[inliers], seed, config.delta, config.it_max)
        result = dataclasses.replace(result, inliers=inliers)
        center = result.estimate
    return dataclasses.replace(result, init_index=init_index)
