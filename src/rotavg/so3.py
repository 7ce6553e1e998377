"""Numerically careful primitives on the rotation group SO(3).

Rotations are plain 3x3 numpy arrays with determinant +1; rotation vectors
are plain 3-vectors holding axis times angle, in radians.  Every function
accepts either a single element or an array with extra leading batch
dimensions, and the pairwise metrics broadcast.  Everything is float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SMALL_ANGLE",
    "NEAR_PI_BAND",
    "ROTATION_TOL",
    "NotSkewSymmetric",
    "DegenerateMatrix",
    "NotARotation",
    "hat",
    "vee",
    "exp_map",
    "log_map",
    "geodesic_distance",
    "chordal_distance",
    "project_to_so3",
    "nearest_rotations",
    "is_rotation",
    "check_rotations",
    "matrix_to_quaternion",
    "quaternion_to_matrix",
]

# Below this angle the sin/cos coefficient ratios of the exponential are
# replaced by their limits, and the log returns the zero vector.
SMALL_ANGLE = 1e-8

# Width of the band below pi where the log recovers the axis from the
# symmetric part of the matrix instead of the vanishing skew part.
NEAR_PI_BAND = 1e-6

# How far from a perfect rotation (orthogonality residual and determinant,
# as in is_rotation) an input matrix may be and still be accepted as one.
ROTATION_TOL = 1e-6

# Frobenius norm of the symmetric part above which vee() rejects a matrix.
_SKEW_TOL = 1e-6

# Singular-value tolerance below which the nearest-rotation problem stops
# having a unique answer.
_NONUNIQUE_TOL = 1e-12

# Quaternion norms below this have squares below the smallest normal float,
# so they have lost precision or underflowed to zero.
_MIN_QUAT_NORM = np.sqrt(np.finfo(float).tiny)


class NotSkewSymmetric(ValueError):
    """Input to vee() has a symmetric part above tolerance."""


class DegenerateMatrix(ValueError):
    """Matrix is too close to rank deficiency for a unique nearest rotation."""


class NotARotation(ValueError):
    """Input that must be a rotation is non-finite or fails is_rotation."""


def _check_mat3(m: np.ndarray) -> None:
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing 3x3 matrix dimensions, got shape {m.shape}")


def hat(v: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the skew-symmetric matrix S with S @ w == cross(v, w).

    Args:
        v: array with trailing dimension 3.

    Returns:
        Array with trailing dimensions (3, 3), skew-symmetric.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected trailing dimension 3, got shape {v.shape}")
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def vee(s: np.ndarray) -> np.ndarray:
    """Inverse of hat(): extract the 3-vector from a skew-symmetric matrix.

    The symmetric part is discarded after the check, so inputs that are skew
    up to roundoff come back clean.

    Raises:
        NotSkewSymmetric: if ||s + s.T||_F exceeds 1e-6 for any input.
    """
    s = np.asarray(s, dtype=float)
    _check_mat3(s)
    residual = np.linalg.norm(s + np.swapaxes(s, -1, -2), axis=(-2, -1))
    worst = float(np.max(residual)) if residual.size else 0.0
    if worst > _SKEW_TOL:
        raise NotSkewSymmetric(f"symmetric part has norm {worst:.3e} (tol {_SKEW_TOL:.1e})")
    a = 0.5 * (s - np.swapaxes(s, -1, -2))
    return np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)


def exp_map(v: np.ndarray) -> np.ndarray:
    """Rodrigues map from a rotation vector to a rotation matrix.

    R = I + a * hat(v) + b * hat(v)^2 with a = sin(t)/t and b = (1-cos(t))/t^2
    for t = ||v||.  Below SMALL_ANGLE both ratios are replaced by their limits
    1 and 1/2, which are exact to double precision there.

    Args:
        v: rotation vector(s), trailing dimension 3.  Norms above pi are
            accepted; the result simply wraps.

    Returns:
        Rotation matrix (or stack of them) with trailing dims (3, 3).
    """
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    K = hat(v)
    K2 = K @ K
    safe = np.where(theta < SMALL_ANGLE, 1.0, theta)
    a = np.where(theta < SMALL_ANGLE, 1.0, np.sin(safe) / safe)
    b = np.where(theta < SMALL_ANGLE, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return np.eye(3) + a[..., None, None] * K + b[..., None, None] * K2


def _angle(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angle theta, skew vector w and ||w|| of each matrix in a (..., 3, 3) stack.

    On a rotation w = 2 sin(theta) * axis and the trace is 1 + 2 cos(theta),
    so atan2(||w||/2, (tr - 1)/2) recovers theta with full precision over the
    whole of [0, pi]; arccos of the trace alone bottoms out near sqrt(eps).
    theta is NaN where the trace or ||w|| is not finite, which every non-finite
    entry causes (atan2 alone would read an inf trace as angle 0).
    """
    tr = np.einsum("...ii->...", m)
    w = np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                  m[..., 1, 0] - m[..., 0, 1]], axis=-1)
    wn = np.linalg.norm(w, axis=-1)
    theta = np.arctan2(0.5 * wn, 0.5 * (tr - 1.0))
    return np.where(np.isfinite(tr) & np.isfinite(wn), theta, np.nan), w, wn


def _log_near_pi(R: np.ndarray, w: np.ndarray, wn: np.ndarray) -> np.ndarray:
    """Rotation vectors of a (k, 3, 3) stack within NEAR_PI_BAND of a half
    turn, given the rows' skew vectors w and norms wn from _angle."""
    # Symmetrizing removes the sin(theta)-scaled skew part, leaving
    # ((1+cos)/2) I + ((1-cos)/2) aa^T; the dominant diagonal entry then
    # exposes the axis with O((pi-theta)^2) error.
    A = 0.5 * (0.5 * (R + np.swapaxes(R, -1, -2)) + np.eye(3))
    rows = np.arange(len(A))
    diag = np.einsum("kii->ki", A)
    k = np.argmax(diag, axis=-1)
    axis = A[rows, k] / np.sqrt(diag[rows, k])[:, None]  # A[k, k] >= ~1/3 for a unit axis
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    # arccos of the trace resolves the angle only to ~sqrt(eps) this close to
    # pi; ||w|| = 2 sin(theta) pins the same angle to full precision
    theta = np.pi - np.arcsin(np.minimum(1.0, 0.5 * wn))
    # Strictly below pi the skew part still fixes the sign.  At pi both signs
    # are valid; pick the one whose first nonzero component is positive.
    first = axis[rows, np.argmax(np.abs(axis) > 1e-9, axis=-1)]
    flip = np.where(wn > 1e-12, np.einsum("ki,ki->k", axis, w) < 0.0, first < 0.0)
    axis[flip] *= -1.0
    return theta[:, None] * axis


def log_map(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to rotation vector with norm in [0, pi].

    Angles below SMALL_ANGLE map to the zero vector.  Within NEAR_PI_BAND of
    pi the usual (R - R.T) route loses all precision, so the axis is
    recovered from the symmetric part instead (see _log_near_pi).  A matrix
    with a non-finite entry maps to NaN; otherwise the caller is responsible
    for handing in genuine rotations.
    """
    r = np.asarray(r, dtype=float)
    _check_mat3(r)
    R = r.reshape((-1, 3, 3))
    theta, w, wn = _angle(R)
    v = np.zeros((R.shape[0], 3))
    v[np.isnan(theta)] = np.nan  # a NaN theta fails both comparisons below
    main = (theta >= SMALL_ANGLE) & (theta < np.pi - NEAR_PI_BAND)
    # theta/(2 sin theta) * w, with 2 sin(theta) evaluated as ||w||
    v[main] = (theta[main] / wn[main])[:, None] * w[main]
    near = theta >= np.pi - NEAR_PI_BAND
    if near.any():  # an empty call costs more than the main branch
        v[near] = _log_near_pi(R[near], w[near], wn[near])
    return v.reshape(r.shape[:-2] + (3,))


def geodesic_distance(r1: np.ndarray, r2: np.ndarray) -> float | np.ndarray:
    """Rotation angle of r1 @ r2.T in radians, within [0, pi].

    The angle comes out of atan2(sin, cos) with the sine read off the skew
    part of r1 @ r2.T and the cosine off its trace (see _angle), which stays
    accurate for angles arbitrarily close to 0 and pi alike.  Broadcasts
    over leading dimensions.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    _check_mat3(r1)
    _check_mat3(r2)
    d = _angle(r1 @ np.swapaxes(r2, -1, -2))[0]
    return float(d) if np.ndim(d) == 0 else d


def chordal_distance(r1: np.ndarray, r2: np.ndarray) -> float | np.ndarray:
    """Frobenius distance ||r1 - r2||_F; equals 2*sqrt(2)*sin(geodesic/2)."""
    # C order sums the nine squares in one order whatever the caller's layout
    diff = np.ascontiguousarray(np.asarray(r1, dtype=float) - np.asarray(r2, dtype=float))
    _check_mat3(diff)
    d = np.sqrt(np.einsum("...ij,...ij->...", diff, diff))
    return float(d) if np.ndim(d) == 0 else d


def nearest_rotations(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frobenius-nearest rotations to a stack of finite 3x3 matrices, flagging not raising.

    Uses the SVD U diag(1, 1, sign(det(U V^T))) V^T, which handles inputs
    with negative determinant.  The minimizer exists for any matrix but is
    only unique when the rank is at least 2 and, for det < 0, the two
    trailing singular values are separated.

    Returns:
        (R, s, unique) over the k matrices of m flattened to (k, 3, 3): a
        rotation for each, the (k, 3) descending singular values, and a
        mask that is False where R is not unique at tolerance 1e-12.
    """
    m = np.asarray(m, dtype=float)
    _check_mat3(m)
    U, s, Vt = np.linalg.svd(m.reshape((-1, 3, 3)))
    d = np.linalg.det(U @ Vt)
    unique = ~((s[:, 1] <= _NONUNIQUE_TOL) | ((d < 0.0) & (s[:, 1] - s[:, 2] <= _NONUNIQUE_TOL)))
    U[:, :, 2] *= np.where(d < 0.0, -1.0, 1.0)[:, None]
    return U @ Vt, s, unique


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest rotation to a 3x3 matrix or stack (see nearest_rotations).

    Raises:
        DegenerateMatrix: when the nearest rotation is not unique at
            tolerance 1e-12 (rank < 2, or a reflection-ambiguous spectrum).
    """
    m = np.asarray(m, dtype=float)
    R, _, unique = nearest_rotations(m)
    if not unique.all():
        raise DegenerateMatrix("projection onto SO(3) is not unique for this input")
    return R[0] if m.ndim == 2 else R.reshape(m.shape)


def is_rotation(m: np.ndarray, tol: float = 1e-9) -> bool | np.ndarray:
    """True when m.T @ m == I (Frobenius) and det(m) == 1, both within tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        return False
    # Written out entry by entry: on a stack this is several times faster
    # than a batched matmul and LAPACK determinant.  m @ m.T - I has the
    # same Frobenius norm as m.T @ m - I (the two Gram matrices share their
    # eigenvalues).
    a, b, c, d, e, f, g, h, i = np.moveaxis(m.reshape(m.shape[:-2] + (9,)), -1, 0)
    # Huge or non-finite entries give inf or nan residuals, which fail the
    # comparisons; the overflow warning would say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        s00 = a * a + b * b + c * c - 1.0
        s11 = d * d + e * e + f * f - 1.0
        s22 = g * g + h * h + i * i - 1.0
        s01 = a * d + b * e + c * f
        s02 = a * g + b * h + c * i
        s12 = d * g + e * h + f * i
        orth = np.sqrt(s00 * s00 + s11 * s11 + s22 * s22 + 2.0 * (s01 * s01 + s02 * s02 + s12 * s12))
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        ok = (orth <= tol) & (np.abs(det - 1.0) <= tol)
    return bool(ok) if np.ndim(ok) == 0 else ok


def check_rotations(m: np.ndarray) -> None:
    """Raise unless every matrix in m is finite and passes is_rotation(ROTATION_TOL).

    Raises:
        NotARotation: naming the first offending matrix and what is wrong.
    """
    m = np.asarray(m, dtype=float)
    _check_mat3(m)
    ok = np.reshape(is_rotation(m, tol=ROTATION_TOL), -1)
    if ok.all():
        return
    k = int(np.argmin(ok))
    if not np.isfinite(m.reshape(-1, 3, 3)[k]).all():
        raise NotARotation(f"matrix {k} has a non-finite entry")
    raise NotARotation(
        f"matrix {k} is not a rotation (orthogonality or determinant off by over {ROTATION_TOL:.0e})"
    )


def matrix_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of each rotation, with w >= 0.

    q and -q give the same rotation; w >= 0 picks one of them (at w == 0
    either sign may come back).  The symmetric 4x4 matrix K built from the
    entries equals 4 q q^T on a rotation, so its row with the largest
    diagonal entry is q up to a positive scale and a sign, and is never
    small.  Normalising that row makes the result a unit quaternion even for
    matrices that are rotations only up to roundoff.

    Args:
        r: array with trailing dimensions (3, 3).

    Returns:
        Array with trailing dimension 4.
    """
    r = np.asarray(r, dtype=float)
    _check_mat3(r)
    R = r.reshape(-1, 3, 3)
    tr = np.einsum("nii->n", R)
    d0, d1, d2 = R[:, 0, 0], R[:, 1, 1], R[:, 2, 2]
    sx, sy, sz = R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]
    pxy, pxz, pyz = R[:, 0, 1] + R[:, 1, 0], R[:, 0, 2] + R[:, 2, 0], R[:, 1, 2] + R[:, 2, 1]
    K = np.stack(
        [
            np.stack([1.0 + tr, sx, sy, sz], -1),
            np.stack([sx, 1.0 + 2.0 * d0 - tr, pxy, pxz], -1),
            np.stack([sy, pxy, 1.0 + 2.0 * d1 - tr, pyz], -1),
            np.stack([sz, pxz, pyz, 1.0 + 2.0 * d2 - tr], -1),
        ],
        -2,
    )
    k = np.argmax(np.einsum("nii->ni", K), axis=-1)
    q = K[np.arange(len(K)), k]
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    q[q[:, 0] < 0.0] *= -1.0
    return q.reshape(r.shape[:-2] + (4,))


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of each quaternion (w, x, y, z), normalised first.

    A row whose norm overflows, or whose squared norm is below the normal
    floats, is divided by its largest magnitude before normalising.

    Args:
        q: array with trailing dimension 4, finite and with no zero rows.

    Returns:
        Array with trailing dimensions (3, 3).

    Raises:
        ValueError: for a non-finite or all-zero row.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError(f"expected trailing dimension 4, got shape {q.shape}")
    peak = np.abs(q).max(axis=-1, keepdims=True)
    if not (np.isfinite(q).all() and peak.all()):
        raise ValueError("every quaternion must be finite and nonzero")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(q, axis=-1, keepdims=True)
    rescale = (norm < _MIN_QUAT_NORM) | np.isinf(norm)
    q = q / np.where(rescale, peak, 1.0)
    q = q / np.where(rescale, np.linalg.norm(q, axis=-1, keepdims=True), norm)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )
