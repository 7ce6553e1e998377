"""Rotation recovery between corresponding point clouds, the hard way.

A similarity-transformed, noisy, heavily outlier-contaminated copy of a
cloud is aligned back to the original by harvesting thousands of rotation
hypotheses from random 3-point samples and then robust-averaging the
hypothesis set.  Correspondences are positional: point i in one cloud pairs
with point i in the other.  _ratio_test alone decides which triples are
kept: their side ratios agree and neither triangle is flat, rules that no
unit of the clouds changes.  _align_batch aligns the kept triples in one
call; harvest_hypotheses is the public way in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from rotavg import so3
from rotavg.averaging import AveragingResult, TludConfig, _count, _nonnegative, robust_average
from rotavg.bench import _stream, random_outlier

__all__ = [
    "TooFewPoints",
    "AttemptCapExceeded",
    "RegistrationScenario",
    "make_scenario",
    "normalize_cloud",
    "corrupt_cloud",
    "synthetic_pair",
    "harvest_hypotheses",
    "register_rotation",
]

# Relative flatness below which points fix no rotation: a triangle is flat
# when its height is below this share of its longest side, and a cloud when
# its second singular value is below this share of its first.
_FLAT_TOL = 1e-9

# Fixed tags deriving independent RNG streams from one scenario seed.
_TAG_CORRUPT = 0
_TAG_HARVEST = 1
_TAG_SCENARIO = 2
_TAG_NORMALIZE = 3

# Harvest attempts per RNG stream.  Batch b draws from _stream(seed,
# _TAG_HARVEST, b), so this fixes a seed's hypotheses: it is output contract.
_HARVEST_BATCH = 4096

_log = logging.getLogger(__name__)


class TooFewPoints(ValueError):
    """Cloud has fewer points than the operation needs."""


class AttemptCapExceeded(RuntimeError):
    """Hypothesis harvesting ran out of attempts before filling its quota:
    the ratio tolerance is too strict for the data, or too many triples are
    flat (height below 1e-9 of the longest side, coincident points
    included), which fixes no rotation.

    .attempts and .accepted count the triples drawn and the hypotheses kept.
    """

    def __init__(self, message: str, attempts: int, accepted: int) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.accepted = accepted


def _as_cloud(points, min_points: int = 1) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point array has non-finite coordinates")
    if len(p) < min_points:
        raise TooFewPoints(f"need at least {min_points} points, got {len(p)}")
    return p


@dataclass(frozen=True, eq=False)
class RegistrationScenario:
    """Seed and settings of one registration run; the transform follows.

    __post_init__ draws from the seed the scale, uniform in (1, 5) unless
    fixed_scale gives it, the rotation, uniform over SO(3), and the
    translation, uniform in [-1, 1]^3 (centroid subtraction removes it
    downstream).  They are not inputs, so dataclasses.replace redraws the
    same transform.  Two-file `rotavg register` reads only the settings.
    """

    seed: int = 0
    outlier_fraction: float = 0.0
    n_hypotheses: int = 2000
    noise_sigma: float = 0.01
    ratio_tolerance: float = 0.1
    fixed_scale: float | None = None
    scale: float = field(init=False)
    rotation: np.ndarray = field(init=False)
    translation: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.fixed_scale is not None and not 1.0 < self.fixed_scale < 5.0:
            raise ValueError(f"scale must lie in (1, 5), got {self.fixed_scale}")
        _nonnegative("noise_sigma", self.noise_sigma)
        if not 0.0 <= self.outlier_fraction <= 0.98:
            raise ValueError(f"outlier_fraction must lie in [0, 0.98], got {self.outlier_fraction}")
        _count("n_hypotheses", self.n_hypotheses)
        if not self.ratio_tolerance >= 0.0:  # inf is allowed: it turns the filter off
            raise ValueError(f"ratio_tolerance must be non-negative, got {self.ratio_tolerance}")
        rng = _stream(self.seed, _TAG_SCENARIO)  # checks the seed
        scale = self.fixed_scale
        if scale is None:
            scale = float(rng.uniform(1.0, 5.0))
            while scale <= 1.0:  # uniform(1, 5) can land exactly on 1
                scale = float(rng.uniform(1.0, 5.0))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", random_outlier(rng))
        object.__setattr__(self, "translation", rng.uniform(-1.0, 1.0, 3))


def make_scenario(
    seed: int, outlier_fraction: float, *, scale: float | None = None, **settings
) -> RegistrationScenario:
    """RegistrationScenario with these settings (keywords); scale, if given, is its fixed_scale."""
    return RegistrationScenario(seed, outlier_fraction, fixed_scale=scale, **settings)


def normalize_cloud(points, target_count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random downsample to target_count, then fit to the unit cube.

    The fitted cloud is centered on the origin with its axis-aligned bounding
    box inside [-0.5, 0.5]^3 and the longest axis spanning exactly 1.

    Args:
        points: (N, 3) array, N >= target_count.
        target_count: points to keep.
        rng: generator that draws the kept points.
    """
    p = _as_cloud(points)
    _count("target_count", target_count)
    if len(p) < target_count:
        raise TooFewPoints(f"cannot downsample {len(p)} points to {target_count}")
    p = p[rng.choice(len(p), size=target_count, replace=False)]
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    span = float((hi - lo).max())
    if span <= 0.0:
        raise ValueError("cloud has zero extent; cannot fit it to the unit cube")
    return (p - (lo + hi) / 2.0) / span


def corrupt_cloud(points, scen: RegistrationScenario) -> np.ndarray:
    """Similarity-transform, perturb, and outlier-contaminate a cloud.

    Applies p -> scale * R @ p + t, adds per-coordinate Gaussian noise of std
    scen.noise_sigma, then replaces a uniformly chosen (without replacement)
    round(outlier_fraction * n) subset of points with uniform samples from
    the ball of diameter sqrt(3) * scale centered on the cloud's centroid.
    The transform and all other randomness come from the scenario seed.
    """
    p = _as_cloud(points)
    rng = _stream(scen.seed, _TAG_CORRUPT)
    q = scen.scale * (p @ scen.rotation.T) + scen.translation
    q = q + rng.normal(0.0, scen.noise_sigma, size=q.shape)
    n_replace = int(round(scen.outlier_fraction * len(q)))
    if n_replace:
        idx = rng.choice(len(q), size=n_replace, replace=False)
        center = q.mean(axis=0)
        radius = math.sqrt(3.0) * scen.scale / 2.0
        dirs = rng.normal(size=(n_replace, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * np.cbrt(rng.random(n_replace))
        q[idx] = center + radii[:, None] * dirs
    return q


def synthetic_pair(
    cloud, seed: int, outlier_fraction: float, n_points: int = 1000, **scenario
) -> tuple[np.ndarray, np.ndarray, RegistrationScenario]:
    """(src, dst, scen) for one seed: what `rotavg register` runs on one cloud.

    src is cloud fitted by normalize_cloud to n_points (on a stream derived
    from seed), scen is make_scenario(seed, outlier_fraction, **scenario),
    and dst is corrupt_cloud(src, scen); scen.rotation is the truth.
    """
    src = normalize_cloud(cloud, n_points, _stream(seed, _TAG_NORMALIZE))
    scen = make_scenario(seed, outlier_fraction, **scenario)
    return src, corrupt_cloud(src, scen), scen


def _ratio_test(cols: np.ndarray, idx: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the triangles idx (m, 3) that are kept, the only filter on triples.

    A row passes when its three per-side length ratios target/source agree,
    max(ratios) / min(ratios) - 1 <= tol, and neither triangle is flat:
    |(p1-p0) x (p2-p0)| < _FLAT_TOL * longest_side**2, or a longest side of
    0.  No unit of either cloud changes either rule.  cols is (6, n): source
    x, y, z rows, then target x, y, z rows.  Sides [|p1-p0|, |p2-p1|,
    |p0-p2|] are sqrt(dx*dx + dy*dy + dz*dz) on 1-D columns, bitwise
    np.linalg.norm of the gathered points.  Only rows whose ratios agree are
    tested for flatness, on edges divided by the longest side so that no
    product overflows.
    """
    p = cols.take(idx.T, axis=1)  # (coordinate row, vertex, attempt)
    sides = []
    for a, b in ((1, 0), (2, 1), (0, 2)):
        e = p[:, a] - p[:, b]
        e *= e
        sides.append(np.sqrt(e[0::3] + e[1::3] + e[2::3]))  # rows: source, target
    with np.errstate(divide="ignore", invalid="ignore"):
        r0, r1, r2 = (side[1] / side[0] for side in sides)
        spread = np.maximum(np.maximum(r0, r1), r2) / np.minimum(np.minimum(r0, r1), r2) - 1.0
        keep = spread <= tol
        longest = np.maximum(np.maximum(sides[0], sides[1]), sides[2])[:, None, None, keep]
        q = p[:, :, keep].reshape(2, 3, 3, -1)  # (cloud, coordinate, vertex, row)
        edges = (q[:, :, 1:] - q[:, :, :1]) / longest  # a longest side of 0 gives NaN: flat
        twice_area = np.linalg.norm(np.cross(edges[:, :, 0], edges[:, :, 1], axis=1), axis=1)
    keep[keep] = (twice_area >= _FLAT_TOL).all(axis=0)
    return keep


def _align_batch(sp: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Procrustes rotations for (k, 3, 3) corresponding point triples.

    Each triple is centered and divided by its RMS radius, so scale and
    translation do not matter, and the cross-covariance sum(dst_i' @ src_i'.T)
    is projected onto SO(3): the rotation maps src directions onto dst
    directions.  The triples must have passed _ratio_test, so none is flat.
    """
    sc = sp - sp.mean(axis=1, keepdims=True)
    dc = dp - dp.mean(axis=1, keepdims=True)
    srms = np.sqrt((sc * sc).sum(axis=(1, 2)) / 3.0)
    drms = np.sqrt((dc * dc).sum(axis=(1, 2)) / 3.0)
    H = np.einsum("bif,big->bfg", dc / drms[:, None, None], sc / srms[:, None, None])
    return so3.nearest_rotations(H)[0]


def _distinct_triples(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """(m, 3) uniformly random index triples with three distinct entries each."""
    idx = rng.integers(0, n, size=(m, 3))
    while True:
        dup = (idx[:, 0] == idx[:, 1]) | (idx[:, 1] == idx[:, 2]) | (idx[:, 0] == idx[:, 2])
        k = int(dup.sum())
        if not k:
            return idx
        idx[dup] = rng.integers(0, n, size=(k, 3))


def harvest_hypotheses(
    src, dst, scen: RegistrationScenario, attempt_cap: int = 1_000_000
) -> np.ndarray:
    """Collect scen.n_hypotheses rotations from ratio-filtered 3-point samples.

    Samples index triples (3 distinct indices, uniformly) and keeps those
    that _ratio_test passes: the two triangles' side ratios agree and
    neither is flat (height below 1e-9 of its longest side, coincident
    points included), a rule no unit of the clouds changes.  Attempts run in
    batches of _HARVEST_BATCH = 4096, the last one cut short by attempt_cap,
    one after another, until the kept triples fill the quota.  Each batch
    has its own RNG stream derived from (scenario seed, batch index), and
    kept triples concatenate in batch order, so a seed always yields the
    same hypotheses.  The first n_hypotheses are then aligned in one call.
    One DEBUG record on the "rotavg.registration" logger reports batches,
    attempts, accepted count and acceptance rate.  A cloud whose points
    coincide, or lie within about 1e-9 (relative) of a line, is rejected
    first: its hypotheses would be set by rounding.

    Raises:
        so3.DegenerateMatrix: when either cloud is collinear or coincident.
        AttemptCapExceeded: when attempt_cap attempts cannot fill the quota.
    """
    s = _as_cloud(src, min_points=3)
    d = _as_cloud(dst, min_points=3)
    if len(s) != len(d):
        raise ValueError(f"clouds must correspond point-for-point, got {len(s)} vs {len(d)}")
    for name, p in (("src", s), ("dst", d)):
        sv = np.linalg.svd(p - p.mean(axis=0), compute_uv=False)
        if not sv[1] > _FLAT_TOL * sv[0]:
            raise so3.DegenerateMatrix(f"{name} points are collinear or all coincide")
    _count("attempt_cap", attempt_cap)
    need = scen.n_hypotheses
    cols = np.ascontiguousarray(np.concatenate([s, d], axis=1).T)
    kept: list[np.ndarray] = []
    accepted = attempts = 0
    while accepted < need and attempts < attempt_cap:
        m = min(_HARVEST_BATCH, attempt_cap - attempts)
        idx = _distinct_triples(_stream(scen.seed, _TAG_HARVEST, len(kept)), len(s), m)
        kept.append(idx[_ratio_test(cols, idx, scen.ratio_tolerance)])  # one entry per batch
        accepted += len(kept[-1])
        attempts += m
    rate = accepted / attempts
    stats = dict(batches=len(kept), attempts=attempts, accepted=accepted, acceptance_rate=rate)
    _log.debug("harvest %s", stats, extra=stats)
    if accepted < need:
        raise AttemptCapExceeded(
            f"collected {accepted}/{need} hypotheses within {attempt_cap} attempts; "
            f"the ratio tolerance {scen.ratio_tolerance} may be too strict for this data, "
            "or the points may coincide or be collinear",
            attempts, accepted,
        )
    idx = np.concatenate(kept)[:need]
    return _align_batch(s[idx], d[idx])


def register_rotation(
    src,
    dst,
    scen: RegistrationScenario,
    config: TludConfig | None = None,
) -> AveragingResult:
    """Estimate the rotation between corresponding clouds.

    Runs harvest_hypotheses with its default attempt cap, then
    robust_average under config (TludConfig() when None).  The returned
    inlier indices refer to the hypothesis list, not to cloud points.  The
    estimate maps src directions onto dst directions.

    Raises:
        AttemptCapExceeded: when harvesting cannot fill scen.n_hypotheses.
    """
    return robust_average(harvest_hypotheses(src, dst, scen), config)
