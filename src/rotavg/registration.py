"""Rotation recovery between corresponding point clouds, the hard way.

A similarity-transformed, noisy, heavily outlier-contaminated copy of a
cloud is aligned back to the original by harvesting thousands of rotation
hypotheses from random 3-point samples (pre-filtered by a scale-free
triangle side-ratio test) and then robust-averaging the hypothesis set.
Correspondences are positional: point i in one cloud pairs with point i in
the other.  Triples are filtered (_ratio_test) and aligned (_align_batch) a
batch at a time; harvest_hypotheses is the public way in.
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

# Triangle sides shorter than this make the ratio test meaningless.
_SIDE_TOL = 1e-9

# Second singular value of the (normalized) cross-covariance below which the
# three points are treated as collinear.
_COLLINEAR_TOL = 1e-9

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
    the ratio tolerance is too strict for the data, or too few triples are
    free of coincident or collinear points to be aligned.

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


def _ratio_test(cols: np.ndarray, idx: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(passed, degenerate) masks of the ratio test on triangles idx (m, 3).

    A row passes when its three per-side length ratios target/source agree:
    max(ratios) / min(ratios) - 1 <= tol, which no scale of either triangle
    changes.  cols is (6, n): source x, y, z rows, then target x, y, z rows.
    Sides [|p1-p0|, |p2-p1|, |p0-p2|] are sqrt(dx*dx + dy*dy + dz*dz) on 1-D
    columns, bitwise np.linalg.norm of the gathered points.  A degenerate
    row has a side shorter than _SIDE_TOL and never passes.
    """
    p = cols.take(idx.T, axis=1)  # (coordinate row, vertex, attempt)
    sides = []
    for a, b in ((1, 0), (2, 1), (0, 2)):
        e = p[:, a] - p[:, b]
        e *= e
        sides.append(np.sqrt(e[0::3] + e[1::3] + e[2::3]))  # rows: source, target
    degenerate = np.minimum(np.minimum(sides[0], sides[1]), sides[2]).min(axis=0) < _SIDE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        r0, r1, r2 = (side[1] / side[0] for side in sides)
        spread = np.maximum(np.maximum(r0, r1), r2) / np.minimum(np.minimum(r0, r1), r2) - 1.0
    return ~degenerate & (spread <= tol), degenerate


def _align_batch(sp: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Procrustes rotations for (k, 3, 3) corresponding point triples.

    Each triple is centered and divided by its RMS radius, so scale and
    translation do not matter, and the cross-covariance sum(dst_i' @ src_i'.T)
    is projected onto SO(3): the rotation maps src directions onto dst
    directions.  Triples whose points coincide or are collinear (no unique
    rotation fits them) are dropped; the rest keep their order.
    """
    sc = sp - sp.mean(axis=1, keepdims=True)
    dc = dp - dp.mean(axis=1, keepdims=True)
    srms = np.sqrt((sc * sc).sum(axis=(1, 2)) / 3.0)
    drms = np.sqrt((dc * dc).sum(axis=(1, 2)) / 3.0)
    apart = np.minimum(srms, drms) >= 1e-12  # else the points coincide
    sc, dc, srms, drms = sc[apart], dc[apart], srms[apart], drms[apart]
    H = np.einsum("bif,big->bfg", dc / drms[:, None, None], sc / srms[:, None, None])
    R, sv, _ = so3.nearest_rotations(H)
    return R[sv[:, 1] > _COLLINEAR_TOL]


def _distinct_triples(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """(m, 3) uniformly random index triples with three distinct entries each."""
    idx = rng.integers(0, n, size=(m, 3))
    while True:
        dup = (idx[:, 0] == idx[:, 1]) | (idx[:, 1] == idx[:, 2]) | (idx[:, 0] == idx[:, 2])
        k = int(dup.sum())
        if not k:
            return idx
        idx[dup] = rng.integers(0, n, size=(k, 3))


def _harvest_batch(
    src: np.ndarray, dst: np.ndarray, cols: np.ndarray, tol: float, rng: np.random.Generator, m: int
) -> np.ndarray:
    """Vectorized equivalent of m passes of {sample triple, ratio-check, align}.

    cols is the _ratio_test layout of src and dst; only accepted triples are
    gathered as points.  Degenerate or collinear triples count as failed
    checks.  Accepted rotations keep attempt order.
    """
    idx = _distinct_triples(rng, len(src), m)
    kept = idx[_ratio_test(cols, idx, tol)[0]]
    return _align_batch(src[kept], dst[kept])


def harvest_hypotheses(
    src, dst, scen: RegistrationScenario, attempt_cap: int = 1_000_000
) -> np.ndarray:
    """Collect scen.n_hypotheses rotations from ratio-filtered 3-point samples.

    Repeats {sample 3 distinct indices uniformly, ratio-check the two
    triangles, align and keep the rotation if it passes} until the quota is
    met.  Attempts run in batches of _HARVEST_BATCH = 4096, the last one cut
    short by attempt_cap, one after another.  Each batch has its own RNG
    stream derived from (scenario seed, batch index), and accepted
    hypotheses concatenate in batch order, so a seed always yields the same
    hypotheses.  One DEBUG record on the "rotavg.registration" logger
    reports batches, attempts, accepted count and acceptance rate.  A cloud
    whose points coincide, or lie within about 1e-9 (relative) of a line,
    is rejected first: its hypotheses would be set by rounding.

    Raises:
        so3.DegenerateMatrix: when either cloud is collinear or coincident.
        AttemptCapExceeded: when attempt_cap attempts cannot fill the quota.
    """
    s = _as_cloud(src, min_points=3)
    d = _as_cloud(dst, min_points=3)
    if len(s) != len(d):
        raise ValueError(f"clouds must correspond point-for-point, got {len(s)} vs {len(d)}")
    for name, p in (("src", s), ("dst", d)):
        c = p - p.mean(axis=0)
        norm = np.linalg.norm(c)
        if norm < 1e-12 or np.linalg.svd(c / norm, compute_uv=False)[1] <= _COLLINEAR_TOL:
            raise so3.DegenerateMatrix(f"{name} points are collinear or all coincide")
    _count("attempt_cap", attempt_cap)
    need = scen.n_hypotheses
    cols = np.ascontiguousarray(np.concatenate([s, d], axis=1).T)
    chunks: list[np.ndarray] = []
    accepted = attempts = 0
    while accepted < need and attempts < attempt_cap:
        m = min(_HARVEST_BATCH, attempt_cap - attempts)
        rng = _stream(scen.seed, _TAG_HARVEST, len(chunks))  # one chunk per batch
        chunks.append(_harvest_batch(s, d, cols, scen.ratio_tolerance, rng, m))
        accepted += len(chunks[-1])
        attempts += m
    rate = accepted / attempts
    stats = dict(batches=len(chunks), attempts=attempts, accepted=accepted, acceptance_rate=rate)
    _log.debug("harvest %s", stats, extra=stats)
    if accepted < need:
        raise AttemptCapExceeded(
            f"collected {accepted}/{need} hypotheses within {attempt_cap} attempts; "
            f"the ratio tolerance {scen.ratio_tolerance} may be too strict for this data, "
            "or the points may coincide or be collinear",
            attempts, accepted,
        )
    return np.concatenate(chunks)[:need]


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
