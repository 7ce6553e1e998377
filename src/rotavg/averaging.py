"""Robust averaging of rotation samples under a truncated deviation cost.

The estimator caps each sample's deviation from a candidate average at a
threshold, so far-away samples contribute a constant and stop influencing
the answer.  The pipeline: pick the input rotation with the lowest truncated
chordal cost, keep the samples within the chordal threshold of it, and hand
those rows (samples[inliers]) to a chordal seed and an iteratively
reweighted geodesic median, stages that use every row they are given.

The first step is the only one that compares all pairs of samples.  Since
min(d, eps) = eps - max(eps - d, 0), only pairs closer than eps change a
candidate's cost, and up to sign the chordal eps-ball is a ball in
quaternion space.  proxy_initialize therefore lists those pairs with a grid
over unit quaternions when few pairs are close (many outliers), and falls
back to a blocked Gram product over all pairs when most are (few outliers,
small inputs).  Both searches are exact: they differ from the exhaustive
cost only by roundoff.

Each stage checks what it reads; composites add no check.  Stages check
samples with so3.check_rotations and a center or seed with so3.is_rotation,
raising so3.NotARotation, or EmptyInput for an empty stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from rotavg import so3

__all__ = [
    "EmptyInput",
    "TludConfig",
    "AveragingResult",
    "tlud_cost_geodesic",
    "proxy_initialize",
    "select_inliers",
    "chordal_l2_mean",
    "weiszfeld_geodesic_l1",
    "geodesic_l1_mean",
    "robust_average",
]

_TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)

# Margin added to the neighbour search radius, chordal and quaternion side
# alike.  A matrix within so3.ROTATION_TOL of a rotation is within
# ROTATION_TOL / 2 of it in Frobenius norm, and its quaternion is within a
# few ROTATION_TOL of the rotation's; 16x covers both with room for roundoff.
_SEARCH_PAD = 16.0 * so3.ROTATION_TOL

# The neighbour search is tried from this many samples up; below it the
# grid's fixed cost outweighs what it saves.
_GRID_MIN_N = 1000

# The neighbour search is abandoned for the dense product when it lists more
# than this share of all N^2 pairs as candidates.
_GRID_MAX_SHARE = 0.05

# Per-sample slack within which computed proxy costs count as tied (see
# _lowest_least).
_COST_TOL = 1e-12

# Candidate pairs handled per chunk; peak memory is about 200 bytes per pair.
_PAIR_CHUNK = 1 << 16

# Grid table size limit, in cells per stored quaternion.
_GRID_CELLS_PER_POINT = 16

# Samples closer than this to the current iterate are left out of the
# Weiszfeld weights (their inverse distance would blow up).
COINCIDENT_TOL = 1e-9


class EmptyInput(ValueError):
    """An operation that needs at least one rotation received none."""


@dataclass(frozen=True)
class TludConfig:
    """Thresholds and iteration limits for robust_average.

    Attributes:
        epsilon_c: chordal inlier threshold (Frobenius units, in (0, 2*sqrt(2))).
        delta: refinement stops once the update step is shorter than this (radians).
        it_max: refinement iteration cap.
        realternate: extra select-inliers/refine rounds after the first pass.
            The default 0 runs the single pass, which is normally enough.
    """

    epsilon_c: float = 0.5
    delta: float = 0.001
    it_max: int = 10
    realternate: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon_c < _TWO_SQRT_TWO:
            raise ValueError(f"epsilon_c must lie in (0, 2*sqrt(2)), got {self.epsilon_c}")
        _positive("delta", self.delta)
        _count("it_max", self.it_max)
        _count("realternate", self.realternate, least=0)

    @property
    def epsilon_g(self) -> float:
        """Geodesic threshold equivalent to epsilon_c, in radians.

        A chordal ball of radius epsilon_c is exactly a geodesic ball of
        radius 2*asin(epsilon_c / (2*sqrt(2))); for the default 0.5 this is
        about 0.3554 rad (20.4 degrees).
        """
        return 2.0 * math.asin(self.epsilon_c / _TWO_SQRT_TWO)


@dataclass
class AveragingResult:
    """Estimate plus diagnostics from one averaging run.

    Attributes:
        estimate: the averaged rotation (3x3).
        inliers: sorted 0-based indices, into the stack passed in, of the
            samples used for refinement (all N rows for weiszfeld_geodesic_l1).
        init_index: index of the input chosen by proxy initialization, or
            None when refinement was seeded some other way.
        update_norms: per-iteration step length, radians.
        cost_history: sum of geodesic deviations over the inliers, radians,
            before refinement and after each of the iterations.
        guard_fired: True when some sample coincided with the iterate during
            refinement and was excluded from the weights for that iteration.
    """

    estimate: np.ndarray
    inliers: np.ndarray
    init_index: int | None
    update_norms: np.ndarray
    cost_history: np.ndarray
    guard_fired: bool

    @property
    def iterations(self) -> int:
        """Refinement iterations executed: one per update_norms entry."""
        return len(self.update_norms)

    @property
    def final_cost(self) -> float:
        """The cost at the final estimate: the last cost_history entry."""
        return float(self.cost_history[-1])


def _positive(name: str, value: float) -> None:
    """Raise ValueError unless value > 0; written so that NaN fails too."""
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def _nonnegative(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and >= 0; NaN fails too."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless value is an integer >= least; NaN, 2.5 and True fail too."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value}")


def _as_stack(samples, check: bool = True) -> np.ndarray:
    """samples as a non-empty (N, 3, 3) float stack, checked to be rotations if check."""
    a = np.asarray(samples, dtype=float)
    if a.size == 0:
        raise EmptyInput("need at least one rotation")
    if a.shape == (3, 3):
        a = a[None]
    if a.ndim != 3 or a.shape[-2:] != (3, 3):
        raise ValueError(f"expected a stack of 3x3 rotations, got shape {np.shape(samples)}")
    if check:
        so3.check_rotations(a)
    return a


def _as_rotation(m, name: str) -> np.ndarray:
    """m as a 3x3 float array, or NotARotation naming the argument."""
    R = np.asarray(m, dtype=float)
    if R.shape != (3, 3) or not so3.is_rotation(R, tol=so3.ROTATION_TOL):
        raise so3.NotARotation(f"{name} is not a finite 3x3 rotation (tol {so3.ROTATION_TOL:.0e})")
    return R


def tlud_cost_geodesic(center: np.ndarray, samples: np.ndarray, epsilon_g: float) -> float:
    """Sum of geodesic deviations from center, each capped at epsilon_g."""
    Rs = _as_stack(samples)
    _positive("epsilon_g", epsilon_g)
    d = so3.geodesic_distance(Rs, _as_rotation(center, "center"))
    return float(np.minimum(d, epsilon_g).sum())


def _dense_costs(X: np.ndarray, epsilon_c: float, block_size: int = 256) -> np.ndarray:
    """Truncated chordal cost of every row of X against all rows, via Gram blocks.

    ||Ri - Rj||_F^2 == |Ri|^2 + |Rj|^2 - 2 <Ri, Rj>; with the squared norms
    carried as two extra columns, one matrix product per block of rows gives
    every squared distance.  The norms are not taken as 3: for matrices that
    are rotations only to so3.ROTATION_TOL that would put distances off by
    up to 1e-3.  Clipping the square at epsilon_c^2 before the root
    truncates exactly, since sqrt(fl(e * e)) == e in binary floating point.
    The Gram form loses absolute accuracy near zero (a 1e-16 error in the
    square is a 1e-8 error in the distance), so pairs of bitwise-identical
    rows, self pairs included, are set to exactly zero; distinct rows less
    than about 1e-6 apart keep that error.  Blocks accumulate in a fixed
    order, so the result never depends on scheduling.
    """
    n = len(X)
    sq = np.einsum("ij,ij->i", X, X)
    left = np.column_stack([X, sq, np.ones(n)])
    right = np.vstack([-2.0 * X.T, np.ones(n), sq])
    rows_as_bytes = np.ascontiguousarray(X).view(np.dtype((np.void, X.shape[1] * X.itemsize)))
    _, group = np.unique(rows_as_bytes.ravel(), return_inverse=True)
    repeats = group.max() + 1 < n
    costs = np.zeros(n)
    for start in range(0, n, block_size):
        rows = np.arange(start, min(start + block_size, n))
        d = left[start : start + block_size] @ right
        np.sqrt(np.clip(d, 0.0, epsilon_c * epsilon_c, out=d), out=d)
        if repeats:
            d[group[rows, None] == group] = 0.0
        else:
            d[rows - start, rows] = 0.0
        costs += d.sum(axis=0)
    return costs


def _search_radius(epsilon_c: float) -> float:
    """Quaternion distance within which every chordal epsilon_c-neighbour lies.

    A pair of rotations at chordal distance d = 2*sqrt(2)*sin(theta/2) has
    quaternion distance min(|qi - qj|, |qi + qj|) = 2*sin(theta/4), which
    grows with d.  Both sides are padded by _SEARCH_PAD for matrices that are
    rotations only up to so3.ROTATION_TOL.  Returns inf when the padded ball
    covers every rotation.
    """
    e = epsilon_c + _SEARCH_PAD
    if e >= _TWO_SQRT_TWO:
        return math.inf
    theta = 2.0 * math.asin(e / _TWO_SQRT_TWO)
    return 2.0 * math.sin(theta / 4.0) + _SEARCH_PAD


def _grid_costs(Rs: np.ndarray, epsilon_c: float, max_pairs: float = math.inf) -> np.ndarray | None:
    """Truncated chordal costs from epsilon_c-neighbour pairs only.

    cost_j = sum of d_ij over the samples i != j with d_ij < epsilon_c, plus
    epsilon_c for every other sample; the self pair adds exactly zero.

    Candidate pairs come from a 4-D grid over unit quaternions: each sample's
    canonical q (w >= 0), plus -q for samples with w below the search radius
    r, so pairs across w = 0 are found.  Cells have side >= r, so every
    quaternion within r of a query lies in the 3^4 cells around it; cells
    whose box is r or more away are skipped.  A candidate is kept if
    q.p > 1 - r^2/2, i.e. |q - p| < r.  As r < sqrt(2) that threshold is
    positive, so q and -q never both pass.  Each kept pair is listed once,
    and its distance is taken in difference form on the matrices.

    Returns:
        Costs, or None when the radius covers every rotation or the grid
        lists more than max_pairs candidate pairs (the dense product is
        then the cheaper exact search).
    """
    radius = _search_radius(epsilon_c)
    if radius >= math.sqrt(2.0):
        return None
    n = len(Rs)
    X = Rs.reshape(n, 9)
    Q = so3.matrix_to_quaternion(Rs)
    mirrored = np.flatnonzero(Q[:, 0] < radius)
    P = np.concatenate([Q, -Q[mirrored]])
    owner = np.concatenate([np.arange(n), mirrored])

    # Cell coordinates with one empty cell of padding on every side, so the
    # 3^4 neighbours of an occupied cell are always valid ids.  The side
    # grows past the radius when the table would be much larger than the data.
    lo = np.array([-radius, -1.0, -1.0, -1.0])
    side = radius
    while True:
        shape = np.floor((1.0 - lo) / side).astype(np.int64) + 3
        if int(np.prod(shape)) <= max(_GRID_CELLS_PER_POINT * len(P), 4096):
            break
        side *= 1.25
    scaled = (P - lo) / side
    cell = np.clip(np.floor(scaled).astype(np.int64) + 1, 1, shape - 2)
    ids = ((cell[:, 0] * shape[1] + cell[:, 1]) * shape[2] + cell[:, 2]) * shape[3] + cell[:, 3]
    order = np.argsort(ids, kind="stable")
    P, owner, ids = P[order], owner[order], ids[order]
    starts = np.zeros(int(np.prod(shape)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=len(starts) - 1), out=starts[1:])

    # Queries are the canonical points in grid order.  Each scans 27 runs of
    # up to three cells that are consecutive along the last axis, one run per
    # neighbour in the first three axes.  A run is skipped when its cells lie
    # at least the radius away, and trimmed to the cells the radius reaches
    # along the last axis.
    qpos = np.flatnonzero(order < n)
    query, q_ids, q_quat = owner[qpos], ids[qpos], P[qpos]
    below = (scaled[query] - (cell[query] - 1)) * side  # canonical rows come first
    gap2 = np.stack([below, np.zeros_like(below), side - below], axis=-1) ** 2
    room = radius * radius - (
        gap2[:, 0, :, None, None] + gap2[:, 1, None, :, None] + gap2[:, 2, None, None, :]
    ).reshape(-1, 27)
    step = np.array([-1, 0, 1])
    middle = q_ids[:, None] + (
        (step[:, None, None] * shape[1] + step[None, :, None]) * shape[2] + step[None, None, :]
    ).ravel() * shape[3]
    run_start = starts[middle - (gap2[:, 3, :1] < room)]
    run_len = starts[middle + 1 + (gap2[:, 3, 2:] < room)] - run_start
    run_len[room <= 0.0] = 0
    per_query = run_len.sum(axis=1)
    ends = np.cumsum(per_query)
    if ends[-1] > max_pairs:
        return None

    # Work in query order from here on: query k is sample query[k], and each
    # grid point belongs to query rank[owner].  A pair is listed once, from
    # the later query, and credited to both; self pairs are left out.
    rank = np.empty(n, dtype=np.int64)
    rank[query] = np.arange(n)
    point_query = rank[owner]
    X_query = np.take(X, query, axis=0)
    threshold = 1.0 - 0.5 * radius * radius
    sums = np.zeros(n)
    inside = np.zeros(n, dtype=np.int64)
    a = 0
    while a < n:
        done = ends[a - 1] if a else 0
        b = max(int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")), a + 1)
        lens = run_len[a:b].ravel()
        nonempty = lens > 0
        lens = lens[nonempty]
        firsts = run_start[a:b].ravel()[nonempty]
        pos = np.repeat(firsts - (np.cumsum(lens) - lens), lens) + np.arange(int(lens.sum()))
        qi = np.repeat(np.arange(a, b), per_query[a:b])
        # np.take and np.compress: several times faster than [] indexing here
        other = np.take(point_query, pos)
        once = other < qi
        pos, qi, other = (np.compress(once, v) for v in (pos, qi, other))
        dots = np.einsum("ij,ij->i", np.take(P, pos, axis=0), np.take(q_quat, qi, axis=0))
        hit = dots > threshold
        qi, other = np.compress(hit, qi), np.compress(hit, other)
        diff = np.take(X_query, other, axis=0)
        diff -= np.take(X_query, qi, axis=0)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        close = d < epsilon_c
        d, qi, other = (np.compress(close, v) for v in (d, qi, other))
        for k in (qi, other):
            sums += np.bincount(k, weights=d, minlength=n)
            inside += np.bincount(k, minlength=n)
        a = b
    costs = np.empty(n)
    costs[query] = sums + epsilon_c * (n - 1 - inside)
    return costs


def _lowest_least(costs: np.ndarray) -> int:
    """Lowest index whose cost is within _COST_TOL per sample of the least.

    The two searches sum in different orders, and the Gram form carries an
    error of about 1e-15 / d in a distance d, so costs that tie exactly can
    come out a few bits apart.  Treating such costs as tied keeps the
    lowest-index rule the same whichever search ran and however BLAS split
    its work.
    """
    return int(np.flatnonzero(costs <= costs.min() + _COST_TOL * len(costs))[0])


def proxy_initialize(
    samples: np.ndarray, epsilon_c: float = TludConfig.epsilon_c
) -> tuple[int, np.ndarray]:
    """Index and value of the input rotation with the least truncated chordal cost.

    cost_j = sum_i min(d_ij, epsilon_c) with d the chordal (Frobenius)
    distance.  Only pairs inside the epsilon_c ball change a cost:
    min(d, eps) = eps - max(eps - d, 0).  Two exact searches compute it.

    - Neighbour search (_grid_costs): a quaternion grid lists every pair
      that can lie within epsilon_c, with a margin for inputs that are
      rotations only to so3.ROTATION_TOL, and takes their distances in
      difference form; each other pair adds exactly epsilon_c.  The work
      grows with the number of candidate pairs rather than with N^2; at
      90-99% outliers that is a few percent of all pairs.
    - Dense search (_dense_costs): a blocked Gram product over all N^2 pairs.
      It wins when almost every pair is a neighbour (few outliers, a wide
      epsilon_c) and at small N, where the grid's fixed cost dominates.

    Inputs of at least _GRID_MIN_N samples try the grid first.  It gives up
    in favour of the dense product when it counts more than
    _GRID_MAX_SHARE * N^2 candidate pairs, or when the padded search radius
    covers every rotation (epsilon_c near or above 2*sqrt(2)).  Both searches
    give the self pair exactly zero.  Costs within N * _COST_TOL of the
    least count as tied, and ties resolve to the lowest index.

    Args:
        samples: (N, 3, 3) stack of rotations.
        epsilon_c: chordal truncation threshold.

    Returns:
        (index, rotation) of the best candidate.

    Raises:
        so3.NotARotation: a sample is non-finite or not a rotation.
    """
    Rs = _as_stack(samples)
    _positive("epsilon_c", epsilon_c)
    n = len(Rs)
    costs = None
    if n >= _GRID_MIN_N:
        costs = _grid_costs(Rs, epsilon_c, max_pairs=_GRID_MAX_SHARE * n * n)
    if costs is None:
        costs = _dense_costs(np.ascontiguousarray(Rs.reshape(n, 9)), epsilon_c)
    j = _lowest_least(costs)
    return j, Rs[j].copy()


def select_inliers(
    center: np.ndarray, samples: np.ndarray, epsilon_c: float = TludConfig.epsilon_c
) -> np.ndarray:
    """Sorted indices of samples within chordal distance epsilon_c of center (inclusive)."""
    Rs = _as_stack(samples)
    center = _as_rotation(center, "center")
    _positive("epsilon_c", epsilon_c)
    d = so3.chordal_distance(Rs, center)
    return np.flatnonzero(d <= epsilon_c).astype(np.int64)


def chordal_l2_mean(samples: np.ndarray) -> np.ndarray:
    """Rotation nearest (Frobenius) to the sum of the samples.

    This is the closed-form minimizer of sum ||Ri - Q||_F^2 over rotations Q.
    To average some rows only, pass those rows (samples[inliers]).

    Raises:
        so3.DegenerateMatrix: when the sum has no unique nearest rotation.
    """
    # C order sums each entry over the rows in order, whatever the caller's layout
    return so3.project_to_so3(np.ascontiguousarray(_as_stack(samples)).sum(axis=0))


def weiszfeld_geodesic_l1(
    samples: np.ndarray,
    seed: np.ndarray,
    delta: float = TludConfig.delta,
    it_max: int = TludConfig.it_max,
) -> AveragingResult:
    """Iteratively reweighted geodesic median of every sample, from seed.

    Each iteration lifts the samples into the tangent space at the current
    estimate, takes the inverse-distance-weighted mean of the lifted vectors,
    and moves along it:

        v_i = log(R_i @ R.T),  step = sum(v_i/||v_i||) / sum(1/||v_i||),
        R <- exp(step) @ R

    stopping once ||step|| < delta or after it_max iterations.  Samples
    closer than COINCIDENT_TOL to the iterate sit out that iteration's
    weights; when all of them coincide the iterate is already the median and
    the loop records a zero step and stops.  The result's inliers are
    arange(len(samples)), indices into the rows passed in.
    """
    Rs = _as_stack(samples)
    _positive("delta", delta)
    _count("it_max", it_max)
    R = _as_rotation(seed, "seed").copy()
    vi = so3.log_map(Rs @ R.T)
    ni = np.linalg.norm(vi, axis=-1)
    costs = [float(ni.sum())]
    update_norms: list[float] = []
    guard = False
    for _ in range(it_max):
        active = ni >= COINCIDENT_TOL
        if not np.all(active):
            guard = True
        if not np.any(active):
            update_norms.append(0.0)
            costs.append(costs[-1])
            break
        w = 1.0 / ni[active]
        step = (vi[active] * w[:, None]).sum(axis=0) / w.sum()
        R = so3.exp_map(step) @ R
        step_norm = float(np.linalg.norm(step))
        update_norms.append(step_norm)
        vi = so3.log_map(Rs @ R.T)
        ni = np.linalg.norm(vi, axis=-1)
        costs.append(float(ni.sum()))
        if step_norm < delta:
            break
    return AveragingResult(
        estimate=R,
        inliers=np.arange(len(Rs)),
        init_index=None,
        update_norms=np.asarray(update_norms),
        cost_history=np.asarray(costs),
        guard_fired=guard,
    )


def geodesic_l1_mean(
    samples: np.ndarray, delta: float = TludConfig.delta, it_max: int = TludConfig.it_max
) -> AveragingResult:
    """Plain geodesic median of all samples (no outlier handling).

    weiszfeld_geodesic_l1 seeded from the chordal_l2_mean of the stack.
    robust_average runs it on the proxy's inliers; over all samples it is
    the baseline that robust_average degenerates to when every sample is kept.
    """
    Rs = _as_stack(samples, check=False)
    return weiszfeld_geodesic_l1(Rs, chordal_l2_mean(Rs), delta=delta, it_max=it_max)


def robust_average(samples: np.ndarray, config: TludConfig | None = None) -> AveragingResult:
    """Average a contaminated stack of rotations under the truncated cost.

    geodesic_l1_mean over the proxy's inliers: proxy_initialize picks a
    winner, select_inliers keeps the samples within config.epsilon_c
    (chordal) of it.  With config.realternate > 0 the select/refine pair is
    repeated around the estimate, stopping early once the inlier set stops
    changing.

    Args:
        samples: (N, 3, 3) stack of rotations, N >= 1.
        config: thresholds and iteration limits; defaults to TludConfig().

    Returns:
        AveragingResult with init_index set to the proxy winner.
    """
    cfg = config if config is not None else TludConfig()
    Rs = _as_stack(samples, check=False)
    init_index, center = proxy_initialize(Rs, cfg.epsilon_c)
    result = None
    for _ in range(1 + cfg.realternate):
        # On the first pass the winner is its own inlier at zero distance, so
        # the set is never empty.
        inliers = select_inliers(center, Rs, cfg.epsilon_c)
        if result is not None and (inliers.size == 0 or np.array_equal(inliers, result.inliers)):
            break
        result = replace(geodesic_l1_mean(Rs[inliers], cfg.delta, cfg.it_max), inliers=inliers)
        center = result.estimate
    return replace(result, init_index=init_index)
