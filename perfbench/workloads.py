"""The four benchmark workloads.

Constructing a workload is its set-up: it generates every input from the
workload seed and writes any files.  `call(k, op_span)` is the timed unit:
one op, or for `desk_sweep` one sweep of 300 ops.  `check(k, raw, seconds)`
runs outside the timing and turns the unit's output into `Op` records plus
a list of problems.  A problem is a broken program contract, such as a bad
exit code, a non-rotation estimate, a report that disagrees with its trials,
or a repeated input giving a different answer.  Calls k, k + cycle,
k + 2 * cycle, ... see the same input, so the first `cycle` calls cover
every input once.

Planted stacks are drawn here with numpy alone, so the inputs do not change
when the generators in `rotavg.bench` do.  `desk_sweep` and `register_cloud`
use the program's own generators because those generators are part of the
path they measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from rotavg import averaging, bench, cli, registration, so3

SIGMA_DEG = 5.0
FAILURE_DEG = bench.FAILURE_THRESHOLD_DEG
# Acceptance criterion 6: registration error limits by outlier fraction.
REGISTER_LIMIT_DEG = {0.90: 3.0, 0.96: 10.0}
CLOUD = "data/standin_cloud.xyz"


@dataclass
class Op:
    latency_s: float
    error_deg: float
    ok: bool


def angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Rotation angle of a @ b.T in degrees, computed without rotavg."""
    c = (np.trace(np.asarray(a) @ np.asarray(b).T) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def uniform_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    return _quat_to_matrix(q / np.linalg.norm(q, axis=1, keepdims=True))


def _rodrigues(v: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(v, axis=1)
    axis = v / np.where(theta > 0.0, theta, 1.0)[:, None]
    x, y, z = axis.T
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -z, y, -x
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = z, -y, x
    s = np.sin(theta)[:, None, None]
    c = (1.0 - np.cos(theta))[:, None, None]
    return np.eye(3) + s * k + c * (k @ k)


def planted_stack(rng: np.random.Generator, n: int, outlier_ratio: float, sigma_deg: float):
    """Shuffled (n, 3, 3) stack and its planted truth.

    Inliers are exp(e) @ truth with e ~ N(0, sigma^2 I3), as in
    `bench.random_inlier`; outliers are uniform on SO(3).
    """
    truth = uniform_rotations(rng, 1)[0]
    n_out = int(round(outlier_ratio * n))
    inliers = _rodrigues(rng.normal(0.0, math.radians(sigma_deg), (n - n_out, 3))) @ truth
    samples = np.concatenate([inliers, uniform_rotations(rng, n_out)])
    return samples[rng.permutation(n)], truth


def _run_cli(argv: list[str], op_span) -> tuple[int, str]:
    out = io.StringIO()
    with op_span(), contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class _Repeatable:
    """Records the first answer per input; later calls must match it exactly."""

    def __init__(self) -> None:
        self._first: dict = {}

    def same_as_before(self, key, value) -> bool:
        first = self._first.setdefault(key, value)
        if isinstance(value, np.ndarray):
            return bool(np.array_equal(first, value))
        return first == value


class Sparse10k(_Repeatable):
    """`averaging.robust_average` on a fixed cycle of in-memory stacks."""

    name = "sparse_10k"
    ratios = (0.90, 0.99)
    workers = 1

    def __init__(self, seed: int, n: int = 10_000, cycle: int = 16) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cycle = cycle
        self.inputs = [
            planted_stack(rng, n, self.ratios[k % 2], SIGMA_DEG) for k in range(cycle)
        ]

    def call(self, k: int, op_span):
        samples, _ = self.inputs[k % self.cycle]
        with op_span():
            return averaging.robust_average(samples)

    def check(self, k: int, result, seconds: float):
        i = k % self.cycle
        err = angle_deg(result.estimate, self.inputs[i][1])
        problems = []
        if not self.same_as_before(i, result.estimate):
            problems.append(f"stack {i}: estimate changed on repeat")
        return [Op(seconds, err, err <= FAILURE_DEG)], problems


class DenseFile3k(_Repeatable):
    """`rotavg average <mat9 file>` in-process, on files written at set-up."""

    name = "dense_file_3k"
    ratios = (0.0, 0.3)
    workers = 1

    def __init__(self, seed: int, workdir: str, n: int = 3000, cycle: int = 16) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cycle = cycle
        self.paths, self.truths = [], []
        for k in range(cycle):
            samples, truth = planted_stack(rng, n, self.ratios[k % 2], SIGMA_DEG)
            path = os.path.join(workdir, f"dense_{k:03d}.mat9")
            np.savetxt(path, samples.reshape(-1, 9), fmt="%.17g")
            self.paths.append(path)
            self.truths.append(truth)

    def call(self, k: int, op_span):
        return _run_cli(["average", self.paths[k % self.cycle]], op_span)

    def check(self, k: int, raw, seconds: float):
        i = k % self.cycle
        rc, text = raw
        if rc != 0:
            return [Op(seconds, math.inf, False)], []
        estimate = np.array(json.loads(text)["estimate"]).reshape(3, 3)
        problems = []
        if not so3.is_rotation(estimate):
            problems.append(f"file {i}: estimate is not a rotation")
        if not self.same_as_before(i, text):
            problems.append(f"file {i}: output changed on repeat")
        err = angle_deg(estimate, self.truths[i])
        return [Op(seconds, err, err <= FAILURE_DEG)], problems


class DeskSweep(_Repeatable):
    """`bench.sweep` over the desk preset with a timed tlud estimator, 1 worker.

    Trials run one at a time, as in `rotavg bench` by default.  With two
    pool threads on a 2-core machine that other programs share, a trial's
    latency depends on whether the other thread or a neighbour holds the
    second core.  Over two sets of five seeds, the tail latency (see
    `worker.windowed_tail`) spread by 18-20% of its median with two
    workers and by 7-11% with one.
    """

    name = "desk_sweep"
    cycle = 1
    workers = 1

    def __init__(self, seed: int, scenarios=None) -> None:
        super().__init__()
        self.scenarios = bench.desk_preset(seed) if scenarios is None else scenarios
        self.tlud = bench.default_estimators()["tlud"]
        # The estimator sees only the samples; their first rotation tells
        # which trial they belong to.
        self.trials = {}
        for si, scen in enumerate(self.scenarios):
            for t in range(scen.n_trials):
                samples, truth = bench.generate_trial(scen, t)
                self.trials[samples[0].tobytes()] = (si, t, truth)
        self.records: list = []
        self._op_span = contextlib.nullcontext

    def estimator(self, samples):
        key = samples[0].tobytes()
        t0 = time.perf_counter()
        result = None
        try:
            with self._op_span():
                result = self.tlud(samples)
        finally:
            # list.append is atomic, so pool threads could share it too
            self.records.append((key, result, time.perf_counter() - t0))
        return result

    def call(self, k: int, op_span):
        self._op_span = op_span
        self.records = []
        return bench.sweep(self.scenarios, {"tlud": self.estimator}, n_workers=self.workers)

    def check(self, k: int, rows, seconds: float):
        errors = [np.full(s.n_trials, np.nan) for s in self.scenarios]
        ops, problems = [], []
        for key, result, latency in self.records:
            if key not in self.trials:
                problems.append("estimator received samples that generate_trial does not produce")
                continue
            si, t, truth = self.trials[key]
            err = math.inf if result is None else angle_deg(result.estimate, truth)
            errors[si][t] = err
            ops.append(Op(latency, err, err <= FAILURE_DEG))
        for si, row in enumerate(rows):
            if np.isnan(errors[si]).any():
                problems.append(f"scenario {si}: some trials never reached the estimator")
            failures = int(np.sum(errors[si] > FAILURE_DEG))
            if failures != row.report.failure_count:
                problems.append(
                    f"scenario {si}: {failures} trials over {FAILURE_DEG} deg, "
                    f"report says {row.report.failure_count}"
                )
            if not self.same_as_before(si, errors[si].tobytes()):
                problems.append(f"scenario {si}: errors changed on repeat")
        return ops, problems


class RegisterCloud(_Repeatable):
    """`rotavg register <cloud>` in scenario mode, in-process, 2 workers."""

    name = "register_cloud"
    fractions = (0.90, 0.96)
    # Harvest pool width: the core count of the 2-core machine the workload
    # was defined on.  An op takes about 190 ms, so the pool's scheduling
    # jitter stays small next to it.
    workers = 2

    def __init__(self, seed: int, cycle: int = 32) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cycle = cycle
        seeds = rng.integers(0, 2**31, size=cycle)
        self.cases = [(self.fractions[k % 2], int(seeds[k])) for k in range(cycle)]
        self.truths = [registration.make_scenario(s, f).rotation for f, s in self.cases]

    def call(self, k: int, op_span):
        f, s = self.cases[k % self.cycle]
        argv = ["register", CLOUD, "--outlier-fraction", repr(f), "--seed", str(s)]
        return _run_cli([*argv, "--workers", str(self.workers)], op_span)

    def check(self, k: int, raw, seconds: float):
        i = k % self.cycle
        rc, text = raw
        if rc != 0:
            return [Op(seconds, math.inf, False)], []
        estimate = np.array(json.loads(text)["estimate"]).reshape(3, 3)
        problems = []
        if not self.same_as_before(i, text):
            problems.append(f"case {i}: output changed on repeat")
        err = angle_deg(estimate, self.truths[i])
        return [Op(seconds, err, err <= REGISTER_LIMIT_DEG[self.cases[i][0]])], problems


def make(name: str, seed: int, workdir: str):
    """Set up the named workload at its defined size."""
    if name == Sparse10k.name:
        return Sparse10k(seed)
    if name == DenseFile3k.name:
        return DenseFile3k(seed, workdir)
    if name == DeskSweep.name:
        return DeskSweep(seed)
    if name == RegisterCloud.name:
        return RegisterCloud(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (Sparse10k.name, DenseFile3k.name, DeskSweep.name, RegisterCloud.name)
