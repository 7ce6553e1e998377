"""The batched file readers against the line-at-a-time reference readers.

Generated mat9, quat and xyz files mix comments, blank lines and up to three
defects at random lines.  Both readers must agree on everything a caller
can see: the exception class, its .line and message, or the array bytes and
the repaired count.  With several defects the earliest bad line wins.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import read_rotations_lines, read_xyz_lines
from rotavg import so3
from rotavg.fileio import read_rotations, read_xyz

N_FIELDS = {"mat9": 9, "quat": 4, "xyz": 3}
DEFECTS = {
    "mat9": ("fields", "token", "nonfinite", "off", "degenerate", "zero"),
    "quat": ("fields", "token", "nonfinite", "zero"),
    "xyz": ("fields", "token", "nonfinite"),
}
BAD_TOKENS = ("banana", "1,0", "--1", "0x1p0", "1e", "1_0", "#1")
NONFINITE_TOKENS = ("nan", "inf", "-inf", "Infinity", "NaN", "-nan")
# the rank-1, zero and reflection-ambiguous matrices have no unique projection
DEGENERATE_ROWS = ("1 0 0 1 0 0 1 0 0", "0 0 0 0 0 0 0 0 0", "1 0 0 0 0.5 0 0 0 -0.5")
FILLER = ("", "   ", "#", "# comment 1 2 3", "  # indented comment", "\t")


def _values(fmt: str, rng: np.random.Generator) -> np.ndarray:
    if fmt == "xyz":
        return rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
    R = so3.exp_map(rng.normal(size=3))
    if fmt == "quat":  # sign and scale are free in the file
        return so3.matrix_to_quaternion(R) * rng.choice([-2.5, 1.0, 1e-3])
    return R.ravel()


def _data_line(fmt: str, defect: str | None, rng: np.random.Generator) -> str:
    values = _values(fmt, rng)
    if defect == "off":  # a near-miss that repair projects back
        values = values + rng.normal(0.0, 1e-3, size=values.shape)
    if defect == "degenerate":
        return str(rng.choice(DEGENERATE_ROWS))
    if defect == "zero":  # for mat9 also a matrix too degenerate to repair
        return " ".join([str(rng.choice(["0", "1e-13"]))] + ["0"] * (N_FIELDS[fmt] - 1))
    tokens = [repr(float(v)) if rng.random() < 0.5 else f"{v:.17g}" for v in values]
    k = int(rng.integers(len(tokens)))
    if defect == "fields":
        tokens = tokens[:-1] if rng.random() < 0.5 else tokens + ["0"]
    elif defect == "token":
        tokens[k] = str(rng.choice(BAD_TOKENS))
    elif defect == "nonfinite":
        tokens[k] = str(rng.choice(NONFINITE_TOKENS))
    sep = str(rng.choice([" ", "  ", "\t"]))
    return sep.join(tokens) + (" " if rng.random() < 0.2 else "")


@st.composite
def text_files(draw, fmt: str) -> str:
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(0, 25))
    defects = draw(st.lists(st.sampled_from(DEFECTS[fmt]), max_size=3))
    at = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=len(defects), max_size=len(defects)))
    rng = np.random.default_rng(seed)
    plan = {}
    for row, defect in zip(at, defects):
        if row < n:
            plan[row] = defect
    lines = []
    for row in range(n):
        while rng.random() < 0.3:
            lines.append(str(rng.choice(FILLER)))
        lines.append(_data_line(fmt, plan.get(row), rng))
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


def _outcome(read, path):
    try:
        result = read(path)
    except Exception as exc:  # the exception itself is what is compared
        return ("raised", type(exc), getattr(exc, "line", None), str(exc))
    if isinstance(result, tuple):
        array, repaired = result
    else:
        array, repaired = result, None
    return ("returned", array.shape, array.dtype, array.tobytes(), repaired)


PARITY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize(
    "fmt, repair", [("mat9", False), ("mat9", True), ("quat", False)], ids=["mat9", "mat9-repair", "quat"]
)
@PARITY
@given(data=st.data())
def test_read_rotations_matches_line_reader(tmp_path, fmt, repair, data):
    path = tmp_path / "rotations.txt"
    path.write_text(data.draw(text_files(fmt)))
    expected = _outcome(lambda p: read_rotations_lines(p, fmt=fmt, repair=repair), path)
    got = _outcome(lambda p: read_rotations(p, fmt=fmt, repair=repair), path)
    assert got == expected


@PARITY
@given(text=text_files("xyz"))
def test_read_xyz_matches_line_reader(tmp_path, text):
    path = tmp_path / "cloud.xyz"
    path.write_text(text)
    assert _outcome(read_xyz, path) == _outcome(read_xyz_lines, path)


def test_earliest_bad_line_wins(tmp_path):
    # a non-rotation on line 2 comes before a short line on line 4
    path = tmp_path / "two_defects.txt"
    path.write_text("1 0 0 0 1 0 0 0 1\n1 0 0 0 1 0 0 0 2\n# c\n1 0 0\n")
    for read in (read_rotations, read_rotations_lines):
        with pytest.raises(so3.NotARotation) as exc:
            read(path)
        assert exc.value.line == 2
