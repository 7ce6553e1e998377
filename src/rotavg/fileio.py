"""Readers and writers for rotation lists and point clouds.

Rotation files are plain text, one sample per line, either nine
row-major matrix entries (``mat9``) or a ``w x y z`` quaternion
(``quat``).  Lines starting with ``#`` and blank lines are skipped.
Clouds load from ``.xyz`` (three columns per line) or ASCII ``.ply``.
Text decodes as UTF-8 (BOM optional); a bad byte fails only a line that needs it.
"""

from __future__ import annotations

import os

import numpy as np

from rotavg import so3

__all__ = [
    "RotationFormatError",
    "RotationInvariantError",
    "CloudFormatError",
    "read_rotations",
    "write_rotations",
    "read_xyz",
    "read_ply",
    "load_cloud",
]

class RotationFormatError(ValueError):
    """A rotation file line could not be parsed.  .line is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class RotationInvariantError(so3.NotARotation):
    """A parsed value is not a valid rotation.  .line is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class CloudFormatError(ValueError):
    """A point-cloud file could not be parsed."""


def _read_rows(path, k: int, error):
    """Tokenize a file's non-blank, non-# lines with split() and float().

    Reading stops at the first line that is not k numbers.  Its error,
    error(line, message), comes back unraised as the third item, after the
    (N, k) array and the rows' 1-based line numbers: a bad value on an
    earlier row wins.
    """
    rows, lines, deferred = [], [], None
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != k:
                deferred = error(lineno, f"expected {k} fields, got {len(fields)}")
                break
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                deferred = error(lineno, f"non-numeric field in {text!r}")
                break
            lines.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, k), lines, deferred


def _raise_first(lines, deferred, *checks) -> None:
    """Raise for the earliest row failing a check, else raise deferred.

    checks are (row mask, error, message) tuples, where error(line, message)
    builds the exception, in the order one line is checked: a row failing
    several reports the first, and the file reports what a line-at-a-time
    reader would.
    """
    failed = [(int(np.argmax(mask)), i) for i, (mask, _, _) in enumerate(checks) if mask.any()]
    if failed:
        row, i = min(failed)
        raise checks[i][1](lines[row], checks[i][2])
    if deferred is not None:
        raise deferred


def read_rotations(path, fmt: str = "mat9", repair: bool = False):
    """Read a rotation list from a text file.

    Args:
        path: file to read.
        fmt: "mat9" (nine row-major entries per line) or "quat"
            ("w x y z", normalized on read).
        repair: for mat9, project near-miss rows back onto a rotation
            instead of rejecting them.

    Returns:
        (rotations, repaired_count): an (N, 3, 3) array and how many rows
        needed repair (always 0 for quat input).

    Raises:
        RotationFormatError: a line has the wrong field count or a
            non-numeric field (or a zero-norm quaternion).
        RotationInvariantError: a mat9 row is further than
            so3.ROTATION_TOL from a rotation and repair is off (or the row
            is too degenerate to repair).
        Either error names the earliest bad line.
    """
    if fmt not in ("mat9", "quat"):
        raise ValueError(f"fmt must be 'mat9' or 'quat', got {fmt!r}")
    values, lines, deferred = _read_rows(path, 9 if fmt == "mat9" else 4, RotationFormatError)
    finite = np.isfinite(values).all(axis=1)
    nonfinite = (~finite, RotationFormatError, "non-finite value")
    if fmt == "quat":
        with np.errstate(over="ignore"):  # an overflowing norm is not zero
            zero = np.linalg.norm(values, axis=1) < 1e-12
        _raise_first(lines, deferred, nonfinite, (zero, RotationFormatError, "zero-norm quaternion"))
        return so3.quaternion_to_matrix(values), 0
    stack = values.reshape(-1, 3, 3)
    off = np.zeros(len(stack), dtype=bool)
    off[finite] = ~so3.is_rotation(stack[finite], tol=so3.ROTATION_TOL)
    if not repair:
        message = "entries do not form a rotation matrix (use repair to project)"
        _raise_first(lines, deferred, nonfinite, (off, RotationInvariantError, message))
        return stack, 0
    projected, _, unique = so3.nearest_rotations(stack[off])
    stuck = off.copy()
    stuck[off] = ~unique
    message = "matrix is too degenerate to repair"
    _raise_first(lines, deferred, nonfinite, (stuck, RotationInvariantError, message))
    stack[off] = projected
    return stack, int(off.sum())


def write_rotations(path, rotations, header: str | None = None) -> None:
    """Write rotations as mat9 text, one row-major sample per line.

    Entries are printed with repr-faithful precision so a read-back
    reproduces the array bit-for-bit.  An optional header string is written
    as leading '#' comment lines.
    """
    rots = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for r in rots:
            fh.write(" ".join(f"{v:.17g}" for v in r.ravel()) + "\n")


def read_xyz(path) -> np.ndarray:
    """Read an (N, 3) cloud from whitespace-separated x y z lines.

    Lines starting with '#' and blank lines are skipped.  Anything other
    than exactly three finite numbers per line is an error.
    """
    def error(line, message):
        return CloudFormatError(f"line {line}: {message}")

    points, lines, deferred = _read_rows(path, 3, error)
    _raise_first(lines, deferred, (~np.isfinite(points).all(axis=1), error, "non-finite coordinate"))
    if not len(points):
        raise CloudFormatError(f"no points found in {os.fspath(path)}")
    return points


def read_ply(path) -> np.ndarray:
    """Read vertex positions from an ASCII PLY file.

    Only `format ascii` files are supported.  Elements other than `vertex`
    are skipped; list properties inside the vertex element are rejected.
    The result is an (N, 3) array with N >= 1: a malformed header, a
    negative element count and an empty vertex element are all errors.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        magic = fh.readline().strip()
        if magic != "ply":
            raise CloudFormatError("not a PLY file (missing 'ply' magic line)")
        # (element name, count, property names) in declaration order
        elements: list[tuple[str, int, list[str]]] = []
        fmt_seen = False
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("comment"):
                continue
            if line == "end_header":
                break
            fields = line.split()
            if fields[0] == "format":
                if len(fields) < 2 or fields[1] != "ascii":
                    raise CloudFormatError("only ASCII PLY is supported")
                fmt_seen = True
            elif fields[0] == "element":
                if len(fields) != 3:
                    raise CloudFormatError(f"malformed element line: {line!r}")
                try:
                    count = int(fields[2])
                except ValueError:
                    raise CloudFormatError(f"bad element count in {line!r}") from None
                if count < 0:
                    raise CloudFormatError(f"negative element count in {line!r}")
                elements.append((fields[1], count, []))
            elif fields[0] == "property":
                if not elements:
                    raise CloudFormatError("property before any element")
                # "property <type> <name>" or "property list <type> <type> <name>"
                if len(fields) != (5 if fields[1:2] == ["list"] else 3):
                    raise CloudFormatError(f"malformed property line: {line!r}")
                if fields[1] == "list":
                    if elements[-1][0] == "vertex":
                        raise CloudFormatError("list property in vertex element is not supported")
                    elements[-1][2].append("<list>")
                else:
                    elements[-1][2].append(fields[-1])
        else:
            raise CloudFormatError("missing end_header")
        if not fmt_seen:
            raise CloudFormatError("missing format line")

        points = None
        for name, count, props in elements:
            if name != "vertex":
                # Fixed-column elements occupy one line each; list elements
                # do too in practice (count followed by entries).
                for _ in range(count):
                    if fh.readline() == "":
                        raise CloudFormatError("file ends inside a non-vertex element")
                continue
            try:
                cols = [props.index(axis) for axis in ("x", "y", "z")]
            except ValueError:
                raise CloudFormatError("vertex element lacks x/y/z properties") from None
            rows = []
            for i in range(count):
                line = fh.readline()
                if line == "":
                    raise CloudFormatError(f"file ends after {i} of {count} vertices")
                fields = line.split()
                if len(fields) < len(props):
                    raise CloudFormatError(f"vertex line has {len(fields)} fields, expected {len(props)}")
                try:
                    rows.append([float(fields[c]) for c in cols])
                except ValueError:
                    raise CloudFormatError(f"non-numeric vertex coordinate in {line!r}") from None
            points = np.array(rows)
        if points is None:
            raise CloudFormatError("no vertex element in PLY header")
        if not len(points):
            raise CloudFormatError("PLY vertex element has no vertices")
        if not np.isfinite(points).all():
            raise CloudFormatError("non-finite vertex coordinate")
        return points


def load_cloud(path) -> np.ndarray:
    """Read a cloud as PLY when its first line is "ply", else as .xyz; the name is not read."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        first = fh.readline().strip()
    if first == "ply":
        return read_ply(path)
    return read_xyz(path)
