import json
import math
import os
import warnings

import numpy as np
import pytest

from rotavg import bench, so3
from rotavg.cli import main
from rotavg.fileio import (
    CloudFormatError,
    RotationFormatError,
    RotationInvariantError,
    load_cloud,
    read_ply,
    read_rotations,
    read_xyz,
    write_rotations,
)

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "rotations_100.txt")
FIXTURE_TRUTH = os.path.join(HERE, "data", "rotations_100_truth.txt")
STANDIN = os.path.join(HERE, "..", "data", "standin_cloud.xyz")


def random_rotations(rng, n):
    return so3.exp_map(rng.normal(size=(n, 3)))


def write_xyz(path, points):
    with open(path, "w") as fh:
        for p in points:
            fh.write(" ".join(f"{v:.17g}" for v in p) + "\n")


def binary_ply() -> bytes:
    """A little-endian binary PLY of two vertices; its body is not valid UTF-8."""
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    return header.encode() + np.array([[0.5, -2.5, 3.0], [1.0, -1.0, 0.25]], "<f4").tobytes()


# --------------------------------------------------------------------------
# rotation files


def test_write_read_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(90)
    rots = random_rotations(rng, 40)
    path = tmp_path / "rots.txt"
    write_rotations(path, rots, header="round\ntrip")
    back, repaired = read_rotations(path)
    assert repaired == 0
    assert np.array_equal(back, rots)  # %.17g keeps every bit of a float64
    # header came out as comments
    first = path.read_text().splitlines()[0]
    assert first == "# round"


def test_read_rotations_format_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n1 0 0 0 1 0 0 0 1\n1 0 0 0 1 0 0\n")
    with pytest.raises(RotationFormatError) as exc:
        read_rotations(path)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)

    path.write_text("1 0 0 0 1 0 0 0 banana\n")
    with pytest.raises(RotationFormatError) as exc:
        read_rotations(path)
    assert exc.value.line == 1

    path.write_text("1 0 0 0 nan 0 0 0 1\n")
    with pytest.raises(RotationFormatError):
        read_rotations(path)

    # a byte-order mark and an undecodable byte in a comment are harmless;
    # one on a data line fails that line, in an ASCII-only message
    identity = b"1 0 0 0 1 0 0 0 1\n"
    path.write_bytes(b"\xef\xbb\xbf" + identity + b"# caf\xe9\n" + identity)
    assert np.array_equal(read_rotations(path)[0], np.broadcast_to(np.eye(3), (2, 3, 3)))
    path.write_bytes(identity + b"1 0 0 0 1 0 0 0 \xff1\n")
    with pytest.raises(RotationFormatError, match=r"\\udcff") as exc:
        read_rotations(path)
    assert exc.value.line == 2
    assert str(exc.value).isascii()


def test_read_rotations_quat(tmp_path):
    path = tmp_path / "q.txt"
    c = math.cos(math.pi / 4.0)
    s = math.sin(math.pi / 4.0)
    path.write_text(f"1 0 0 0\n{c} 0 0 {s}\n2 0 0 0\n")
    rots, repaired = read_rotations(path, fmt="quat")
    assert repaired == 0
    assert np.allclose(rots[0], np.eye(3), atol=1e-15)
    quarter_turn_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(rots[1], quarter_turn_z, atol=1e-15)
    # unnormalized input is normalized on read, not rejected
    assert np.allclose(rots[2], np.eye(3), atol=1e-15)

    path.write_text("0 0 0 0\n")
    with pytest.raises(RotationFormatError):
        read_rotations(path, fmt="quat")

    path.write_text("1 0 0\n")
    with pytest.raises(RotationFormatError):
        read_rotations(path, fmt="quat")

    with pytest.raises(ValueError):
        read_rotations(path, fmt="euler")


def test_read_rotations_quat_read_back(tmp_path):
    rng = np.random.default_rng(92)
    rots = random_rotations(rng, 40)
    q = so3.matrix_to_quaternion(rots)
    q[::3] *= -2.5  # sign and scale are free in the file
    path = tmp_path / "q.txt"
    path.write_text("# w x y z\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in q))
    back, repaired = read_rotations(path, fmt="quat")
    assert repaired == 0
    assert back.shape == (40, 3, 3)
    assert np.abs(back - rots).max() < 1e-14
    path.write_text("")
    assert read_rotations(path, fmt="quat")[0].shape == (0, 3, 3)


def test_rotation_invariant_error_is_not_a_rotation():
    # one error type for "not a rotation", whether it comes from a file
    # line or from a library call
    assert issubclass(RotationInvariantError, so3.NotARotation)
    err = RotationInvariantError(4, "bad")
    assert err.line == 4 and "line 4" in str(err)


def test_read_rotations_repair(tmp_path):
    rng = np.random.default_rng(91)
    good = random_rotations(rng, 1)[0]
    near = good + rng.normal(0.0, 1e-3, size=(3, 3))
    path = tmp_path / "near.txt"
    write_rotations(path, [good, near])

    with pytest.raises(RotationInvariantError) as exc:
        read_rotations(path)
    assert exc.value.line == 2

    rots, repaired = read_rotations(path, repair=True)
    assert repaired == 1
    assert so3.is_rotation(rots).all()
    assert np.allclose(rots[1], good, atol=1e-2)

    # a rank-deficient row is beyond repair
    path.write_text("1 0 0 1 0 0 1 0 0\n")
    with pytest.raises(RotationInvariantError):
        read_rotations(path, repair=True)


# --------------------------------------------------------------------------
# cloud files


def test_read_xyz_strictness(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n0 0 0\n1.5 -2 3e-1\n")
    pts = read_xyz(path)
    assert np.array_equal(pts, [[0, 0, 0], [1.5, -2.0, 0.3]])

    for bad in ("0 0\n", "0 0 0 0\n", "0 0 zero\n", "0 0 inf\n", "# only comments\n"):
        path.write_text(bad)
        with pytest.raises(CloudFormatError):
            read_xyz(path)

    path.write_bytes(b"\xef\xbb\xbf# \xe9t\xe9\n1 2 3\n")
    assert np.array_equal(read_xyz(path), [[1, 2, 3]])
    assert np.array_equal(load_cloud(path), [[1, 2, 3]])
    path.write_bytes(b"1 2 3\n4 \xff 6\n")
    with pytest.raises(CloudFormatError, match="line 2"):
        read_xyz(path)


PLY_TEXT = """ply
format ascii 1.0
comment handmade
element dummy 2
property float a
element vertex 4
property float confidence
property float x
property float y
property float z
element face 2
property list uchar int vertex_indices
end_header
9
8
0.5 0 0 0
0.5 1 0 0
0.5 1 1 0
0.5 0 0 1
3 0 1 2
3 0 2 3
"""


def test_read_ply_skips_other_elements_and_reorders_columns(tmp_path):
    path = tmp_path / "mesh.ply"
    path.write_text(PLY_TEXT)
    pts = read_ply(path)
    assert np.array_equal(pts, [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 1]])


def test_read_ply_rejections(tmp_path):
    path = tmp_path / "bad.ply"

    path.write_text(PLY_TEXT.replace("format ascii 1.0", "format binary_little_endian 1.0"))
    with pytest.raises(CloudFormatError):
        read_ply(path)

    path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n")
    with pytest.raises(CloudFormatError):  # no end_header
        read_ply(path)

    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property list uchar float x\nend_header\n1 0\n"
    )
    with pytest.raises(CloudFormatError):  # list property inside vertex
        read_ply(path)

    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float a\nproperty float b\nend_header\n0 0\n"
    )
    with pytest.raises(CloudFormatError):  # no x/y/z
        read_ply(path)

    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
    )
    with pytest.raises(CloudFormatError):  # truncated vertex data
        read_ply(path)

    path.write_text("0 0 0\n")
    with pytest.raises(CloudFormatError):  # xyz handed to the ply reader
        read_ply(path)

    # a real binary body: the header is rejected before the body is decoded
    path.write_bytes(binary_ply())
    for reader in (read_ply, load_cloud):
        with pytest.raises(CloudFormatError, match="only ASCII PLY is supported"):
            reader(path)

    path.write_bytes(
        b"ply\nformat ascii 1.0\ncomment \xe9\nelement vertex 1\n"
        + _XYZ.encode() + b"\nend_header\n0 \xff 0\n"
    )
    with pytest.raises(CloudFormatError, match="non-numeric") as exc:
        read_ply(path)
    assert str(exc.value).isascii()


_XYZ = "property float x\nproperty float y\nproperty float z"
_FACE = "element face 1\nproperty list uchar int vertex_indices"


@pytest.mark.parametrize(
    "header, body",
    [
        (f"format ascii 1.0\nelement vertex 1\nproperty\n{_XYZ}", "0 0 0"),
        (f"format ascii 1.0\nelement vertex -3\n{_XYZ}", "0 0 0"),
        (f"format ascii 1.0\nelement vertex 0\n{_XYZ}", "0 0 0"),
        (f"format ascii 1.0\nelement vertex\n{_XYZ}", "0 0 0"),
        (f"format ascii 1.0\nelement vertex one\n{_XYZ}", "0 0 0"),
        (f"format ascii 1.0\n{_XYZ}\nelement vertex 1", "0 0 0"),
        (f"element vertex 1\n{_XYZ}", "0 0 0"),
        (f"format ascii 1.0\nelement vertex 1\n{_XYZ}\n{_FACE}", "0 0 0"),
        (f"format ascii 1.0\nelement vertex 1\n{_XYZ}", "0 0"),
        (f"format ascii 1.0\nelement vertex 1\n{_XYZ}", "0 zero 0"),
        (f"format ascii 1.0\n{_FACE}", "3 0 1 2"),
        (f"format ascii 1.0\nelement vertex 1\n{_XYZ}", "0 nan 0"),
    ],
    ids=["bare-property", "negative-count", "no-vertices", "short-element", "bad-count",
         "property-first", "no-format", "ends-in-face", "short-vertex", "non-numeric",
         "no-vertex-element", "non-finite"],
)
def test_read_ply_malformed_header(tmp_path, capsys, header, body):
    path = tmp_path / "bad.ply"
    path.write_text(f"ply\n{header}\nend_header\n{body}\n")
    with pytest.raises(CloudFormatError):
        read_ply(path)
    assert main(["register", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_load_cloud_sniffs_content(tmp_path):
    ply = tmp_path / "a.ply"
    ply.write_text(PLY_TEXT)
    xyz = tmp_path / "b.xyz"
    xyz.write_text("1 2 3\n")
    assert load_cloud(ply).shape == (4, 3)
    assert np.array_equal(load_cloud(xyz), [[1, 2, 3]])
    # content wins over extension
    disguised = tmp_path / "c.xyz"
    disguised.write_text(PLY_TEXT)
    assert load_cloud(disguised).shape == (4, 3)


# --------------------------------------------------------------------------
# cli: average


def test_cli_average_single_identity(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 0 0 0 1 0 0 0 1\n")
    assert main(["average", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inlier_indices"] == [0]
    assert payload["init_index"] == 0
    assert np.allclose(np.reshape(payload["estimate"], (3, 3)), np.eye(3))


def test_cli_average_recovers_fixture_truth(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["average", FIXTURE, "--out-json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout  # file copy is byte-identical
    payload = json.loads(stdout)
    est = np.reshape(payload["estimate"], (3, 3))
    truth, _ = read_rotations(FIXTURE_TRUTH)
    err_deg = math.degrees(so3.geodesic_distance(est, truth[0]))
    assert err_deg < 0.5
    assert len(payload["inlier_indices"]) >= 5
    assert payload["final_cost"] <= 0.5 * 100  # cost is capped per sample


def test_cli_average_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0 0 1 0 0\n")
    assert main(["average", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    near = tmp_path / "near.txt"
    rng = np.random.default_rng(92)
    write_rotations(near, random_rotations(rng, 3) + rng.normal(0.0, 1e-3, (3, 3, 3)))
    assert main(["average", str(near)]) == 3
    capsys.readouterr()

    assert main(["average", str(near), "--repair"]) == 0
    captured = capsys.readouterr()
    assert "repaired 3 near-rotation row(s)" in captured.err
    json.loads(captured.out)

    assert main(["average", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()

    # a path through a file, a name too long for the file system, and an
    # output path that cannot be written after the JSON went to stdout
    for argv in (
        ["average", str(bad / "x")],
        ["average", str(tmp_path / ("x" * 300))],
        ["average", FIXTURE, "--out-json", str(bad / "out.json")],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_average_quat_format(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("1 0 0 0\n1 0 0 0\n")
    assert main(["average", str(path), "--format", "quat"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inlier_indices"] == [0, 1]


def test_cli_average_huge_entries_quietly(tmp_path, capsys):
    # a quaternion whose norm overflows is scaled, not read as the identity
    quat = tmp_path / "q.txt"
    quat.write_text("1e200 1e200 0 0\n")
    mat = tmp_path / "m.txt"
    mat.write_text("1e200 0 0 0 1 0 0 0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["average", str(quat), "--format", "quat"]) == 0
        estimate = np.array(json.loads(capsys.readouterr().out)["estimate"]).reshape(3, 3)
        quarter_turn_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert so3.geodesic_distance(estimate, quarter_turn_x) < 1e-12
        assert main(["average", str(mat)]) == 3
    assert "line 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# cli: bench


def test_cli_bench_no_timing_is_reproducible(tmp_path, capsys):
    argv = [
        "bench", "--n", "40", "--ratio", "0.5", "--sigma", "5", "--trials", "4",
        "--seed", "3", "--no-timing",
    ]
    runs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        assert main(argv + ["--out-csv", str(csv), "--out-json", str(js)]) == 0
        runs.append((capsys.readouterr().out, csv.read_bytes(), js.read_bytes()))
    assert runs[0] == runs[1]
    # runtime column exists but is zeroed when timing is off
    lines = runs[0][1].decode().splitlines()
    assert lines[0] == "method,n_samples,outlier_ratio,sigma_deg,trial,error_deg,runtime_ms"
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_cli_bench_grid_and_methods(capsys):
    assert main([
        "bench", "--n", "30,40", "--ratio", "0.2,0.5", "--trials", "3",
        "--seed", "1", "--methods", "tlud,geodesic_l1", "--no-timing",
    ]) == 0
    out = capsys.readouterr().out
    assert "tlud" in out and "geodesic_l1" in out
    # 2 n-values x 2 ratios = 4 scenarios, 2 methods each
    assert sum("tlud" in line for line in out.splitlines()) >= 4


def test_cli_bench_rejections(capsys):
    assert main(["bench", "--n", "20", "--ratio", "1.0", "--trials", "2"]) == 2
    assert main(["bench", "--n", "20", "--trials", "2", "--methods", "nope"]) == 2
    assert main(["bench", "--n", "0", "--trials", "2"]) == 2
    for sigma in ("nan", "inf"):
        assert main(["bench", "--n", "20", "--trials", "2", "--sigma", sigma]) == 2
        assert "sigma_deg must be finite" in capsys.readouterr().err
    capsys.readouterr()


def test_cli_bench_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "20", "--trials", "2", "--workers", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_bench_desk_preset_passes_the_seed(monkeypatch, capsys):
    # the real preset runs 300 trials at N=1000; a small stand-in checks the wiring
    calls = []

    def small_preset(**seed):
        calls.append(seed)
        return [bench.BenchScenario(30, 0.5, 5.0, 2, seed.get("seed", 7))]

    monkeypatch.setattr(bench, "desk_preset", small_preset)
    assert main(["bench", "--preset", "desk", "--no-timing"]) == 0
    assert main(["bench", "--preset", "desk", "--seed", "3", "--no-timing"]) == 0
    assert calls == [{}, {"seed": 3}]
    assert "tlud" in capsys.readouterr().out


def test_cli_bench_bad_list_argument(capsys):
    # "," leaves no field once the empty ones are dropped, so it would run nothing
    for flag, value in (("--n", "20;30"), ("--n", ","), ("--ratio", ","), ("--sigma", ",")):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, value, "--trials", "2"])
        assert exc.value.code == 2
        assert "not a comma-separated" in capsys.readouterr().err


# --------------------------------------------------------------------------
# cli: register


def test_cli_register_scenario_clean(tmp_path, capsys):
    hyp_path = tmp_path / "hyps.txt"
    assert main([
        "register", STANDIN, "--outlier-fraction", "0", "--noise-sigma", "0",
        "--points", "200", "--hypotheses", "100", "--seed", "5",
        "--out-hypotheses", str(hyp_path),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_hypotheses"] == 100
    assert payload["error_deg"] < 1e-4  # exact data: only the metric floor remains
    hyps, repaired = read_rotations(hyp_path)
    assert repaired == 0
    assert hyps.shape == (100, 3, 3)
    assert so3.is_rotation(hyps).all()


def test_cli_register_two_file_mode(tmp_path, capsys):
    from rotavg import registration

    rng = np.random.default_rng(93)
    src = registration.normalize_cloud(load_cloud(STANDIN), 300, rng)
    scen = registration.make_scenario(seed=21, outlier_fraction=0.0, noise_sigma=0.005)
    dst = registration.corrupt_cloud(src, scen)
    src_path = tmp_path / "src.xyz"
    dst_path = tmp_path / "dst.xyz"
    write_xyz(src_path, src)
    write_xyz(dst_path, dst)

    argv = ["register", str(src_path), str(dst_path), "--hypotheses", "150", "--seed", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert "error_deg" not in payload  # no ground truth in two-file mode
    est = np.reshape(payload["estimate"], (3, 3))
    err_deg = math.degrees(so3.geodesic_distance(est, scen.rotation))
    assert err_deg < 3.0
    # the scenario-mode flags are ignored here, even values scenario mode rejects
    ignored = ["--noise-sigma", "nan", "--outlier-fraction", "5", "--points", "0", "--scale", "9"]
    assert main([*argv, *ignored]) == 0
    assert capsys.readouterr().out == out


def test_cli_register_degenerate_cloud_fails_at_once(tmp_path, capsys):
    line = tmp_path / "line.xyz"
    write_xyz(line, np.linspace(-0.5, 0.5, 300)[:, None] * np.array([0.6, 0.3, 0.2]))
    assert main(["register", str(line), str(line), "--hypotheses", "50"]) == 3
    err = capsys.readouterr().err
    assert "collinear or all coincide" in err and "attempts" not in err


def test_cli_register_missing_file(tmp_path, capsys):
    assert main(["register", "/does/not/exist.xyz"]) == 2
    capsys.readouterr()

    ply = tmp_path / "binary.ply"
    ply.write_bytes(binary_ply())
    for argv in (
        ["register", str(ply / "x")],
        ["register", str(tmp_path / ("x" * 300))],
        ["register", STANDIN, str(tmp_path / ("x" * 300)), "--hypotheses", "10"],
        ["register", STANDIN, "--points", "100", "--hypotheses", "10",
         "--out-json", str(ply / "out.json")],
        ["register", STANDIN, "--points", "100", "--hypotheses", "10",
         "--out-hypotheses", str(ply / "h.txt")],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["register", str(ply)]) == 2
    assert "only ASCII PLY is supported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--ratio-tol", "nan", "ratio_tolerance"),
        ("--noise-sigma", "nan", "noise_sigma"),
        ("--noise-sigma", "inf", "noise_sigma"),
    ],
)
def test_cli_register_rejects_non_finite_parameters(capsys, flag, value, name):
    assert main(["register", STANDIN, "--points", "100", "--hypotheses", "10", flag, value]) == 2
    assert name in capsys.readouterr().err


def test_cli_register_seeded_runs_match(tmp_path, capsys):
    argv = [
        "register", STANDIN, "--outlier-fraction", "0.8", "--points", "300",
        "--hypotheses", "120", "--seed", "9",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_register_tlud_flags(tmp_path, capsys):
    argv = [
        "register", STANDIN, "--outlier-fraction", "0.8", "--points", "300",
        "--hypotheses", "300", "--seed", "4",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    defaults = ["--epsilon-c", "0.5", "--delta", "0.001", "--it-max", "10", "--realternate", "0"]
    assert main([*argv, *defaults]) == 0
    assert capsys.readouterr().out == plain
    assert main([*argv, "--epsilon-c", "0.2"]) == 0
    tight = json.loads(capsys.readouterr().out)
    assert tight["inlier_count"] != json.loads(plain)["inlier_count"]
