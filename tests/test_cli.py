"""Command-line entry point: exit codes, report schema, and precedence."""

import json
import subprocess
import sys as _sys

import numpy as np
import pytest

import oracles
from ndsys import Box, LatticeSignal, TruncatedLPVector, canonical_fixture
from ndsys import serialization as ser
from ndsys.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if code == 0 else None
    return code, report, captured.err


def write(tmp_path, name, obj):
    # the standard library writer: it also writes the NaN and Infinity
    # input files that the CLI must refuse
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def impulse_file(tmp_path):
    sig = LatticeSignal(2, 1, {(0, 0): np.array([1.0 + 0j])})
    return write(tmp_path, "impulse.json", ser.signal_to_json(sig))


def test_check_builtin_system(capsys):
    code, report, _ = run(capsys, ["check", "builtin:alpha"])
    assert code == 0
    assert report["schema"] == "ndsys/1"
    assert report["command"] == "check"
    assert report["results"]["violations"] == []
    assert report["results"]["conservativity"]["passed"] is True
    assert abs(report["results"]["torus_scan"]["max_norm"] - 1.0) <= 1e-9
    cc = report["results"]["closely_connected"]
    assert cc["dim_state"] == 1 and cc["dim_connected"] == 1
    assert report["inputs"][0]["sha256"]


def test_report_is_deterministic_up_to_timing(capsys):
    _, first, _ = run(capsys, ["check", "builtin:alpha_prime"])
    _, second, _ = run(capsys, ["check", "builtin:alpha_prime"])
    del first["timing"], second["timing"]
    assert first == second


def test_unknown_builtin_is_an_input_error(capsys):
    code, _, err = run(capsys, ["check", "builtin:gamma"])
    assert code == 2
    assert "input error" in err


def test_missing_file_is_an_input_error(capsys, tmp_path):
    absent = str(tmp_path / "absent.json")
    impulse = impulse_file(tmp_path)
    sim = ["simulate", "builtin:alpha", "--box", "0:2,0:2", "--nmax", "1"]
    for argv in (
        ["check", absent],
        sim + ["--input", absent],
        sim + ["--input", impulse, "--init", absent],
        ["transfer", "builtin:alpha", "--points", absent],
        ["laxphillips", "builtin:alpha", "--op", "gamma", "--vector", absent],
        ["realize", absent],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "input error" in err and "no such file" in err, argv


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, ["check", str(bad)])
    assert code == 2
    assert "input error" in err


def test_inconsistent_system_file_is_an_input_error(capsys, tmp_path):
    from importlib import resources

    obj = json.loads(
        resources.files("ndsys").joinpath("data/alpha.json").read_text()
    )
    obj["B"][0] = [[[1.0, 0.0], [0.0, 0.0]]]  # 1x2 block breaks the shapes
    code, _, err = run(capsys, ["check", write(tmp_path, "broken.json", obj)])
    assert code == 2
    assert "input error" in err


def test_simulate_writes_the_energy_ledger(capsys, tmp_path):
    csv_path = tmp_path / "energy.csv"
    code, report, _ = run(
        capsys,
        [
            "simulate",
            "builtin:alpha",
            "--input",
            impulse_file(tmp_path),
            "--box",
            "0:3,0:3",
            "--nmax",
            "2",
            "--energy",
            str(csv_path),
        ],
    )
    assert code == 0
    assert report["results"]["octant_exact"] is True
    assert report["results"]["energy"]["conservative_consistent"] is True
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,E_minus,E_plus,E_x,lhs,rhs,contaminated"
    assert lines[1] == "1,1.0,0.0,1.0,1.0,1.0,0"
    assert lines[2] == "2,0.0,1.0,0.0,-1.0,-1.0,0"


def test_simulate_routes_agree(capsys, tmp_path):
    argv = [
        "simulate",
        "builtin:alpha_prime",
        "--input",
        impulse_file(tmp_path),
        "--box",
        "0:4,0:4",
        "--nmax",
        "3",
    ]
    _, direct, _ = run(capsys, argv)
    _, closed, _ = run(capsys, argv + ["--closed-form"])
    assert direct["results"]["evaluator"] == "recursion"
    assert closed["results"]["evaluator"] == "closed_form"
    a = {tuple(e["t"]): e["v"] for e in direct["results"]["states"]["entries"]}
    b = {tuple(e["t"]): e["v"] for e in closed["results"]["states"]["entries"]}
    assert set(a) == set(b)
    for t, v in a.items():
        assert np.allclose(np.asarray(v, dtype=float), np.asarray(b[t], dtype=float), atol=1e-10)


def test_simulate_accepts_negative_boxes(capsys, tmp_path):
    sig = LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j])})
    code, report, _ = run(
        capsys,
        [
            "simulate",
            "builtin:alpha",
            "--input",
            write(tmp_path, "offoctant.json", ser.signal_to_json(sig)),
            "--box=-2:2,-2:2",
            "--nmax",
            "2",
        ],
    )
    assert code == 0
    assert report["results"]["octant_exact"] is False


def test_simulate_dimension_mismatch_is_an_input_error(capsys, tmp_path):
    wide = LatticeSignal(2, 3, {(0, 0): np.ones(3, dtype=complex)})
    code, _, err = run(
        capsys,
        [
            "simulate",
            "builtin:alpha",
            "--input",
            write(tmp_path, "wide.json", ser.signal_to_json(wide)),
            "--box",
            "0:2,0:2",
            "--nmax",
            "1",
        ],
    )
    assert code == 2
    assert "input error" in err


def test_transfer_at_listed_points(capsys, tmp_path):
    pts = write(tmp_path, "pts.json", [[[0.3, 0.0], [0.0, -0.7]]])
    code, report, _ = run(
        capsys,
        ["transfer", "builtin:alpha", "--points", pts, "--series-terms", "8", "--coeffs", "3"],
    )
    assert code == 0
    (entry,) = report["results"]["points"]
    assert np.allclose(entry["value"], [[[0.0, -0.21]]], atol=1e-12)
    assert report["results"]["series_gap"]["max_truncation_error"] <= 1e-12
    terms = {
        tuple(item["t"]): item["m"]
        for item in report["results"]["maclaurin"]["terms"]
    }
    assert np.allclose(terms[(1, 1)], [[[1.0, 0.0]]], atol=1e-12)


def test_transfer_arity_mismatch_is_an_input_error(capsys, tmp_path):
    pts = write(tmp_path, "pts3.json", [[[0.1, 0.0], [0.1, 0.0], [0.1, 0.0]]])
    code, _, err = run(capsys, ["transfer", "builtin:alpha", "--points", pts])
    assert code == 2
    assert "input error" in err


def test_realize_canonical_data(capsys, tmp_path):
    data = write(
        tmp_path, "canon.json", ser.agler_to_json(canonical_fixture(grid_points=30))
    )
    code, report, _ = run(capsys, ["realize", data])
    assert code == 0
    res = report["results"]
    assert res["identity"]["passed"] is True
    assert res["state_dim"] == 1
    assert res["conservative"] is True
    assert res["residuals"]["transfer"] <= 1e-7
    assert res["system"]["dims"] == {"x": 1, "nm": 1, "np": 1}


def test_realize_reports_the_thresholds_it_applied(capsys, tmp_path):
    data = write(
        tmp_path, "canon.json", ser.agler_to_json(canonical_fixture(grid_points=30))
    )
    # the identity check clamps --tol to 1e-8; the assembly keeps its own
    for tol, identity in (("1e-12", 1e-12), ("1e-3", 1e-8)):
        code, report, _ = run(capsys, ["realize", data, "--tol", tol])
        assert code == 0
        assert report["parameters"]["tol"] == float(tol)
        assert report["results"]["thresholds"] == {
            "identity": identity,
            "residual": 1e-8,
            "transfer": 1e-7,
            "rank": 1e-10,
        }


def test_realize_padding_flag(capsys, tmp_path):
    data = write(
        tmp_path, "canon.json", ser.agler_to_json(canonical_fixture(grid_points=30))
    )
    code, report, _ = run(capsys, ["realize", data, "--padding", "2"])
    assert code == 0
    assert report["results"]["state_dim"] == 3


def test_realize_impossible_data_is_a_verification_failure(capsys, tmp_path):
    from ndsys import AglerData, MatrixPolynomial, halton_disc

    half = float(np.sqrt(0.5))
    theta = MatrixPolynomial(
        n=2,
        shape=(1, 2),
        coeffs={(1, 0): np.array([[half, 0.0]]), (0, 1): np.array([[0.0, half]])},
    )
    factors = tuple(
        MatrixPolynomial(n=2, shape=(1, 2), coeffs={(0, 0): np.zeros((1, 2))})
        for _ in range(2)
    )
    data = AglerData(theta=theta, factors=factors, grid=tuple(halton_disc(10, 2, 0.7)))
    path = write(tmp_path, "wide.json", ser.agler_to_json(data))
    code, _, err = run(capsys, ["realize", path])
    assert code == 3
    assert "verification failure" in err


def test_laxphillips_generator_and_gamma(capsys, tmp_path):
    box = Box((-2, -2), (2, 2))
    vec = TruncatedLPVector(
        box,
        LatticeSignal(2, 1, {}),
        LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j])}),
        LatticeSignal(2, 1, {(0, 1): np.array([2.0 + 0j])}),
    )
    vec_path = write(tmp_path, "vec.json", ser.lp_vector_to_json(vec))
    code, report, _ = run(
        capsys,
        ["laxphillips", "builtin:alpha", "--op", "generator", "--vector", vec_path, "--k", "0"],
    )
    assert code == 0
    assert "mask" in report["results"]

    code, report, _ = run(
        capsys, ["laxphillips", "builtin:alpha", "--op", "gamma", "--vector", vec_path]
    )
    assert code == 0
    out = ser.json_to_lp_vector(report["results"]["vector"])
    assert np.allclose(out.u_plus.value((0, -1)), [2.0])


def _report_argv(tmp_path, command):
    if command == "check":
        return ["check", "builtin:alpha_prime", "--samples", "64"]
    if command == "simulate":
        sig = LatticeSignal(2, 1, {(0, 0): np.array([1.0 + 0.5j]), (-1, 2): np.array([-0.0j])})
        init = LatticeSignal(2, 1, {(1, -1): np.array([1e-310 - 2.5j])})
        paths = [
            write(tmp_path, name, ser.signal_to_json(s))
            for name, s in (("input.json", sig), ("init.json", init))
        ]
        return ["simulate", "builtin:alpha", "--input", paths[0], "--init", paths[1],
                "--box=-2:3,-1:3", "--nmax", "4"]
    vec = TruncatedLPVector(
        Box((-2, -2), (2, 2)),
        LatticeSignal(2, 1, {(-1, 0): np.array([0.25 - 1j])}),
        LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j]), (0, 0): np.array([1e-300j])}),
        LatticeSignal(2, 1, {(0, 1): np.array([2.0 + 0j])}),
    )
    path = write(tmp_path, "vec.json", ser.lp_vector_to_json(vec))
    return ["laxphillips", "builtin:alpha", "--op", command, "--vector", path, "--k", "1"]


@pytest.mark.parametrize("command", ["check", "simulate", "generator", "adjoint", "gamma"])
def test_report_bytes_match_the_reference_writer(capsys, tmp_path, monkeypatch, command):
    argv = _report_argv(tmp_path, command)
    reports = []

    def recording(obj, dump=ser.dump):
        reports.append(obj)
        return dump(obj)

    monkeypatch.setattr(ser, "dump", recording)
    assert main(argv) == 0
    (report,) = reports
    assert capsys.readouterr().out == oracles.dump_reference(report) + "\n"


def test_laxphillips_commute_and_metric(capsys):
    code, report, _ = run(
        capsys,
        ["laxphillips", "builtin:alpha_prime", "--op", "commute", "--box=-3:3,-3:3", "--j", "1"],
    )
    assert code == 0
    assert report["results"]["commutation_residual"] <= 1e-12

    code, report, _ = run(
        capsys,
        ["laxphillips", "builtin:alpha_prime", "--op", "metric", "--box=-3:3,-3:3"],
    )
    assert code == 0
    assert report["results"]["isometric"] is True


def test_laxphillips_associated_view(capsys):
    code, report, _ = run(
        capsys,
        ["laxphillips", "builtin:alpha", "--op", "associated", "--box=-1:1,-1:1", "--k", "1"],
    )
    assert code == 0
    front = [tuple(t) for t in report["results"]["front"]]
    assert front == [(-1, 1), (0, 0), (1, -1)]
    a = np.asarray(report["results"]["A"], dtype=float)
    assert a.shape == (3, 3, 2)


def test_laxphillips_vector_required(capsys):
    code, _, err = run(capsys, ["laxphillips", "builtin:alpha", "--op", "generator"])
    assert code == 2
    assert "input error" in err


def test_tol_default_env_config_flag_precedence(capsys, tmp_path, monkeypatch):
    _, report, _ = run(capsys, ["check", "builtin:alpha"])
    assert report["parameters"]["tol"] == 1e-9

    monkeypatch.setenv("NDSYS_TOL", "1e-7")
    _, report, _ = run(capsys, ["check", "builtin:alpha"])
    assert report["parameters"]["tol"] == 1e-7

    config = write(tmp_path, "config.json", {"tol": 1e-6, "seed": 5})
    _, report, _ = run(capsys, ["check", "builtin:alpha", "--config", config])
    assert report["parameters"]["tol"] == 1e-6
    assert report["parameters"]["seed"] == 5

    _, report, _ = run(
        capsys, ["check", "builtin:alpha", "--config", config, "--tol", "1e-5"]
    )
    assert report["parameters"]["tol"] == 1e-5
    assert report["parameters"]["seed"] == 5


def test_config_with_unknown_key_is_an_input_error(capsys, tmp_path):
    config = write(tmp_path, "config.json", {"tolerance": 1e-6})
    code, _, err = run(capsys, ["check", "builtin:alpha", "--config", config])
    assert code == 2
    assert "input error" in err


def test_bad_env_tol_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("NDSYS_TOL", "loose")
    code, _, err = run(capsys, ["check", "builtin:alpha"])
    assert code == 2
    assert "input error" in err


def test_simulate_rejects_non_finite_input(capsys, tmp_path):
    obj = json.loads(ser.dump(ser.signal_to_json(LatticeSignal(2, 1, {(0, 0): np.ones(1)}))))
    obj["entries"][0]["v"][0][0] = float("nan")
    argv = ["simulate", "builtin:alpha", "--input", write(tmp_path, "nan.json", obj)]
    code, _, err = run(capsys, argv + ["--box", "0:3,0:3", "--nmax", "2"])
    assert code == 2
    assert "input error" in err and "non-finite" in err


def test_laxphillips_rejects_non_finite_vector(capsys, tmp_path):
    vec = TruncatedLPVector(
        Box((-2, -2), (2, 2)),
        LatticeSignal(2, 1, {}),
        LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j])}),
        LatticeSignal(2, 1, {}),
    )
    obj = ser.lp_vector_to_json(vec)
    obj["y"]["entries"][0]["v"][0][1] = float("inf")
    argv = ["laxphillips", "builtin:alpha", "--op", "generator"]
    code, _, err = run(capsys, argv + ["--vector", write(tmp_path, "inf.json", obj)])
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_transfer_rejects_non_finite_points(capsys, tmp_path, bad):
    pts = write(tmp_path, "pts.json", [[[0.1, 0.0], [0.2, 0.0]], [[float(bad), 0.0], [0.1, 0.0]]])
    code, report, err = run(capsys, ["transfer", "builtin:alpha", "--points", pts])
    assert code == 2 and report is None
    assert "input error" in err and "non-finite" in err


def non_finite_system_file(tmp_path):
    from importlib import resources

    obj = json.loads(
        resources.files("ndsys").joinpath("data/alpha_prime.json").read_text()
    )
    obj["A"][1][0][0] = [float("nan"), 0.0]
    return write(tmp_path, "nan_system.json", obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["transfer", "--series-terms", "3"],
        ["laxphillips", "--op", "metric", "--box", "0:2,0:2"],
    ],
)
def test_non_finite_system_file_is_an_input_error(capsys, tmp_path, argv):
    path = non_finite_system_file(tmp_path)
    code, report, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert code == 2 and report is None
    assert "input error" in err and "non-finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tol_is_an_input_error(capsys, tol):
    code, report, err = run(capsys, ["check", "builtin:alpha", f"--tol={tol}"])
    assert code == 2 and report is None
    assert "input error" in err and "tol" in err


def test_non_finite_tol_from_env_or_config_is_an_input_error(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text('{"tol": NaN}')
    code, _, err = run(capsys, ["check", "builtin:alpha", "--config", str(config)])
    assert code == 2 and "tol" in err

    monkeypatch.setenv("NDSYS_TOL", "inf")
    code, _, err = run(capsys, ["check", "builtin:alpha"])
    assert code == 2 and "tol" in err


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_result_is_an_input_error(capsys, tmp_path):
    one = [[[1.0, 0.0]]]
    system = {
        "n": 1, "dims": {"x": 1, "nm": 1, "np": 1},
        "A": [[[[1e200, 0.0]]]], "B": [one], "C": [one], "D": [[[[0.0, 0.0]]]],
    }
    impulse = ser.signal_to_json(LatticeSignal(1, 1, {(0,): np.ones(1)}))
    argv = ["simulate", write(tmp_path, "big.json", system)]
    argv += ["--input", write(tmp_path, "impulse.json", impulse), "--box", "0:4", "--nmax", "4"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: report is not strict JSON" in captured.err


@pytest.mark.parametrize("part", ["theta", "grid"])
def test_realize_rejects_non_finite_data(capsys, tmp_path, part):
    obj = ser.agler_to_json(canonical_fixture(grid_points=30))
    if part == "theta":
        obj["theta"]["terms"][0]["m"][0][0] = [float("nan"), 0.0]
    else:
        obj["grid"][3][0] = [float("inf"), 0.0]
    code, report, err = run(capsys, ["realize", write(tmp_path, "bad.json", obj)])
    assert code == 2 and report is None
    assert "input error" in err and "non-finite" in err


def test_non_finite_residual_is_still_a_verification_failure(capsys, tmp_path, monkeypatch):
    from ndsys import RealizationError, realization

    def failing(*args, **kwargs):
        raise RealizationError("residuals above threshold", report={"transfer": float("nan")})

    monkeypatch.setattr(realization, "assemble_colligation", failing)
    data = write(tmp_path, "canon.json", ser.agler_to_json(canonical_fixture(grid_points=30)))
    code, report, err = run(capsys, ["realize", data])
    assert code == 3 and report is None
    assert "verification failure" in err and "'transfer': nan" in err


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [_sys.executable, "-m", "ndsys", "check", "builtin:alpha"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "ndsys/1"
