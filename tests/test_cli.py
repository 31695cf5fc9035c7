"""Command-line entry point: exit codes, report schema, and precedence."""

import hashlib
import json
import os
import subprocess
import sys as _sys
import warnings

import numpy as np
import pytest

import gen
import oracles
from ndsys import (
    Box,
    DomainError,
    LatticeSignal,
    MultiLSDS,
    OperatorTuple,
    TruncatedLPVector,
    builtin_examples,
    canonical_fixture,
)
from ndsys import cli
from ndsys import serialization as ser
from ndsys.cli import main
from ndsys.numerics import _largest_norm, halton_disc


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if code == 0 else None
    return code, report, captured.err


def write(tmp_path, name, obj):
    # a string is the file's text, as ``ser.dump(X_to_json(obj))`` writes
    # it; anything else goes through the standard library writer, which also
    # writes the NaN and Infinity input files that the CLI must refuse
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def impulse_file(tmp_path):
    sig = LatticeSignal(2, 1, {(0, 0): np.array([1.0 + 0j])})
    return write(tmp_path, "impulse.json", ser.dump(ser.signal_to_json(sig)))


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


@pytest.mark.parametrize("kind", ["directory", "under a file", "no permission", "not UTF-8"])
def test_an_unreadable_file_is_an_input_error_that_names_it(capsys, tmp_path, monkeypatch, kind):
    impulse = impulse_file(tmp_path)
    bad = str(tmp_path / "bad.json")
    if kind == "directory":
        os.mkdir(bad)
    elif kind == "under a file":
        bad = os.path.join(impulse, "bad.json")
    elif kind == "no permission":
        # a mode of 000 does not stop root, so the refusal is simulated
        def refuse(path, *args, **kwargs):
            if path == bad:
                raise PermissionError(13, "Permission denied", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ser, "open", refuse, raising=False)
    else:
        with open(bad, "wb") as fh:
            fh.write(b'{"n": "\xff"}')
    sim = ["simulate", "builtin:alpha", "--box", "0:2,0:2", "--nmax", "1"]
    for argv in (
        ["check", bad],
        ["check", "builtin:alpha", "--config", bad],
        sim + ["--input", bad],
        sim + ["--input", impulse, "--init", bad],
        ["transfer", "builtin:alpha", "--points", bad],
        ["laxphillips", "builtin:alpha", "--op", "gamma", "--vector", bad],
        ["realize", bad],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith(f"input error: {bad}: ") and err.count("\n") == 1, (argv, err)


def test_an_input_file_is_read_once_and_its_digest_is_of_the_bytes_parsed(capsys, tmp_path, monkeypatch):
    path = impulse_file(tmp_path)
    opened, real_open = [], open

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    code, report, _ = run(capsys, ["simulate", "builtin:alpha", "--input", path, "--box", "0:2,0:2", "--nmax", "1"])
    monkeypatch.undo()
    assert code == 0 and opened.count(path) == 1
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert report["inputs"][1] == {"path": path, "sha256": digest}


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_energy_path_is_an_input_error_that_names_it(capsys, tmp_path, where):
    target = str(tmp_path / "missing" / "energy.csv") if where == "missing directory" else str(tmp_path)
    argv = ["simulate", "builtin:alpha", "--input", impulse_file(tmp_path), "--box", "0:2,0:2", "--nmax", "1"]
    code, report, err = run(capsys, argv + ["--energy", target])
    assert code == 2 and report is None
    assert err.startswith(f"input error: cannot write the energy ledger to {target}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_energy_path_is_refused_before_the_run(capsys, tmp_path, monkeypatch, where):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "simulate", refuse)
    target = str(tmp_path / "missing" / "energy.csv") if where == "missing directory" else str(tmp_path)
    argv = ["simulate", "builtin:alpha", "--input", impulse_file(tmp_path), "--box", "0:2,0:2", "--nmax", "1"]
    code, report, err = run(capsys, argv + ["--energy", target])
    assert code == 2 and report is None
    assert err.startswith(f"input error: cannot write the energy ledger to {target}: ") and err.count("\n") == 1, err


def test_a_run_that_fails_leaves_an_existing_energy_ledger_whole(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise DomainError("the run failed")

    ledger = tmp_path / "energy.csv"
    ledger.write_text("an earlier ledger\n" * 100)
    monkeypatch.setattr(cli, "simulate", fail)
    argv = ["simulate", "builtin:alpha", "--input", impulse_file(tmp_path), "--box", "0:2,0:2", "--nmax", "1"]
    code, report, err = run(capsys, argv + ["--energy", str(ledger)])
    assert (code, report, err) == (2, None, "input error: the run failed\n")
    assert ledger.read_text() == "an earlier ledger\n" * 100
    # a run that succeeds replaces the longer earlier file with its ledger
    monkeypatch.undo()
    code, _, _ = run(capsys, argv + ["--energy", str(ledger)])
    assert code == 0
    assert ledger.read_text().splitlines() == ["n,E_minus,E_plus,E_x,lhs,rhs,contaminated", "1,1.0,0.0,1.0,1.0,1.0,0"]


@pytest.mark.parametrize(
    "name", ["../../ndsys/data/alpha", "../data/alpha", "data/../alpha", "./alpha", "/alpha", "alpha/", "..", ""]
)
def test_builtin_takes_bundled_names_only(capsys, name):
    for argv in (["check", f"builtin:{name}"], ["realize", f"builtin:{name}"]):
        code, report, err = run(capsys, argv)
        assert code == 2 and report is None, argv
        assert err == f"input error: no bundled file named {name!r}; bundled: alpha, alpha_prime\n", err


def test_scan_budget_over_the_cap_is_an_input_error(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("the scan built its grid")

    monkeypatch.setattr(np, "indices", build)
    argv = ["check", "builtin:alpha", "--samples", str(2**40)]
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert "input error" in err and "sample budget" in err


def test_a_check_budget_rounds_down_to_a_tensor_grid(capsys, tmp_path):
    code, report, _ = run(capsys, ["check", "builtin:alpha", "--samples", "1000"])
    assert code == 0 and report["results"]["torus_scan"]["samples"] == 31**2
    # the n = 4 default budget is 1e5, not 32^4
    n4 = gen.dissipative_system(np.random.default_rng(0), 4, 3, 3)
    code, report, _ = run(capsys, ["check", write(tmp_path, "n4.json", ser.dump(ser.system_to_json(n4)))])
    assert code == 0 and report["results"]["torus_scan"]["samples"] == 17**4


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


def test_closed_form_weight_overflow_exits_2_before_any_table(capsys, tmp_path, monkeypatch):
    import ndsys.system

    def build(*args, **kwargs):
        raise AssertionError("closed_form built a multipower table")

    monkeypatch.setattr(ndsys.system, "sym_multipower_table", build)
    sys_obj = gen.random_system(np.random.default_rng(18), 3, 1, 1, 1)
    sig = LatticeSignal(3, 1, {(80, 0, 0): np.array([1.0 + 0j])})
    argv = [
        "simulate",
        write(tmp_path, "sys.json", ser.dump(ser.system_to_json(sys_obj))),
        "--input",
        write(tmp_path, "input.json", ser.dump(ser.signal_to_json(sig))),
        "--box",
        "80:80,0:0,0:0",
        "--nmax",
        "80",
        "--closed-form",
    ]
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert "exceeds 64-bit range" in err and "Traceback" not in err


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
            write(tmp_path, "offoctant.json", ser.dump(ser.signal_to_json(sig))),
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
            write(tmp_path, "wide.json", ser.dump(ser.signal_to_json(wide))),
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


def test_a_series_request_evaluates_each_pencil_once(capsys, monkeypatch):
    import ndsys.transfer

    evaluated = []

    def spy(z, ops, real=ndsys.transfer.eval_pencil):
        evaluated.append(ops)
        return real(z, ops)

    monkeypatch.setattr(ndsys.transfer, "eval_pencil", spy)
    argv = ["transfer", "builtin:alpha_prime", "--grid", "16", "--series-terms", "8"]
    code, report, _ = run(capsys, argv)
    assert code == 0
    sys = builtin_examples()["alpha_prime"]
    assert len(evaluated) == 4
    for got, want in zip(evaluated, (sys.a, sys.b, sys.c, sys.d)):
        assert np.array_equal(got.mats, want.mats)
    # the shared values are the ones each public evaluator computes alone
    monkeypatch.undo()
    pts = halton_disc(16, 2, 0.7)
    vals = ndsys.transfer.transfer_eval(sys, pts)
    approx = ndsys.transfer.transfer_eval_series(sys, pts, 8)
    got = np.array([entry["value"] for entry in report["results"]["points"]])
    assert oracles.same_bits(got, vals.view(float).reshape(got.shape))
    assert report["results"]["series_gap"]["max_truncation_error"] == _largest_norm(vals - approx)


def test_transfer_arity_mismatch_is_an_input_error(capsys, tmp_path):
    pts = write(tmp_path, "pts3.json", [[[0.1, 0.0], [0.1, 0.0], [0.1, 0.0]]])
    code, _, err = run(capsys, ["transfer", "builtin:alpha", "--points", pts])
    assert code == 2
    assert "input error" in err


def test_realize_canonical_data(capsys, tmp_path):
    data = write(
        tmp_path, "canon.json", ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30)))
    )
    code, report, _ = run(capsys, ["realize", data])
    assert code == 0
    res = report["results"]
    assert res["identity"]["passed"] is True
    assert res["state_dim"] == 1
    assert res["conservative"] is True
    assert res["residuals"]["transfer"] <= 1e-7
    assert res["system"]["dims"] == {"x": 1, "nm": 1, "np": 1}


def test_realize_with_a_zero_row_factor(capsys, tmp_path):
    data = write(tmp_path, "zero_row.json", ser.dump(ser.agler_to_json(gen.zero_row_fixture())))
    code, report, _ = run(capsys, ["realize", data])
    assert code == 0
    res = report["results"]
    assert res["identity"]["passed"] is True
    assert res["conservative"] is True
    assert res["state_dim"] == 1
    assert max(res["residuals"].values()) <= 1e-12


def test_realize_reports_the_thresholds_it_applied(capsys, tmp_path):
    data = write(
        tmp_path, "canon.json", ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30)))
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
        tmp_path, "canon.json", ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30)))
    )
    code, report, _ = run(capsys, ["realize", data, "--padding", "2"])
    assert code == 0
    assert report["results"]["state_dim"] == 3


def test_realize_refuses_a_negative_padding_before_the_identity_check(capsys, tmp_path, monkeypatch):
    import ndsys.realization

    calls = []
    verify = ndsys.realization.verify_agler_identity
    monkeypatch.setattr(
        ndsys.realization, "verify_agler_identity", lambda *a, **k: calls.append(a) or verify(*a, **k)
    )
    data = write(
        tmp_path, "canon.json", ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30)))
    )
    code, report, err = run(capsys, ["realize", data, "--padding", "-1"])
    assert code == 2 and report is None
    assert err == "input error: padding must be >= 0, got -1\n"
    assert calls == []


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
    path = write(tmp_path, "wide.json", ser.dump(ser.agler_to_json(data)))
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
    vec_path = write(tmp_path, "vec.json", ser.dump(ser.lp_vector_to_json(vec)))
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
            write(tmp_path, name, ser.dump(ser.signal_to_json(s)))
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
    path = write(tmp_path, "vec.json", ser.dump(ser.lp_vector_to_json(vec)))
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


def _array_report_argv(tmp_path, case):
    points = [[[0.3, -0.0], [5e-324, -0.7]], [[-0.0, 0.0], [0.1, 1e-300]]]
    return {
        "transfer-grid": ["transfer", "builtin:alpha"],
        "transfer-points": [
            "transfer", "builtin:alpha", "--points", write(tmp_path, "pts.json", points),
            "--series-terms", "8", "--coeffs", "3",
        ],
        "transfer-empty": [
            "transfer", "builtin:alpha", "--points", write(tmp_path, "none.json", []),
            "--series-terms", "8",
        ],
        "transfer-coeffs": ["transfer", "builtin:alpha_prime", "--grid", "5", "--coeffs", "4"],
        "check": ["check", "builtin:alpha_prime", "--samples", "64"],
        "associated": ["laxphillips", "builtin:alpha_prime", "--op", "associated", "--k", "1",
                       "--box=-1:3,-2:2"],
    }[case]


@pytest.mark.parametrize(
    "case",
    ["transfer-grid", "transfer-points", "transfer-empty", "transfer-coeffs", "check", "associated"],
)
def test_array_reports_match_the_list_built_reports(capsys, tmp_path, monkeypatch, case):
    argv = _array_report_argv(tmp_path, case)
    reports = []

    def recording(obj, dump=ser.dump):
        reports.append(obj)
        return dump(obj)

    monkeypatch.setattr(ser, "dump", recording)
    assert main(argv) == 0
    (report,) = reports
    listed = {**report, "results": oracles.list_built_results(argv, report["results"])}
    out = capsys.readouterr().out
    assert out == json.dumps(listed, sort_keys=True, indent=2) + "\n"
    if case == "transfer-empty":
        assert '"points": []' in out


def _per_point_parse(raw):
    # the points file read one coordinate at a time
    return np.array(
        [[complex(float(p[0]), float(p[1])) for p in item] for item in raw], dtype=complex
    ).reshape(len(raw), -1)


def test_points_file_parses_as_the_per_point_reader_does(tmp_path):
    from argparse import Namespace

    from ndsys.cli import _transfer_points

    raw = [[[0.3, -0.0], [5e-324, -0.7]], [[-0.0, 0.0], [1, True]], [[1e300, -1e-310], [0, 0]]]
    inputs = []
    got = _transfer_points(Namespace(points=write(tmp_path, "pts.json", raw)), 2, inputs)
    assert got.shape == (3, 2)
    assert oracles.same_bits(got, _per_point_parse(raw))
    empty = _transfer_points(Namespace(points=write(tmp_path, "none.json", [])), 2, inputs)
    assert empty.shape == (0, 2) and empty.dtype == complex
    assert [item["path"] for item in inputs] == [str(tmp_path / "pts.json"), str(tmp_path / "none.json")]


@pytest.mark.parametrize(
    "points, named",
    [
        ([[["a", 0.0], [0.1, 0.0]]], "[0, 0, 0] must be a number, got 'a'"),
        ([[0.1, 0.2]], "[0, 0] must be a [re, im] pair, got 0.1"),
        ([[[0.1], [0.1, 0.0]]], "[0, 0] must be a [re, im] pair, got a list of 1"),
        ([[[0.1, 0.0, 5.0], [0.1, 0.0]]], "[0, 0] must be a [re, im] pair, got a list of 3"),
        ([[[0.1, 0.0], [0.2, 0.0]], 7], "[1] must be a list of 2, got 7"),
        ([[[0.1, 0.0], [0.2, 0.0]], [[0.1, 0.0, 1.0], [0.2, 0.0, 1.0]]],
         "[1, 0] must be a [re, im] pair, got a list of 3"),
        ([[[0.1, 0.0], [0.2, 0.0]], []], "[1] must be a list of 2, got a list of 0"),
        ([[[float("nan"), 0.0], [0.2, 0.0]], [[0.1]]], "[0, 0, 0] is non-finite, got nan"),
    ],
    ids=["string", "bare-pair", "short-pair", "long-pair", "number", "all-long", "empty-point",
         "non-finite-first"],
)
def test_malformed_points_file_is_an_input_error(capsys, tmp_path, points, named):
    path = write(tmp_path, "bad.json", points)
    code, report, err = run(capsys, ["transfer", "builtin:alpha", "--points", path])
    assert code == 2 and report is None
    assert err == f"input error: points: item {named}\n"


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


@pytest.mark.parametrize(
    "argv, config",
    [
        (["check", "builtin:alpha"], {"samples": "many"}),
        (["check", "builtin:alpha"], {"samples": 2.5}),
        (["check", "builtin:alpha"], {"seed": "x"}),
        (["check", "builtin:alpha"], {"no-refine": False}),
        (["check", "builtin:alpha"], {"tol": None}),
        (["transfer", "builtin:alpha"], {"grid": "x"}),
        (["laxphillips", "builtin:alpha", "--op", "metric", "--box=-2:2,-2:2"], {"seed": "x"}),
    ],
)
def test_config_values_are_checked_as_their_flags(capsys, tmp_path, argv, config):
    code, report, err = run(capsys, argv + ["--config", write(tmp_path, "config.json", config)])
    assert code == 2 and report is None
    assert "input error" in err


def test_config_true_gives_a_switch(capsys, tmp_path):
    config = write(tmp_path, "config.json", {"no-refine": True, "tol": 0.5})
    _, report, _ = run(capsys, ["check", "builtin:alpha", "--config", config])
    assert report["results"]["torus_scan"]["refined"] is False
    assert report["parameters"]["tol"] == 0.5


def test_config_before_the_subcommand_is_refused(capsys, tmp_path):
    config = write(tmp_path, "config.json", {"tol": 0.5})
    code, report, err = run(capsys, ["--config", config, "check", "builtin:alpha"])
    assert code == 2 and report is None
    assert "input error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["transfer", "builtin:alpha", "--grid", "-1"],
        ["laxphillips", "builtin:alpha", "--op", "commute", "--box=-2:2,-2:2", "--trials", "0"],
        ["laxphillips", "builtin:alpha", "--op", "metric", "--box=-2:2,-2:2", "--trials", "0"],
    ],
)
def test_counts_below_their_minimum_are_input_errors(capsys, argv):
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert "input error" in err and argv[-1] in err


def test_env_tol_is_read_on_every_call_of_one_parser(capsys, monkeypatch):
    # the parser is built once per process, so NDSYS_TOL must not be baked
    # into it: each call reads the variable afresh
    monkeypatch.setenv("NDSYS_TOL", "1e-5")
    _, first, _ = run(capsys, ["check", "builtin:alpha"])
    parser = cli._parser()
    monkeypatch.setenv("NDSYS_TOL", "2e-4")
    _, second, _ = run(capsys, ["check", "builtin:alpha"])
    assert cli._parser() is parser
    assert (first["parameters"]["tol"], second["parameters"]["tol"]) == (1e-5, 2e-4)
    monkeypatch.delenv("NDSYS_TOL")
    _, third, _ = run(capsys, ["check", "builtin:alpha"])
    assert third["parameters"]["tol"] == 1e-9


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


@pytest.mark.parametrize(
    "entries, named",
    [
        ([{"t": [0, 0], "v": [[1.0, 0.0]]}, {"t": [0, 0], "v": [[5.0, 0.0]]}], "[0, 0]"),
        ([{"t": [10**20, -(10**20)], "v": [[1.0, 0.0]]}], "point " + f"[{10**20}, {-(10**20)}]"[:37] + "..."),
        ([{"t": [1.5, -0.5], "v": [[1.0, 0.0]]}], "non-integer coordinate 1.5"),
    ],
    ids=["repeated-point", "outside-int64", "fractional-coordinate"],
)
def test_simulate_rejects_a_bad_signal_point(capsys, tmp_path, entries, named):
    path = write(tmp_path, "bad.json", {"n": 2, "dim": 1, "entries": entries})
    argv = ["simulate", "builtin:alpha", "--input", path, "--box", "0:3,0:3", "--nmax", "2"]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "input error" in err and named in err


@pytest.mark.parametrize("key, bad", [("n", 2.7), ("dim", 1.5)])
def test_simulate_rejects_a_fractional_signal_header(capsys, tmp_path, key, bad):
    obj = {"n": 2, "dim": 1, "entries": [{"t": [0, 0], "v": [[1.0, 0.0]]}]}
    obj[key] = bad
    path = write(tmp_path, "bad.json", obj)
    argv = ["simulate", "builtin:alpha", "--input", path, "--box", "0:3,0:3", "--nmax", "2"]
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert f"input error: signal: {key} must be an integer, got {bad}" in err


def test_laxphillips_rejects_a_fractional_vector_point(capsys, tmp_path):
    vec = TruncatedLPVector(
        Box((-2, -2), (2, 2)),
        LatticeSignal(2, 1, {}),
        LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j])}),
        LatticeSignal(2, 1, {}),
    )
    obj = json.loads(ser.dump(ser.lp_vector_to_json(vec)))
    obj["y"]["entries"][0]["t"] = [0.5, -0.5]
    argv = ["laxphillips", "builtin:alpha", "--op", "generator"]
    code, report, err = run(capsys, argv + ["--vector", write(tmp_path, "frac.json", obj)])
    assert code == 2 and report is None
    assert "non-integer coordinate 0.5" in err


def test_laxphillips_rejects_non_finite_vector(capsys, tmp_path):
    vec = TruncatedLPVector(
        Box((-2, -2), (2, 2)),
        LatticeSignal(2, 1, {}),
        LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j])}),
        LatticeSignal(2, 1, {}),
    )
    obj = json.loads(ser.dump(ser.lp_vector_to_json(vec)))
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


def test_negative_tol_from_flag_config_or_env_is_an_input_error(capsys, tmp_path, monkeypatch):
    code, report, err = run(capsys, ["check", "builtin:alpha", "--tol", "-1"])
    assert code == 2 and report is None
    assert "input error" in err and "tol must be a finite number >= 0" in err

    config = write(tmp_path, "config.json", {"tol": -0.5})
    code, _, err = run(capsys, ["check", "builtin:alpha", "--config", config])
    assert code == 2 and "tol must be a finite number >= 0" in err

    monkeypatch.setenv("NDSYS_TOL", "-0.5")
    code, _, err = run(capsys, ["check", "builtin:alpha"])
    assert code == 2 and "tol must be a finite number >= 0" in err

    code, report, _ = run(capsys, ["check", "builtin:alpha", "--tol", "0"])
    assert code == 0 and report["parameters"]["tol"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "builtin:alpha", "--seed", "-1"],
        ["realize", "DATA", "--seed", "-5"],
        ["laxphillips", "builtin:alpha", "--op", "metric", "--box=-2:2,-2:2", "--seed", "-5"],
        ["laxphillips", "builtin:alpha", "--op", "commute", "--box=-2:2,-2:2", "--seed", "-5"],
    ],
)
def test_negative_seed_is_an_input_error(capsys, tmp_path, argv):
    data = write(tmp_path, "canon.json", ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30))))
    argv = [data if a == "DATA" else a for a in argv]
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert "input error: seed must be >= 0" in err
    config = write(tmp_path, "config.json", {"seed": -3})
    code, _, err = run(capsys, argv[:-2] + ["--config", config])
    assert code == 2 and "seed must be >= 0" in err


def test_window_budgets_are_input_errors(capsys, tmp_path):
    impulse = impulse_file(tmp_path)
    sim = ["simulate", "builtin:alpha", "--input", impulse]
    wide = sim + ["--box", "0:3000,0:3000", "--nmax", "6000"]
    for argv in (wide, wide + ["--closed-form"]):
        code, report, err = run(capsys, argv)
        assert code == 2 and report is None
        assert "input error" in err and "budget of 2**24 values" in err
    deep = sim + ["--box", "0:200,0:200", "--nmax", "400"]
    code, report, err = run(capsys, deep + ["--closed-form"])
    assert code == 2 and report is None
    assert "input error" in err and "point-offset pairs, past the budget of 2**26" in err
    code, report, _ = run(capsys, deep)
    assert code == 0 and len(report["results"]["energy"]["rows"]) == 400


def test_config_naming_config_is_an_input_error(capsys, tmp_path):
    config = write(tmp_path, "config.json", {"config": "nonexistent.json"})
    code, report, err = run(capsys, ["check", "builtin:alpha", "--config", config])
    assert code == 2 and report is None
    assert "input error" in err and "'config'" in err


@pytest.mark.parametrize("box", ["0:3:9,0:3", "0:3,1:2:"])
def test_box_axis_that_is_not_lo_hi_is_an_input_error(capsys, tmp_path, box):
    impulse = impulse_file(tmp_path)
    for argv in (
        ["simulate", "builtin:alpha", "--input", impulse, "--box", box, "--nmax", "2"],
        ["laxphillips", "builtin:alpha", "--op", "metric", "--box", box],
    ):
        code, report, err = run(capsys, argv)
        assert code == 2 and report is None, argv
        assert "input error" in err and "box must look like" in err, argv


def test_check_reports_a_unitary_summand_as_not_closely_connected(capsys, tmp_path):
    grown = gen.with_unitary_summand(np.random.default_rng(8))
    code, report, _ = run(capsys, ["check", write(tmp_path, "grown.json", ser.dump(ser.system_to_json(grown)))])
    assert code == 0
    assert report["results"]["conservativity"]["passed"] is True
    assert report["results"]["closely_connected"] == {"dim_state": 4, "dim_connected": 2}


@pytest.mark.parametrize("dims", [(0, 0, 0), (0, 1, 0), (0, 0, 1)])
@pytest.mark.parametrize("refine", [[], ["--no-refine"]])
def test_check_of_a_pencil_with_an_empty_side_reports_norm_zero(capsys, tmp_path, dims, refine):
    empty = gen.random_system(np.random.default_rng(0), 2, *dims)
    path = write(tmp_path, "empty.json", ser.dump(ser.system_to_json(empty)))
    code, report, err = run(capsys, ["check", path] + refine)
    assert code == 0, err
    scan = report["results"]["torus_scan"]
    assert scan["max_norm"] == 0.0 and scan["dissipative"] is True


@pytest.mark.filterwarnings("error")
def test_overflowing_result_is_an_input_error(capsys, tmp_path):
    one = [[[1.0, 0.0]]]
    system = {
        "n": 1, "dims": {"x": 1, "nm": 1, "np": 1},
        "A": [[[[1e200, 0.0]]]], "B": [one], "C": [one], "D": [[[[0.0, 0.0]]]],
    }
    impulse = ser.dump(ser.signal_to_json(LatticeSignal(1, 1, {(0,): np.ones(1)})))
    argv = ["simulate", write(tmp_path, "big.json", system)]
    argv += ["--input", write(tmp_path, "impulse.json", impulse), "--box", "0:4", "--nmax", "4"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # the recursion refuses its first non-finite front itself, with no
    # numpy warning, before the report is written
    assert captured.err == "input error: the trajectory on front 3 is not finite\n"


@pytest.mark.filterwarnings("error")
def test_check_takes_blocks_at_the_overflow_bound(capsys, tmp_path):
    obj = json.loads(ser.dump(ser.system_to_json(builtin_examples()["alpha"])))
    bound = (2.0**1000 / (4 * 2 * 2 * 2)) ** 0.5  # alpha: n = 2 directions, 2 x 2 blocks
    obj["A"][0][0][0] = [bound, -bound]
    code, report, _ = run(capsys, ["check", write(tmp_path, "edge.json", obj)])
    assert code == 0
    assert all(np.isfinite(v) for v in report["results"]["conservativity"]["residuals"].values())
    assert np.isfinite(report["results"]["torus_scan"]["max_norm"])


@pytest.mark.parametrize(
    "op, box, named",
    [
        ("commute", "--box=-1:1,-1:1", "box lo=(-1, -1) hi=(1, 1) is too small: the interior vector "
         "keeps 2 layer(s) off every face, so each side must span at least 5 points"),
        ("metric", "--box=0:0,0:0", "box lo=(0, 0) hi=(0, 0) is too small: the interior vector "
         "keeps 1 layer(s) off every face, so each side must span at least 3 points"),
        # bounds of 401 digits are quoted cut short
        ("metric", f"--box={10**400}:{10**400 + 1},0:1", f"box lo=(1{'0' * 35}... hi=(1{'0' * 35}... is too "
         "small: the interior vector keeps 1 layer(s) off every face, so each side must span at least 3 points"),
    ],
    ids=["commute", "metric", "metric-huge"],
)
def test_a_box_too_small_for_an_interior_vector_names_the_given_box(capsys, op, box, named):
    code, report, err = run(capsys, ["laxphillips", "builtin:alpha", "--op", op, box])
    assert code == 2 and report is None
    assert err == f"input error: {named}\n"


@pytest.mark.parametrize("part", ["theta", "grid"])
def test_realize_rejects_non_finite_data(capsys, tmp_path, part):
    obj = json.loads(ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30))))
    if part == "theta":
        obj["theta"]["terms"][0]["m"][0][0] = [float("nan"), 0.0]
    else:
        obj["grid"][3][0] = [float("inf"), 0.0]
    code, report, err = run(capsys, ["realize", write(tmp_path, "bad.json", obj)])
    assert code == 2 and report is None
    assert "input error" in err and "non-finite" in err


def _malformed_request(tmp_path, command, path, value):
    """The argv of ``command`` on a file whose field at ``path`` holds
    ``value``: decomposition data for realize, a system for check, an input
    signal for simulate and a vector for laxphillips."""
    empty = LatticeSignal(2, 1, {})
    obj = json.loads(ser.dump({
        "realize": lambda: ser.agler_to_json(canonical_fixture(grid_points=5)),
        "check": lambda: ser.system_to_json(builtin_examples()["alpha"]),
        "simulate": lambda: ser.signal_to_json(empty),
        "laxphillips": lambda: ser.lp_vector_to_json(
            TruncatedLPVector(Box((-2, -2), (2, 2)), empty, empty, empty)
        ),
    }[command]()))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = write(tmp_path, "bad.json", obj)
    return {
        "realize": ["realize", file],
        "check": ["check", file],
        "simulate": ["simulate", "builtin:alpha", "--input", file, "--box", "0:1,0:1", "--nmax", "1"],
        "laxphillips": ["laxphillips", "builtin:alpha", "--op", "gamma", "--vector", file],
    }[command]


@pytest.mark.parametrize(
    "command, path, value, named",
    [
        ("realize", ["grid"], 5, "grid must be a list"),
        ("realize", ["grid"], [5], "decomposition data: grid: item [0] must be a list of 2, got 5"),
        ("realize", ["factors"], 3, "factors must be a list"),
        ("realize", ["theta", "terms"], 5, "terms must be a list"),
        ("realize", ["theta", "terms", 0, "t"], 5, "t must list exponents"),
        ("realize", ["theta", "shape"], [1], "shape must be a [rows, cols] list"),
        ("realize", ["theta", "terms", 0, "m"], [[[1.0, 0.0]], []],
         "polynomial terms: m: item [0] must be a list of 1, got a list of 2"),
        ("check", ["A", 0], [[[0.0, 0.0]], []], "system: A: item [0] must be a list of 1, got a list of 2"),
        ("check", ["dims"], [1, 1, 1], "dims must be an object"),
        ("check", ["A", 0, 0, 0], ["a", 0.0], "system: A: item [0, 0, 0, 0] must be a number, got 'a'"),
        ("simulate", ["entries"], 5, "signal: entries must be a list"),
        ("simulate", ["dim"], -1, "signal: dim must be >= 0, got -1"),
        ("laxphillips", ["box", "lo"], 5, "vector box: lo must be a list"),
        ("realize", ["theta", "shape"], [-1, 1], "polynomial: shape must hold sizes >= 0"),
        ("realize", ["theta", "terms"], [{"t": [1, 1], "m": [[[1.0, 0.0]]]}] * 2,
         "polynomial: exponent [1, 1] is given twice"),
        ("check", ["A", 0, 0, 0], [1e308, 1e308], "a block entry part of 1e+308 exceeds"),
        ("check", ["A", 0, 0, 0], [1e200, 0.0], "a block entry part of 1e+200 exceeds"),
    ],
    ids=["grid-5", "grid-[5]", "factors-3", "terms-5", "t-5", "shape-[1]", "ragged-m",
         "ragged-A", "dims-list", "pair-a", "entries-5", "dim--1", "lo-5", "shape-[-1, 1]",
         "exponent-twice", "A-1e308", "A-1e200"],
)
@pytest.mark.filterwarnings("error")
def test_malformed_structure_exits_2_naming_the_field(capsys, tmp_path, command, path, value, named):
    code, report, err = run(capsys, _malformed_request(tmp_path, command, path, value))
    assert code == 2 and report is None
    assert err.startswith("input error: ") and named in err and "Traceback" not in err


# Each reader of [re, im] pairs: its request (FILE the file it reads), that
# file's content, the field's name, and the key path in the file and the
# field's item path of one pair and of one list whose siblings share its
# length.
_READERS = {
    "system": (
        ["check", "FILE"],
        lambda: ser.system_to_json(builtin_examples()["alpha_prime"]),
        "system: A", ["A", 1, 2, 0], [1, 2, 0], ["A", 1], [1],
    ),
    "signal": (
        ["simulate", "builtin:alpha", "--input", "FILE", "--box", "0:1,0:1", "--nmax", "1"],
        lambda: ser.signal_to_json(LatticeSignal(2, 1, {(0, 0): np.ones(1), (1, 0): np.ones(1)})),
        "signal entries: v", ["entries", 1, "v", 0], [1, 0], ["entries", 1, "v"], [1],
    ),
    "polynomial": (
        ["realize", "FILE"],
        lambda: ser.agler_to_json(canonical_fixture(grid_points=4)),
        "polynomial terms: m", ["theta", "terms", 0, "m", 0, 0], [0, 0, 0], ["theta", "terms", 0, "m", 0], [0, 0],
    ),
    "grid": (
        ["realize", "FILE"],
        lambda: ser.agler_to_json(canonical_fixture(grid_points=4)),
        "decomposition data: grid", ["grid", 2, 1], [2, 1], ["grid", 2], [2],
    ),
    "points": (
        ["transfer", "builtin:alpha", "--points", "FILE"],
        lambda: np.array([[0.1, 0.2], [0.3j, 0.4]]),
        "points", [1, 0], [1, 0], [1], [1],
    ),
}


def _at(obj, keys):
    for key in keys:
        obj = obj[key]
    return obj


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "corruption, problem",
    [
        ("huge", "is non-finite, got 1000"),
        ("ragged", "must be a list of"),
        ("triple", "must be a [re, im] pair, got a list of 3"),
        ("string", "must be a number, got 'x'"),
        ("nan", "is non-finite, got nan"),
    ],
)
def test_every_pair_reader_refuses_a_corrupted_item_naming_it(capsys, tmp_path, reader, corruption, problem):
    argv, content, field, pair_keys, pair, list_keys, listed = _READERS[reader]
    obj = json.loads(ser.dump(content()))
    named = {"huge": pair + [0], "ragged": listed, "triple": pair, "string": pair + [1], "nan": pair + [0]}[corruption]
    pair_node = _at(obj, pair_keys)
    if corruption == "ragged":
        _at(obj, list_keys).pop()
    elif corruption == "triple":
        pair_node.append(0.0)
    elif corruption == "string":
        pair_node[1] = "x"
    else:
        pair_node[0] = 10**400 if corruption == "huge" else float("nan")
    file = write(tmp_path, "bad.json", obj)
    code, report, err = run(capsys, [file if a == "FILE" else a for a in argv])
    assert code == 2 and report is None
    assert err.startswith(f"input error: {field}: item {named} {problem}") and err.count("\n") == 1, err


def test_non_finite_residual_is_still_a_verification_failure(capsys, tmp_path, monkeypatch):
    from ndsys import RealizationError, realization

    def failing(*args, **kwargs):
        raise RealizationError("residuals above threshold", report={"transfer": float("nan")})

    monkeypatch.setattr(realization, "assemble_colligation", failing)
    data = write(tmp_path, "canon.json", ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30))))
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


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the report of a 3000-point transfer is about 1 MB, far past the pipe
    # buffer, so the writer meets the closed read end
    proc = subprocess.Popen(
        [_sys.executable, "-m", "ndsys", "transfer", "builtin:alpha", "--grid", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.parametrize("where", [["--grid", "0"], ["--points", "none.json"], ["--grid", "3"]])
def test_negative_series_terms_are_an_input_error_with_or_without_points(capsys, tmp_path, where):
    if where[0] == "--points":
        where = ["--points", write(tmp_path, "none.json", [])]
    code, report, err = run(capsys, ["transfer", "builtin:alpha", *where, "--series-terms", "-1"])
    assert code == 2 and report is None
    assert "input error: series terms must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "where, count, terms, passes",
    [
        (["--grid", "1"], 1, 2**17, True),
        (["--grid", "1"], 1, 2**17 + 1, False),
        (["--grid", "128"], 128, 2**17, True),
        (["--grid", "129"], 129, 2**17, False),
        (["--grid", "2000"], 2000, 8388, True),
        (["--grid", "2000"], 2000, 8389, False),
        (["--grid", "3"], 3, 10**23, False),
        (["--points", "pts.json"], 2, 2**17 + 1, False),
    ],
)
def test_series_terms_are_refused_past_their_budget_before_the_series_runs(
    capsys, tmp_path, monkeypatch, where, count, terms, passes
):
    # the budget is 2**17 terms and 2**24 points times terms, each with its
    # own message; the series is stubbed, and a refused request must not
    # reach it
    import ndsys.transfer

    def neumann(sys, z, terms, pencils):
        assert passes, "the series ran"
        return np.zeros((len(z), sys.dim_out, sys.dim_in), dtype=complex)

    monkeypatch.setattr(ndsys.transfer, "_neumann", neumann)
    if where[0] == "--points":
        where = ["--points", write(tmp_path, "pts.json", [[[0.1, 0.0], [0.2, 0.0]]] * count)]
    code, report, err = run(capsys, ["transfer", "builtin:alpha", *where, "--series-terms", str(terms)])
    if passes:
        assert code == 0 and report["results"]["series_gap"]["terms"] == terms
    elif terms > 2**17:
        assert code == 2 and err == f"input error: --series-terms {terms}, past the budget of 2**17 terms\n"
    else:
        assert code == 2 and err == (
            f"input error: --series-terms {terms} on {count} points, past the budget of 2**24 values\n"
        )


def _n1_system(tmp_path):
    rng = np.random.default_rng(3)
    return write(tmp_path, "n1.json", ser.dump(ser.system_to_json(gen.random_system(rng, 1, 2, 1, 1, scale=0.4))))


@pytest.mark.parametrize(
    "system, order, named",
    [
        ("builtin:alpha", "200", "multinomial((100, 100))"),
        ("n1", str(2**17 + 1), "131073 Maclaurin coefficients, past the budget of 2**17"),
    ],
)
def test_oversized_coeffs_are_refused_before_any_table(capsys, tmp_path, monkeypatch, system, order, named):
    import ndsys.transfer

    def build(*args, **kwargs):
        raise AssertionError("the Maclaurin table was built")

    monkeypatch.setattr(ndsys.transfer, "sym_multipower_table", build)
    path = _n1_system(tmp_path) if system == "n1" else system
    code, report, err = run(capsys, ["transfer", path, "--grid", "2", "--coeffs", order])
    assert code == 2 and report is None
    assert "input error" in err and named in err


@pytest.mark.parametrize("system", ["n1", "a104"])
def test_coeffs_whose_table_stops_being_finite_exit_2_without_warnings(capsys, tmp_path, system):
    # both n = 1 systems have a state operator of spectral radius 1.04, so
    # the table overflows near order 18,100, before the 20,000th term
    if system == "n1":
        path = _n1_system(tmp_path)
    else:
        ops = (OperatorTuple((np.array([[v]]),)) for v in (1.04, 1.0, 1.0, 0.0))
        path = write(tmp_path, "a104.json", ser.dump(ser.system_to_json(MultiLSDS(*ops))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run(capsys, ["transfer", path, "--grid", "2", "--coeffs", "20000"])
    assert code == 2 and report is None
    assert "input error" in err and "are not finite" in err and "Traceback" not in err


def test_closed_form_whose_table_stops_being_finite_exits_2_without_warnings(capsys, tmp_path):
    # A = 1e10 overflows at order 31, where the parent wrote NaN states
    ops = (OperatorTuple((np.array([[v]]),)) for v in (1e10, 1.0, 1.0, 0.5))
    sig = LatticeSignal(1, 1, {(5,): np.array([1.0 + 0j])})
    argv = [
        "simulate",
        write(tmp_path, "sys.json", ser.dump(ser.system_to_json(MultiLSDS(*ops)))),
        "--input",
        write(tmp_path, "input.json", ser.dump(ser.signal_to_json(sig))),
        "--box",
        "0:40",
        "--nmax",
        "40",
        "--closed-form",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert "multipowers of order 31 are not finite" in err and "Traceback" not in err


def test_transfer_point_budget_is_checked_before_the_grid_is_drawn(capsys, monkeypatch):
    import ndsys.cli

    def draw(*args, **kwargs):
        raise AssertionError("the grid was drawn")

    monkeypatch.setattr(ndsys.cli, "halton_disc", draw)
    # alpha: n = 2, dim_x = 1, one input and one output, so 4 values a point
    code, report, err = run(capsys, ["transfer", "builtin:alpha", "--grid", str(2**22 + 1)])
    assert code == 2 and report is None
    assert "input error" in err and "4194305 points of 4 values each, past the budget of 2**24" in err


class _Unreached:
    """A heavy step that a refused request must not reach: calling it or
    reading an attribute of it fails."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("the heavy step ran")

    def __getattr__(self, name):
        raise AssertionError("the heavy step ran")


def _vector_file(tmp_path):
    vec = TruncatedLPVector(Box((0, 0), (1, 1)), *(LatticeSignal(2, 1, {}) for _ in range(3)))
    return write(tmp_path, "vec.json", ser.dump(ser.lp_vector_to_json(vec)))


def _points_file(tmp_path):
    return write(tmp_path, "pts.json", [[[0.1, 0.0], [0.2, 0.0]]] * 3)


# builtin:alpha has n = 2 and dim_x = dim_in = dim_out = 1: 3 values a box
# or window point, 4 a transfer point.  Each request needs exactly
# ``count`` of the budget; an argument given as a function is the path of
# the file it writes.
_BUDGET_SITES = {
    "simulate window": (
        "values", 9 * 3, "the request spans 9 lattice points or more of 3 values each",
        ["simulate", "builtin:alpha", "--input", impulse_file, "--box", "0:2,0:2", "--nmax", "4"],
        "ndsys.lattice._row_locator",
    ),
    "closed-form pairs": (
        # orders 1, 2, 3 hold 2, 2, 1 points, with 2, 5, 9 offsets each
        "pairs", 2 * 2 + 2 * 5 + 9, "the closed form needs 23 point-offset pairs",
        ["simulate", "builtin:alpha", "--input", impulse_file, "--box", "0:1,0:2", "--nmax", "3", "--closed-form"],
        "ndsys.system.sym_multipower_table",
    ),
    "coeffs terms": (
        "terms", 14, "14 Maclaurin coefficients",
        ["transfer", "builtin:alpha", "--grid", "1", "--coeffs", "4"],
        "ndsys.transfer.sym_multipower_table",
    ),
    "associated view": (
        "values", 3**2 * 2 * 2, "the view of 3 front points holds 36 values",
        ["laxphillips", "builtin:alpha", "--op", "associated", "--box=-1:1,-1:1"],
        "numpy.kron",
    ),
    "gamma box": (
        "values", 4 * 3, "the box spans 4 lattice points of 3 values each",
        ["laxphillips", "builtin:alpha", "--op", "gamma", "--vector", _vector_file],
        "ndsys.laxphillips.LatticeSignal",
    ),
    "generator box": (
        "values", 4 * 3, "the request spans 4 lattice points or more of 3 values each",
        ["laxphillips", "builtin:alpha", "--op", "generator", "--vector", _vector_file],
        "ndsys.lattice._row_locator",
    ),
    "transfer grid": (
        "values", 3 * 4, "3 points of 4 values each",
        ["transfer", "builtin:alpha", "--grid", "3"],
        "ndsys.cli.halton_disc",
    ),
    "transfer points file": (
        "values", 3 * 4, "3 points of 4 values each",
        ["transfer", "builtin:alpha", "--points", _points_file],
        "ndsys.transfer.eval_pencil",
    ),
    "series terms": (
        "terms", 4, "--series-terms 4",
        ["transfer", "builtin:alpha", "--grid", "1", "--series-terms", "4"],
        "ndsys.transfer._neumann",
    ),
    "series point-terms": (
        "values", 3 * 5, "--series-terms 5 on 3 points",
        ["transfer", "builtin:alpha", "--grid", "3", "--series-terms", "5"],
        "ndsys.transfer._neumann",
    ),
    "samples": (
        "values", 16, "sample budget 16",
        ["check", "builtin:alpha", "--samples", "16"],
        "ndsys.analysis._axis_size",
    ),
    "metric trials": (
        "values", 2 * 9 * 3, "2 trials of 27 box values",
        ["laxphillips", "builtin:alpha", "--op", "metric", "--box", "0:2,0:2", "--trials", "2"],
        "ndsys.laxphillips.apply_generator",
    ),
    "metric trial count": (
        "trials", 4, "4 trials",
        ["laxphillips", "builtin:alpha", "--op", "metric", "--box", "0:2,0:2", "--trials", "4"],
        "ndsys.laxphillips.apply_generator",
    ),
    "commute trial count": (
        "trials", 4, "4 trials",
        ["laxphillips", "builtin:alpha", "--op", "commute", "--box", "0:4,0:4", "--j", "1", "--trials", "4"],
        "ndsys.laxphillips.apply_generator",
    ),
    "commute trials": (
        "values", 2 * 25 * 3, "2 trials of 75 box values",
        ["laxphillips", "builtin:alpha", "--op", "commute", "--box", "0:4,0:4", "--j", "1", "--trials", "2"],
        "ndsys.laxphillips.apply_generator",
    ),
}


@pytest.mark.parametrize("site", list(_BUDGET_SITES))
def test_every_budget_is_read_from_the_one_table_at_its_edge(capsys, tmp_path, monkeypatch, site):
    # at the budget the request runs; one below it, the same request exits
    # 2 before its heavy step, and the message gives the lowered budget
    import ndsys.errors

    key, count, named, argv, heavy = _BUDGET_SITES[site]
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    monkeypatch.setitem(ndsys.errors._BUDGETS, key, count)
    code, report, err = run(capsys, argv)
    assert code == 0 and report is not None, err
    monkeypatch.setitem(ndsys.errors._BUDGETS, key, count - 1)
    monkeypatch.setattr(heavy, _Unreached())
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert err == f"input error: {named}, past the budget of {count - 1} {key}\n"


WIDE = "--box=-10000000:10000000,-10000000:10000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["laxphillips", "builtin:alpha", "--op", "metric", WIDE],
        ["laxphillips", "builtin:alpha", "--op", "commute", WIDE, "--j", "1"],
        ["laxphillips", "builtin:alpha", "--op", "associated", "--box=-3000:3000,-3000:3000"],
        ["laxphillips", "builtin:alpha", "--op", "associated", WIDE],
    ],
)
def test_wide_scattering_boxes_exit_2_before_they_are_built(capsys, argv):
    # before, metric and commute raised MemoryError from a box meshgrid and
    # the associated view ran out of memory on its dense kron matrices
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "budget of 2**24" in err
    if "metric" in argv:
        assert "5 trials of 1200000120000003 box values" in err
        assert "window" not in err


@pytest.mark.parametrize("op", ["generator", "adjoint", "gamma"])
def test_a_vector_on_a_wide_box_exits_2(capsys, tmp_path, op):
    vec = TruncatedLPVector(
        Box((-(10**7), -(10**7)), (10**7, 10**7)),
        LatticeSignal(2, 1, {}),
        LatticeSignal(2, 1, {(1, -1): np.array([1.0 + 0j])}),
        LatticeSignal(2, 1, {(0, 1): np.array([2.0 + 0j])}),
    )
    path = write(tmp_path, "vec.json", ser.dump(ser.lp_vector_to_json(vec)))
    code, report, err = run(capsys, ["laxphillips", "builtin:alpha", "--op", op, "--vector", path])
    assert code == 2 and report is None
    assert err.startswith("input error: ") and "budget of 2**24" in err


@pytest.mark.parametrize(
    "a, point, value, closed, message",
    [
        (1e10, 5, 1.0, False, "the trajectory on front 37 is not finite"),
        (1e10, 5, 1.0, True, "the multipowers of order 31 are not finite"),
        (0.5, 1, 1e200, False, "the energies of front 2 are not finite"),
        (0.5, 1, 1e200, True, "the energies of front 2 are not finite"),
    ],
)
def test_overflowing_trajectories_exit_2_without_warnings(capsys, tmp_path, a, point, value, closed, message):
    # before, the recursion printed numpy overflow warnings and only the
    # report writer refused the inf it returned
    ops = (OperatorTuple((np.array([[v]]),)) for v in (a, 1.0, 1.0, 0.5))
    sig = LatticeSignal(1, 1, {(point,): np.array([value + 0j])})
    argv = [
        "simulate",
        write(tmp_path, "sys.json", ser.dump(ser.system_to_json(MultiLSDS(*ops)))),
        "--input",
        write(tmp_path, "input.json", ser.dump(ser.signal_to_json(sig))),
        "--box",
        "0:40",
        "--nmax",
        "40",
    ] + ["--closed-form"] * closed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run(capsys, argv)
    assert code == 2 and report is None
    assert err == f"input error: {message}\n"


BIG = 10**400


@pytest.mark.parametrize(
    "case",
    [
        "system-n",
        "system-n-list",
        "system-dims",
        "direction",
        "signal-point",
        "samples",
        "gamma-bound",
        "coeffs",
        "grid",
        "nmax",
        "seed",
        "trials",
        "trials-budget",
        "padding",
        "theta-shape",
        "exponent",
        "exponent-twice",
        "env-tol",
        "config-key",
        "config-value",
        "box-text",
        "empty-box",
    ],
)
def test_a_huge_input_value_is_quoted_in_at_most_40_characters(capsys, tmp_path, monkeypatch, case):
    # a value of 401 digits, a 200-item list, or a string or list of 50,000
    # characters or items is quoted cut short
    system = json.loads(ser.dump(ser.system_to_json(builtin_examples()["alpha"])))
    canon = json.loads(ser.dump(ser.agler_to_json(canonical_fixture(grid_points=30))))
    box = ["--box", "0:2,0:2"]
    if case == "system-n":
        argv = ["check", write(tmp_path, "s.json", {**system, "n": BIG})]
    elif case == "system-n-list":
        argv = ["check", write(tmp_path, "s.json", {**system, "n": [0] * 200})]
    elif case == "system-dims":
        argv = ["check", write(tmp_path, "s.json", {**system, "dims": {**system["dims"], "x": BIG}})]
    elif case == "direction":
        argv = ["laxphillips", "builtin:alpha", "--op", "associated", *box, "--k", str(BIG)]
    elif case == "signal-point":
        signal = {"n": 2, "dim": 1, "entries": [{"t": [BIG, 0], "v": [[1.0, 0.0]]}]}
        argv = ["simulate", "builtin:alpha", "--input", write(tmp_path, "t.json", signal), *box, "--nmax", "2"]
    elif case == "samples":
        argv = ["check", "builtin:alpha", "--samples", str(BIG)]
    elif case == "coeffs":
        argv = ["transfer", "builtin:alpha", "--grid", "1", "--coeffs", str(BIG)]
    elif case == "grid":
        argv = ["transfer", "builtin:alpha", "--grid", str(BIG)]
    elif case == "nmax":
        argv = ["simulate", "builtin:alpha", "--input", impulse_file(tmp_path), *box, "--nmax", str(-BIG)]
    elif case == "seed":
        argv = ["check", "builtin:alpha", "--seed", str(-BIG)]
    elif case == "trials":
        argv = ["laxphillips", "builtin:alpha", "--op", "metric", *box, "--trials", str(-BIG)]
    elif case == "trials-budget":
        argv = ["laxphillips", "builtin:alpha", "--op", "commute", "--box", "0:4,0:4", "--trials", str(BIG)]
    elif case == "padding":
        argv = ["realize", write(tmp_path, "canon.json", canon), "--padding", str(-BIG)]
    elif case in ("theta-shape", "exponent", "exponent-twice"):
        theta = canon["theta"]
        if case == "theta-shape":
            theta["shape"] = [1] * 50_000
        else:
            term = {**theta["terms"][0], "t": [BIG, -1] if case == "exponent" else [BIG, 0]}
            theta["terms"] = [term] * (1 if case == "exponent" else 2)
        argv = ["realize", write(tmp_path, "canon.json", canon)]
    elif case == "env-tol":
        monkeypatch.setenv("NDSYS_TOL", "x" * 50_000)
        argv = ["check", "builtin:alpha"]
    elif case in ("config-key", "config-value"):
        config = {"k" * 50_000: 1 if case == "config-key" else None}
        argv = ["check", "builtin:alpha", "--config", write(tmp_path, "c.json", config)]
    elif case == "box-text":
        text = "0:1," * 3000 + "x"
        argv = ["simulate", "builtin:alpha", "--input", impulse_file(tmp_path), "--box", text, "--nmax", "2"]
    elif case == "empty-box":
        argv = ["laxphillips", "builtin:alpha", "--op", "metric", "--box", f"{BIG}:0,0:1"]
    else:
        vec = TruncatedLPVector(Box((-2, -2), (2, 2)), *(LatticeSignal(2, 1, {}) for _ in range(3)))
        vec = json.loads(ser.dump(ser.lp_vector_to_json(vec)))
        vec["box"]["lo"][1] = -BIG
        argv = ["laxphillips", "builtin:alpha", "--op", "gamma", "--vector", write(tmp_path, "v.json", vec)]
    code, report, err = run(capsys, argv)
    assert code == 2 and report is None and err.startswith("input error: ") and err.count("\n") == 1
    assert "..." in err and len(err) < 120, err
