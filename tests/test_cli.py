"""Command-line entry point: exit codes, report schema, and precedence."""

import json
import subprocess
import sys as _sys
import warnings

import numpy as np
import pytest

import gen
import oracles
from ndsys import (
    Box,
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
    "points, named, kind",
    [
        ([[["a", 0.0], [0.1, 0.0]]], "[['a', 0.0], [0.1, 0.0]]", "[re, im] pairs"),
        ([[0.1, 0.2]], "[0.1, 0.2]", "[re, im] pairs"),
        ([[[0.1], [0.1, 0.0]]], "[[0.1], [0.1, 0.0]]", "[re, im] pairs"),
        ([[[0.1, 0.0, 5.0], [0.1, 0.0]]], "[[0.1, 0.0, 5.0], [0.1, 0.0]]", "[re, im] pairs"),
        ([[[0.1, 0.0], [0.2, 0.0]], 7], "7", "[re, im] pairs"),
        ([[[0.1, 0.0], [0.2, 0.0]], [[0.1, 0.0, 1.0], [0.2, 0.0, 1.0]]],
         "[[0.1, 0.0, 1.0], [0.2, 0.0, 1.0]]", "[re, im] pairs"),
        ([[[0.1, 0.0], [0.2, 0.0]], []], "[]", "arity 0"),
        ([[[float("nan"), 0.0], [0.2, 0.0]], [[0.1]]], "[[nan, 0.0], [0.2, 0.0]]", "non-finite"),
    ],
    ids=["string", "bare-pair", "short-pair", "long-pair", "number", "all-long", "empty-point",
         "non-finite-first"],
)
def test_malformed_points_file_is_an_input_error(capsys, tmp_path, points, named, kind):
    path = write(tmp_path, "bad.json", points)
    code, report, err = run(capsys, ["transfer", "builtin:alpha", "--points", path])
    assert code == 2 and report is None
    assert err.startswith("input error: point " + named) and kind in err


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
        ([{"t": [10**20, -(10**20)], "v": [[1.0, 0.0]]}], f"[{10**20}, {-(10**20)}]"),
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
    ],
    ids=["commute", "metric"],
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
        ("realize", ["grid"], [5], "grid point at index 0"),
        ("realize", ["factors"], 3, "factors must be a list"),
        ("realize", ["theta", "terms"], 5, "terms must be a list"),
        ("realize", ["theta", "terms", 0, "t"], 5, "t must list exponents"),
        ("realize", ["theta", "shape"], [1], "shape must be a [rows, cols] list"),
        ("realize", ["theta", "terms", 0, "m"], [[[1.0, 0.0]], []], "polynomial term: m: matrix rows"),
        ("check", ["A", 0], [[[0.0, 0.0]], []], "system: A: matrix rows"),
        ("check", ["dims"], [1, 1, 1], "dims must be an object"),
        ("check", ["A", 0, 0, 0], ["a", 0.0], "system: A: expected a [re, im] pair of numbers"),
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


def test_transfer_point_budget_is_checked_before_a_points_file_is_evaluated(capsys, tmp_path, monkeypatch):
    import ndsys.cli

    def evaluate(*args, **kwargs):
        raise AssertionError("a pencil was evaluated")

    pts = write(tmp_path, "pts.json", [[[0.1, 0.0], [0.2, 0.0]]] * 3)
    monkeypatch.setattr(ndsys.cli, "_POINT_BUDGET", 2 * 4)
    monkeypatch.setattr(ndsys.transfer, "eval_pencil", evaluate)
    code, report, err = run(capsys, ["transfer", "builtin:alpha", "--points", pts])
    assert code == 2 and report is None
    assert "input error" in err and "3 points of 4 values each" in err
    monkeypatch.setattr(ndsys.cli, "_POINT_BUDGET", 3 * 4)
    with pytest.raises(AssertionError, match="a pencil was evaluated"):
        main(["transfer", "builtin:alpha", "--points", pts])


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
        assert "the request spans 19999999 lattice points or more" in err
        assert "window" not in err


@pytest.mark.parametrize("op", ["generator", "adjoint"])
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
