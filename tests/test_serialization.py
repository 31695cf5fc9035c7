"""JSON interchange for systems, signals, polynomials, and fixtures."""

import json

import numpy as np
import pytest

import gen
from ndsys import (
    Box,
    DomainError,
    LatticeSignal,
    MatrixPolynomial,
    TruncatedLPVector,
    builtin_examples,
    canonical_fixture,
)
from ndsys import serialization as ser


def test_system_round_trip():
    rng = np.random.default_rng(0)
    sys = gen.random_system(rng, 2, 2, 3, 1)
    back = ser.json_to_system(json.loads(ser.dump(ser.system_to_json(sys))))
    for name in "abcd":
        for k in range(2):
            assert np.array_equal(getattr(back, name)[k], getattr(sys, name)[k])


def test_builtin_systems_round_trip():
    for sys in builtin_examples().values():
        back = ser.json_to_system(ser.system_to_json(sys))
        assert (back.dim_x, back.dim_in, back.dim_out) == (
            sys.dim_x,
            sys.dim_in,
            sys.dim_out,
        )
        assert np.array_equal(back.a[0], sys.a[0])


def test_system_dims_cross_checked():
    obj = ser.system_to_json(builtin_examples()["alpha"])
    obj["dims"]["x"] = 7
    with pytest.raises(DomainError):
        ser.json_to_system(obj)


def test_system_missing_key():
    obj = ser.system_to_json(builtin_examples()["alpha"])
    del obj["C"]
    with pytest.raises(DomainError):
        ser.json_to_system(obj)


def test_system_must_be_object():
    with pytest.raises(DomainError):
        ser.json_to_system([1, 2, 3])


def test_signal_round_trip():
    rng = np.random.default_rng(1)
    sig = gen.random_signal(rng, 2, 3, [(0, 0), (2, -1), (-1, 1)])
    back = ser.json_to_signal(ser.signal_to_json(sig))
    assert set(back.support) == set(sig.support)
    for t in sig.support:
        assert np.array_equal(back.value(t), sig.value(t))


def test_empty_signal_round_trip():
    sig = LatticeSignal(3, 2, {})
    back = ser.json_to_signal(ser.signal_to_json(sig))
    assert back.n == 3 and back.dim == 2 and not back.support


def _signal_to_json_per_entry(sig):
    # reference encoder: one complex scalar at a time
    return {
        "n": sig.n,
        "dim": sig.dim,
        "entries": [
            {"t": list(t), "v": [[complex(x).real, complex(x).imag] for x in v]}
            for t, v in sig.items()
        ],
    }


@pytest.mark.parametrize(
    "sig",
    [
        gen.random_signal(
            np.random.default_rng(5), 2, 3, [(0, 0), (2, -1), (-1, 1), (7, 3)]
        ),
        LatticeSignal(
            2,
            2,
            {
                (1, 0): np.array([complex(-0.0, 0.0), complex(0.0, -0.0)]),
                (0, 1): np.array([complex(-0.0, -0.0), 1e-300 - 2.5e300j]),
            },
        ),
        LatticeSignal(3, 2, {}),
        LatticeSignal(1, 0, {(4,): np.zeros(0, dtype=complex)}),
    ],
    ids=["random", "signed-zeros", "empty", "zero-dim"],
)
def test_signal_encoding_matches_per_entry_encoder(sig):
    text = ser.dump(ser.signal_to_json(sig))
    assert text == ser.dump(_signal_to_json_per_entry(sig))


def test_signal_encoding_keeps_negative_zero():
    sig = LatticeSignal(1, 1, {(0,): np.array([complex(-0.0, -0.0)])})
    assert ser.signal_to_json(sig)["entries"][0]["v"] == [[-0.0, -0.0]]
    assert "-0.0" in ser.dump(ser.signal_to_json(sig))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_signal_with_non_finite_value_is_rejected(bad):
    obj = ser.signal_to_json(
        LatticeSignal(2, 2, {(0, 0): np.ones(2, dtype=complex), (1, 0): np.ones(2, dtype=complex)})
    )
    obj["entries"][1]["v"][1] = [0.0, bad]
    with pytest.raises(DomainError, match=r"non-finite value at \[1, 0\]"):
        ser.json_to_signal(obj)


def test_poly_round_trip():
    poly = MatrixPolynomial(
        n=2,
        shape=(2, 1),
        coeffs={
            (0, 0): np.array([[1.0], [0.0]]),
            (2, 1): np.array([[0.5j], [-1.0]]),
        },
    )
    back = ser.json_to_poly(ser.poly_to_json(poly))
    assert back.n == poly.n and back.shape == poly.shape
    z = (0.3 + 0.1j, -0.2)
    assert np.allclose(back.evaluate(z), poly.evaluate(z))


def test_lp_vector_round_trip():
    box = Box((-2, -2), (2, 2))
    vec = TruncatedLPVector(
        box,
        LatticeSignal(2, 1, {(-1, 0): np.array([1.0 + 2.0j])}),
        LatticeSignal(2, 1, {(2, -2): np.array([0.5 + 0j])}),
        LatticeSignal(2, 1, {(1, 1): np.array([-1.0 + 0j])}),
    )
    back = ser.json_to_lp_vector(ser.lp_vector_to_json(vec))
    assert back.box == vec.box
    assert np.isclose(back.norm(), vec.norm())
    assert np.array_equal(back.u_plus.value((-1, 0)), vec.u_plus.value((-1, 0)))


def test_agler_round_trip():
    data = canonical_fixture(grid_points=10)
    back = ser.json_to_agler(ser.agler_to_json(data))
    assert back.grid == data.grid
    assert back.factor_dims == data.factor_dims
    z = (0.4, -0.3j)
    assert np.allclose(back.theta.evaluate(z), data.theta.evaluate(z))


def test_dump_is_deterministic_and_sorted():
    text = ser.dump({"b": 1, "a": [1.5, 2.0]})
    assert text == ser.dump({"a": [1.5, 2.0], "b": 1})
    assert text.index('"a"') < text.index('"b"')


def test_load_file_folds_errors(tmp_path):
    with pytest.raises(DomainError):
        ser.load_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        ser.load_file(str(bad))
    good = tmp_path / "good.json"
    good.write_text(ser.dump({"n": 1}))
    assert ser.load_file(str(good)) == {"n": 1}
