"""JSON interchange for systems, signals, polynomials, and fixtures."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
import oracles
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
    assert ser.dump(sig) == text


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072e-310, 1e300, -1e300, 0.1, -1.0]
_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def signals(draw):
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(0, 4))
    points = draw(
        st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=5, unique=True)
    )
    entries = {
        t: np.array(
            [complex(draw(_floats), draw(_floats)) for _ in range(dim)], dtype=complex
        ).reshape(dim)
        for t in points
    }
    return LatticeSignal(n, dim, entries)


_keys = st.text(alphabet="abcdeftuvxy_", max_size=4)
reports = st.recursive(
    st.one_of(signals(), _floats, st.integers(), _keys, st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_keys, inner, max_size=3)
    ),
    max_leaves=8,
)

_SIG = LatticeSignal(
    2, 2, {(-1, 3): np.array([1e300 - 0.0j, 5e-324j]), (0, -2): np.array([0.1, -1e-300])}
)


@settings(max_examples=150, deadline=None)
@given(reports)
@example(_SIG)
@example([1, _SIG, [_SIG, LatticeSignal(3, 0, {})]])
@example({"a": {"b": [{"c": _SIG}], "z": 1.5}, "b": LatticeSignal(1, 4, {})})
def test_dump_matches_the_reference_writer(obj):
    assert ser.dump(obj) == oracles.dump_reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": [1.0, float("nan")]},
        {"a": {"b": float("inf")}},
        -float("inf"),
    ],
    ids=["nan", "inf", "-inf"],
)
def test_dump_refuses_non_finite_numbers(obj):
    with pytest.raises(DomainError, match="report is not strict JSON"):
        ser.dump(obj)


def test_dump_refuses_a_string_equal_to_its_signal_placeholder():
    with pytest.raises(DomainError, match="placeholder"):
        ser.dump(["\x00LatticeSignal", LatticeSignal(1, 1, {})])


def test_dump_names_the_non_finite_signal_point():
    sig = LatticeSignal(2, 2, {(0, 0): np.ones(2), (1, -1): np.array([1.0, complex(0, np.inf)])})
    with pytest.raises(DomainError, match=r"non-finite signal value at \[1, -1\]"):
        ser.dump({"states": [sig]})


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_polynomial_with_non_finite_coefficient_is_rejected(bad):
    obj = ser.agler_to_json(canonical_fixture(grid_points=4))
    obj["theta"]["terms"][0]["m"][0][0] = [bad, 0.0]
    exponent = re.escape(str(obj["theta"]["terms"][0]["t"]))
    with pytest.raises(DomainError, match=f"non-finite coefficient at exponent {exponent}"):
        ser.json_to_agler(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_agler_grid_with_non_finite_point_is_rejected(bad):
    obj = ser.agler_to_json(canonical_fixture(grid_points=4))
    obj["grid"][2][1] = [0.1, bad]
    with pytest.raises(DomainError, match="non-finite grid point at index 2"):
        ser.json_to_agler(obj)


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
