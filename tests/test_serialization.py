"""JSON interchange for systems, signals, polynomials, and fixtures."""

import json
import math
import re
import warnings

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
    MultiLSDS,
    OperatorTuple,
    ShapeError,
    TruncatedLPVector,
    builtin_examples,
    canonical_fixture,
)
from ndsys import serialization as ser


def _parsed(encoded):
    """An encoder's output as a file holds it: plain JSON values."""
    return json.loads(ser.dump(encoded))


def test_system_round_trip():
    rng = np.random.default_rng(0)
    sys = gen.random_system(rng, 2, 2, 3, 1)
    back = ser.json_to_system(json.loads(ser.dump(ser.system_to_json(sys))))
    for name in "abcd":
        for k in range(2):
            assert np.array_equal(getattr(back, name)[k], getattr(sys, name)[k])


def test_builtin_systems_round_trip():
    for sys in builtin_examples().values():
        back = ser.json_to_system(_parsed(ser.system_to_json(sys)))
        assert (back.dim_x, back.dim_in, back.dim_out) == (
            sys.dim_x,
            sys.dim_in,
            sys.dim_out,
        )
        assert np.array_equal(back.a[0], sys.a[0])


def test_system_dims_cross_checked():
    obj = _parsed(ser.system_to_json(builtin_examples()["alpha"]))
    obj["dims"]["x"] = 7
    with pytest.raises(DomainError):
        ser.json_to_system(obj)


def test_system_missing_key():
    obj = _parsed(ser.system_to_json(builtin_examples()["alpha"]))
    del obj["C"]
    with pytest.raises(DomainError):
        ser.json_to_system(obj)


def test_system_must_be_object():
    with pytest.raises(DomainError):
        ser.json_to_system([1, 2, 3])


def test_signal_round_trip():
    rng = np.random.default_rng(1)
    sig = gen.random_signal(rng, 2, 3, [(0, 0), (2, -1), (-1, 1)])
    back = ser.json_to_signal(_parsed(ser.signal_to_json(sig)))
    assert set(back.support) == set(sig.support)
    for t in sig.support:
        assert np.array_equal(back.value(t), sig.value(t))


def test_empty_signal_round_trip():
    sig = LatticeSignal(3, 2, {})
    back = ser.json_to_signal(_parsed(ser.signal_to_json(sig)))
    assert back.n == 3 and back.dim == 2 and not back.support


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
    assert text == ser.dump(oracles.signal_to_json_dict(sig))
    assert text == json.dumps(oracles.signal_to_json_dict(sig), sort_keys=True, indent=2)


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
    st.one_of(signals().map(ser.signal_to_json), _floats, st.integers(), _keys, st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_keys, inner, max_size=3)
    ),
    max_leaves=8,
)

_SIG = ser.signal_to_json(LatticeSignal(
    2, 2, {(-1, 3): np.array([1e300 - 0.0j, 5e-324j]), (0, -2): np.array([0.1, -1e-300])}
))


@settings(max_examples=150, deadline=None)
@given(reports)
@example(_SIG)
@example([1, _SIG, [_SIG, ser.signal_to_json(LatticeSignal(3, 0, {}))]])
@example({"a": {"b": [{"c": _SIG}], "z": 1.5}, "b": ser.signal_to_json(LatticeSignal(1, 4, {}))})
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


_ints = st.one_of(st.sampled_from([0, -1, 2**63 - 1, -(2**63)]), st.integers(-(2**63), 2**63 - 1))
_trails = st.lists(st.integers(0, 3), max_size=2).map(tuple)


def _complex_array(draw, shape):
    size = math.prod(shape)
    pairs = draw(st.lists(_floats, min_size=2 * size, max_size=2 * size))
    return np.array(pairs, dtype=float).view(complex).reshape(shape)


@st.composite
def tables(draw):
    count = draw(st.integers(0, 4))
    fields = {}
    for name in draw(st.lists(_keys, min_size=1, max_size=3, unique=True)):
        shape = (count,) + draw(_trails)
        if draw(st.booleans()):
            size = math.prod(shape)
            ints = draw(st.lists(_ints, min_size=size, max_size=size))
            fields[name] = np.array(ints, dtype=np.int64).reshape(shape)
        else:
            fields[name] = _complex_array(draw, shape)
    return ser.Rows("table value", **fields)


@st.composite
def complex_arrays(draw):
    return _complex_array(draw, tuple(draw(st.lists(st.integers(0, 3), max_size=3))))


array_reports = st.recursive(
    st.one_of(tables(), complex_arrays(), _floats, st.integers(), _keys, st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_keys, inner, max_size=3)
    ),
    max_leaves=6,
)

_TABLE = ser.Rows(
    "table value",
    t=np.array([[0, -1], [2**63 - 1, 3]]),
    v=np.array([[1e300 - 0.0j, 5e-324j], [-1e-310, complex(-0.0, 1e-300)]]),
    w=np.zeros((2, 3, 0), dtype=complex),
)


@settings(max_examples=200, deadline=None)
@given(array_reports)
@example(_TABLE)
@example([_TABLE, 1, [_TABLE, ser.Rows("table value", z=np.zeros((0, 2), dtype=complex))]])
@example({"a": {"b": [{"c": _TABLE}], "z": 1.5}, "b": np.array(-0.0 + 1e300j)})
@example({"points": ser.Rows("table value", **{'a%d"b': np.arange(3), "": np.ones(3) * 1j})})
@example([np.zeros((2, 0, 3), dtype=complex), np.zeros((0,), dtype=complex)])
def test_dump_writes_tables_and_complex_arrays_as_the_reference_writer(obj):
    assert ser.dump(obj) == oracles.dump_reference(obj)


def test_dump_names_the_first_non_finite_table_row():
    values = np.ones((3, 2, 2), dtype=complex)
    values[2, 0, 1] = np.nan
    values[1, 1, 0] = complex(0, -np.inf)
    table = ser.Rows("transfer value", t=np.array([[0, 0], [4, -2], [1, 1]]), v=values)
    with pytest.raises(DomainError, match=r"non-finite transfer value at \[4, -2\]"):
        ser.dump({"points": table})
    first = ser.Rows("point", z=np.array([[1.0, np.inf]], dtype=complex), k=np.zeros(1, dtype=int))
    with pytest.raises(DomainError, match=r"report is not strict JSON: non-finite point"):
        ser.dump([first])


def test_dump_names_the_first_non_finite_array_entry():
    witness = np.array([[1.0, 2.0], [complex(np.nan, 0.0), np.inf]])
    with pytest.raises(DomainError, match=r"non-finite array value at \[1, 0\]"):
        ser.dump({"witness": witness})


def test_table_fields_must_share_rows_and_hold_ints_or_complex_numbers():
    with pytest.raises(ShapeError):
        ser.Rows("x", a=np.zeros(2, dtype=int), b=np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        ser.Rows("x", a=np.array(1j))
    with pytest.raises(ShapeError):
        ser.Rows("x")
    with pytest.raises(ShapeError):
        ser.Rows("x", a=np.zeros(2, dtype=int), b=np.zeros(2))


def test_dump_refuses_a_string_equal_to_its_signal_placeholder():
    with pytest.raises(DomainError, match="placeholder"):
        ser.dump(["\x00array", ser.signal_to_json(LatticeSignal(1, 1, {}))])


def test_dump_names_the_non_finite_signal_point():
    sig = LatticeSignal(2, 2, {(0, 0): np.ones(2), (1, -1): np.array([1.0, complex(0, np.inf)])})
    with pytest.raises(DomainError, match=r"non-finite signal value at \[1, -1\]"):
        ser.dump({"states": [ser.signal_to_json(sig)]})


def test_signal_encoding_keeps_negative_zero():
    sig = LatticeSignal(1, 1, {(0,): np.array([complex(-0.0, -0.0)])})
    assert _parsed(ser.signal_to_json(sig))["entries"][0]["v"] == [[-0.0, -0.0]]
    assert "-0.0" in ser.dump(ser.signal_to_json(sig))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_signal_with_non_finite_value_is_rejected(bad):
    obj = _parsed(ser.signal_to_json(
        LatticeSignal(2, 2, {(0, 0): np.ones(2, dtype=complex), (1, 0): np.ones(2, dtype=complex)})
    ))
    obj["entries"][1]["v"][1] = [0.0, bad]
    with pytest.raises(DomainError, match=r"^signal entries: v: item \[1, 1, 1\] is non-finite, got"):
        ser.json_to_signal(obj)


@settings(max_examples=100, deadline=None)
@given(signals(), st.randoms(use_true_random=False))
def test_array_codec_round_trips_like_the_dict_codec(sig, shuffle):
    assert ser.dump(ser.signal_to_json(sig)) == ser.dump(oracles.signal_to_json_dict(sig))
    obj = _parsed(ser.signal_to_json(sig))
    shuffle.shuffle(obj["entries"])  # a file need not list its points in order
    got, want = ser.json_to_signal(obj), oracles.json_to_signal_dict(obj)
    for back in (got, want):
        assert (back.n, back.dim) == (sig.n, sig.dim)
        assert oracles.same_bits(back.points, sig.points)
        assert oracles.same_bits(back.values, sig.values)


def test_signal_listing_a_point_twice_is_rejected():
    obj = {"n": 2, "dim": 1, "entries": [
        {"t": [0, 0], "v": [[1.0, 0.0]]},
        {"t": [1, 0], "v": [[2.0, 0.0]]},
        {"t": [0, 0], "v": [[5.0, 0.0]]},
    ]}
    with pytest.raises(DomainError, match=r"point \[0, 0\] is given twice"):
        ser.json_to_signal(obj)


@pytest.mark.parametrize("t", [[10**20, -(10**20)], [2**63, 0], [0, -(2**63) - 1], [0, 10**400]])
def test_signal_coordinate_outside_int64_is_rejected(t):
    obj = {"n": 2, "dim": 1, "entries": [{"t": t, "v": [[1.0, 0.0]]}]}
    named = str(t) if len(str(t)) <= 40 else str(t)[:37] + "..."  # a quote stops at 40 characters
    with pytest.raises(DomainError, match=re.escape(f"point {named} lies outside the int64")):
        ser.json_to_signal(obj)
    with pytest.raises(DomainError, match=re.escape(f"point {named} lies outside the int64")):
        LatticeSignal(2, 1, {tuple(t): np.ones(1)})


@pytest.mark.parametrize(
    "t, named",
    [([1.5, -0.5], "1.5"), ([0, -0.5], "-0.5"), ([2, float("nan")], "nan"), ([float("inf"), 0], "inf")],
)
def test_signal_coordinate_that_is_not_an_integer_is_rejected(t, named):
    obj = {"n": 2, "dim": 1, "entries": [{"t": t, "v": [[1.0, 0.0]]}]}
    message = rf"point \[.*\] has the non-integer coordinate {named}$"
    with pytest.raises(DomainError, match=message):
        ser.json_to_signal(obj)
    with pytest.raises(DomainError, match=message):
        LatticeSignal(2, 1, {tuple(t): np.ones(1)})
    with pytest.raises(DomainError, match=message):
        LatticeSignal.from_arrays(2, 1, np.array([t]), np.ones((1, 1)))


def test_signal_accepts_integral_floats():
    obj = {"n": 2.0, "dim": 1.0, "entries": [{"t": [1.0, -2.0], "v": [[1.0, 0.0]]}]}
    sig = ser.json_to_signal(obj)
    assert (sig.n, sig.dim) == (2, 1) and type(sig.n) is int
    assert oracles.same_bits(sig.points, np.array([[1, -2]]))
    assert LatticeSignal(2, 1, {(1.0, -2.0): np.ones(1)}).support == {(1, -2)}


@pytest.mark.parametrize("key, bad", [("n", 2.7), ("dim", 1.5), ("n", None), ("dim", "one")])
def test_signal_header_that_is_not_an_integer_is_rejected(key, bad):
    obj = {"n": 2, "dim": 1, "entries": [{"t": [0, 0], "v": [[1.0, 0.0]]}]}
    obj[key] = bad
    with pytest.raises(DomainError, match=re.escape(f"signal: {key} must be an integer, got {bad!r}")):
        ser.json_to_signal(obj)


def _decoder_objects():
    """A system, polynomial, vector and signal, each in its JSON layout."""
    vec = TruncatedLPVector(
        box=Box((-2, -2), (2, 2)),
        u_plus=LatticeSignal(2, 1, {}),
        y=LatticeSignal(2, 1, {(1, -1): np.ones(1)}),
        u_minus=LatticeSignal(2, 1, {}),
    )
    return (
        ser.system_to_json(builtin_examples()["alpha"]),
        ser.poly_to_json(canonical_fixture(4).theta),
        ser.lp_vector_to_json(vec),
        ser.signal_to_json(LatticeSignal(2, 1, {(0, 0): np.ones(1), (1, -1): np.ones(1)})),
    )


def _decoder_cases():
    sys_obj, poly_obj, vec_obj, _ = _decoder_objects()
    cases = [
        (ser.json_to_system, sys_obj, lambda o: o.__setitem__("n", 2.5), "system: n"),
        (ser.json_to_system, sys_obj, lambda o: o["dims"].__setitem__("x", 1.5), "system: dims x"),
        (ser.json_to_poly, poly_obj, lambda o: o.__setitem__("n", 1.5), "polynomial: n"),
        (ser.json_to_poly, poly_obj, lambda o: o["terms"][0].__setitem__("t", [0.5, 1]), "polynomial: exponent"),
        (ser.json_to_poly, poly_obj, lambda o: o.__setitem__("shape", [1, 1.5]), "polynomial: shape"),
        (ser.json_to_lp_vector, vec_obj, lambda o: o["box"].__setitem__("hi", [2, 2.5]), "vector box: hi"),
    ]
    return [pytest.param(*case, id=case[-1]) for case in cases]


@pytest.mark.parametrize("decode, obj, spoil, named", _decoder_cases())
def test_decoders_refuse_a_fractional_integer_field(decode, obj, spoil, named):
    obj = _parsed(obj)
    decode(obj)
    spoil(obj)
    with pytest.raises(DomainError, match=f"{named} must be an integer"):
        decode(obj)


def _string_cases():
    sys_obj, poly_obj, vec_obj, sig_obj = _decoder_objects()
    cases = [
        (ser.json_to_system, sys_obj, lambda o: o.__setitem__("n", "2"), "system: n", "'2'"),
        (ser.json_to_system, sys_obj, lambda o: o["dims"].__setitem__("x", "1"), "system: dims x", "'1'"),
        (ser.json_to_signal, sig_obj, lambda o: o.__setitem__("n", "2"), "signal: n", "'2'"),
        (ser.json_to_signal, sig_obj, lambda o: o.__setitem__("dim", "1"), "signal: dim", "'1'"),
        (
            ser.json_to_signal,
            sig_obj,
            lambda o: o["entries"][0].__setitem__("t", ["1", 0]),
            "a lattice coordinate",
            "'1'",
        ),
        (
            ser.json_to_signal,
            sig_obj,
            lambda o: o["entries"][1].__setitem__("t", [1, "-1"]),
            "a lattice coordinate",
            "'-1'",
        ),
        (ser.json_to_poly, poly_obj, lambda o: o.__setitem__("n", "2"), "polynomial: n", "'2'"),
        (ser.json_to_poly, poly_obj, lambda o: o.__setitem__("shape", [1, "1"]), "polynomial: shape", "'1'"),
        (ser.json_to_poly, poly_obj, lambda o: o["terms"][0].__setitem__("t", ["0", 1]), "polynomial: exponent", "'0'"),
        (ser.json_to_poly, poly_obj, lambda o: o["terms"][0].__setitem__("t", "01"), "polynomial: exponent", "'0'"),
        (ser.json_to_lp_vector, vec_obj, lambda o: o["box"].__setitem__("lo", ["-2", -2]), "vector box: lo", "'-2'"),
        (ser.json_to_lp_vector, vec_obj, lambda o: o["box"].__setitem__("hi", [2, "2"]), "vector box: hi", "'2'"),
        (
            ser.json_to_lp_vector,
            vec_obj,
            lambda o: o["y"]["entries"][0].__setitem__("t", [1, "-1"]),
            "a lattice coordinate",
            "'-1'",
        ),
    ]
    return [pytest.param(*case, id=f"{case[-2]} {case[-1]}") for case in cases]


@pytest.mark.parametrize("decode, obj, spoil, named, quoted", _string_cases())
def test_decoders_refuse_a_string_in_an_integer_field(decode, obj, spoil, named, quoted):
    # int("2") parses, but `whole` refuses the string, as the library does
    obj = _parsed(obj)
    decode(obj)
    spoil(obj)
    with pytest.raises(DomainError, match=re.escape(f"{named} must be an integer, got {quoted}")):
        decode(obj)


def test_signal_order_outside_int64_is_rejected():
    with pytest.raises(DomainError, match="outside the int64"):
        LatticeSignal(2, 1, {(2**62, 2**62): np.ones(1)})


def test_poly_round_trip():
    poly = MatrixPolynomial(
        n=2,
        shape=(2, 1),
        coeffs={
            (0, 0): np.array([[1.0], [0.0]]),
            (2, 1): np.array([[0.5j], [-1.0]]),
        },
    )
    back = ser.json_to_poly(_parsed(ser.poly_to_json(poly)))
    assert back.n == poly.n and back.shape == poly.shape
    z = (0.3 + 0.1j, -0.2)
    assert np.allclose(back.evaluate(z), poly.evaluate(z))


@pytest.mark.parametrize(
    "poly",
    [
        MatrixPolynomial(n=2, shape=(1, 1), coeffs={}),
        MatrixPolynomial(n=1, shape=(2, 3), coeffs={(4,): np.full((2, 3), -0.0 + 1e-300j)}),
        MatrixPolynomial(
            n=3,
            shape=(2, 1),
            coeffs={(0, 2, 1): [[0.5j], [-0.0]], (1, 0, 0): [[5e-324], [1e300 - 0.1j]], (0, 0, 0): [[1], [0]]},
        ),
        MatrixPolynomial(n=2, shape=(2, 0), coeffs={(1, 1): np.zeros((2, 0))}),
    ],
)
def test_poly_fields_are_written_as_poly_to_json(poly):
    assert ser.dump({"p": ser.poly_to_json(poly)}) == oracles.dump_reference({"p": ser.poly_to_json(poly)})


@pytest.mark.parametrize(
    "sys",
    [
        pytest.param(builtin_examples()["alpha"], id="alpha"),
        pytest.param(builtin_examples()["alpha_prime"], id="alpha_prime"),
        pytest.param(gen.random_system(np.random.default_rng(1), 3, 4, 2, 3), id="random-n3"),
        pytest.param(gen.random_system(np.random.default_rng(2), 1, 1, 3, 1), id="random-n1"),
        pytest.param(gen.random_system(np.random.default_rng(3), 2, 0, 1, 2), id="dim-x-0"),
    ],
)
def test_system_fields_are_written_as_system_to_json(sys):
    assert ser.dump({"s": ser.system_to_json(sys)}) == oracles.dump_reference({"s": ser.system_to_json(sys)})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_polynomial_with_non_finite_coefficient_is_rejected(bad):
    obj = _parsed(ser.agler_to_json(canonical_fixture(grid_points=4)))
    obj["theta"]["terms"][0]["m"][0][0] = [bad, 0.0]
    with pytest.raises(DomainError, match=r"^polynomial terms: m: item \[0, 0, 0, 0\] is non-finite, got"):
        ser.json_to_agler(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_agler_grid_with_non_finite_point_is_rejected(bad):
    obj = _parsed(ser.agler_to_json(canonical_fixture(grid_points=4)))
    obj["grid"][2][1] = [0.1, bad]
    with pytest.raises(DomainError, match=r"^decomposition data: grid: item \[2, 1, 1\] is non-finite, got"):
        ser.json_to_agler(obj)


def test_lp_vector_round_trip():
    box = Box((-2, -2), (2, 2))
    vec = TruncatedLPVector(
        box,
        LatticeSignal(2, 1, {(-1, 0): np.array([1.0 + 2.0j])}),
        LatticeSignal(2, 1, {(2, -2): np.array([0.5 + 0j])}),
        LatticeSignal(2, 1, {(1, 1): np.array([-1.0 + 0j])}),
    )
    back = ser.json_to_lp_vector(_parsed(ser.lp_vector_to_json(vec)))
    assert back.box == vec.box
    assert np.isclose(back.norm(), vec.norm())
    assert np.array_equal(back.u_plus.value((-1, 0)), vec.u_plus.value((-1, 0)))


def test_agler_round_trip():
    data = canonical_fixture(grid_points=10)
    back = ser.json_to_agler(_parsed(ser.agler_to_json(data)))
    assert back.grid == data.grid
    assert back.factor_dims == data.factor_dims
    z = (0.4, -0.3j)
    assert np.allclose(back.theta.evaluate(z), data.theta.evaluate(z))


def _same_poly(a, b):
    return (a.n, a.shape, sorted(a.coeffs)) == (b.n, b.shape, sorted(b.coeffs)) and all(
        oracles.same_bits(a.coeffs[t], b.coeffs[t]) for t in a.coeffs
    )


def _same_system(a, b):
    return all(
        oracles.same_bits(np.array(getattr(a, name).mats), np.array(getattr(b, name).mats))
        for name in "abcd"
    )


def _same_agler(a, b):
    return (
        _same_poly(a.theta, b.theta)
        and len(a.factors) == len(b.factors)
        and all(map(_same_poly, a.factors, b.factors))
        and oracles.same_bits(np.array(a.grid, dtype=complex), np.array(b.grid, dtype=complex))
    )


def _same_vector(a, b):
    return a.box == b.box and all(
        (x.n, x.dim) == (y.n, y.dim)
        and oracles.same_bits(x.points, y.points)
        and oracles.same_bits(x.values, y.values)
        for x, y in ((a.u_plus, b.u_plus), (a.y, b.y), (a.u_minus, b.u_minus))
    )


def _signed_zero_system():
    entries = (complex(-0.0, 0.0), complex(0.0, -0.0), 1e-300 - 2.5e300j, complex(-0.0, -0.0))
    return MultiLSDS(*(OperatorTuple((np.array([[v]]), -np.array([[v]]))) for v in entries))


_CODECS = {
    "system": (ser.system_to_json, ser.json_to_system, _same_system),
    "poly": (ser.poly_to_json, ser.json_to_poly, _same_poly),
    "agler": (ser.agler_to_json, ser.json_to_agler, _same_agler),
    "vector": (ser.lp_vector_to_json, ser.json_to_lp_vector, _same_vector),
}


def _round_trip_cases():
    rng = np.random.default_rng(22)
    signed_poly = MatrixPolynomial(
        n=3,
        shape=(2, 1),
        coeffs={(0, 2, 1): [[0.5j], [-0.0]], (1, 0, 0): [[5e-324], [1e300 - 0.1j]], (0, 0, 0): [[1], [0]]},
    )
    vector = TruncatedLPVector(
        Box((-2, -1), (2, 3)),
        LatticeSignal(2, 1, {(-1, 0): np.array([complex(-0.0, 0.0)]), (0, -1): np.array([5e-324 - 0.0j])}),
        LatticeSignal(2, 3, {(1, -1): np.array([1j, -0.0, 2.0])}),
        LatticeSignal(2, 0, {(1, 1): np.zeros(0)}),
    )
    cases = {
        "alpha": ("system", builtin_examples()["alpha"]),
        "alpha_prime": ("system", builtin_examples()["alpha_prime"]),
        "random-n3": ("system", gen.random_system(rng, 3, 4, 2, 3)),
        "dim-x-0": ("system", gen.random_system(rng, 2, 0, 1, 2)),
        "signed-zero-system": ("system", _signed_zero_system()),
        "empty-poly": ("poly", MatrixPolynomial(n=2, shape=(1, 1))),
        "signed-zero-poly": ("poly", signed_poly),
        "zero-column-poly": ("poly", MatrixPolynomial(n=2, shape=(2, 0), coeffs={(1, 1): np.zeros((2, 0))})),
        "zero-row-poly": ("poly", MatrixPolynomial(n=1, shape=(0, 3), coeffs={(2,): np.zeros((0, 3))})),
        "canonical": ("agler", canonical_fixture(grid_points=6)),
        "inner-n3-q2": ("agler", gen.inner_fixture(rng, 3, 2)),
        "zero-row-factor": ("agler", gen.zero_row_fixture(5)),
        "vector": ("vector", vector),
    }
    return [pytest.param(*_CODECS[kind], obj, id=name) for name, (kind, obj) in cases.items()]


@pytest.mark.parametrize("encode, decode, same, obj", _round_trip_cases())
def test_text_round_trip_restores_every_bit(encode, decode, same, obj):
    text = ser.dump(encode(obj))
    back = decode(json.loads(text))
    assert same(back, obj)
    assert ser.dump(encode(back)) == text


def test_poly_listing_an_exponent_twice_is_rejected():
    obj = {"n": 2, "shape": [1, 1], "terms": [
        {"t": [1, 1], "m": [[[1.0, 0.0]]]},
        {"t": [0, 1], "m": [[[2.0, 0.0]]]},
        {"t": [1, 1], "m": [[[5.0, 0.0]]]},
    ]}
    with pytest.raises(DomainError, match=re.escape("polynomial: exponent [1, 1] is given twice")):
        ser.json_to_poly(obj)


def _trials(trials):
    from ndsys.laxphillips import metric_check

    return metric_check(builtin_examples()["alpha"], Box((0, 0), (4, 4)), trials=trials)


@pytest.mark.parametrize(
    "build, named, quoted",
    [
        # the key ("1", 1) no longer names the exponent (1, 1)
        (lambda: MatrixPolynomial(2, (1, 1), {(1, 1): np.ones((1, 1)), ("1", 1): np.ones((1, 1))}), None, "'1'"),
        (lambda: Box((0, "1"), (1, 2)), None, "'1'"),
        (lambda: LatticeSignal.from_arrays(2, 1, [["1", 0]], np.ones((1, 1))), None, "'1'"),
        (lambda: LatticeSignal(2, 1, {(0, "1"): np.ones(1)}), None, "'1'"),
        # a float conversion would drop the imaginary part with a warning
        (lambda: LatticeSignal.from_arrays(2, 1, np.array([[1 + 1j, 0]]), np.ones((1, 1))), None, "(1+1j)"),
        (lambda: LatticeSignal.from_arrays(2, 1, [[1 + 0j, 0]], np.ones((1, 1))), None, "(1+0j)"),
        # int() truncated a shape of 1.5, and a string met its floor with a bare TypeError
        (lambda: MatrixPolynomial(2, ("1", 1), {}), "polynomial: shape", "'1'"),
        (lambda: MatrixPolynomial(2, (1.5, 1), {(1, 0): np.ones((1, 1))}), "polynomial: shape", "1.5"),
        (lambda: MatrixPolynomial("2", (1, 1), {}), "variable count", "'2'"),
        (lambda: LatticeSignal("2", 1, {}), "lattice dimension", "'2'"),
        (lambda: LatticeSignal(2, 1.5, {}), "value dimension", "1.5"),
        (lambda: _trials(2.5), "trials", "2.5"),
    ],
)
def test_the_library_reads_every_integer_as_a_file_does(build, named, quoted):
    # one reader, `whole`, serves both: int("1") parses, but "1" != 1
    named = named or "a lattice coordinate"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"{named} must be an integer, got {quoted}")):
            build()


def _floors():
    """Each library floor as ``(name, call)``: ``call(count)`` runs it on
    ``count`` and returns what it built, as arrays or a tuple of them."""
    from ndsys import assemble_colligation, maclaurin_poly, simulate, transfer_eval_series
    from ndsys.laxphillips import commutation_residual
    from ndsys.lattice import SimulationWindow

    alpha = builtin_examples()["alpha"]
    box = Box((0, 0), (4, 4))
    impulse = LatticeSignal(2, 1, {(0, 0): np.ones(1)})

    def window(count):
        run = simulate(alpha, SimulationWindow(Box((0, 0), (3, 3)), count), impulse, LatticeSignal(2, 1, {}))
        return run.states.values, run.outputs.values

    def poly(count):
        p = maclaurin_poly(alpha, count)
        return sorted(p.coeffs), np.array(list(p.coeffs.values()))

    return [
        ("terms", lambda count: transfer_eval_series(alpha, np.array([0.3, -0.2j]), count)),
        ("max_order", poly),
        ("trials", lambda count: np.array(_trials(count).ratios)),
        ("trials", lambda count: commutation_residual(alpha, 0, 1, box, trials=count)),
        ("extra_padding", lambda count: assemble_colligation(canonical_fixture(grid_points=30), count).system.a[0]),
        ("n_max", window),
        ("lattice dimension", lambda count: LatticeSignal(count, 1, {(0, 0): np.ones(1)}).points),
        ("value dimension", lambda count: LatticeSignal(2, count, {(0, 0): np.ones(2)}).values),
        ("variable count", lambda count: MatrixPolynomial(count, (1, 1), {(1, 0): np.ones((1, 1))}).evaluate((0.5, 0.5))),
    ]


@pytest.mark.parametrize("named, call", _floors(), ids=[name for name, _ in _floors()])
def test_an_integral_float_at_a_floor_goes_on_as_its_int(named, call):
    # `whole` reads 2.0 as 2, and the floor hands that int on: the float
    # builds the same bits, and a fraction is refused as a file's would be
    def bits(out):
        return [np.asarray(v).tobytes() for v in (out if isinstance(out, tuple) else (out,))]

    assert bits(call(2.0)) == bits(call(2))
    with pytest.raises(DomainError, match=re.escape(f"{named} must be an integer, got 2.5")):
        call(2.5)


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


def test_load_file_refuses_an_integer_past_the_digit_limit(tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text("[1" + "0" * 5000 + "]")
    with pytest.raises(DomainError, match="invalid JSON"):
        ser.load_file(str(huge))


# what a JSON number may be in an [re, im] pair: a float, an int (one past
# int64 takes the decoder's slow path) or a bool, which reads as 0 or 1
_numbers = st.one_of(_floats, st.integers(-(10**300), 10**300), st.booleans())


def _nest(flat: list, shape: tuple[int, ...]):
    """``flat`` as nested lists of ``shape``."""
    if len(shape) == 1:
        return list(flat)
    step = math.prod(shape[1:])
    return [_nest(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def complex_fields(draw, min_items=0):
    """A list of items, each nested lists of a drawn shape ending in
    [re, im] pairs, and that shape."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    full = (draw(st.integers(min_items, 4)), *shape, 2)
    size = math.prod(full)
    return _nest(draw(st.lists(_numbers, min_size=size, max_size=size)), full), shape


@settings(max_examples=300, deadline=None)
@given(complex_fields())
def test_the_decoder_reads_nested_pairs_as_numpy_does(field):
    obj, shape = field
    got = ser._complex(obj, "field", shape)
    want = np.array(obj, dtype=float).reshape((len(obj), *shape, 2)).view(complex)[..., 0]
    assert got.dtype == complex and got.shape == (len(obj), *shape)
    assert got.tobytes() == want.tobytes()


def _nodes(node, path, rest):
    """Every node under ``node`` at ``path``, with the shape it should have."""
    yield path, node, rest
    if rest:
        for i, child in enumerate(node):
            yield from _nodes(child, path + [i], rest[1:])


@st.composite
def corrupted_fields(draw):
    """A field with one node replaced, its shape and the replaced node's
    index path."""
    obj, shape = draw(complex_fields(min_items=1))
    nodes = [n for i, item in enumerate(obj) for n in _nodes(item, [i], (*shape, 2))]
    path, node, rest = draw(st.sampled_from(nodes))
    bad = [st.text(max_size=3), st.none()]
    if rest:  # a list: a ragged sibling (a triple at the pair level) or a bare number
        sibling = _nest([0.0] * math.prod(rest[1:]), rest[1:]) if len(rest) > 1 else 0.0
        bad += [st.just(node + [sibling]), _numbers]
        if node:
            bad.append(st.just(node[:-1]))
    else:  # a number: one that is not finite as a float
        bad.append(st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)]))
    replaced = draw(st.one_of(bad))
    if path[1:]:
        parent = obj[path[0]]
        for i in path[1:-1]:
            parent = parent[i]
        parent[path[-1]] = replaced
    else:
        obj[path[0]] = replaced
    return obj, shape, path


@settings(max_examples=500, deadline=None)
@given(corrupted_fields())
def test_the_decoder_names_the_one_corrupted_item(field):
    obj, shape, path = field
    with pytest.raises(DomainError) as exc:
        ser._complex(obj, "field", shape)
    assert str(exc.value).startswith(f"field: item {path} "), (str(exc.value), path)


@pytest.mark.parametrize("obj", [5, {"a": 1}, "[]", None], ids=["number", "object", "string", "null"])
def test_the_decoder_refuses_a_field_that_is_no_list(obj):
    with pytest.raises(DomainError, match=f"^field must be a list, got {type(obj).__name__}$"):
        ser._complex(obj, "field", (2,))


@pytest.mark.parametrize(
    "read, obj, field",
    [
        (ser.json_to_signal, {"n": 2, "dim": 10**30, "entries": []}, "signal entries: v"),
        (ser.json_to_system, {"n": 0, "dims": {"x": 2**40, "nm": 1, "np": 1}, "A": [], "B": [], "C": [], "D": []},
         "system: A"),
        (ser.json_to_poly, {"n": 1, "shape": [10**30, 1], "terms": []}, "polynomial terms: m"),
    ],
    ids=["signal", "system", "polynomial"],
)
def test_an_empty_field_whose_item_shape_numpy_cannot_hold_is_refused(read, obj, field):
    with pytest.raises(DomainError, match=rf"^{field}: items of shape \[.*\] are past numpy's range$"):
        read(obj)
