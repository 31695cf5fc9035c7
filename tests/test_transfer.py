"""Transfer functions on the polydisc and their Maclaurin data."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracles
from ndsys import (
    ArityError,
    DivergenceError,
    DomainError,
    MatrixPolynomial,
    MultiLSDS,
    OperatorTuple,
    RangeError,
    SingularityError,
    builtin_examples,
    maclaurin_poly,
    multinomial,
    transfer_eval,
    transfer_eval_series,
)
from ndsys.numerics import halton_disc
from ndsys.pencil import _check_weights, eval_pencil
from ndsys.system import _lift, conjugate


def fft_coefficients(sys, max_order, grid=16, radius=0.3):
    """Taylor coefficients recovered by torus sampling, independent of the
    multipower route.

    Aliasing picks up the series tail beyond the grid order; keep the
    pencil norm at the sampling radius below ~0.4 and the tail is under
    0.4**16 ~ 4e-7, inside the 1e-6 oracle tolerance."""
    n = sys.n
    axes = [np.exp(2j * np.pi * np.arange(grid) / grid) for _ in range(n)]
    samples = np.zeros((grid,) * n + (sys.dim_out, sys.dim_in), dtype=complex)
    for idx in itertools.product(range(grid), repeat=n):
        z = tuple(radius * axes[i][j] for i, j in enumerate(idx))
        samples[idx] = transfer_eval(sys, z)
    spectrum = np.fft.fftn(samples, axes=tuple(range(n))) / grid**n
    out = {}
    for t in itertools.product(range(max_order + 1), repeat=n):
        if 0 < sum(t) <= max_order:
            out[t] = spectrum[t] / radius ** sum(t)
    return out


def test_transfer_vanishes_at_zero():
    rng = np.random.default_rng(0)
    sys = gen.random_system(rng, 2, 3, 2, 2)
    z0 = (0.0, 0.0)
    assert np.allclose(transfer_eval(sys, z0), 0.0)


def test_example_transfer_is_the_coordinate_product():
    ex = builtin_examples()
    rng = np.random.default_rng(1)
    for name, sys in ex.items():
        for _ in range(10):
            z = tuple(rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.3, 0.3) for _ in range(2))
            val = transfer_eval(sys, z)
            assert np.allclose(val, z[0] * z[1], atol=1e-12), name


def test_alpha_prime_spot_value():
    val = transfer_eval(builtin_examples()["alpha_prime"], (0.3, -0.7j))
    assert np.allclose(val, [[-0.21j]])


def test_series_matches_resolvent_inside_the_disc():
    rng = np.random.default_rng(2)
    sys = gen.random_system(rng, 2, 3, 2, 2, scale=0.3)
    for z in halton_disc(10, 2, 0.5):
        exact = transfer_eval(sys, z)
        approx = transfer_eval_series(sys, z, 60)
        assert np.abs(exact - approx).max() <= 1e-10


def test_series_refuses_divergent_pencil():
    a = np.array([[2.0 + 0j]])
    zeros = np.zeros((1, 1), dtype=complex)
    sys = MultiLSDS(
        a=OperatorTuple((a, zeros.copy())),
        b=OperatorTuple((zeros.copy(), zeros.copy())),
        c=OperatorTuple((zeros.copy(), zeros.copy())),
        d=OperatorTuple((zeros.copy(), zeros.copy())),
    )
    with pytest.raises(DivergenceError):
        transfer_eval_series(sys, (0.6, 0.0), 10)


def test_singular_resolvent_is_reported():
    a = np.array([[2.0 + 0j]])
    zeros = np.zeros((1, 1), dtype=complex)
    sys = MultiLSDS(
        a=OperatorTuple((a, zeros.copy())),
        b=OperatorTuple((zeros.copy(), zeros.copy())),
        c=OperatorTuple((zeros.copy(), zeros.copy())),
        d=OperatorTuple((zeros.copy(), zeros.copy())),
    )
    with pytest.raises(SingularityError) as exc:
        transfer_eval(sys, (0.5, 0.0))
    assert exc.value.sigma_min <= 1e-13


def first_point_failure(fn, points):
    """The error the pointwise oracle raises first, walking the points in
    order, or None."""
    for z in points:
        try:
            fn(z)
        except (SingularityError, DivergenceError) as exc:
            return exc
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(1, 2),
    st.integers(0, 30),
    st.floats(0.1, 1.5),
    st.integers(0, 30),
    st.integers(0, 2**32 - 1),
)
def test_stacked_transfer_matches_the_pointwise_oracles(n, dim_x, dim_io, count, radius, terms, seed):
    rng = np.random.default_rng(seed)
    sys = gen.random_system(rng, n, dim_x, dim_io, dim_io + 1, scale=0.4)
    z = radius * (rng.random((count, n)) * np.exp(2j * np.pi * rng.random((count, n))))
    # the series sums by Horner's rule in (zA)^2, in another order than the
    # two-product oracle; without a state there is nothing to sum, and both
    # give zD + 0
    series_agrees = oracles.same_bits if dim_x == 0 else within_1e12
    cases = (
        (transfer_eval, oracles.transfer_eval_point, (), oracles.same_bits),
        (transfer_eval_series, oracles.transfer_eval_series_point, (terms,), series_agrees),
    )
    for fn, oracle, extra, agree in cases:
        want = first_point_failure(lambda p: oracle(sys, p, *extra), z)
        if want is not None:
            with pytest.raises(type(want)) as exc:
                fn(sys, z, *extra)
            assert str(exc.value) == str(want)
            assert getattr(exc.value, "sigma_min", None) == getattr(want, "sigma_min", None)
            continue
        stack = fn(sys, z, *extra)
        assert stack.shape == (count, sys.dim_out, sys.dim_in)
        for p, value in zip(z, stack):
            assert agree(value, oracle(sys, p, *extra))
            assert oracles.same_bits(fn(sys, p, *extra), value)


# both parities, the two without a (zA)^2 step, and the benchmark's count
_EDGE_TERMS = [0, 1, 2, 3, 30]


@pytest.mark.parametrize("terms", _EDGE_TERMS)
@pytest.mark.parametrize("dim_x", [0, 1, 4])
def test_the_paired_series_agrees_with_both_oracles_at_either_parity(terms, dim_x):
    rng = np.random.default_rng(40 + 10 * dim_x + terms)
    sys = gen.dissipative_system(rng, 3, dim_x, 2)
    z = halton_disc(9, 3, 0.9)
    stack = transfer_eval_series(sys, z, terms)
    if dim_x == 0:
        assert oracles.same_bits(stack, eval_pencil(z, sys.d))
    for p, value in zip(z, stack):
        assert oracles.same_bits(transfer_eval_series(sys, p, terms), value)
        assert within_1e12(value, oracles.transfer_eval_series_point(sys, p, terms))
        assert within_1e12(value, oracles.transfer_eval_series_horner(sys, p, terms))


def within_1e12(got, want):
    """Agreement to 1e-12 relative to the larger of 1 and the oracle value."""
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


def _diagonal_state_system():
    # A_1 = diag(2, 1), A_2 = 0: I - zA is singular where z_1 is 1/2 or 1,
    # and ||zA|| = 2 |z_1|
    zeros = np.zeros((2, 2), dtype=complex)
    return MultiLSDS(
        a=OperatorTuple((np.diag([2.0, 1.0]).astype(complex), zeros)),
        b=OperatorTuple((np.eye(2, dtype=complex), zeros)),
        c=OperatorTuple((np.eye(2, dtype=complex), zeros)),
        d=OperatorTuple((zeros, zeros)),
    )


def test_stacked_singularity_names_the_first_singular_point():
    sys = _diagonal_state_system()
    z = np.array([(0.1, 0.0), (0.2, 0.9j), (1.0, 0.3), (0.5, 0.0), (0.5, 0.7)])
    oracle = functools.partial(oracles.transfer_eval_point, sys)
    want = first_point_failure(oracle, z)
    assert str(want) == str(first_point_failure(oracle, z[2:3]))  # the third point
    with pytest.raises(SingularityError) as exc:
        transfer_eval(sys, z)
    assert str(exc.value) == str(want)
    assert exc.value.sigma_min == want.sigma_min <= 1e-13


@pytest.mark.parametrize("terms", _EDGE_TERMS)
def test_stacked_series_divergence_names_the_first_divergent_point(terms):
    sys = _diagonal_state_system()
    z = np.array([(0.1, 0.0), (0.3, 0.9), (-0.7j, 0.0), (0.6, 0.0)])
    oracle = functools.partial(oracles.transfer_eval_series_point, sys, terms=terms)
    want = first_point_failure(oracle, z)
    assert "got 1.400000" in str(want)  # z_1 = -0.7j, the third point
    with pytest.raises(DivergenceError) as exc:
        transfer_eval_series(sys, z, terms)
    assert str(exc.value) == str(want)


# ||zA||_F = sqrt(5) |z_1| on the diagonal system, so the resolvent screen
# (0.99) sits at |z_1| = 0.4427 and the series screen (1) at 0.4472; the
# spectral norm 2 |z_1| reaches 1, and I - zA turns singular, at 0.5
_SCREENED = [(0.1, 0.9), (0.3j, 0.0), (0.44, 0.2), (-0.4, 0.0)]
_PAST_THE_SCREENS = [(0.45, 0.0), (0.49j, 0.5), (-0.47, 0.1)]


def _svd_rows(monkeypatch):
    """The matrix counts of every `np.linalg.svd` call from now on."""
    rows, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: rows.append(len(m)) or svd(m, **kw))
    return rows


def test_only_the_points_past_the_frobenius_screen_reach_an_svd(monkeypatch):
    sys = _diagonal_state_system()
    rows = _svd_rows(monkeypatch)
    transfer_eval(sys, np.array(_SCREENED))
    transfer_eval_series(sys, np.array(_SCREENED), 7)
    assert rows == []
    z = np.array(_SCREENED[:2] + _PAST_THE_SCREENS + _SCREENED[2:])
    values = transfer_eval(sys, z)
    approx = transfer_eval_series(sys, z, 7)
    assert rows == [len(_PAST_THE_SCREENS)] * 2
    for p, value, partial in zip(z, values, approx):
        assert oracles.same_bits(value, oracles.transfer_eval_point(sys, p))
        assert within_1e12(partial, oracles.transfer_eval_series_point(sys, p, 7))


def fails_like_the_pointwise_oracles(sys, z):
    """The stacked resolvent and series (4 terms) at ``z`` raise what their
    pointwise oracles raise first, or agree with them: the resolvent bit
    for bit, the series, summed two terms a product, within 1e-12 relative
    of the two-product oracle.  Returns the evaluators that summed."""
    cases = (
        (transfer_eval, (), oracles.transfer_eval_point, oracles.same_bits),
        (
            transfer_eval_series,
            (4,),
            functools.partial(oracles.transfer_eval_series_point, terms=4),
            within_1e12,
        ),
    )
    summed = []
    for fn, extra, oracle, agree in cases:
        want = first_point_failure(functools.partial(oracle, sys), z)
        if want is None:
            for p, value in zip(z, fn(sys, z, *extra)):
                assert agree(value, oracle(sys, p))
            summed.append(fn)
            continue
        with pytest.raises(type(want)) as exc:
            fn(sys, z, *extra)
        assert str(exc.value) == str(want)
        assert getattr(exc.value, "sigma_min", None) == getattr(want, "sigma_min", None)
    return summed


_FAILING = [(0.5, 0.3), (1.0, -0.2j), (-0.5j, 0.0), (0.6, 0.0)]


@pytest.mark.parametrize("failing", _FAILING)
@pytest.mark.parametrize("at", [0, 3, 8])
def test_a_mixed_stack_fails_like_the_pointwise_oracles(failing, at):
    # I - zA is singular only at z_1 = 0.5 and 1; the series diverges from
    # |z_1| = 0.5 on, so the last point fails it wherever the first failure is
    sys = _diagonal_state_system()
    points = _SCREENED + _PAST_THE_SCREENS + [(0.7, 0.0)]
    z = np.array(points[:at] + [failing] + points[at:])
    assert transfer_eval_series not in fails_like_the_pointwise_oracles(sys, z)


@pytest.mark.parametrize("inserted", _FAILING + [(0.3, 0.2j)])
@pytest.mark.parametrize("at", [0, 3, 7])
def test_a_mixed_stack_without_a_divergent_tail_sums_like_the_pointwise_oracles(inserted, at):
    # the stacks above without their last point: where every point lies
    # below |z_1| = 0.5 the series sums, and is compared point by point
    sys = _diagonal_state_system()
    points = _SCREENED + _PAST_THE_SCREENS
    z = np.array(points[:at] + [inserted] + points[at:])
    summed = fails_like_the_pointwise_oracles(sys, z)
    assert (transfer_eval_series in summed) == (abs(inserted[0]) < 0.5)


def test_stacked_transfer_takes_an_empty_stack():
    sys = builtin_examples()["alpha_prime"]
    empty = np.zeros((0, 2), dtype=complex)
    assert transfer_eval(sys, empty).shape == (0, 1, 1)
    assert transfer_eval_series(sys, empty, 4).shape == (0, 1, 1)


@pytest.mark.parametrize("shape", [(3,), (4, 1), (2, 2, 2)])
def test_stacked_transfer_rejects_a_wrong_trailing_dimension(shape):
    sys = builtin_examples()["alpha_prime"]
    z = np.zeros(shape, dtype=complex)
    with pytest.raises(ArityError):
        transfer_eval(sys, z)
    with pytest.raises(ArityError):
        transfer_eval_series(sys, z, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maclaurin_poly_equals_single_entry_tables_bitwise(n):
    # the shared table must give each coefficient exactly what a table of
    # the lift built for that exponent alone gives in its output corner
    sys = gen.dissipative_system(np.random.default_rng(n), n, 3, 2)
    poly = maclaurin_poly(sys, 5)
    assert len(poly.coeffs) == sum(
        1 for t in itertools.product(range(6), repeat=n) if 1 <= sum(t) <= 5
    )
    y = slice(sys.dim_x, sys.dim_x + sys.dim_out)
    u = slice(sys.dim_x + sys.dim_out, None)
    for t, m in poly.coeffs.items():
        single = oracles.multipower_rows(_lift(sys), sum(t))[t][y, u]
        assert oracles.same_bits(m, float(multinomial(t)) * single)


def test_maclaurin_units_are_the_d_members():
    rng = np.random.default_rng(3)
    sys = gen.random_system(rng, 3, 2, 2, 2)
    coeffs = maclaurin_poly(sys, 1).coeffs
    for k in range(3):
        t = tuple(1 if i == k else 0 for i in range(3))
        assert np.allclose(coeffs[t], sys.d[k])


def test_maclaurin_rejects_the_origin():
    # theta(0) = 0 identically: no coefficient at the zero exponent, and an
    # expansion of order 0 would hold nothing else
    sys = gen.random_system(np.random.default_rng(4), 2, 2, 1, 1)
    assert (0, 0) not in maclaurin_poly(sys, 2).coeffs
    with pytest.raises(DomainError, match="max_order must be >= 1"):
        maclaurin_poly(sys, 0)



@pytest.mark.parametrize("n", [2, 3, 4])
def test_maclaurin_budget_keeps_every_order_whose_weights_fit_int64(n):
    top = 1
    while True:
        try:
            _check_weights(top + 1, n)
        except RangeError:
            break
        top += 1
    assert math.comb(top + n, n) - 1 <= 2**17
    sys = gen.random_system(np.random.default_rng(n), n, 1, 1, 1)
    with pytest.raises(RangeError):
        maclaurin_poly(sys, top + 1)

@pytest.mark.parametrize("seed", range(4))
def test_maclaurin_against_torus_sampling(seed):
    rng = np.random.default_rng(10 + seed)
    raw = gen.random_system(rng, 2, 3, 2, 2)
    sys = MultiLSDS(
        a=OperatorTuple(tuple(0.5 * m / np.linalg.norm(m, 2) for m in raw.a.mats)),
        b=raw.b,
        c=raw.c,
        d=raw.d,
    )
    oracle = fft_coefficients(sys, 4)
    coeffs = maclaurin_poly(sys, 4).coeffs
    assert coeffs.keys() == oracle.keys()
    for t, want in oracle.items():
        assert np.abs(coeffs[t] - want).max() <= 1e-6, t


def test_maclaurin_poly_collects_all_orders():
    sys = builtin_examples()["alpha"]
    poly = maclaurin_poly(sys, 3)
    nonzero = {
        t for t, m in poly.coeffs.items() if np.abs(m).max() > 1e-13
    }
    assert nonzero == {(1, 1)}
    assert np.allclose(poly.coeffs[(1, 1)], [[1.0]])


def test_maclaurin_poly_evaluates_like_the_transfer():
    rng = np.random.default_rng(5)
    sys = gen.conservative_system(rng, 2, 2, 2)
    poly = maclaurin_poly(sys, 12)
    for z in halton_disc(8, 2, 0.4):
        gap = np.abs(poly.evaluate(z) - transfer_eval(sys, z)).max()
        assert gap <= 1e-6  # truncation of a geometrically convergent tail


def test_conjugate_transfer_identity_for_random_systems():
    # theta of the conjugate system at z is theta(conj z)^*
    rng = np.random.default_rng(6)
    pts = halton_disc(15, 2, 0.6)
    for _ in range(5):
        sys = gen.random_system(rng, 2, 3, 2, 3, scale=0.3)
        lhs = transfer_eval(conjugate(sys), pts)
        rhs = transfer_eval(sys, pts.conj()).conj().swapaxes(-1, -2)
        assert np.linalg.norm(lhs - rhs, 2, axis=(-2, -1)).max() <= 1e-10


def test_matrix_polynomial_evaluation():
    coeffs = {
        (1, 0): np.array([[1.0, 0.0]]),
        (0, 2): np.array([[0.0, 3.0j]]),
    }
    p = MatrixPolynomial(2, (1, 2), coeffs)
    z = (0.5, 2.0)
    assert np.allclose(p.evaluate(z), [[0.5, 12.0j]])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    terms=st.integers(0, 7),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    count=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_evaluate_matches_the_pointwise_oracle_bitwise(n, terms, rows, cols, count, seed):
    rng = np.random.default_rng(seed)
    coeffs = {
        tuple(int(v) for v in rng.integers(0, 4, size=n)): rng.standard_normal((rows, cols))
        + 1j * rng.standard_normal((rows, cols))
        for _ in range(terms)
    }
    poly = MatrixPolynomial(n, (rows, cols), coeffs)
    z = rng.uniform(-1, 1, size=(count, n)) + 1j * rng.uniform(-1, 1, size=(count, n))
    got = poly.evaluate(z)
    want = np.array(
        [oracles.matrix_poly_eval_point(poly, p) for p in z], dtype=complex
    ).reshape(count, rows, cols)
    assert oracles.same_bits(got, want)
    for point, value in zip(z, got):
        assert oracles.same_bits(poly.evaluate(point), value)


def test_evaluate_takes_an_empty_stack():
    p = MatrixPolynomial(3, (2, 1), {(1, 0, 2): np.ones((2, 1))})
    assert oracles.same_bits(p.evaluate(np.zeros((0, 3))), np.zeros((0, 2, 1), dtype=complex))


@pytest.mark.parametrize("shape", [(5, 1), (5, 3), (2, 2, 2), (3,), (1,), ()])
def test_evaluate_rejects_a_wrong_arity(shape):
    p = MatrixPolynomial(2, (1, 1), {(1, 1): np.eye(1)})
    with pytest.raises(ArityError):
        p.evaluate(np.zeros(shape, dtype=complex))


def test_matrix_polynomial_refuses_a_fractional_exponent():
    with pytest.raises(DomainError, match="lattice coordinate must be an integer"):
        MatrixPolynomial(2, (1, 1), {(1.5, 0): np.ones((1, 1))})
    p = MatrixPolynomial(2, (1, 1), {(1.0, 0.0): np.ones((1, 1))})
    assert list(p.coeffs) == [(1, 0)]


@pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (-3, -3)])
def test_matrix_polynomial_refuses_a_negative_shape(shape):
    # in the wording of json_to_poly, with or without terms
    want = rf"polynomial: shape must hold sizes >= 0, got \[{shape[0]}, {shape[1]}\]"
    for coeffs in ({}, {(0,): np.zeros((1, 1))}):
        with pytest.raises(DomainError, match=want):
            MatrixPolynomial(1, shape, coeffs)


@pytest.mark.parametrize("shape, quoted", [((2, 1, 5), "(2, 1, 5)"), ((2,), "(2,)"), (5, "5"), ("21", "'21'")])
def test_matrix_polynomial_refuses_a_shape_that_is_not_a_pair(shape, quoted):
    # in json_to_poly's words, since it reads a file's shape through this
    # constructor
    want = f"polynomial: shape must be a [rows, cols] list, got {quoted}"
    with pytest.raises(DomainError) as exc:
        MatrixPolynomial(2, shape, {})
    assert str(exc.value) == want


def test_matrix_polynomial_rejects_mixed_shapes():
    from ndsys import ShapeError

    with pytest.raises(ShapeError):
        MatrixPolynomial(
            1, (1, 1), {(0,): np.zeros((1, 1)), (1,): np.zeros((2, 2))}
        )


def test_maclaurin_coefficients_shift_the_classical_ones():
    # for n = 1, theta(z) = z theta_classical(z): the coefficient at j + 1
    # is the classical one at j
    rng = np.random.default_rng(10)
    a = 0.5 * gen.haar_unitary(rng, 3)
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sys = MultiLSDS(
        a=OperatorTuple((a,)), b=OperatorTuple((b,)), c=OperatorTuple((c,)), d=OperatorTuple((d,))
    )
    coeffs = maclaurin_poly(sys, 6).coeffs
    assert np.abs(coeffs[(1,)] - d).max() <= 1e-12
    for j in range(1, 6):
        want = c @ np.linalg.matrix_power(a, j - 1) @ b
        assert np.abs(coeffs[(j + 1,)] - want).max() <= 1e-12
