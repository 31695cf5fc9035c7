"""Pencils, multinomials, and symmetrized multipowers.

The production multipower path runs on the downward recursion; the oracle
here re-derives small cases by brute-force enumeration of typed words, the
defining sum itself.  Bordered multipowers are read from the corners of
the table of a lifted colligation.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndsys import (
    ArityError,
    DomainError,
    MultiLSDS,
    OperatorTuple,
    RangeError,
    ShapeError,
    eval_pencil,
    multinomial,
    sym_multipower_table,
)
from ndsys.pencil import _cube, _weights
from ndsys.system import _lift


def words_of(s):
    """Distinct arrangements of the multiset with s_k letters of type k."""
    letters = [k for k, count in enumerate(s) for _ in range(count)]
    return set(itertools.permutations(letters))


def enum_multipower(a, s, c=None, b=None):
    """Defining sum: optional first factor from c, last from b."""
    dim = a.mats[0].shape[0]
    words = words_of(s)
    rows = c.mats[0].shape[0] if c is not None else dim
    cols = b.mats[0].shape[1] if b is not None else dim
    acc = np.zeros((rows, cols), dtype=complex)
    for w in words:
        factors = [a.mats[k] for k in w]
        if c is not None:
            factors[0] = c.mats[w[0]]
        if b is not None:
            factors[-1] = b.mats[w[-1]]
        term = factors[0]
        for f in factors[1:]:
            term = term @ f
        acc += term
    return acc / len(words)


def random_tuple(rng, n, rows, cols):
    return OperatorTuple(
        tuple(
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            for _ in range(n)
        )
    )


def test_eval_pencil_selects_member():
    rng = np.random.default_rng(0)
    t = random_tuple(rng, 3, 2, 2)
    assert np.allclose(eval_pencil((1, 0, 0), t), t.mats[0])
    assert np.allclose(eval_pencil((0, 0, 0), t), np.zeros((2, 2)))


def test_eval_pencil_on_swap_blocks():
    # G-tuple of the two-variable product example: zG = [[0, z2], [z1, 0]]
    g1 = np.array([[0, 0], [1, 0]], dtype=complex)
    g2 = np.array([[0, 1], [0, 0]], dtype=complex)
    z = (0.3 + 0.2j, -0.5j)
    out = eval_pencil(z, OperatorTuple((g1, g2)))
    assert np.allclose(out, [[0, z[1]], [z[0], 0]])


def test_eval_pencil_arity():
    t = random_tuple(np.random.default_rng(1), 2, 2, 2)
    with pytest.raises(ArityError):
        eval_pencil((1.0,), t)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 1, 1, 14)  # one 1x1 product: the rank-mismatch rounding trap
def test_eval_pencil_stack_matches_points_bitwise(n, rows, cols, count, seed):
    rng = np.random.default_rng(seed)
    t = random_tuple(rng, n, rows, cols)
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    z[rng.random((count, n)) < 0.2] = 0.0  # zero coordinates, signed zeros in the sums
    stack = eval_pencil(z, t)
    assert stack.shape == (count, rows, cols)
    for point, value in zip(z, stack):
        want = oracles.eval_pencil_point(point, t)
        assert oracles.same_bits(value, want)
        assert oracles.same_bits(eval_pencil(point, t), want)
        assert oracles.same_bits(eval_pencil(tuple(point), t), want)


@pytest.mark.parametrize(
    "shape", [(3,), (5, 3), (5, 1), (0, 3), (2, 2, 2), (), (1, 2, 2)]
)
def test_eval_pencil_rejects_a_wrong_trailing_dimension(shape):
    t = random_tuple(np.random.default_rng(1), 2, 2, 2)
    with pytest.raises(ArityError):
        eval_pencil(np.zeros(shape, dtype=complex), t)


@pytest.mark.parametrize(
    "s,expected",
    [((0, 0, 0), 1), ((2, 1), 3), ((1, 1, 1), 6), ((3,), 1), ((2, 2), 6)],
)
def test_multinomial_values(s, expected):
    assert multinomial(s) == expected


def test_multinomial_matches_factorials():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = tuple(int(v) for v in rng.integers(0, 6, size=3))
        want = math.factorial(sum(s)) // math.prod(math.factorial(v) for v in s)
        assert multinomial(s) == want


def test_multinomial_rejects_negative():
    with pytest.raises(DomainError):
        multinomial((1, -1))


def test_multinomial_overflow_is_an_error():
    with pytest.raises(RangeError):
        multinomial((40, 40, 40))


@pytest.mark.parametrize(
    "s,message",
    [
        # a product of 9,000 digits, past the digits Python formats
        ((3000,) * 6, "multinomial((3000, 3000, 3000, 3000, 3000, 3000)) exceeds 64-bit range"),
        # comb(2 10^6, 10^6) alone took 36 s to compute
        ((10**6, 10**6), "multinomial((1000000, 1000000)) exceeds 64-bit range"),
        ((40,) * 20, "multinomial((40, 40, 40, 40, 40, 40, 40, 40, 40, ...) exceeds 64-bit range"),
    ],
)
def test_multinomial_overflow_stops_at_the_first_partial_product_past_int64(s, message):
    with pytest.raises(RangeError) as info:
        multinomial(s)
    assert str(info.value) == message


def test_multinomial_quotes_a_negative_index_cut_short():
    # range(-1, 60) printed whole took 277 characters
    with pytest.raises(DomainError) as info:
        multinomial(range(-1, 60))
    assert str(info.value) == "multinomial needs nonnegative entries, got (-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10..."


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=4))
def test_multinomial_pascal_recursion(s):
    s = tuple(s)
    if sum(s) == 0:
        return
    total = sum(
        multinomial(tuple(v - (1 if i == k else 0) for i, v in enumerate(s)))
        for k in range(len(s))
        if s[k] > 0
    )
    assert multinomial(s) == total


def sym_entry(t, s):
    """The row for ``s`` of the table built up to the order of ``s``."""
    return oracles.multipower_rows(t, sum(s))[s]


def lift_corners(a, targets, b=None, c=None, d=None):
    """The multipower table of the lifted colligation of ``(a, b, c, d)``
    at every order >= 1, cut into its corners: "sym" ``A^s``, "right"
    ``(A...B)^s``, "left" ``(C...A)^s`` and "both" ``(C...B)^s``.  A
    missing tuple is zero, with one row or column."""
    n, dim = a.n, a.rows
    if b is None:
        b = OperatorTuple((np.zeros((dim, 1)),) * n)
    if c is None:
        c = OperatorTuple((np.zeros((1, dim)),) * n)
    if d is None:
        d = OperatorTuple((np.zeros((c.rows, b.cols)),) * n)
    top = max(sum(s) for s in targets)
    table = oracles.multipower_rows(_lift(MultiLSDS(a, b, c, d)), top)
    x, y, u = slice(0, dim), slice(dim, dim + c.rows), slice(dim + c.rows, None)
    cuts = {"sym": (x, x), "right": (x, u), "left": (y, x), "both": (y, u)}
    return {
        kind: {s: m[rows, cols] for s, m in table.items() if sum(s) >= 1}
        for kind, (rows, cols) in cuts.items()
    }


def test_sym_multipower_zero_is_identity():
    t = random_tuple(np.random.default_rng(3), 2, 3, 3)
    assert np.allclose(sym_entry(t, (0, 0)), np.eye(3))


def test_sym_multipower_unit_selects_member():
    t = random_tuple(np.random.default_rng(4), 3, 2, 2)
    table = oracles.multipower_rows(t, 1)
    for k in range(3):
        s = tuple(1 if i == k else 0 for i in range(3))
        assert np.allclose(table[s], t.mats[k])


def test_sym_multipower_pair_average():
    rng = np.random.default_rng(5)
    t = random_tuple(rng, 2, 3, 3)
    a1, a2 = t.mats
    want = (a1 @ a2 + a2 @ a1) / 2
    assert np.allclose(sym_entry(t, (1, 1)), want)


def low_orders(n, lowest):
    return [s for s in itertools.product(range(4), repeat=n) if lowest <= sum(s) <= 4]


@pytest.mark.parametrize("seed", range(6))
def test_sym_multipower_vs_enumeration(seed):
    rng = np.random.default_rng(10 + seed)
    n = 2 + seed % 2
    t = random_tuple(rng, n, 3, 3)
    table = oracles.multipower_rows(t, 4)
    for s in low_orders(n, 1):
        assert np.allclose(table[s], enum_multipower(t, s), atol=1e-10), s


def test_sym_multipower_commuting_case():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = OperatorTuple((base, base @ base - base))
    s = (2, 1)
    want = np.linalg.matrix_power(t.mats[0], 2) @ t.mats[1]
    assert np.allclose(sym_entry(t, s), want)


def test_sym_multipower_permutation_invariance():
    rng = np.random.default_rng(7)
    t = random_tuple(rng, 3, 2, 2)
    s = (2, 0, 1)
    perm = (2, 0, 1)
    permuted = OperatorTuple(tuple(t.mats[p] for p in perm))
    s_permuted = tuple(s[p] for p in perm)
    assert np.allclose(sym_entry(t, s), sym_entry(permuted, s_permuted))


def test_generating_identity():
    # (z.A)^n equals the front sum of weighted multipowers
    rng = np.random.default_rng(8)
    t = random_tuple(rng, 2, 3, 3)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    table = oracles.multipower_rows(t, 5)
    for n in range(1, 6):
        lhs = np.linalg.matrix_power(eval_pencil(z, t), n)
        rhs = np.zeros((3, 3), dtype=complex)
        for s in itertools.product(range(n + 1), repeat=2):
            if sum(s) == n:
                rhs += multinomial(s) * np.prod(z**np.array(s)) * table[s]
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


@pytest.mark.parametrize("seed", range(4))
def test_bordered_right_vs_enumeration(seed):
    rng = np.random.default_rng(20 + seed)
    a = random_tuple(rng, 2, 3, 3)
    b = random_tuple(rng, 2, 3, 2)
    table = lift_corners(a, low_orders(2, 1), b=b)["right"]
    for s in low_orders(2, 1):
        assert np.allclose(table[s], enum_multipower(a, s, b=b), atol=1e-10), s


@pytest.mark.parametrize("seed", range(4))
def test_bordered_left_vs_enumeration(seed):
    rng = np.random.default_rng(30 + seed)
    a = random_tuple(rng, 2, 3, 3)
    c = random_tuple(rng, 2, 2, 3)
    table = lift_corners(a, low_orders(2, 1), c=c)["left"]
    for s in low_orders(2, 1):
        assert np.allclose(table[s], enum_multipower(a, s, c=c), atol=1e-10), s


@pytest.mark.parametrize("seed", range(4))
def test_bordered_both_vs_enumeration(seed):
    rng = np.random.default_rng(40 + seed)
    a = random_tuple(rng, 2, 3, 3)
    b = random_tuple(rng, 2, 3, 2)
    c = random_tuple(rng, 2, 4, 3)
    table = lift_corners(a, low_orders(2, 2), b=b, c=c)["both"]
    for s in low_orders(2, 2):
        assert np.allclose(table[s], enum_multipower(a, s, c=c, b=b), atol=1e-10), s


def test_bordered_right_unit_is_border_member():
    rng = np.random.default_rng(9)
    a = random_tuple(rng, 3, 2, 2)
    b = random_tuple(rng, 3, 2, 4)
    table = lift_corners(a, [(1, 1, 1)], b=b)["right"]
    for k in range(3):
        s = tuple(1 if i == k else 0 for i in range(3))
        assert np.allclose(table[s], b.mats[k])


def test_bordered_pair_mixes_borders():
    rng = np.random.default_rng(11)
    a = random_tuple(rng, 2, 3, 3)
    b = random_tuple(rng, 2, 3, 1)
    c = random_tuple(rng, 2, 1, 3)
    want = (c.mats[0] @ b.mats[1] + c.mats[1] @ b.mats[0]) / 2
    got = lift_corners(a, [(1, 1)], b=b, c=c)["both"][(1, 1)]
    assert np.allclose(got, want)


def test_bordered_identity_with_pencil():
    # (z.A)^{n-1} (z.B) = sum of c_s z^s (A#B)^s over the order-n front
    rng = np.random.default_rng(12)
    a = random_tuple(rng, 2, 3, 3)
    b = random_tuple(rng, 2, 3, 2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    table = lift_corners(a, [(4, 4)], b=b)["right"]
    for n in range(1, 5):
        lhs = np.linalg.matrix_power(eval_pencil(z, a), n - 1) @ eval_pencil(z, b)
        rhs = np.zeros((3, 2), dtype=complex)
        for s in itertools.product(range(n + 1), repeat=2):
            if sum(s) == n:
                rhs += multinomial(s) * np.prod(z**np.array(s)) * table[s]
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_nonsquare_multipower_rejected():
    t = random_tuple(np.random.default_rng(15), 2, 2, 3)
    with pytest.raises(ShapeError):
        sym_multipower_table(t, 1)


def test_table_agrees_with_single_entry():
    rng = np.random.default_rng(16)
    t = random_tuple(rng, 2, 3, 3)
    offsets = [(1, 0), (0, 1), (1, 1), (2, 1)]
    table = oracles.multipower_rows(t, 3)
    for s in offsets:
        assert np.allclose(table[s], sym_entry(t, s))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_sym_multipower_scaling(s1, s2):
    # scaling one member scales the multipower by the matching monomial factor
    if s1 + s2 == 0:
        return
    rng = np.random.default_rng(17)
    t = random_tuple(rng, 2, 2, 2)
    scaled = OperatorTuple((2.0 * t.mats[0], t.mats[1]))
    got = sym_entry(scaled, (s1, s2))
    want = 2.0**s1 * sym_entry(t, (s1, s2))
    assert np.allclose(got, want)


def signed_zero_tuple(rng, n, rows, cols):
    """A random tuple with about a third of its real and imaginary parts
    set to +0.0 or -0.0."""
    parts = rng.standard_normal((n, rows, cols, 2))
    zeros = rng.random(parts.shape) < 0.35
    parts[zeros] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zeros]
    return OperatorTuple(tuple(parts.view(complex)[..., 0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_every_kind_matches_its_loop_bitwise(n, dim, top, seed):
    # the lifted table is bitwise the sym loop on the same lift, and its
    # corners are the four kinds' own loops up to rounding; row i of the
    # stack is row i of the cube index, the downward closure of the top
    # front in front-then-lexicographic order
    rng = np.random.default_rng(seed)
    outs, ins = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    a = signed_zero_tuple(rng, n, dim, dim)
    b = signed_zero_tuple(rng, n, dim, ins)
    c = signed_zero_tuple(rng, n, outs, dim)
    d = signed_zero_tuple(rng, n, outs, ins)
    targets = [tuple(int(v) for v in rng.multinomial(top, [1 / n] * n)) for _ in range(3)]
    lift = _lift(MultiLSDS(a, b, c, d))
    got = sym_multipower_table(lift, top)
    want = oracles.sym_multipower_table_loops(lift, targets)
    front = [s for s in itertools.product(range(top + 1), repeat=n) if sum(s) == top]
    cube = oracles._closure(front, n)
    assert _cube(n, top)[0].tolist() == [list(s) for s in cube]
    assert len(got) == len(cube)
    row = {s: i for i, s in enumerate(cube)}
    for s in want:
        assert oracles.same_bits(got[row[s]], want[s]), s
    corners = lift_corners(a, targets, b=b, c=c, d=d)
    loops = {"sym": oracles.sym_multipower_table_loops(a, targets)}
    for kind in ("right", "left", "both"):
        loops[kind] = oracles.bordered_multipower_table_loops(kind, a, targets, b=b, c=c)
    for kind, table in loops.items():
        for s, m in table.items():
            if sum(s) >= 1:
                gap = np.linalg.norm(corners[kind][s] - m)
                assert gap <= 1e-12 * np.linalg.norm(m), (kind, s)
    for k in range(n):
        s = tuple(1 if i == k else 0 for i in range(n))
        if s in corners["both"]:
            assert np.array_equal(corners["both"][s], d[k])


@pytest.mark.parametrize("n, top", [(1, 30), (2, 66), (3, 43), (4, 20), (4, 35)])
def test_weights_are_the_multinomials_at_the_int64_edge(n, top):
    # Pascal's rule over the cube index; 66, 43 and 35 are the highest
    # orders whose weights fit int64 at n = 2, 3, 4
    coords = _cube(n, top)[0].tolist()
    weights = _weights(n, top)
    assert weights.dtype == np.int64 and len(weights) == len(coords)
    assert [int(w) for w in weights] == [multinomial(s) for s in coords]


@pytest.mark.parametrize("n, top", [(2, 67), (3, 44), (4, 36)])
def test_weights_past_int64_are_refused(n, top):
    with pytest.raises(RangeError, match="exceeds 64-bit range"):
        _weights(n, top)


def test_a_table_that_stops_being_finite_is_refused_at_its_front():
    # 1e200^2 overflows: order 2 is the first front holding inf, and the
    # build raises there without a numpy warning
    t = OperatorTuple((np.array([[1e200]]), np.array([[0.5]])))
    assert np.isfinite(sym_multipower_table(t, 1)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="multipowers of order 2 are not finite"):
            sym_multipower_table(t, 5)


def test_a_negative_top_order_is_refused():
    t = random_tuple(np.random.default_rng(18), 2, 2, 2)
    with pytest.raises(DomainError, match="top order"):
        sym_multipower_table(t, -1)
