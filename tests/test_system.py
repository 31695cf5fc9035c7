"""System aggregate, trajectories, and the energy ledger."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracles
from ndsys import (
    Box,
    DomainError,
    LatticeSignal,
    MultiLSDS,
    OperatorTuple,
    PreconditionError,
    RangeError,
    ShapeError,
    SimulationWindow,
    builtin_examples,
    closed_form,
    energy_balance_report,
    maclaurin_poly,
    multinomial,
    simulate,
    validate,
)
from ndsys.lattice import _window_index
from ndsys.system import conjugate


def impulse(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return LatticeSignal(n, dim, {tuple(0 for _ in range(n)): v})


def empty(n, dim):
    return LatticeSignal(n, dim, {})


def dense_input(rng, n, dim, box, max_order):
    entries = {}
    for front in range(max_order + 1):
        for t in box.front(front):
            entries[t] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return LatticeSignal(n, dim, entries)


def test_dims_and_blocks():
    sys = gen.random_system(np.random.default_rng(0), 2, 3, 2, 4)
    assert (sys.n, sys.dim_x, sys.dim_in, sys.dim_out) == (2, 3, 2, 4)
    g = sys.block(1)
    assert g.shape == (3 + 4, 3 + 2)
    assert np.allclose(g[:3, :3], sys.a[1])
    assert np.allclose(g[3:, 3:], sys.d[1])


def test_validate_flags_shape_mismatch():
    rng = np.random.default_rng(1)
    good = gen.random_system(rng, 2, 2, 2, 2)
    bad = MultiLSDS(
        a=good.a,
        b=OperatorTuple((np.zeros((3, 2)), np.zeros((3, 2)))),
        c=good.c,
        d=good.d,
    )
    kinds = {v.kind for v in validate(bad)}
    assert "shape" in kinds
    with pytest.raises(ShapeError):
        bad.require_wellformed()


def test_validate_flags_nonfinite():
    rng = np.random.default_rng(2)
    sys = gen.random_system(rng, 2, 2, 1, 1)
    poisoned = MultiLSDS(
        a=sys.a,
        b=sys.b,
        c=sys.c,
        d=OperatorTuple((np.array([[np.inf]]), sys.d[1])),
    )
    kinds = {v.kind for v in validate(poisoned)}
    assert "finiteness" in kinds
    with pytest.raises(PreconditionError):
        poisoned.require_wellformed()


def test_validate_flags_arity_mismatch():
    rng = np.random.default_rng(3)
    sys = gen.random_system(rng, 2, 2, 2, 2)
    bad = MultiLSDS(
        a=OperatorTuple((sys.a[0],)), b=sys.b, c=sys.c, d=sys.d
    )
    kinds = {v.kind for v in validate(bad)}
    assert "arity" in kinds


def test_conjugate_is_involution():
    sys = gen.random_system(np.random.default_rng(4), 3, 2, 3, 2)
    back = conjugate(conjugate(sys))
    for name in "abcd":
        for k in range(3):
            assert np.array_equal(getattr(back, name)[k], getattr(sys, name)[k])


def test_conjugate_swaps_value_spaces():
    sys = gen.random_system(np.random.default_rng(5), 2, 2, 3, 4)
    adj = conjugate(sys)
    assert adj.dim_in == 4 and adj.dim_out == 3
    assert np.allclose(adj.b[0], sys.c[0].conj().T)
    assert np.allclose(adj.c[1], sys.b[1].conj().T)


def test_worked_impulse_trajectory():
    # the two-variable product system: impulse walks one step in, one out
    alpha = builtin_examples()["alpha"]
    window = SimulationWindow(Box((0, 0), (3, 3)), 3)
    result = simulate(alpha, window, impulse(2, 1), empty(2, 1))
    assert np.allclose(result.states.value((0, 1)), [1.0])
    assert np.allclose(result.states.value((1, 0)), [0.0])
    assert np.allclose(result.outputs.value((1, 1)), [1.0])
    for t in window.box.front(2):
        if t != (1, 1):
            assert np.allclose(result.outputs.value(t), [0.0])
    assert result.octant_exact
    assert not result.contaminated_states and not result.contaminated_outputs


def test_single_initial_point_zero_input():
    # with nothing flowing in, the state is the weighted pure multipower
    from ndsys import multinomial

    rng = np.random.default_rng(6)
    sys = gen.random_system(rng, 2, 3, 2, 2)
    x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    init = LatticeSignal(2, 3, {(0, 0): x0})
    window = SimulationWindow(Box((0, 0), (4, 4)), 4)
    result = simulate(sys, window, empty(2, 2), init)
    targets = [(1, 0), (2, 1), (2, 2)]
    table = oracles.multipower_rows(sys.a, 4)
    for t in targets:
        want = multinomial(t) * table[t] @ x0
        assert np.allclose(result.states.value(t), want, atol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_simulate_matches_closed_form(seed):
    rng = np.random.default_rng(100 + seed)
    n = 2 if seed % 2 == 0 else 3
    dims = rng.integers(1, 4, size=3)
    sys = gen.random_system(rng, n, int(dims[0]), int(dims[1]), int(dims[2]))
    box = Box(tuple(0 for _ in range(n)), tuple(3 for _ in range(n)))
    window = SimulationWindow(box, 4)
    inp = dense_input(rng, n, sys.dim_in, box, 3)
    init = LatticeSignal(
        n, sys.dim_x, {tuple(0 for _ in range(n)): rng.standard_normal(sys.dim_x) + 0j}
    )
    r1 = simulate(sys, window, inp, init)
    r2 = closed_form(sys, window, inp, init)
    assert r1.contaminated_states == r2.contaminated_states
    assert r1.contaminated_outputs == r2.contaminated_outputs
    for t, v in r1.states.items():
        if t not in r1.contaminated_states:
            scale = max(1.0, float(np.abs(v).max()))
            assert np.allclose(v, r2.states.value(t), atol=1e-10 * scale)
    for t, v in r1.outputs.items():
        if t not in r1.contaminated_outputs:
            scale = max(1.0, float(np.abs(v).max()))
            assert np.allclose(v, r2.outputs.value(t), atol=1e-10 * scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_impulse_response_is_the_maclaurin_series(n):
    # y(t) = theta_t u(0): the recursion against the transfer layer
    rng = np.random.default_rng(400 + n)
    sys = gen.random_system(rng, n, 3, 2, 2)
    top = 4 if n < 3 else 3
    u0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    origin = tuple(0 for _ in range(n))
    window = SimulationWindow(Box(origin, tuple(top for _ in range(n))), top)
    result = simulate(sys, window, LatticeSignal(n, 2, {origin: u0}), empty(n, 3))
    poly = maclaurin_poly(sys, top)
    assert set(result.outputs.entries) == set(poly.coeffs)
    assert not result.contaminated_outputs
    for t, theta in poly.coeffs.items():
        want = theta @ u0
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(result.outputs.value(t) - want).max() <= 1e-12 * scale


def _assert_results_agree(got, want):
    assert got.octant_exact == want.octant_exact
    assert got.contaminated_states == want.contaminated_states
    assert got.contaminated_outputs == want.contaminated_outputs
    for a, b in ((got.states, want.states), (got.outputs, want.outputs)):
        assert list(a.entries) == list(b.entries)
        for t, v in b.entries.items():
            scale = max(1.0, float(np.abs(v).max(initial=0.0)))
            assert np.abs(a.entries[t] - v).max(initial=0.0) <= 1e-12 * scale


def _assert_ledgers_agree(got, want):
    assert [r.n for r in got.rows] == [r.n for r in want.rows]
    for a, b in zip(got.rows, want.rows):
        assert a.contaminated == b.contaminated
        for name in ("e_minus", "e_plus", "e_x", "e_x_prev"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


@st.composite
def windows(draw):
    """A random system and window with data that may sit off the octant
    and off the box, so every contamination path can fire."""
    n = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    hi = tuple(a + draw(st.integers(0, 4 if n < 3 else 2)) for a in lo)
    box = Box(lo, hi)
    n_max = draw(st.integers(1, 5))
    dims = [draw(st.integers(1, 3)) for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys = gen.random_system(rng, n, *dims)
    near = st.tuples(*[st.integers(a - 2, b + 2) for a, b in zip(lo, hi)])
    support = draw(st.lists(near, max_size=12, unique=True))
    octant = draw(st.booleans())
    if octant:
        support = [t for t in support if min(t) >= 0]
    zeros = draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support)))
    inp = LatticeSignal(
        n,
        dims[1],
        {
            t: np.zeros(dims[1]) if z else rng.standard_normal(dims[1]) + 1j * rng.standard_normal(dims[1])
            for t, z in zip(support, zeros)
        },
    )
    front0 = [t for t in box.front(0) if min(t) >= 0 or not octant]
    seeds = draw(st.lists(st.sampled_from(front0), unique=True)) if front0 else []
    init = LatticeSignal(n, dims[0], {t: rng.standard_normal(dims[0]) + 0j for t in seeds})
    return sys, SimulationWindow(box, n_max), inp, init


@settings(max_examples=80, deadline=None)
@given(windows())
def test_front_engine_and_ledger_match_the_pointwise_oracles(case):
    sys, window, inp, init = case
    got = simulate(sys, window, inp, init)
    want = oracles.simulate_dict(sys, window, inp, init)
    _assert_results_agree(got, want)
    _assert_ledgers_agree(
        energy_balance_report(sys, window, inp, init, result=got),
        oracles.energy_balance_report_dict(sys, window, inp, init, result=want),
    )
    # the ledger takes any result, the closed form's included
    closed = closed_form(sys, window, inp, init)
    _assert_ledgers_agree(
        energy_balance_report(sys, window, inp, init, result=closed),
        oracles.energy_balance_report_dict(sys, window, inp, init, result=closed),
    )


@settings(max_examples=80, deadline=None)
@given(windows())
def test_offset_gathers_match_the_pointwise_closed_form(case):
    sys, window, inp, init = case
    got = closed_form(sys, window, inp, init)
    want = oracles.closed_form_dict(sys, window, inp, init)
    assert np.array_equal(got.states.points, want.states.points)
    assert np.array_equal(got.outputs.points, want.outputs.points)
    _assert_results_agree(got, want)


@pytest.mark.parametrize(
    "box, n_max",
    [
        (Box((-2, -1), (2, 3)), 4),
        (Box((-2, 0, -1), (0, 2, 1)), 3),
        (Box((3, -5), (4, -2)), 2),
        (Box((-3,), (2,)), 5),
        (Box((-4, -4), (-1, -1)), 3),  # every order negative: no point
        (Box((0, 0), (1000, 1000)), 2),
        (Box((-(10**19), 0, 0), (10**19, 1, 1)), 3),
        (Box((0, 0, -(10**19)), (1, 1, 10**19)), 3),
    ],
)
def test_window_index_is_the_front_walk(box, n_max):
    coords, bounds, locate = _window_index(box, n_max, 1)
    fronts = [oracles.front_walk(box, f) for f in range(n_max + 1)]
    assert [tuple(t) for t in coords.tolist()] == [t for front in fronts for t in front]
    sizes = [len(front) for front in fronts]
    top = max([f for f, size in enumerate(sizes) if size] or [0])
    assert bounds.tolist() == np.cumsum([0] + sizes[: top + 1]).tolist()
    assert np.array_equal(locate(coords), np.arange(len(coords)))


def test_wide_windows_are_refused_before_they_are_built():
    # per-axis counts whose integer sum would overflow int64, and a window
    # whose points leave the int64 lattice range
    for lo, hi in (((-(2**40),) * 2, (2**40,) * 2), ((0, -(2**60), -(2**60)), (3, 2**60, 2**60))):
        n = len(lo)
        sys = gen.random_system(np.random.default_rng(16), n, 1, 1, 1)
        for evaluate in (simulate, closed_form):
            with pytest.raises(DomainError, match="budget of 2\\*\\*24"):
                evaluate(sys, SimulationWindow(Box(lo, hi), 2), impulse(n, 1), empty(n, 1))
    far = SimulationWindow(Box((2**62, -(2**62)), (2**62 + 1, 1 - 2**62)), 1)
    sys = gen.random_system(np.random.default_rng(17), 2, 1, 1, 1)
    with pytest.raises(DomainError, match="int64 lattice range"):
        simulate(sys, far, impulse(2, 1), empty(2, 1))


def test_closed_form_weight_overflow_is_refused_before_any_table(monkeypatch):
    import ndsys.system

    def build(*args, **kwargs):
        raise AssertionError("closed_form built a multipower table")

    monkeypatch.setattr(ndsys.system, "sym_multipower_table", build)
    # one point of order 80: multinomial((27, 27, 26)) passes int64
    sys = gen.random_system(np.random.default_rng(18), 3, 1, 1, 1)
    window = SimulationWindow(Box((80, 0, 0), (80, 0, 0)), 80)
    with pytest.raises(RangeError, match="exceeds 64-bit range"):
        closed_form(sys, window, impulse(3, 1), empty(3, 1))


def test_closed_form_refuses_a_table_that_stops_being_finite():
    # A = 1e10: A^31 overflows, so the table's order-31 front holds inf,
    # where the parent's closed form returned NaN states from order 31 on;
    # the recursion itself stays finite up to order 36
    sys = MultiLSDS(*(OperatorTuple((np.array([[v]]),)) for v in (1e10, 1.0, 1.0, 0.5)))
    window = SimulationWindow(Box((0,), (40,)), 40)
    inp = LatticeSignal(1, 1, {(5,): np.array([1.0])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="multipowers of order 31 are not finite"):
            closed_form(sys, window, inp, empty(1, 1))
    states = simulate(sys, SimulationWindow(Box((0,), (36,)), 36), inp, empty(1, 1)).states
    assert np.isfinite(states.values).all()


def test_the_recursion_refuses_its_first_front_that_is_not_finite():
    # the same A = 1e10 system: front 37 overflows; before, the recursion
    # returned inf and NaN states with numpy warnings
    sys = MultiLSDS(*(OperatorTuple((np.array([[v]]),)) for v in (1e10, 1.0, 1.0, 0.5)))
    window = SimulationWindow(Box((0,), (40,)), 40)
    inp = LatticeSignal(1, 1, {(5,): np.array([1.0])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="the trajectory on front 37 is not finite"):
            simulate(sys, window, inp, empty(1, 1))


def test_both_evaluators_refuse_a_trajectory_that_overflows_under_a_finite_table():
    # A = 10 keeps every multipower of order <= 40 finite, but an input of
    # 1e300 at the origin makes the state 1e300 * 10**9 = inf on front 10
    sys = MultiLSDS(*(OperatorTuple((np.array([[v]]),)) for v in (10.0, 1.0, 1.0, 0.0)))
    window = SimulationWindow(Box((0,), (40,)), 40)
    inp = LatticeSignal(1, 1, {(0,): np.array([1e300])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (simulate, closed_form):
            with pytest.raises(RangeError, match="the trajectory on front 10 is not finite"):
                evaluate(sys, window, inp, empty(1, 1))


def test_the_ledger_refuses_a_front_energy_that_is_not_finite():
    # A = 0.5 and 1e200 at (1,): every state is finite, but the squared
    # input mass of front 1, read by the row of front 2, is not
    sys = MultiLSDS(*(OperatorTuple((np.array([[v]]),)) for v in (0.5, 1.0, 1.0, 0.5)))
    window = SimulationWindow(Box((0,), (40,)), 40)
    inp = LatticeSignal(1, 1, {(1,): np.array([1e200])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (simulate, closed_form):
            result = evaluate(sys, window, inp, empty(1, 1))
            assert np.isfinite(result.states.values).all()
            with pytest.raises(RangeError, match="the energies of front 2 are not finite"):
                energy_balance_report(sys, window, inp, empty(1, 1), result=result)


def test_closed_form_and_maclaurin_build_one_table_each(monkeypatch):
    import ndsys.pencil
    import ndsys.system
    import ndsys.transfer

    built = []

    def spy(a, top):
        built.append(a)
        return ndsys.pencil.sym_multipower_table(a, top)

    monkeypatch.setattr(ndsys.system, "sym_multipower_table", spy)
    monkeypatch.setattr(ndsys.transfer, "sym_multipower_table", spy)
    sys = gen.random_system(np.random.default_rng(19), 2, 2, 1, 2)
    window = SimulationWindow(Box((0, 0), (4, 4)), 4)
    closed_form(sys, window, impulse(2, 1), empty(2, 2))
    assert len(built) == 1
    maclaurin_poly(sys, 4)
    assert len(built) == 2
    # the one table is of the lifted colligation on X + Y + U
    assert all(a.rows == a.cols == 5 for a in built)


@pytest.mark.parametrize("n, top", [(1, 30), (2, 66), (3, 43), (4, 20)])
def test_top_order_weight_is_the_largest(n, top):
    # the balanced offset of the top order bounds every offset's weight;
    # 66 and 43 are the highest orders whose weights fit int64 at n = 2, 3
    balanced = multinomial(
        (top // n + 1,) * (top % n) + (top // n,) * (n - top % n)
    )
    offsets = _window_index(Box((0,) * n, (top,) * n), top, n)[0]
    assert max(multinomial(d) for d in offsets.tolist()) == balanced


def test_huge_box_with_few_fronts_stays_small():
    sys = gen.random_system(np.random.default_rng(13), 2, 2, 1, 1)
    window = SimulationWindow(Box((0, 0), (1000, 1000)), 2)
    result = simulate(sys, window, impulse(2, 1), empty(2, 2))
    assert len(result.states.entries) == 6 and len(result.outputs.entries) == 5
    rows = energy_balance_report(sys, window, impulse(2, 1), empty(2, 2), result=result).rows
    assert [r.contaminated for r in rows] == [False, False]


def test_box_wider_than_int64_keys():
    # the first coordinate spans 2e19 values, past any int64 point key
    rng = np.random.default_rng(15)
    sys = gen.random_system(rng, 3, 2, 1, 1)
    window = SimulationWindow(Box((-(10**19), 0, 0), (10**19, 1, 1)), 3)
    inp = dense_input(rng, 3, 1, window.box, 2)
    init = LatticeSignal(3, 2, {(-1, 0, 1): rng.standard_normal(2) + 0j})
    got = simulate(sys, window, inp, init)
    assert len(got.states.entries) == 16
    _assert_results_agree(got, oracles.simulate_dict(sys, window, inp, init))
    closed = closed_form(sys, window, inp, init)
    _assert_results_agree(closed, oracles.closed_form_dict(sys, window, inp, init))


def test_general_box_contaminates_boundary_reads():
    rng = np.random.default_rng(7)
    sys = gen.random_system(rng, 2, 2, 1, 1)
    box = Box((0, -2), (2, 2))
    window = SimulationWindow(box, 2)
    inp = dense_input(rng, 2, 1, box, 1)
    init = LatticeSignal(2, 2, {})
    result = simulate(sys, window, inp, init)
    assert not result.octant_exact  # input mass at negative coordinates
    # (0, 1) reads (-1, 1), one step below the box floor: untrusted zero
    assert (0, 1) in result.contaminated_states
    # (2, -1) reads (1, -1) and (2, -2), both inside: stays clean
    assert (2, -1) not in result.contaminated_states
    # the mask floods forward through dependents
    assert (0, 2) in result.contaminated_states
    assert result.contaminated_states == result.contaminated_outputs


def test_octant_data_reads_below_any_negative_coordinate_exactly():
    # (2, -1) and (2, 0) both read below the box floor in direction 0; only
    # the read at (1, -1) has a negative coordinate, so only it is exact
    rng = np.random.default_rng(14)
    sys = gen.random_system(rng, 2, 2, 1, 1)
    window = SimulationWindow(Box((2, -2), (4, 1)), 3)
    inp = LatticeSignal(2, 1, {(2, 0): np.ones(1, dtype=complex)})
    result = simulate(sys, window, inp, empty(2, 2))
    assert result.octant_exact
    assert (2, -1) not in result.contaminated_states
    assert (2, 0) in result.contaminated_states
    _assert_results_agree(result, oracles.simulate_dict(sys, window, inp, empty(2, 2)))


def test_octant_data_reads_negative_coordinates_exactly():
    # supported inside the octant: off-octant reads are exact zeros, so a
    # zero-floor box window stays fully clean
    rng = np.random.default_rng(8)
    sys = gen.random_system(rng, 2, 2, 2, 2)
    box = Box((0, 0), (3, 3))
    window = SimulationWindow(box, 3)
    inp = dense_input(rng, 2, 2, box, 2)
    result = simulate(sys, window, inp, empty(2, 2))
    assert result.octant_exact
    assert not result.contaminated_states


def test_energy_ledger_worked_rows():
    alpha = builtin_examples()["alpha"]
    window = SimulationWindow(Box((0, 0), (3, 3)), 2)
    report = energy_balance_report(alpha, window, impulse(2, 1), empty(2, 1))
    assert [r.n for r in report.rows] == [1, 2]
    r1, r2 = report.rows
    assert np.isclose(r1.lhs, 1.0) and np.isclose(r1.rhs, 1.0)
    assert np.isclose(r2.lhs, -1.0) and np.isclose(r2.rhs, -1.0)
    assert not r1.contaminated and not r2.contaminated
    assert report.conservative_consistent and report.dissipative_consistent


@pytest.mark.parametrize("seed", range(5))
def test_energy_equality_for_random_conservative(seed):
    rng = np.random.default_rng(200 + seed)
    sys = gen.conservative_system(rng, 2, 2, 2)
    box = Box((0, 0), (5, 5))
    window = SimulationWindow(box, 5)
    inp = dense_input(rng, 2, 2, box, 3)
    init = LatticeSignal(2, 2, {(0, 0): rng.standard_normal(2) + 0j})
    report = energy_balance_report(sys, window, inp, init)
    clean = report.clean_rows
    assert len(clean) >= 3
    for row in clean:
        assert abs(row.lhs - row.rhs) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_energy_inequality_for_random_dissipative(seed):
    rng = np.random.default_rng(300 + seed)
    sys = gen.dissipative_system(rng, 2, 2, 2)
    box = Box((0, 0), (5, 5))
    window = SimulationWindow(box, 5)
    inp = dense_input(rng, 2, 2, box, 3)
    report = energy_balance_report(sys, window, inp, empty(2, 2))
    assert report.dissipative_consistent
    for row in report.clean_rows:
        assert row.lhs - row.rhs >= -1e-9


def test_expansive_system_breaks_the_inequality():
    z = np.zeros((1, 1), dtype=complex)
    sys = MultiLSDS(
        a=OperatorTuple((2 * np.eye(1, dtype=complex), z.copy())),
        b=OperatorTuple((z.copy(), z.copy())),
        c=OperatorTuple((z.copy(), z.copy())),
        d=OperatorTuple((z.copy(), z.copy())),
    )
    window = SimulationWindow(Box((0, 0), (4, 4)), 3)
    init = LatticeSignal(2, 1, {(0, 0): np.array([1.0 + 0j])})
    report = energy_balance_report(sys, window, empty(2, 1), init)
    assert not report.dissipative_consistent


def test_leaky_fronts_are_flagged_not_asserted():
    # beyond the box diagonal the octant front spills out; those rows
    # carry energy through uncomputed points and must be marked
    rng = np.random.default_rng(9)
    sys = gen.conservative_system(rng, 2, 2, 2)
    box = Box((0, 0), (2, 2))
    window = SimulationWindow(box, 4)
    inp = dense_input(rng, 2, 2, box, 2)
    report = energy_balance_report(sys, window, inp, empty(2, 2))
    flags = {r.n: r.contaminated for r in report.rows}
    assert flags[1] is False
    assert flags[3] is True and flags[4] is True
    assert report.conservative_consistent


def test_init_data_must_sit_on_the_zero_front():
    sys = gen.random_system(np.random.default_rng(10), 2, 2, 1, 1)
    window = SimulationWindow(Box((0, 0), (2, 2)), 2)
    bad = LatticeSignal(2, 2, {(1, 0): np.zeros(2, dtype=complex)})
    with pytest.raises(DomainError):
        simulate(sys, window, empty(2, 1), bad)


def test_init_data_must_lie_in_the_window():
    sys = gen.random_system(np.random.default_rng(10), 2, 2, 1, 1)
    window = SimulationWindow(Box((0, 0), (2, 2)), 2)
    bad = LatticeSignal(2, 2, {(0, 0): np.ones(2), (3, -3): np.ones(2)})
    with pytest.raises(DomainError, match=r"outside the window at \(3, -3\)"):
        simulate(sys, window, empty(2, 1), bad)


def test_signal_dimension_mismatch_rejected():
    sys = gen.random_system(np.random.default_rng(11), 2, 2, 1, 1)
    window = SimulationWindow(Box((0, 0), (2, 2)), 2)
    with pytest.raises(ShapeError):
        simulate(sys, window, empty(2, 3), empty(2, 2))


def test_one_parameter_reduction_matches_textbook_recursion():
    # N=1 must agree with the classical state recursion, outputs shifted
    # by one step because the lattice form reads the previous front
    rng = np.random.default_rng(12)
    a = 0.6 * gen.haar_unitary(rng, 2)
    b = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    c = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    d = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    sys = MultiLSDS(
        a=OperatorTuple((a,)), b=OperatorTuple((b,)), c=OperatorTuple((c,)), d=OperatorTuple((d,))
    )
    steps = 6
    u = [rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(steps)]
    x0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    x = x0.copy()
    xs, ys = [x0.copy()], []
    for n in range(steps):
        ys.append(c @ x + d @ u[n])
        x = a @ x + b @ u[n]
        xs.append(x.copy())

    window = SimulationWindow(Box((0,), (steps,)), steps)
    inp = LatticeSignal(1, 1, {(n,): u[n] for n in range(steps)})
    init = LatticeSignal(1, 2, {(0,): x0})
    result = simulate(sys, window, inp, init)
    for n in range(1, steps + 1):
        assert np.allclose(result.states.value((n,)), xs[n], atol=1e-12)
        assert np.allclose(result.outputs.value((n,)), ys[n - 1], atol=1e-12)
