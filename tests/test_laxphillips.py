"""Translation generators, the reflection map, and associated systems."""

import itertools

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
    apply_adjoint,
    apply_generator,
    associated_one_param,
    builtin_examples,
    commutation_residual,
    gamma_map,
    metric_check,
    simulate,
    ShapeError,
    SimulationWindow,
    TruncatedLPVector,
)
from ndsys.lattice import add, order, sub, unit
from ndsys.laxphillips import _random_interior_vector
from ndsys.system import conjugate


def signals_equal_on(a, b, skip=frozenset(), atol=1e-12):
    points = set(a.support) | set(b.support)
    return all(
        np.allclose(a.value(t), b.value(t), atol=atol)
        for t in points
        if t not in skip
    )


def inner(a, b):
    # <a, b> over the shared lattice, conjugate-linear in the second slot
    total = 0.0 + 0j
    for t in set(a.support) | set(b.support):
        total += np.vdot(b.value(t), a.value(t))
    return total


def vec_inner(v, w):
    return (
        inner(v.u_plus, w.u_plus) + inner(v.y, w.y) + inner(v.u_minus, w.u_minus)
    )


def test_band_membership_enforced():
    box = Box((-2, -2), (2, 2))
    good_y = LatticeSignal(2, 1, {(1, -1): np.ones(1, dtype=complex)})
    bad_y = LatticeSignal(2, 1, {(1, 0): np.ones(1, dtype=complex)})
    empty_out = LatticeSignal(2, 1, {})
    empty_in = LatticeSignal(2, 1, {})
    TruncatedLPVector(box, empty_out, good_y, empty_in)
    with pytest.raises(DomainError):
        TruncatedLPVector(box, empty_out, bad_y, empty_in)
    with pytest.raises(DomainError):
        # outgoing band must stay at nonpositive orders
        TruncatedLPVector(
            box,
            LatticeSignal(2, 1, {(1, 0): np.ones(1, dtype=complex)}),
            LatticeSignal(2, 1, {}),
            empty_in,
        )


def test_band_membership_needs_the_box():
    box = Box((-2, -2), (2, 2))
    outside = LatticeSignal(2, 1, {(0, 0): np.ones(1), (3, 0): np.ones(1)})
    with pytest.raises(DomainError, match=r"u_minus support out of band at \(3, 0\)"):
        TruncatedLPVector(box, LatticeSignal(2, 1, {}), LatticeSignal(2, 1, {}), outside)


@pytest.mark.parametrize("seed", range(5))
def test_generator_adjoint_pairing(seed):
    # <W_k v, w> = <v, W_k* w> for vectors supported one layer inside,
    # where the truncation loses nothing that the pairing can see
    rng = np.random.default_rng(50 + seed)
    sys = gen.random_system(rng, 2, 2, 2, 2)
    box = Box((-4, -4), (4, 4))
    v = _random_interior_vector(sys, box, 1, rng)
    w = _random_interior_vector(sys, box, 1, rng)
    for k in range(2):
        wv, _ = apply_generator(sys, k, v)
        aw, _ = apply_adjoint(sys, k, w)
        lhs = vec_inner(wv, w)
        rhs = vec_inner(v, aw)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_generator_masks_boundary_writes():
    rng = np.random.default_rng(0)
    sys = builtin_examples()["alpha"]
    box = Box((-2, -2), (2, 2))
    vec = _random_interior_vector(sys, box, 0, rng)
    out, mask = apply_generator(sys, 0, vec)
    # translation pulls data across the box edge somewhere on the band
    assert mask.u_plus or mask.y or mask.u_minus


def test_commutation_of_generators():
    rng = np.random.default_rng(1)
    box = Box((-4, -4), (4, 4))
    for sys in (
        builtin_examples()["alpha"],
        gen.random_system(rng, 2, 2, 2, 2),
        gen.conservative_system(rng, 2, 3, 2),
    ):
        assert commutation_residual(sys, 0, 1, box) <= 1e-12


def test_commutation_in_three_directions():
    rng = np.random.default_rng(2)
    sys = gen.random_system(rng, 3, 2, 1, 1)
    box = Box((-3, -3, -3), (3, 3, 3))
    for k in range(3):
        for j in range(k + 1, 3):
            assert commutation_residual(sys, k, j, box) <= 1e-12


def test_gamma_is_an_involutive_isometry():
    rng = np.random.default_rng(3)
    sys = gen.random_system(rng, 2, 2, 3, 2)
    box = Box((-3, -3), (3, 3))
    vec = _random_interior_vector(sys, box, 0, rng)
    g = gamma_map(vec)
    assert np.isclose(g.norm(), vec.norm())
    back = gamma_map(g)
    assert signals_equal_on(back.u_plus, vec.u_plus)
    assert signals_equal_on(back.y, vec.y)
    assert signals_equal_on(back.u_minus, vec.u_minus)


def test_gamma_swaps_bands_with_reflection():
    box = Box((-2, -2), (2, 2))
    y = LatticeSignal(2, 1, {(2, -2): np.array([1.0 + 0j])})
    u_minus = LatticeSignal(2, 1, {(1, 0): np.array([2.0 + 0j])})
    vec = TruncatedLPVector(box, LatticeSignal(2, 1, {}), y, u_minus)
    g = gamma_map(vec)
    # incoming data lands on the outgoing band at the reflected point
    assert np.allclose(g.u_plus.value((-1, 0)), [2.0])
    assert np.allclose(g.y.value((-2, 2)), [1.0])
    assert not g.u_minus.support


@pytest.mark.parametrize("k", [0, 1])
def test_conjugate_generator_through_gamma(k):
    # the conjugate system's generator is gamma W_k* gamma on clean points
    rng = np.random.default_rng(60 + k)
    sys = gen.random_system(rng, 2, 2, 2, 2)
    box = Box((-4, -4), (4, 4))
    vec = _random_interior_vector(conjugate(sys), box, 2, rng)
    direct, mask_d = apply_generator(conjugate(sys), k, vec)
    adj, mask_a = apply_adjoint(sys, k, gamma_map(vec))
    routed = gamma_map(adj)
    skip = set(mask_d.u_plus) | {tuple(-c for c in t) for t in mask_a.y}
    skip |= set(mask_d.y) | set(mask_d.u_minus)
    skip |= {tuple(-c for c in t) for t in mask_a.u_plus | mask_a.u_minus}
    assert signals_equal_on(direct.u_plus, routed.u_plus, skip, atol=1e-10)
    assert signals_equal_on(direct.y, routed.y, skip, atol=1e-10)
    assert signals_equal_on(direct.u_minus, routed.u_minus, skip, atol=1e-10)


def test_metric_ratios_exact_for_conservative():
    rng = np.random.default_rng(4)
    sys = gen.conservative_system(rng, 2, 2, 2)
    report = metric_check(sys, Box((-3, -3), (3, 3)), trials=6, seed=1)
    assert report.isometric and report.contractive
    for lo, hi in report.ratios:
        assert abs(lo - 1.0) <= 1e-10 and abs(hi - 1.0) <= 1e-10


def test_metric_contractive_for_dissipative():
    rng = np.random.default_rng(5)
    sys = gen.dissipative_system(rng, 2, 2, 2)
    report = metric_check(sys, Box((-3, -3), (3, 3)), trials=6, seed=2)
    assert report.contractive
    for _, hi in report.ratios:
        assert hi <= 1.0 + 1e-10


def test_metric_flags_expansive():
    from ndsys import MultiLSDS, OperatorTuple

    z = np.zeros((1, 1), dtype=complex)
    sys = MultiLSDS(
        a=OperatorTuple((2 * np.eye(1, dtype=complex), z.copy())),
        b=OperatorTuple((z.copy(), z.copy())),
        c=OperatorTuple((z.copy(), z.copy())),
        d=OperatorTuple((z.copy(), z.copy())),
    )
    report = metric_check(sys, Box((-3, -3), (3, 3)), trials=6, seed=3)
    assert not report.contractive


def test_metric_needs_interior():
    sys = builtin_examples()["alpha"]
    with pytest.raises(DomainError):
        metric_check(sys, Box((0, 0), (1, 1)), trials=2, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_probes_need_at_least_one_trial(trials):
    sys, box = builtin_examples()["alpha"], Box((-3, -3), (3, 3))
    with pytest.raises(DomainError, match="trials"):
        metric_check(sys, box, trials=trials)
    with pytest.raises(DomainError, match="trials"):
        commutation_residual(sys, 0, 1, box, trials=trials)


def test_associated_system_is_the_original_when_one_dimensional():
    rng = np.random.default_rng(6)
    base = gen.random_system(rng, 1, 2, 2, 2)
    view = associated_one_param(base, 0, Box((0,), (0,)))
    assert view.front == ((0,),)
    for name in "abcd":
        assert np.array_equal(getattr(view, name), getattr(base, name)[0])


@pytest.mark.parametrize("k", [0, 1])
def test_associated_system_reproduces_the_front_dynamics(k):
    # one associated step equals the lattice recursion on the next front,
    # wherever the recursion never reads outside the represented band
    rng = np.random.default_rng(70 + k)
    sys = gen.random_system(rng, 2, 2, 2, 2)
    box = Box((-4, -4), (4, 4))
    view = associated_one_param(sys, k, box)
    front0 = view.front

    x0 = {t: rng.standard_normal(2) + 1j * rng.standard_normal(2) for t in front0}
    u0 = {t: rng.standard_normal(2) + 1j * rng.standard_normal(2) for t in front0}
    x_stacked = oracles.stack_front(view, x0, 2)
    u_stacked = oracles.stack_front(view, u0, 2)
    x1 = view.a @ x_stacked + view.b @ u_stacked
    y1 = view.c @ x_stacked + view.d @ u_stacked
    x1_vals = oracles.unstack_front(view, x1, 2)
    y1_vals = oracles.unstack_front(view, y1, 2)

    window = SimulationWindow(box, 1)
    result = simulate(
        sys, window, LatticeSignal(2, 2, u0), LatticeSignal(2, 2, x0)
    )
    checked = 0
    for s in front0:
        target = add(s, unit(2, k))
        if not box.contains(target):
            continue
        reads = [sub(target, unit(2, j)) for j in range(2)]
        if any(r not in front0 for r in reads):
            continue  # the associated matrices drop what the band cannot hold
        assert np.allclose(x1_vals[s], result.states.value(target), atol=1e-12)
        assert np.allclose(y1_vals[s], result.outputs.value(target), atol=1e-12)
        checked += 1
    assert checked >= 5


def test_associated_empty_front_rejected():
    sys = builtin_examples()["alpha"]
    with pytest.raises(DomainError):
        associated_one_param(sys, 0, Box((1, 1), (2, 2)))


@st.composite
def lp_cases(draw):
    """A system, a box and a vector on it: dense up to the box faces or
    sparse, on symmetric, asymmetric and all-negative boxes."""
    n = draw(st.integers(1, 3))
    dim_x = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sys = gen.conservative_system(rng, n, dim_x, draw(st.integers(1, 2)))
    else:
        sys = gen.random_system(rng, n, dim_x, draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    reach = 3 if n < 3 else 2
    shape = draw(st.sampled_from(["symmetric", "asymmetric", "negative"]))
    if shape == "symmetric":
        half = draw(st.integers(0, reach))
        lo, hi = (-half,) * n, (half,) * n
    elif shape == "asymmetric":
        lo = tuple(draw(st.integers(-reach, 1)) for _ in range(n))
        hi = tuple(a + draw(st.integers(0, reach)) for a in lo)
    else:
        hi = tuple(draw(st.integers(-reach, -1)) for _ in range(n))
        lo = tuple(b - draw(st.integers(0, reach)) for b in hi)
    box = Box(lo, hi)
    density = draw(st.sampled_from([1.0, 0.3]))
    pts = [
        t
        for t in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if rng.random() < density
    ]

    def part(keep, dim):
        return gen.random_signal(rng, n, dim, [t for t in pts if keep(order(t))])

    vec = TruncatedLPVector(
        box,
        part(lambda o: o <= 0, sys.dim_out),
        part(lambda o: o == 0, sys.dim_x),
        part(lambda o: o >= 0, sys.dim_in),
    )
    return sys, draw(st.integers(0, n - 1)), vec


@settings(max_examples=120, deadline=None)
@given(lp_cases())
def test_generator_and_adjoint_match_the_dict_oracles(case):
    # supports and masks exactly; values to 1e-12 relative, because the
    # zero front is one stacked product where the oracle sums direction by
    # direction
    sys, k, vec = case
    for fast, slow in (
        (apply_generator, oracles.apply_generator_dict),
        (apply_adjoint, oracles.apply_adjoint_dict),
    ):
        got, got_mask = fast(sys, k, vec)
        want, want_mask = slow(sys, k, vec)
        assert got_mask == want_mask
        assert got.box == want.box
        for part in ("u_plus", "y", "u_minus"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dim == b.dim
            assert np.array_equal(a.points, b.points)
            scale = max(1.0, float(np.abs(b.values).max(initial=0.0)))
            assert np.abs(a.values - b.values).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(lp_cases())
def test_gamma_twice_is_bitwise_the_identity(case):
    _, _, vec = case
    back = gamma_map(gamma_map(vec))
    assert back.box == vec.box
    for part in ("u_plus", "y", "u_minus"):
        a, b = getattr(back, part), getattr(vec, part)
        assert oracles.same_bits(a.points, b.points)
        assert oracles.same_bits(a.values, b.values)


def test_adjoint_dimension_errors_name_the_callers_parts():
    sys = builtin_examples()["alpha"]
    vec = TruncatedLPVector(
        Box((-1, -1), (1, 1)),
        LatticeSignal(2, 2, {}),
        LatticeSignal(2, sys.dim_x, {}),
        LatticeSignal(2, sys.dim_in, {}),
    )
    with pytest.raises(ShapeError, match="u_plus dimension 2"):
        apply_adjoint(sys, 0, vec)
