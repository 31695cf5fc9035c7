"""Metric classification: torus scan, conservativity, block structure,
close connectedness."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import ndsys
import oracles
from ndsys import (
    DomainError,
    MultiLSDS,
    OperatorTuple,
    PreconditionError,
    RangeError,
    block_structure,
    builtin_examples,
    closely_connected_subspace,
    conservativity_check,
    dissipativity_scan,
    spectral_norm,
    transfer_eval,
)
from ndsys.system import conjugate


def test_example_systems_are_conservative_to_rounding():
    for name, sys in builtin_examples().items():
        cert = conservativity_check(sys)
        assert cert.passed, name
        assert cert.max_residual <= 1e-14, name


def test_conjugates_of_conservative_are_conservative():
    rng = np.random.default_rng(0)
    for _ in range(4):
        sys = gen.conservative_system(rng, 2, 3, 2)
        assert conservativity_check(conjugate(sys)).passed


def test_certificate_reports_four_identity_families():
    cert = conservativity_check(builtin_examples()["alpha"])
    assert set(cert.residuals) == {"iso", "iso_cross", "coiso", "coiso_cross"}


def test_random_contraction_fails_conservativity():
    sys = gen.dissipative_system(np.random.default_rng(1), 2, 2, 2)
    assert not conservativity_check(sys).passed


def test_scan_full_grid_on_perfect_power_budget():
    sys = builtin_examples()["alpha"]
    report = dissipativity_scan(sys, samples=49, refine=False)
    assert report.samples == 49  # 7 x 7 tensor grid
    assert report.dissipative
    assert abs(report.max_norm - 1.0) <= 1e-9  # unitary pencil values on the torus


def test_scan_conservative_pencil_sits_on_the_unit_sphere():
    rng = np.random.default_rng(2)
    sys = gen.conservative_system(rng, 2, 2, 2)
    report = dissipativity_scan(sys, samples=64)
    assert abs(report.max_norm - 1.0) <= 1e-9


def test_scan_flags_expansive_system():
    z = np.zeros((1, 1), dtype=complex)
    sys = MultiLSDS(
        a=OperatorTuple((2 * np.eye(1, dtype=complex), z.copy())),
        b=OperatorTuple((z.copy(), z.copy())),
        c=OperatorTuple((z.copy(), z.copy())),
        d=OperatorTuple((z.copy(), z.copy())),
    )
    report = dissipativity_scan(sys, samples=16)
    assert not report.dissipative
    assert report.max_norm >= 2.0 - 1e-9


def test_scan_refinement_never_decreases_the_maximum():
    rng = np.random.default_rng(3)
    sys = gen.dissipative_system(rng, 2, 3, 2)
    coarse = dissipativity_scan(sys, samples=16, refine=False)
    refined = dissipativity_scan(sys, samples=16)
    assert refined.max_norm >= coarse.max_norm - 1e-12
    assert refined.refined and not coarse.refined


def test_scan_witness_is_on_the_torus_and_attains():
    rng = np.random.default_rng(4)
    sys = gen.dissipative_system(rng, 2, 2, 2)
    report = dissipativity_scan(sys, samples=25, refine=False)
    assert all(abs(abs(z) - 1.0) <= 1e-12 for z in report.witness)
    from ndsys.pencil import eval_pencil

    stacked = [sys.block(k) for k in range(sys.n)]
    val = spectral_norm(eval_pencil(report.witness, OperatorTuple(tuple(stacked))))
    assert np.isclose(val, report.max_norm)


def same_scan(got, want):
    return (
        type(got.max_norm) is type(want.max_norm)
        and got.max_norm == want.max_norm
        and got.samples == want.samples
        and got.refined == want.refined
        and [type(v) for v in got.witness] == [type(v) for v in want.witness]
        and oracles.same_bits(np.array(got.witness), np.array(want.witness))
    )


def scan_bound(sys):
    """The rounding bound ``e = (n + 2 k + 64) m u (1 + sum_k ||G_k||)`` that
    `dissipativity_scan` states for one computed norm, ``k >= m`` the sides
    of a block and ``u = 2^-53``: the scan's norm lies within it of the
    exact norm and of an SVD's of the same pencil value."""
    blocks = sys.blocks()
    longer, shorter = max(blocks.rows, blocks.cols), min(blocks.rows, blocks.cols)
    total = sum(spectral_norm(g) for g in blocks)
    return (blocks.n + 2 * longer + 64) * shorter * 2.0**-53 * (1.0 + total)


def near_orbit_oracle(got, sys, samples):
    """An unrefined scan against the orbit oracle's: the same samples, a
    float maximum within `scan_bound` of the oracle's, and the oracle's
    witness bit for bit wherever its top norm beats every other
    representative's by more than twice the bound, so that rounding cannot
    reorder them."""
    want = oracles.dissipativity_scan_orbits(sys, samples, False)
    bound = scan_bound(sys)
    norms = sorted(oracles.norms_pointwise(sys.blocks(), oracles.torus_grid_pointwise(sys.n, samples, True)))
    separated = len(norms) == 1 or norms[-1] - norms[-2] > 2 * bound
    return (
        type(got.max_norm) is float
        and abs(got.max_norm - want.max_norm) <= bound
        and (got.samples, got.refined) == (want.samples, want.refined)
        and (not separated or same_scan(got, dataclasses.replace(want, max_norm=got.max_norm)))
    )


def ascends_stepwise(got, sys, coarse):
    """A refined scan is the stepwise ascent from its own grid maximum, bit
    for bit."""
    best, witness = oracles.refine_stepwise(sys.blocks(), coarse.witness, coarse.max_norm)
    return same_scan(got, dataclasses.replace(coarse, max_norm=best, witness=witness, refined=True))


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 3))
    per_axis = draw(st.integers(1, {1: 40, 2: 16, 3: 4}[n]))
    # a perfect n-th power is scanned whole, any other budget rounds down
    samples = draw(st.sampled_from([per_axis**n, draw(st.integers(1, 60))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim_x, dim_io = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["dissipative", "conservative", "random", "real"]))
    if kind in ("random", "real"):
        sys = gen.random_system(rng, n, dim_x, dim_io, dim_io, scale=0.6)
    else:
        sys = getattr(gen, f"{kind}_system")(rng, n, max(dim_x, 1), dim_io)
    if kind == "real":
        # real blocks: the norm at the conjugate point is the same, so the
        # maximum ties across two diagonal orbits
        sys = _real_copy(sys)
    return sys, samples, draw(st.booleans())


def _real_copy(sys):
    return MultiLSDS(**{k: OperatorTuple(tuple(m.real + 0j for m in getattr(sys, k))) for k in "abcd"})


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_scan_matches_the_orbit_oracle_within_the_rounding_bound(case):
    # the grid maximum is within the stated bound of the oracle's, at its
    # witness where rounding cannot reorder the orbits, and the refined
    # scan is the stepwise ascent from it
    sys, samples, refine = case
    coarse = dissipativity_scan(sys, samples=samples, refine=False)
    assert near_orbit_oracle(coarse, sys, samples)
    if refine:
        assert ascends_stepwise(dissipativity_scan(sys, samples=samples), sys, coarse)


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_refinement_never_lowers_the_grid_maximum(case):
    # the ascent starts from the grid maximum and keeps a point only when
    # its norm is larger, also where it stops at once on a flat gradient
    sys, samples, _ = case
    coarse = dissipativity_scan(sys, samples=samples, refine=False)
    assert dissipativity_scan(sys, samples=samples).max_norm >= coarse.max_norm


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_scan_is_within_the_rounding_gap_of_the_full_grid_oracle(case):
    # the representatives are grid points: each norm is within the bound of
    # the SVD's at the same value, so their maximum is at most the bound
    # above the full grid's, and below it by at most the gap
    # dissipativity_scan states, twice the bound
    sys, samples, _ = case
    got = dissipativity_scan(sys, samples=samples, refine=False)
    want = oracles.dissipativity_scan_pointwise(sys, samples, False)
    bound = scan_bound(sys)
    assert got.samples == want.samples
    assert -bound <= want.max_norm - got.max_norm <= 2 * bound
    if abs(got.max_norm - (1.0 + got.tol)) > 2 * bound:
        assert got.dissipative == want.dissipative


@pytest.mark.parametrize(
    "n,samples,refine",
    [(3, 65**3, False), (4, None, True)],
)
def test_scan_across_chunks_matches_the_orbit_oracle(n, samples, refine):
    # more orbits than one stacked eigensolve takes, on a given and the
    # default budget: 65^2 and 17^3 representatives
    sys = gen.dissipative_system(np.random.default_rng(9), n, 4, 2)
    coarse = dissipativity_scan(sys, samples=samples, refine=False)
    assert near_orbit_oracle(coarse, sys, samples)
    if refine:
        assert ascends_stepwise(dissipativity_scan(sys, samples=samples), sys, coarse)


def _cut(sys, dim_in, dim_out):
    """The first ``dim_in`` inputs and ``dim_out`` outputs of ``sys``: a
    column or row cut of a unitary is an isometry or a coisometry, so a cut
    of a conservative pencil keeps norm 1 on the torus, and a cut of a
    contractive one stays contractive."""
    return MultiLSDS(
        sys.a,
        OperatorTuple(tuple(m[:, :dim_in] for m in sys.b)),
        OperatorTuple(tuple(m[:dim_out] for m in sys.c)),
        OperatorTuple(tuple(m[:dim_out, :dim_in] for m in sys.d)),
    )


@st.composite
def pencil_cases(draw):
    """Square and rectangular pencils at n = 1..4, empty sides included."""
    n = draw(st.integers(1, 4))
    dim_x, dim_in, dim_out = (draw(st.integers(0, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dissipative", "conservative", "random"]))
    if kind == "random" or dim_x + max(dim_in, dim_out) == 0:
        sys = gen.random_system(rng, n, dim_x, dim_in, dim_out, scale=draw(st.sampled_from([0.3, 1.0, 50.0])))
    else:
        full = getattr(gen, f"{kind}_system")(rng, n, dim_x, max(dim_in, dim_out))
        sys = _cut(full, dim_in, dim_out)
    return sys, draw(st.integers(1, 200)), rng


@settings(max_examples=150, deadline=None)
@given(pencil_cases())
def test_each_norm_is_within_the_stated_bound_of_an_svd(case):
    # the Gram's eigensolve against an SVD of the same value, at the
    # representatives and at random torus points, with the scan itself
    # against the orbit oracle; an empty side gives 0.0 exactly
    import ndsys.analysis
    from ndsys.pencil import eval_pencil

    sys, samples, rng = case
    blocks = sys.blocks()
    reps = ndsys.analysis._representatives(sys.n, samples)[1]
    points = np.vstack([reps, np.exp(2j * np.pi * rng.random((8, sys.n)))])
    got = ndsys.analysis._sigma_max(points, blocks)
    want = np.array([spectral_norm(v) for v in eval_pencil(points, blocks)])
    assert got.dtype == float and got.shape == want.shape
    assert np.abs(got - want).max() <= scan_bound(sys)
    if min(blocks.rows, blocks.cols) == 0:
        assert oracles.same_bits(got, np.zeros(len(points)))
    assert near_orbit_oracle(dissipativity_scan(sys, samples=samples, refine=False), sys, samples)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("refine", [False, True])
def test_blocks_at_the_overflow_limit_scan_to_a_finite_norm(refine):
    # every entry part at the largest size `_require_bounded` admits, on an
    # n = 3 pencil of 5 x 4 blocks: the pencil value, its Gram and the
    # eigensolve stay finite, with no numpy warning, and the norm at
    # z = (1, 1, 1), the first representative, is 3 sqrt(2 * 20) times it
    import math

    import ndsys.analysis

    n, rows, cols = 3, 5, 4
    limit = math.sqrt(ndsys.analysis._PRODUCT_CAP / (4 * n * rows * rows))
    block = np.full((rows, cols), limit * (1 + 1j))
    sys = MultiLSDS(
        OperatorTuple((block[:3, :3],) * n),
        OperatorTuple((block[:3, 3:],) * n),
        OperatorTuple((block[3:, :3],) * n),
        OperatorTuple((block[3:, 3:],) * n),
    )
    report = dissipativity_scan(sys, refine=refine)
    assert np.isfinite(report.max_norm) and not report.dissipative
    assert abs(report.max_norm / (3 * math.sqrt(40) * limit) - 1.0) <= 1e-12
    over = MultiLSDS(OperatorTuple((block[:3, :3] * 1.0000001,) * n), sys.b, sys.c, sys.d)
    with pytest.raises(RangeError):
        dissipativity_scan(over)


def test_scan_of_a_conservative_pencil_across_chunks_matches_the_orbit_oracle(monkeypatch):
    # a conservative pencil has norm 1 everywhere, up to rounding: one call
    # takes the 65^2 representatives of the 65^3 grid, more than one
    # stacked eigensolve takes, and the first maximum among them is kept
    import ndsys.analysis

    rows = count_sigma_rows(monkeypatch)
    sys = gen.conservative_system(np.random.default_rng(9), 3, 4, 2)
    got = dissipativity_scan(sys, samples=65**3, refine=False)
    assert rows == [65**2] and rows[0] > ndsys.analysis._CHUNK
    assert near_orbit_oracle(got, sys, 65**3)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("n,samples", [(2, 81), (3, 50)])
def test_scan_chunk_size_does_not_change_the_result(monkeypatch, chunk, n, samples):
    # each pencil value is decomposed alone, so the chunking moves no bit
    import ndsys.analysis

    sys = gen.dissipative_system(np.random.default_rng(n), n, 3, 2)
    reps = ndsys.analysis._representatives(n, samples)[1]
    norms = ndsys.analysis._sigma_max(reps, sys.blocks())
    monkeypatch.setattr(ndsys.analysis, "_CHUNK", chunk)
    assert oracles.same_bits(ndsys.analysis._sigma_max(reps, sys.blocks()), norms)
    assert near_orbit_oracle(dissipativity_scan(sys, samples=samples, refine=False), sys, samples)


def _ascent_cases():
    cases = dict(builtin_examples())
    for n in (2, 3, 4):
        rng = np.random.default_rng(20 + n)
        cases[f"dissipative-n{n}"] = gen.dissipative_system(rng, n, 3, 2)
        cases[f"conservative-n{n}"] = gen.conservative_system(rng, n, 3, 2)
        cases[f"random-n{n}"] = gen.random_system(rng, n, 3, 2, 2, scale=0.6)
    return cases


def _is_flat(name):
    """The conservative ascent cases: the norm is 1 on the whole torus."""
    return name in builtin_examples() or name.startswith("conservative")


def _dissipative_ascent_cases():
    """The ascent cases whose norm varies on the torus, gen's dissipative
    systems at n = 2..4 and seeds 0..5, and the real-block copy of each."""
    cases = {name: sys for name, sys in _ascent_cases().items() if not _is_flat(name)}
    for n in (2, 3, 4):
        for seed in range(6):
            cases[f"gen-n{n}-seed{seed}"] = gen.dissipative_system(np.random.default_rng(seed), n, 3, 2)
    cases.update({f"{name}-real": _real_copy(sys) for name, sys in cases.items()})
    return cases


@pytest.mark.parametrize("name", list(_dissipative_ascent_cases()))
def test_the_ascent_stops_early_only_where_the_exact_gradient_is_zero(monkeypatch, name):
    # an ascent on a varying norm takes all 50 trial steps, except from a
    # start point where the exact gradient vanishes: a pencil
    # with one nonzero block (gen at n = 2, seed 0) has a constant norm, and
    # real blocks give f(phi) = f(-phi), stationary at a real witness
    import ndsys.analysis

    sys = _dissipative_ascent_cases()[name]
    coarse = dissipativity_scan(sys, refine=False)
    trials = []
    spectral_norm = ndsys.analysis.spectral_norm
    monkeypatch.setattr(ndsys.analysis, "spectral_norm", lambda m: trials.append(m) or spectral_norm(m))
    dissipativity_scan(sys)
    one_block = sum(bool(np.any(g)) for g in sys.blocks()) == 1
    real_point = name.endswith("-real") and all(abs(z.imag) < 1e-12 for z in coarse.witness)
    assert len(trials) == (0 if one_block or real_point else 50)


@pytest.mark.parametrize("name", list(_ascent_cases()))
def test_refined_scan_matches_the_stepwise_ascent_bitwise(monkeypatch, name):
    # the ascent keeps the top pair of the point it last decomposed, so a
    # rejected trial that returns there decomposes nothing new; the maximum
    # and the witness stay those of the ascent that decomposes every step
    import ndsys.analysis

    sys = _ascent_cases()[name]
    coarse = dissipativity_scan(sys, refine=False)
    decomposed = []
    top_pair = ndsys.analysis._top_pair
    monkeypatch.setattr(
        ndsys.analysis, "_top_pair", lambda m: decomposed.append(m) or top_pair(m)
    )
    got = dissipativity_scan(sys)
    best, witness = oracles.refine_stepwise(sys.blocks(), coarse.witness, coarse.max_norm)
    assert type(got.max_norm) is type(best) and got.max_norm == best
    assert [type(v) for v in got.witness] == [type(v) for v in witness]
    assert oracles.same_bits(np.array(got.witness), np.array(witness))
    assert 1 <= len(decomposed) <= 50
    assert all(a.tobytes() != b.tobytes() for a, b in zip(decomposed, decomposed[1:]))


@pytest.mark.parametrize("name", ["alpha", "alpha_prime"])
def test_scan_of_a_conservative_pencil_matches_the_orbit_oracle(name):
    # the norm is 1 up to rounding at every point, so the maximum can sit at
    # any representative
    sys = builtin_examples()[name]
    got = dissipativity_scan(sys, refine=False)
    assert got.witness[0] == 1.0
    assert near_orbit_oracle(got, sys, None)


def ties_at_the_lowest_representative(report, sys, samples):
    """Every representative holds one pencil value: the norm is the
    library's own at the one-point grid bit for bit, within the bound of
    the oracle's, and the witness the oracle's, the lowest representative."""
    want = oracles.dissipativity_scan_orbits(sys, samples, False)
    single = dissipativity_scan(sys, samples=1, refine=False).max_norm
    return (
        abs(single - want.max_norm) <= scan_bound(sys)
        and same_scan(report, dataclasses.replace(want, max_norm=single))
    )


def test_scan_ties_resolve_to_the_lowest_grid_index():
    # G_2 = 0: the pencil, and so its norm, does not depend on z_2, and at
    # z_1 = 1 every representative holds the same pencil value G_1
    rng = np.random.default_rng(5)
    base = gen.dissipative_system(rng, 1, 2, 2)
    z = np.zeros((2, 2), dtype=complex)
    sys = MultiLSDS(
        a=OperatorTuple((base.a[0], z)),
        b=OperatorTuple((base.b[0], z)),
        c=OperatorTuple((base.c[0], z)),
        d=OperatorTuple((base.d[0], z)),
    )
    report = dissipativity_scan(sys, samples=64, refine=False)
    assert report.witness == (1.0, 1.0)  # index 0 on both axes
    assert ties_at_the_lowest_representative(report, sys, 64)


@pytest.mark.parametrize("chunk", [1, 3, 5])
@pytest.mark.parametrize("n,samples", [(2, 64), (3, 125)])
def test_scan_ties_across_chunks_resolve_to_the_lowest_grid_index(monkeypatch, chunk, n, samples):
    # only G_1 is nonzero, so every representative holds the pencil value
    # G_1 and ties exactly with every other, across chunk boundaries too
    import ndsys.analysis

    monkeypatch.setattr(ndsys.analysis, "_CHUNK", chunk)
    base = gen.dissipative_system(np.random.default_rng(5), 1, 2, 2)
    z = np.zeros((2, 2), dtype=complex)
    sys = MultiLSDS(*(OperatorTuple((getattr(base, k)[0],) + (z,) * (n - 1)) for k in "abcd"))
    report = dissipativity_scan(sys, samples=samples, refine=False)
    assert all(v == 1.0 for v in report.witness)  # index 0 on every axis
    assert ties_at_the_lowest_representative(report, sys, samples)


def test_scan_rejects_empty_budget():
    with pytest.raises(DomainError):
        dissipativity_scan(builtin_examples()["alpha"], samples=0)


def test_scan_refuses_a_budget_over_the_cap_before_building_the_grid(monkeypatch):
    import ndsys.analysis

    def build(*args, **kwargs):
        raise AssertionError("the scan built its grid")

    monkeypatch.setattr(np, "indices", build)
    n3 = gen.dissipative_system(np.random.default_rng(0), 3, 2, 2)
    for sys in (builtin_examples()["alpha"], n3):
        with pytest.raises(DomainError, match="sample budget"):
            dissipativity_scan(sys, samples=2**40)


@st.composite
def grid_budgets(draw):
    """A dimension and a budget up to the cap, often one off a power."""
    n = draw(st.integers(1, 6))
    per_axis = draw(st.integers(1, int(2 ** (24 / n))))
    near = [b for b in (per_axis**n - 1, per_axis**n, per_axis**n + 1) if 1 <= b <= 2**24]
    return n, draw(st.one_of(st.integers(1, 2**24), st.sampled_from(near)))


@settings(max_examples=300, deadline=None)
@given(grid_budgets())
def test_torus_grid_is_the_largest_tensor_grid_within_the_budget(case):
    from ndsys.analysis import _axis_size, _representatives

    n, budget = case
    per_axis = _axis_size(n, budget)
    assert per_axis**n <= budget < (per_axis + 1) ** n
    if per_axis**n > 5000:
        return  # the points themselves are checked where the grid is small
    size, reps = _representatives(n, budget)
    assert size == per_axis and reps.shape == (per_axis ** (n - 1), n)
    # orbit o is its j_1 = 0 member, at flat index o: the first P^(n-1)
    # rows of the pointwise grid, with their phases bit for bit
    want = np.array(oracles.torus_grid_pointwise(n, budget), dtype=complex)
    assert (reps[:, 0] == 1.0).all()
    assert oracles.same_bits(reps, want[: len(reps)])


def test_default_scans_take_the_largest_tensor_grid_under_the_cap():
    # 32^4 and 32^6 pass the 1e5 default, which rounds down to 17^4 and 6^6
    for n, samples in ((4, 17**4), (6, 6**6)):
        sys = gen.dissipative_system(np.random.default_rng(0), n, 3, 3)
        report = dissipativity_scan(sys, refine=False)
        assert report.samples == samples
        assert same_scan(report, dissipativity_scan(sys, samples=samples, refine=False))


def count_sigma_rows(monkeypatch):
    """The number of points of each `_sigma_max` call, as the scan makes them."""
    import ndsys.analysis

    rows = []
    sigma_max = ndsys.analysis._sigma_max

    def counted(points, blocks):
        rows.append(len(points))
        return sigma_max(points, blocks)

    monkeypatch.setattr(ndsys.analysis, "_sigma_max", counted)
    return rows


@pytest.mark.parametrize("kind", ["dissipative", "conservative"])
def test_scan_computes_the_norm_once_per_orbit(monkeypatch, kind):
    # one pass over the P^(n-1) representatives, also where the norm is 1 on
    # the whole torus and every orbit reaches the maximum up to rounding
    rows = count_sigma_rows(monkeypatch)
    sys = getattr(gen, f"{kind}_system")(np.random.default_rng(1), 3, 3, 3)
    report = dissipativity_scan(sys, refine=False)
    assert rows == [32**2] and report.samples == 32**3


def test_an_n1_scan_at_the_budget_cap_computes_one_norm(monkeypatch):
    # the one diagonal orbit is the whole circle
    rows = count_sigma_rows(monkeypatch)
    sys = gen.dissipative_system(np.random.default_rng(0), 1, 3, 2)
    report = dissipativity_scan(sys, samples=2**24)
    assert rows == [1] and report.samples == 2**24
    assert report == dataclasses.replace(dissipativity_scan(sys, samples=1), samples=2**24)


@pytest.mark.parametrize("samples", [None, 2**24])
def test_an_n1_ascent_decomposes_its_start_point_alone(monkeypatch, samples):
    # the norm is constant on the circle, so the gradient at the grid
    # witness is only rounding and the ascent takes no trial step
    import ndsys.analysis

    log = []
    top_pair, spectral_norm = ndsys.analysis._top_pair, ndsys.analysis.spectral_norm
    monkeypatch.setattr(ndsys.analysis, "_top_pair", lambda m: log.append("svd") or top_pair(m))
    monkeypatch.setattr(ndsys.analysis, "spectral_norm", lambda m: log.append("trial") or spectral_norm(m))
    sys = gen.dissipative_system(np.random.default_rng(0), 1, 3, 2)
    report = dissipativity_scan(sys, samples=samples)
    assert log == ["svd"]
    want = oracles.dissipativity_scan_orbits(sys)  # one orbit at every budget
    assert abs(report.max_norm - want.max_norm) <= scan_bound(sys)
    assert same_scan(report, dataclasses.replace(want, samples=report.samples, max_norm=report.max_norm))


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dims", [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0)])
def test_a_pencil_with_an_empty_side_has_norm_zero(monkeypatch, dims, n, refine):
    # no state and no input or no output: every pencil value is empty, so
    # the ascent has no pair to decompose and the grid maximum 0 stands
    import ndsys.analysis

    def top_pair(m):
        raise AssertionError("an empty pencil value was decomposed")

    monkeypatch.setattr(ndsys.analysis, "_top_pair", top_pair)
    sys = gen.random_system(np.random.default_rng(n), n, *dims)
    report = dissipativity_scan(sys, refine=refine)
    assert report.max_norm == 0.0 and report.dissipative and report.refined == refine
    assert same_scan(report, oracles.dissipativity_scan_orbits(sys, None, refine))


def test_block_structure_of_the_one_dimensional_example():
    alpha = builtin_examples()["alpha"]
    bs = block_structure(alpha)
    assert bs.dims == (1, 1)
    assert bs.orthogonality_residual <= 1e-12
    assert bs.completeness_defect == 0
    assert bs.coupling_residual <= 1e-12
    assert bs.unitarity_residual <= 1e-12
    # initial subspace of the first member is the state direction,
    # of the second the input direction (the blocks route X through
    # direction 1 and the input through direction 2)
    assert np.isclose(abs(bs.bases_in[0][0, 0]), 1.0)
    assert np.isclose(abs(bs.bases_in[1][1, 0]), 1.0)
    assert np.isclose(abs(bs.bases_out[0][1, 0]), 1.0)
    assert np.isclose(abs(bs.bases_out[1][0, 0]), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_block_structure_reconstructs_the_members(seed):
    rng = np.random.default_rng(10 + seed)
    sys = gen.conservative_system(rng, 2, 3, 2)
    bs = block_structure(sys)
    assert sum(bs.dims) == sys.dim_x + sys.dim_in
    for k in range(sys.n):
        g = sys.block(k)
        recon = bs.bases_out[k] @ bs.diag_blocks[k] @ bs.bases_in[k].conj().T
        assert np.linalg.norm(g - recon) <= 1e-10
        # the bases come from R-SVD and span what the thin SVD of the
        # block itself spans
        for basis, m in ((bs.bases_in[k], g.conj().T), (bs.bases_out[k], g)):
            want = oracles.orth_basis_svd(m, rank_tol=0.5)
            assert np.abs(basis @ basis.conj().T - want @ want.conj().T).max() <= 1e-12
        # diagonal blocks are unitary
        d = bs.diag_blocks[k]
        assert np.linalg.norm(d.conj().T @ d - np.eye(d.shape[0])) <= 1e-10


def test_block_structure_requires_conservativity():
    sys = gen.dissipative_system(np.random.default_rng(5), 2, 2, 2)
    with pytest.raises(PreconditionError):
        block_structure(sys)


def test_closely_connected_dims_of_the_examples():
    ex = builtin_examples()
    assert closely_connected_subspace(ex["alpha"]).shape[1] == 1
    assert closely_connected_subspace(ex["alpha_prime"]).shape[1] == 3


def test_decoupled_state_block_is_dropped():
    # pad a conservative system with an unreachable unitary corner
    rng = np.random.default_rng(6)
    base = gen.conservative_system(rng, 2, 2, 2)
    extra = gen.haar_unitary(rng, 2)
    pad_a = []
    for k in range(2):
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = base.a[k]
        if k == 0:
            block[2:, 2:] = extra
        pad_a.append(block)
    grown = MultiLSDS(
        a=OperatorTuple(tuple(pad_a)),
        b=OperatorTuple(tuple(np.vstack([base.b[k], np.zeros((2, 2))]) for k in range(2))),
        c=OperatorTuple(tuple(np.hstack([base.c[k], np.zeros((2, 2))]) for k in range(2))),
        d=base.d,
    )
    sub = closely_connected_subspace(grown)
    assert sub.shape[1] == 2
    # the subspace avoids the padded corner entirely
    assert np.abs(sub[2:, :]).max() <= 1e-12


def test_reduction_preserves_the_transfer_function():
    # compressing onto the closely connected subspace drops an invariant
    # complement that no input reaches and no output observes
    rng = np.random.default_rng(7)
    base = gen.conservative_system(rng, 2, 2, 2)
    q = closely_connected_subspace(base)
    qh = q.conj().T
    reduced = MultiLSDS(
        a=OperatorTuple(tuple(qh @ base.a[k] @ q for k in range(2))),
        b=OperatorTuple(tuple(qh @ base.b[k] for k in range(2))),
        c=OperatorTuple(tuple(base.c[k] @ q for k in range(2))),
        d=base.d,
    )
    assert reduced.dim_x == q.shape[1]
    for _ in range(5):
        z = tuple(0.6 * np.exp(2j * np.pi * rng.random()) for _ in range(2))
        gap = np.abs(transfer_eval(base, z) - transfer_eval(reduced, z)).max()
        assert gap <= 1e-10


def test_cnu_flags_for_the_examples():
    # a conservative system is completely nonunitary exactly when its
    # whole state space is closely connected
    for sys in builtin_examples().values():
        assert conservativity_check(sys).passed
        assert closely_connected_subspace(sys).shape[1] == sys.dim_x


def test_cnu_detects_a_unitary_summand():
    grown = gen.with_unitary_summand(np.random.default_rng(8))
    assert conservativity_check(grown).passed
    assert grown.dim_x == 4
    assert closely_connected_subspace(grown).shape[1] == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("analyse", [conservativity_check, dissipativity_scan, block_structure])
def test_blocks_whose_products_can_overflow_are_refused_before_any_product(analyse, monkeypatch):
    import ndsys.analysis

    def product(*args, **kwargs):
        raise AssertionError("a pencil value was formed")

    monkeypatch.setattr(ndsys.analysis, "eval_pencil", product)
    rng = np.random.default_rng(7)
    sys = gen.random_system(rng, 3, 2, 1, 2)
    big = MultiLSDS(OperatorTuple([a * 1e160 for a in sys.a]), sys.b, sys.c, sys.d)
    with pytest.raises(RangeError, match="exceeds .*, the size that keeps every block product finite"):
        analyse(big)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_a_scan_at_the_budget_cap_holds_no_grid():
    # an n = 3 dissipative scan at 2**24 points holds the 256^2
    # representatives and one chunk: a P^n grid with its indices and norms
    # took 1.28 GB
    code = """
import resource, numpy as np, gen
from ndsys import dissipativity_scan
sys = gen.dissipative_system(np.random.default_rng(0), 3, 3, 2)
dissipativity_scan(sys, samples=64)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
report = dissipativity_scan(sys, samples=2**24, refine=False)
print(report.samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndsys.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    samples, grown_kib = map(int, proc.stdout.split())
    assert samples == 2**24 and grown_kib < 100 * 1024


@pytest.mark.parametrize("name", list(_ascent_cases()))
def test_the_ascent_decomposes_an_accepted_trial_without_evaluating_it_again(monkeypatch, name):
    # the pencil is evaluated at the start point, at each step's trial and
    # at a return to a best point whose value the ascent no longer holds;
    # the step after an accepted trial decomposes that trial's own value
    import ndsys.analysis

    sys = _ascent_cases()[name]
    coarse = dissipativity_scan(sys, refine=False)
    log = []
    eval_pencil, spectral_norm, top_pair = (
        ndsys.analysis.eval_pencil, ndsys.analysis.spectral_norm, ndsys.analysis._top_pair
    )

    def evaluated(z, ops):
        log.append(("eval", z.tobytes(), eval_pencil(z, ops)))
        return log[-1][2]

    monkeypatch.setattr(ndsys.analysis, "eval_pencil", evaluated)
    monkeypatch.setattr(ndsys.analysis, "spectral_norm", lambda m: log.append(("trial", m)) or spectral_norm(m))
    monkeypatch.setattr(ndsys.analysis, "_top_pair", lambda m: log.append(("svd", m)) or top_pair(m))
    ndsys.analysis._refine(sys.blocks(), coarse.witness, coarse.max_norm)
    if _is_flat(name):
        # the gradient at the start point is only rounding: one evaluation,
        # one decomposition and no trial
        assert [e[0] for e in log] == ["eval", "svd"]
        return
    evals = [e for e in log if e[0] == "eval"]
    trials = [e[1] for e in log if e[0] == "trial"]
    phases = {id(value): z for _, z, value in evals}
    last_trial = None
    fresh = 0
    for event in log:
        if event[0] == "trial":
            last_trial = event[1]
        elif event[0] == "svd":
            if last_trial is not None and phases[id(event[1])] == phases[id(last_trial)]:
                assert event[1] is last_trial
            fresh += not any(event[1] is m for m in trials)
    assert len(trials) == 50 and len(evals) == len(trials) + fresh
