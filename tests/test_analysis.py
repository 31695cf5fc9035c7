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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["dissipative", "conservative", "random", "rectangular"])
def test_cross_residuals_match_the_ordered_pair_oracle(n, kind):
    # the library takes one order of each pair of directions; the norm of
    # the adjoint product is the same, so the cross residuals agree with
    # every ordered pair's within a few ulps of the largest block product
    rng = np.random.default_rng(n)
    if kind == "rectangular":
        sys = gen.random_system(rng, n, 3, 1, 2, scale=2.0)
    elif kind == "random":
        sys = gen.random_system(rng, n, 3, 2, 2, scale=0.6)
    else:
        sys = getattr(gen, f"{kind}_system")(rng, n, 3, 2)
    got = conservativity_check(sys).residuals
    want = oracles.cross_residuals_ordered(sys.blocks())
    scale = max(spectral_norm(g) for g in sys.blocks()) ** 2
    for name, value in want.items():
        assert abs(got[name] - value) <= 4 * np.finfo(float).eps * max(scale, 1.0), name
    if n == 1:
        assert got["iso_cross"] == got["coiso_cross"] == 0.0


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
    """The rounding bound ``e`` that `dissipativity_scan` states for a
    computed norm of at least `oracles.norm_floor`: the scan's norm lies
    within it of the exact norm and of an SVD's of the same pencil value."""
    return oracles.rounding_bound(sys.blocks())


def within_the_bound(got, want, sys, below=1, above=1):
    """``want - below e <= got <= want + above e`` for ``e`` `scan_bound`,
    wherever ``want`` is at least `oracles.norm_floor`, the floor of every
    maximum over a grid of ``P >= 2`` points an axis; below the floor the
    Gram's absolute rounding bounds the squares instead, by the same
    multiples of ``2 e`` times the floor.  Elementwise on arrays."""
    got, want = np.asarray(got), np.asarray(want)
    bound, floor = scan_bound(sys), oracles.norm_floor(sys.blocks())
    above_floor = want >= floor
    gap = np.where(above_floor, got - want, got**2 - want**2)
    scale = np.where(above_floor, bound, 2 * bound * floor)
    return (-below * scale <= gap) & (gap <= above * scale)


def near_orbit_oracle(got, sys, samples):
    """An unrefined scan against the orbit oracle's: the same samples, a
    float maximum within `scan_bound` of the oracle's (`within_the_bound`),
    and the oracle's witness bit for bit wherever its top norm beats every
    other representative's by more than twice the bound, so that rounding
    cannot reorder them."""
    want = oracles.dissipativity_scan_orbits(sys, samples, False)
    bound = scan_bound(sys)
    norms = sorted(oracles.norms_pointwise(sys.blocks(), oracles.torus_grid_pointwise(sys.n, samples, True)))
    separated = len(norms) == 1 or norms[-1] - norms[-2] > 2 * bound
    return (
        type(got.max_norm) is float
        and within_the_bound(got.max_norm, want.max_norm, sys)
        and (got.samples, got.refined) == (want.samples, want.refined)
        and (not separated or same_scan(got, dataclasses.replace(want, max_norm=got.max_norm)))
    )


def library_norm(sys, z):
    """The scan's own norm at the torus point ``z``: the root of the
    largest eigenvalue of the pencil value's smaller Gram."""
    import ndsys.analysis

    products = ndsys.analysis._products(sys.blocks())
    return float(ndsys.analysis._norms(ndsys.analysis._grams(np.array([z]), products))[0])


def refines_within_the_bound(got, sys, coarse):
    """A refined scan from its own grid maximum: the grid's samples, a
    maximum no lower than the grid's, and a witness with ``z_1 = 1`` on
    the torus whose norm, the scan's own, is the maximum bit for bit and
    within `scan_bound` of an SVD's at the same point."""
    z = np.array(got.witness)
    return (
        type(got.max_norm) is float
        and got.refined
        and got.samples == coarse.samples
        and got.max_norm >= coarse.max_norm
        and got.witness[0] == 1 + 0j
        and np.abs(np.abs(z) - 1.0).max() <= 1e-15
        and library_norm(sys, z) == got.max_norm
        and abs(oracles.norms_pointwise(sys.blocks(), [z])[0] - got.max_norm) <= scan_bound(sys)
    )


def reaches_the_ascent(got, sys, coarse):
    """A refined scan within the bound of its grid maximum, no more than
    twice `scan_bound` below the stepwise ascent's maximum from the same
    start point."""
    best, _ = oracles.refine_stepwise(sys.blocks(), coarse.witness, coarse.max_norm)
    return refines_within_the_bound(got, sys, coarse) and got.max_norm >= best - 2 * scan_bound(sys)


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
    # maximum is a norm of the scan's own at a torus point with z_1 = 1.
    # On a coarse grid the search and the oracle's ascent can climb
    # different local maxima, so neither bounds the other
    sys, samples, refine = case
    coarse = dissipativity_scan(sys, samples=samples, refine=False)
    assert near_orbit_oracle(coarse, sys, samples)
    if refine:
        assert refines_within_the_bound(dissipativity_scan(sys, samples=samples), sys, coarse)


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
    # dissipativity_scan states, twice the bound (in the squares, below
    # the floor that only a one-point grid's maximum can fall under)
    sys, samples, _ = case
    got = dissipativity_scan(sys, samples=samples, refine=False)
    want = oracles.dissipativity_scan_pointwise(sys, samples, False)
    bound = scan_bound(sys)
    assert got.samples == want.samples
    assert within_the_bound(got.max_norm, want.max_norm, sys, below=2)
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
        assert reaches_the_ascent(dissipativity_scan(sys, samples=samples), sys, coarse)


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
    # the Gram's eigensolve, unscreened, against an SVD of the same value,
    # at the representatives and at random torus points: within the bound
    # where the norm is at least the floor, and in the squares below it,
    # where the Gram's rounding is absolute; the eigensolve of the Gram
    # formed from the value is within the bound everywhere.  The scan
    # itself against the orbit oracle; an empty side gives 0.0 exactly
    import ndsys.analysis
    from ndsys.pencil import eval_pencil

    sys, samples, rng = case
    blocks = sys.blocks()
    reps = ndsys.analysis._representatives(sys.n, samples)[1]
    points = np.vstack([reps, np.exp(2j * np.pi * rng.random((8, sys.n)))])
    got = oracles.norms_unscreened(points, blocks)
    want = np.array([spectral_norm(v) for v in eval_pencil(points, blocks)])
    assert got.dtype == float and got.shape == want.shape
    assert within_the_bound(got, want, sys).all()
    assert np.abs(oracles.norms_from_values(points, blocks) - want).max() <= scan_bound(sys)
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


def set_chunk(monkeypatch, blocks, points):
    """Set the chunk budget so that `_scan_maximum` takes ``points`` points
    of the pencil ``blocks`` per chunk: their ``n^2`` Gram weights, Grams
    and the screen's working copy of the Grams."""
    import ndsys.analysis

    side = min(blocks.rows, blocks.cols)
    budget = points * 16 * (blocks.n**2 + 2 * side * side)
    monkeypatch.setattr(ndsys.analysis, "_CHUNK_BYTES", budget)


def test_scan_of_a_conservative_pencil_across_chunks_matches_the_orbit_oracle(monkeypatch):
    # a conservative pencil has norm 1 everywhere, up to rounding: one call
    # takes the 65^2 representatives of the 65^3 grid, more than one
    # stacked eigensolve takes, and the first maximum among them is kept
    rows = count_scan_points(monkeypatch)
    sys = gen.conservative_system(np.random.default_rng(9), 3, 4, 2)
    set_chunk(monkeypatch, sys.blocks(), 4096)
    got = dissipativity_scan(sys, samples=65**3, refine=False)
    assert rows == [65**2] and rows[0] > 4096
    assert near_orbit_oracle(got, sys, 65**3)


@pytest.mark.parametrize("chunk", [1, 7, 64, 200])
@pytest.mark.parametrize("n,samples", [(2, 81), (3, 50), (3, None)])
def test_scan_chunk_size_does_not_change_the_result(monkeypatch, chunk, n, samples):
    # each pencil value is decomposed alone, so the chunking moves no norm
    # of the unscreened eigensolve, and a chunk's screen starts from the
    # maximum of the chunks before it: the maximum and its witness stay
    # those of one chunk, bit for bit, also where chunks of 200 of the
    # 1,024 default n = 3 representatives are screened
    import ndsys.analysis

    sys = gen.dissipative_system(np.random.default_rng(n), n, 3, 2)
    reps = ndsys.analysis._representatives(n, samples)[1]
    norms = oracles.norms_unscreened(reps, sys.blocks())
    parts = [oracles.norms_unscreened(reps[i : i + chunk], sys.blocks()) for i in range(0, len(reps), chunk)]
    assert oracles.same_bits(np.concatenate(parts), norms)
    whole = dissipativity_scan(sys, samples=samples, refine=False)
    set_chunk(monkeypatch, sys.blocks(), chunk)
    assert same_scan(dissipativity_scan(sys, samples=samples, refine=False), whole)
    assert whole.max_norm == norms.max() and whole.witness == tuple(reps[np.argmax(norms)])
    assert near_orbit_oracle(whole, sys, samples)


@pytest.mark.parametrize("dims,rows,cols", [((4, 2, 2), 6, 6), ((2, 0, 2), 4, 2)], ids=["6x6", "4x2"])
def test_a_lone_point_has_the_gram_it_has_in_a_stack(dims, rows, cols):
    # numpy multiplies a one-row stack by gemv, which rounds apart from the
    # gemm of a larger stack: a lone point's Gram is its row of a stack of
    # 2, 7 and 1,024 points bit for bit, on the G G^H side of 6 x 6 blocks
    # and on the G^H G side of 4 x 2 blocks
    import ndsys.analysis

    blocks = gen.random_system(np.random.default_rng(36), 3, *dims).blocks()
    assert (blocks.rows, blocks.cols) == (rows, cols)
    products = ndsys.analysis._products(blocks)
    points = np.exp(2j * np.pi * np.random.default_rng(7).random((1024, 3)))
    stacks = {size: ndsys.analysis._grams(points[:size], products) for size in (2, 7, 1024)}
    for at in (0, 1, 5, 6, 511, 1023):
        alone = ndsys.analysis._grams(points[at : at + 1], products)
        assert alone.shape == (1, min(rows, cols), min(rows, cols))
        for size, gram in stacks.items():
            assert at >= size or oracles.same_bits(alone[0], gram[at]), (at, size)


def test_a_norm_at_a_zero_of_the_pencil_is_bounded_in_its_square():
    # the scalar pencil (z_1 + z_2 + z_3) / 2 vanishes at the grid point
    # (1, w, w^2), w = exp(2 pi i / 3): the Gram read from the products sums
    # nine terms of modulus 1/4, so its rounding is absolute and the norm
    # there reads 5.3e-9, far past e, while its square stays within 2 e
    # times the floor sum_k ||G_k|| / n = 1/2; the Gram formed from the
    # value is off by rounding of the value only, and the maximum, 3/2 at
    # (1, 1, 1), is within e
    import ndsys.analysis

    z = lambda rows, cols: OperatorTuple(tuple(np.zeros((rows, cols), complex) for _ in range(3)))
    sys = MultiLSDS(z(0, 0), z(0, 1), z(1, 0), OperatorTuple(tuple(np.array([[0.5 + 0j]]) for _ in range(3))))
    blocks = sys.blocks()
    reps = ndsys.analysis._representatives(3, 27)[1]
    got = oracles.norms_unscreened(reps, blocks)
    want = np.array(oracles.norms_pointwise(blocks, reps))
    at = int(np.argmin(want))
    assert want[at] < 1e-15 and abs(got[at] - want[at]) > 1e4 * scan_bound(sys)
    assert within_the_bound(got, want, sys).all()
    assert np.abs(oracles.norms_from_values(reps, blocks) - want).max() <= scan_bound(sys)
    assert abs(dissipativity_scan(sys, samples=27, refine=False).max_norm - 1.5) <= scan_bound(sys)


def _value_gram_cases():
    """gen's dissipative pencils of 20 x 20 blocks at n = 1..6, and one with
    no state and no output, whose every norm is 0."""
    cases = {f"n{n}-20x20": gen.dissipative_system(np.random.default_rng(60 + n), n, 16, 4) for n in range(1, 7)}
    cases["empty-side"] = gen.random_system(np.random.default_rng(66), 3, 0, 2, 0)
    return cases


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("name", list(_value_gram_cases()))
def test_the_maximum_is_within_the_bound_of_the_value_grams_and_an_svd(name, refine):
    # the scan reads each Gram from the n^2 block products; at its witness
    # the Gram formed from the summed pencil value and an SVD of that value
    # both have a norm within the reported bound of its maximum, which on
    # a grid of P >= 2 or refined is at least the floor sum_k ||G_k|| / n
    sys = _value_gram_cases()[name]
    report = dissipativity_scan(sys, samples=4**sys.n, refine=refine)
    blocks, witness = sys.blocks(), np.array([report.witness])
    from_values = oracles.norms_from_values(witness, blocks)[0]
    svd = oracles.norms_pointwise(blocks, witness)[0]
    bound = report.rounding_bound
    assert np.isclose(bound, scan_bound(sys), rtol=1e-14, atol=0.0)
    assert abs(report.max_norm - from_values) <= bound and abs(report.max_norm - svd) <= bound
    if name == "empty-side":
        assert report.max_norm == from_values == svd == bound == 0.0
    else:
        assert report.max_norm >= oracles.norm_floor(blocks) - bound


def _refine_cases():
    """The built-in examples, the conservative `gen.with_unitary_summand`,
    and at n = 1..4 gen's dissipative, conservative, random and
    empty-side (no state, no output) pencils and its dissipative systems
    at seeds 0..5."""
    cases = dict(builtin_examples())
    cases["unitary-summand"] = gen.with_unitary_summand(np.random.default_rng(5))
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(20 + n)
        cases[f"dissipative-n{n}"] = gen.dissipative_system(rng, n, 3, 2)
        cases[f"conservative-n{n}"] = gen.conservative_system(rng, n, 3, 2)
        cases[f"random-n{n}"] = gen.random_system(rng, n, 3, 2, 2, scale=0.6)
        cases[f"empty-n{n}"] = gen.random_system(rng, n, 0, 2, 0)
        for seed in range(6):
            cases[f"gen-n{n}-seed{seed}"] = gen.dissipative_system(np.random.default_rng(seed), n, 3, 2)
    return cases


def _is_flat(name, sys):
    """The refinement cases whose norm is constant on the torus: 1 on a
    conservative pencil, 0 on an empty side, and any norm at n = 1, where
    the one diagonal orbit is the whole circle."""
    return sys.n == 1 or name in builtin_examples() or name.startswith(("conservative", "unitary", "empty"))


def refine_alone(monkeypatch, sys):
    """The default unrefined and refined scans of ``sys``, the refinement of
    the first run again alone, and the points of each stencil it took:
    each stencil forms its points' Grams once."""
    import ndsys.analysis

    coarse, refined = dissipativity_scan(sys, refine=False), dissipativity_scan(sys)
    stencils = []
    grams = ndsys.analysis._grams
    monkeypatch.setattr(
        ndsys.analysis, "_grams", lambda points, products: stencils.append(len(points)) or grams(points, products)
    )
    per_axis = ndsys.analysis._representatives(sys.n, None)[0]
    best, witness = ndsys.analysis._refine(
        ndsys.analysis._products(sys.blocks()), coarse.witness, coarse.max_norm, per_axis, coarse.rounding_bound
    )
    assert same_scan(refined, dataclasses.replace(coarse, max_norm=best, witness=witness, refined=True))
    return coarse, refined, stencils


@pytest.mark.parametrize("name", list(_refine_cases()))
def test_refinement_reaches_the_stepwise_ascent(name):
    # from the default grid's maximum the search climbs as high as the
    # gradient ascent, up to twice the bound, never below the grid
    # maximum, and reports its own norm at a witness with z_1 = 1
    sys = _refine_cases()[name]
    coarse = dissipativity_scan(sys, refine=False)
    assert reaches_the_ascent(dissipativity_scan(sys), sys, coarse)


@pytest.mark.parametrize("name", list(_refine_cases()))
def test_a_flat_norm_takes_at_most_one_stencil(monkeypatch, name):
    # where the norm is constant the first stencil's norms lie within the
    # bound of each other, and an n = 1 scan runs none; a varying norm
    # takes full 3^(n-1)-point stencils, fewer than the cap
    import ndsys.analysis

    sys = _refine_cases()[name]
    stencils = refine_alone(monkeypatch, sys)[2]
    assert all(points == 3 ** (sys.n - 1) for points in stencils)
    if _is_flat(name, sys):
        assert len(stencils) == (sys.n > 1)
    else:
        assert 1 < len(stencils) < ndsys.analysis._STENCILS


@pytest.mark.parametrize("cap", [1, 4])
def test_the_search_stops_at_the_stencil_cap(monkeypatch, cap):
    # an n = 3 dissipative pencil takes some 30 stencils to flatten; under
    # a lower cap the search takes exactly the cap and still keeps the
    # grid maximum or a larger norm of its own
    import ndsys.analysis

    monkeypatch.setattr(ndsys.analysis, "_STENCILS", cap)
    sys = gen.dissipative_system(np.random.default_rng(3), 3, 3, 2)
    coarse, refined, stencils = refine_alone(monkeypatch, sys)
    assert stencils == [9] * cap
    assert refines_within_the_bound(refined, sys, coarse)


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
    base = gen.dissipative_system(np.random.default_rng(5), 1, 2, 2)
    z = np.zeros((2, 2), dtype=complex)
    sys = MultiLSDS(*(OperatorTuple((getattr(base, k)[0],) + (z,) * (n - 1)) for k in "abcd"))
    set_chunk(monkeypatch, sys.blocks(), chunk)
    report = dissipativity_scan(sys, samples=samples, refine=False)
    assert all(v == 1.0 for v in report.witness)  # index 0 on every axis
    assert ties_at_the_lowest_representative(report, sys, samples)


@st.composite
def screen_cases(draw):
    """Pencils at n = 1..4 on the default budget or one up to 2^16, so
    that some chunks are large enough to screen, with a chunk size of the
    scan: 1, 7, 64 or the byte budget's."""
    n = draw(st.integers(1, 4))
    samples = draw(st.sampled_from([None, draw(st.integers(1, 2**16))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim_x, dim_io = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["dissipative", "conservative", "random"]))
    if kind == "random":
        sys = gen.random_system(rng, n, dim_x, dim_io, dim_io, scale=draw(st.sampled_from([0.3, 1.0])))
    else:
        sys = getattr(gen, f"{kind}_system")(rng, n, dim_x, dim_io)
    return sys, samples, draw(st.sampled_from([1, 7, 64, None]))


@settings(max_examples=60, deadline=None)
@given(screen_cases())
def test_the_screened_scan_keeps_the_first_maximum_of_every_norm(case):
    # the screen eigensolves some of the representatives; their maximum
    # and its index are those of the unscreened eigensolve, bit for bit
    import ndsys.analysis

    sys, samples, chunk = case
    reps = ndsys.analysis._representatives(sys.n, samples)[1]
    norms = oracles.norms_unscreened(reps, sys.blocks())
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            set_chunk(patch, sys.blocks(), chunk)
        got = dissipativity_scan(sys, samples=samples, refine=False)
    at = int(np.argmax(norms))
    assert type(got.max_norm) is float and got.max_norm == norms[at]
    assert oracles.same_bits(np.array(got.witness), reps[at])


def screen_masks(monkeypatch):
    """The norms `_screened_norms` returns, one array a screened chunk: -1.0
    marks a point the definiteness test excluded."""
    import ndsys.analysis

    masks = []
    screened = ndsys.analysis._screened_norms
    monkeypatch.setattr(
        ndsys.analysis, "_screened_norms", lambda *args: masks.append(screened(*args)) or masks[-1]
    )
    return masks


def _screened_cases():
    cases = {}
    for seed in range(4):
        for n in (3, 4):
            cases[f"dissipative-n{n}-seed{seed}"] = gen.dissipative_system(np.random.default_rng(seed), n, 4, 2)
        cases[f"random-n3-seed{seed}"] = gen.random_system(np.random.default_rng(seed), 3, 4, 2, 2, scale=0.6)
    cases["real-n3"] = _real_copy(cases["dissipative-n3-seed1"])
    return cases


@pytest.mark.parametrize("name", list(_screened_cases()))
def test_every_excluded_point_lies_below_the_maximum(monkeypatch, name):
    # the default scan's representatives make one chunk: each point the test
    # excludes has an unscreened norm strictly below the reported maximum,
    # and the test excludes most of them
    import ndsys.analysis

    sys = _screened_cases()[name]
    masks = screen_masks(monkeypatch)
    report = dissipativity_scan(sys, refine=False)
    reps = ndsys.analysis._representatives(sys.n, None)[1]
    norms = oracles.norms_unscreened(reps, sys.blocks())
    assert len(masks) == 1 and len(masks[0]) == len(reps)
    excluded = masks[0] == -1.0
    assert excluded.sum() > len(reps) // 2
    assert (norms[excluded] < report.max_norm).all()
    assert oracles.same_bits(masks[0][~excluded], norms[~excluded])


@pytest.mark.parametrize("kind", ["exact", "conjugate"])
def test_representatives_within_the_margin_are_kept_and_the_lowest_wins(monkeypatch, kind):
    # exact: G_3 = 0, so the 32 representatives of one z_2 hold one pencil
    # value and tie bit for bit; conjugate: real blocks, so the norm at
    # the conjugate representative is the same up to rounding.  Every
    # representative within the margin of the maximum is eigensolved, and
    # the first maximum, the lowest representative among the tied, wins
    import ndsys.analysis

    base = gen.dissipative_system(np.random.default_rng(6), 3, 3, 2)
    if kind == "exact":
        sys = MultiLSDS(*(OperatorTuple(tuple(getattr(base, k))[:2] + (getattr(base, k)[2] * 0,)) for k in "abcd"))
    else:
        sys = _real_copy(base)
    masks = screen_masks(monkeypatch)
    report = dissipativity_scan(sys, refine=False)
    reps = ndsys.analysis._representatives(3, None)[1]
    norms = oracles.norms_unscreened(reps, sys.blocks())
    near = np.flatnonzero(norms >= norms.max() - report.rounding_bound)
    assert len(near) >= 2 and (masks[0][near] == norms[near]).all()
    assert (masks[0] == -1.0).sum() > len(reps) // 2
    first = np.flatnonzero(norms == norms.max())[0]
    if kind == "exact":
        assert len(np.flatnonzero(norms == norms.max())) == 32 and first % 32 == 0
    assert oracles.same_bits(np.array(report.witness), reps[first])


@pytest.mark.parametrize("shift,sign", [(-3.0, 1.0), (0.0, 0.0), (3.0, -1.0)])
def test_the_margin_is_read_against_the_rounding_bound(shift, sign):
    # a conservative pencil scaled by 1 + shift * e has that norm at every
    # torus point: at shift 0 the computed maximum lies within e of 1 and
    # the sign of the margin is rounding; three bounds away it is decided
    base = gen.conservative_system(np.random.default_rng(4), 3, 3, 2)
    scale = 1.0 + shift * oracles.rounding_bound(base.blocks())
    sys = MultiLSDS(*(OperatorTuple(tuple(scale * m for m in getattr(base, k))) for k in "abcd"))
    report = dissipativity_scan(sys)
    bound = report.rounding_bound
    assert bound > 0 and abs(bound / oracles.rounding_bound(sys.blocks()) - 1) <= 1e-14
    assert abs(report.max_norm - scale) <= bound
    assert (np.sign(report.margin) if abs(report.margin) > bound else 0.0) == sign


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


def count_scan_points(monkeypatch):
    """The number of points of each `_scan_maximum` call, as the scan makes
    them."""
    import ndsys.analysis

    rows = []
    scan_maximum = ndsys.analysis._scan_maximum

    def counted(points, blocks, bound):
        rows.append(len(points))
        return scan_maximum(points, blocks, bound)

    monkeypatch.setattr(ndsys.analysis, "_scan_maximum", counted)
    return rows


def count_eigensolved(monkeypatch):
    """The number of Grams of each stacked eigensolve the scan makes."""
    import ndsys.analysis

    rows = []
    norms = ndsys.analysis._norms
    monkeypatch.setattr(ndsys.analysis, "_norms", lambda gram: rows.append(len(gram)) or norms(gram))
    return rows


@pytest.mark.parametrize("n,kind,eigensolved", [
    pytest.param(3, "dissipative", range(8, 1024 // 10), id="dissipative"),
    pytest.param(3, "conservative", [1024], id="conservative"),
    pytest.param(2, "dissipative", [32], id="n2-dissipative"),
    pytest.param(2, "conservative", [32], id="n2-conservative"),
])
def test_scan_computes_the_norm_once_per_orbit(monkeypatch, n, kind, eigensolved):
    # one pass over the P^(n-1) representatives.  Of the 1,024 n = 3
    # orbits the screen eigensolves its 8 likely maxima and fewer than a
    # tenth in all where the pencil is dissipative; where the norm is 1 on
    # the whole torus every orbit reaches the maximum up to rounding and
    # each is eigensolved once; the 32 n = 2 orbits are too few to screen,
    # so each is eigensolved once
    points, rows = count_scan_points(monkeypatch), count_eigensolved(monkeypatch)
    sys = getattr(gen, f"{kind}_system")(np.random.default_rng(1), n, 3, 3)
    report = dissipativity_scan(sys, refine=False)
    assert points == [32 ** (n - 1)] and report.samples == 32**n
    assert sum(rows) in eigensolved


def test_an_n1_scan_at_the_budget_cap_computes_one_norm(monkeypatch):
    # the one diagonal orbit is the whole circle
    rows = count_scan_points(monkeypatch)
    sys = gen.dissipative_system(np.random.default_rng(0), 1, 3, 2)
    report = dissipativity_scan(sys, samples=2**24)
    assert rows == [1] and report.samples == 2**24
    assert report == dataclasses.replace(dissipativity_scan(sys, samples=1), samples=2**24)


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dims", [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0)])
def test_a_pencil_with_an_empty_side_has_norm_zero(dims, n, refine):
    # no state and no input or no output: every pencil value is empty and
    # each norm 0 exactly, so no stencil beats the grid maximum 0, which
    # stands at the grid witness
    sys = gen.random_system(np.random.default_rng(n), n, *dims)
    report = dissipativity_scan(sys, refine=refine)
    assert report.max_norm == 0.0 and report.dissipative and report.refined == refine
    want = oracles.dissipativity_scan_orbits(sys, None, False)
    assert same_scan(report, dataclasses.replace(want, refined=refine))


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


def count_block_stacks(monkeypatch):
    """The stacks of blocks the systems build, and every stack that
    `MultiLSDS.blocks` hands out, in call order."""
    import ndsys.system

    built, handed = [], []
    stack, blocks = ndsys.system.OperatorTuple, MultiLSDS.blocks
    monkeypatch.setattr(ndsys.system, "OperatorTuple", lambda mats: built.append(1) or stack(mats))
    monkeypatch.setattr(MultiLSDS, "blocks", lambda self: handed.append(blocks(self)) or handed[-1])
    return built, handed


def test_one_check_builds_one_block_stack(capsys, tmp_path, monkeypatch):
    # the conservativity check and the torus scan both read the blocks; a
    # system is read-only, so it stacks them once and hands that stack out
    from ndsys import serialization
    from ndsys.cli import main

    path = tmp_path / "d3.json"
    d3 = gen.dissipative_system(np.random.default_rng(3), 3, 3, 2)
    path.write_text(serialization.dump(serialization.system_to_json(d3)))
    built, handed = count_block_stacks(monkeypatch)
    assert main(["check", str(path)]) == 0, capsys.readouterr().err
    assert len(built) == 1 and len(handed) >= 2
    assert all(b is handed[0] for b in handed)


def test_block_structure_reads_the_stack_its_check_built(monkeypatch):
    # block_structure runs conservativity_check first, and both read the
    # system's one stack of blocks
    alpha_prime = builtin_examples()["alpha_prime"]
    built, handed = count_block_stacks(monkeypatch)
    block_structure(alpha_prime)
    assert len(built) == 1 and len(handed) == 2 and handed[0] is handed[1]


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
        raise AssertionError("a block product was formed")

    monkeypatch.setattr(ndsys.analysis, "_products", product)
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


@pytest.mark.parametrize("dim_x,dim_io,points,chunk", [(4, 2, None, 1024), (30, 10, None, 326), (4, 2, 7, 7)])
def test_a_chunk_holds_as_many_points_as_its_byte_budget(monkeypatch, dim_x, dim_io, points, chunk):
    # 16 bytes a complex entry, n^2 Gram weights and m^2 entries each of
    # the Gram and of the screen's working copy: an n = 3 point of 6 x 6
    # blocks takes 1,296 bytes, so the default scan's 1,024
    # representatives make one chunk, and of 40 x 40 blocks 51,344 bytes;
    # `set_chunk` sets a budget of the points it is given
    import ndsys.analysis

    sys = gen.random_system(np.random.default_rng(0), 3, dim_x, dim_io, dim_io)
    if points is not None:
        set_chunk(monkeypatch, sys.blocks(), points)
    sizes = []
    grams = ndsys.analysis._grams
    monkeypatch.setattr(
        ndsys.analysis, "_grams", lambda z, products: sizes.append(len(z)) or grams(z, products)
    )
    reps = ndsys.analysis._representatives(3, None)[1]
    products = ndsys.analysis._products(sys.blocks())
    ndsys.analysis._scan_maximum(reps, products, ndsys.analysis._rounding_bound(sys.blocks()))
    whole, rest = divmod(len(reps), chunk)
    assert len(reps) == 1024 and sizes == [chunk] * whole + [rest] * (rest > 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_a_scan_of_large_blocks_holds_one_chunk_of_its_budget():
    # the default n = 3 scan of 80 x 80 blocks takes its 1,024
    # representatives 81 at a time; all in one chunk, their pencil values
    # and Grams alone grew the process by 299 MB
    code = """
import resource, numpy as np, gen
from ndsys import dissipativity_scan
sys = gen.random_system(np.random.default_rng(0), 3, 70, 10, 10)
dissipativity_scan(sys, samples=8, refine=False)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
report = dissipativity_scan(sys, refine=False)
print(report.samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndsys.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    samples, grown_kib = map(int, proc.stdout.split())
    assert samples == 32**3 and grown_kib < 100 * 1024
