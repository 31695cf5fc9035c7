"""Metric classification: torus scan, conservativity, block structure,
close connectedness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
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
    from ndsys import spectral_norm
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
        real = {k: OperatorTuple(tuple(m.real + 0j for m in getattr(sys, k))) for k in "abcd"}
        sys = MultiLSDS(**real)
    return sys, samples, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_scan_matches_the_pointwise_oracle_bitwise(case):
    sys, samples, refine = case
    got = dissipativity_scan(sys, samples=samples, refine=refine)
    assert same_scan(got, oracles.dissipativity_scan_pointwise(sys, samples, refine))


@pytest.mark.parametrize(
    "n,samples,refine",
    [(2, 65**2, False), (3, None, True)],
)
def test_scan_across_chunks_matches_the_pointwise_oracle(n, samples, refine):
    # more grid points than one stacked SVD takes, on a given and the
    # default budget
    sys = gen.dissipative_system(np.random.default_rng(9), n, 4, 2)
    got = dissipativity_scan(sys, samples=samples, refine=refine)
    assert same_scan(got, oracles.dissipativity_scan_pointwise(sys, samples, refine))


def test_scan_recheck_across_chunks_matches_the_pointwise_oracle(monkeypatch):
    # a conservative pencil has norm 1 everywhere, so every orbit is
    # rechecked: one call takes the 70 * 69 non-representatives of the 70^2
    # grid under the budget 5000, more than one stacked SVD takes
    import ndsys.analysis

    rows = []
    sigma_max = ndsys.analysis._sigma_max

    def counted(points, blocks):
        rows.append(len(points))
        return sigma_max(points, blocks)

    monkeypatch.setattr(ndsys.analysis, "_sigma_max", counted)
    sys = gen.conservative_system(np.random.default_rng(9), 2, 4, 2)
    got = dissipativity_scan(sys, samples=5000, refine=False)
    assert rows == [70, 70 * 69] and max(rows) > ndsys.analysis._CHUNK
    assert same_scan(got, oracles.dissipativity_scan_pointwise(sys, 5000, False))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("n,samples", [(2, 81), (3, 50)])
def test_scan_chunk_size_does_not_change_the_result(monkeypatch, chunk, n, samples):
    import ndsys.analysis

    monkeypatch.setattr(ndsys.analysis, "_CHUNK", chunk)
    sys = gen.dissipative_system(np.random.default_rng(n), n, 3, 2)
    got = dissipativity_scan(sys, samples=samples, refine=False)
    assert same_scan(got, oracles.dissipativity_scan_pointwise(sys, samples, False))


@pytest.mark.parametrize("name", ["alpha", "alpha_prime"])
def test_scan_of_a_conservative_pencil_matches_the_pointwise_oracle(name):
    # the norm is 1 up to rounding at every point, so the maximum can sit at
    # any member of any orbit
    sys = builtin_examples()[name]
    got = dissipativity_scan(sys, refine=False)
    assert same_scan(got, oracles.dissipativity_scan_pointwise(sys, None, False))


def test_scan_ties_resolve_to_the_lowest_grid_index():
    # G_2 = 0: the pencil, and so its norm, does not depend on z_2, and every
    # maximum repeats along the whole z_2 axis
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
    assert report.witness[1] == 1.0  # index 0 on the z_2 axis
    assert same_scan(report, oracles.dissipativity_scan_pointwise(sys, 64, False))


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
    from ndsys.analysis import _axis_size, _torus_grid

    n, budget = case
    per_axis = _axis_size(n, budget)
    assert per_axis**n <= budget < (per_axis + 1) ** n
    if per_axis**n > 5000:
        return  # the grid itself is checked where it is small
    grid, orbit, orbits = _torus_grid(n, budget)
    assert grid.shape == (per_axis**n, n) and orbits == per_axis ** (n - 1)
    # each point's axis index from its phase, and the orbit from the index
    j = np.rint(np.angle(grid) * per_axis / (2 * np.pi)).astype(int) % per_axis
    assert np.allclose(grid, np.exp(2j * np.pi * j / per_axis))
    want = np.zeros(len(grid), dtype=int)
    for k in range(1, n):
        want = want * per_axis + (j[:, k] - j[:, 0]) % per_axis
    assert np.array_equal(orbit, want)
    assert np.array_equal(orbit[:orbits], np.arange(orbits))


def test_default_scans_take_the_largest_tensor_grid_under_the_cap():
    # 32^4 and 32^6 pass the 1e5 default, which rounds down to 17^4 and 6^6
    for n, samples in ((4, 17**4), (6, 6**6)):
        sys = gen.dissipative_system(np.random.default_rng(0), n, 3, 3)
        report = dissipativity_scan(sys, refine=False)
        assert report.samples == samples
        assert same_scan(report, dissipativity_scan(sys, samples=samples, refine=False))


def test_scan_computes_the_norm_once_per_orbit_away_from_the_maximum(monkeypatch):
    import ndsys.analysis

    rows = []
    sigma_max = ndsys.analysis._sigma_max

    def counted(points, blocks):
        rows.append(len(points))
        return sigma_max(points, blocks)

    monkeypatch.setattr(ndsys.analysis, "_sigma_max", counted)
    # generic: one representative per orbit, then the orbits near the top
    sys = gen.dissipative_system(np.random.default_rng(1), 3, 3, 3)
    report = dissipativity_scan(sys, refine=False)
    assert report.samples == 32**3
    assert sum(rows) <= 32**2 + 2 * 32
    # conservative: the norm is 1 on the whole torus, so every orbit is near
    # the top and every point is computed, none twice
    rows.clear()
    report = dissipativity_scan(builtin_examples()["alpha_prime"], refine=False)
    assert sum(rows) == report.samples == 32**2


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
