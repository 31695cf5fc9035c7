"""Colligation assembly from transfer-function decomposition data."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gen
import oracles
from ndsys import (
    AglerData,
    DomainError,
    MatrixPolynomial,
    PreconditionError,
    RankAmbiguityError,
    RealizationError,
    ShapeError,
    assemble_colligation,
    block_structure,
    builtin_examples,
    canonical_fixture,
    conservativity_check,
    eval_pencil,
    halton_disc,
    realization,
    transfer_eval,
    verify_agler_identity,
)
from ndsys.realization import (
    _columns,
    _gram_gap,
    _identity_residual,
    _sample,
    _stable_grid,
)


def poly_gap(sys, theta, points):
    return max(
        float(np.linalg.norm(transfer_eval(sys, z) - theta.evaluate(z)))
        for z in points
    )


def test_canonical_fixture_identity_is_exact():
    report = verify_agler_identity(canonical_fixture())
    assert report.passed
    assert report.max_residual <= 1e-12


def test_canonical_stack_values():
    # by hand at (0.5, 0.5): g = [z1 F1; z2 F2; I] carries the variable
    # weights, the f side [F1; F2; theta] does not
    s = _sample(canonical_fixture(), [(0.5, 0.5)])
    assert s.g.shape == (1, 3, 1) and s.factors.shape == (1, 2, 1)
    assert np.allclose(s.g[0], [[0.25], [0.5], [1.0]])
    assert np.allclose(np.vstack([s.factors[0], s.theta[0]]), [[0.5], [1.0], [0.25]])


def test_canonical_realization_is_conservative_and_minimal():
    res = assemble_colligation(canonical_fixture())
    assert res.state_dim == 1
    assert res.conservative
    assert res.padding == 0
    for value in res.residuals.values():
        assert value <= 1e-8
    pts = halton_disc(25, 2, 0.8)
    for z in pts:
        assert abs(transfer_eval(res.system, z)[0, 0] - z[0] * z[1]) <= 1e-10


def test_zero_row_factor_is_realized():
    # a direction whose block has rank 0 gives an empty (S, 0, q) stack
    data = gen.zero_row_fixture()
    assert verify_agler_identity(data).passed
    res = assemble_colligation(data)
    assert res.conservative and res.state_dim == 1
    assert max(res.residuals.values()) <= 1e-12
    assert _columns(np.zeros((4, 0, 2))).shape == (0, 8)
    assert poly_gap(res.system, data.theta, halton_disc(10, 3, 0.7)) <= 1e-10


def test_canonical_realization_matches_the_minimal_example_up_to_phase():
    # one-dimensional state leaves a single unitary freedom, a phase; peel
    # it off the c blocks and the two colligations coincide
    alpha = builtin_examples()["alpha"]
    res = assemble_colligation(canonical_fixture())
    omega_bar = res.system.c[0][0, 0] / alpha.c[0][0, 0]
    assert abs(abs(omega_bar) - 1.0) <= 1e-10
    omega = 1.0 / omega_bar
    for k in range(2):
        assert np.allclose(res.system.a[k], alpha.a[k], atol=1e-10)
        assert np.allclose(res.system.b[k], omega * alpha.b[k], atol=1e-10)
        assert np.allclose(res.system.c[k], alpha.c[k] * omega_bar, atol=1e-10)
        assert np.allclose(res.system.d[k], alpha.d[k], atol=1e-10)


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_padding_grows_the_state_without_touching_the_transfer(padding):
    fix = canonical_fixture()
    res = assemble_colligation(fix, extra_padding=padding)
    assert res.state_dim == 1 + padding
    assert res.padding == padding
    assert res.conservative
    pts = halton_disc(20, 2, 0.8)
    assert poly_gap(res.system, fix.theta, pts) <= 1e-8


class Sampled:
    """A matrix function known only by ``n``, ``shape`` and an ``evaluate``
    of an ``(S, n)`` stack of points: no coefficients to read."""

    def __init__(self, n, shape, evaluate):
        self.n, self.shape, self.evaluate = n, shape, evaluate


def decomposition_of(system):
    """theta = transfer_eval(system, .) and the factors F_k(z) = Q_k^* [x(z); I]
    of a conservative system, for x(z) = (I - zA)^-1 zB and Q_k the basis
    of the initial space of G_k: ``[x; theta] = G(z) [x; I]`` and the
    initial spaces split the space orthogonally, so the decomposition
    identity holds."""
    q = system.dim_in

    def stacked(z):
        x = np.linalg.solve(np.eye(system.dim_x) - eval_pencil(z, system.a), eval_pencil(z, system.b))
        return np.concatenate([x, np.broadcast_to(np.eye(q), (len(z), q, q))], axis=1)

    factors = tuple(
        Sampled(system.n, (basis.shape[1], q), lambda z, basis=basis: basis.conj().T @ stacked(z))
        for basis in block_structure(system).bases_in
    )
    theta = Sampled(system.n, (system.dim_out, q), lambda z: transfer_eval(system, z))
    return AglerData(theta=theta, factors=factors, grid=halton_disc(50, system.n, 0.8))


ROUND_TRIP_CASES = {
    **builtin_examples(),
    # factor rows 2, 1 and 2: no direction is left without a block
    "conservative-n3": gen.conservative_system(np.random.default_rng(1), 3, 3, 2),
}


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("name", list(ROUND_TRIP_CASES))
def test_a_system_realizes_back_from_factors_known_only_by_evaluate(name, padding):
    system = ROUND_TRIP_CASES[name]
    data = decomposition_of(system)
    assert verify_agler_identity(data).passed
    res = assemble_colligation(data, extra_padding=padding)
    assert res.conservative
    assert res.state_dim == system.dim_x + padding
    points = np.array(oracles.random_disc_points(np.random.default_rng(2), 40, system.n))
    assert np.abs(transfer_eval(res.system, points) - transfer_eval(system, points)).max() <= 1e-12


@pytest.mark.parametrize("name", ["theta", "factor 0"])
def test_a_function_that_evaluates_to_another_shape_than_it_declares_is_named(name):
    # the blocks are cut at the declared rows, so a function whose values
    # have other rows is refused by name before any block is cut
    data = decomposition_of(ROUND_TRIP_CASES["alpha_prime"])
    f = data.theta if name == "theta" else data.factors[0]
    taller = Sampled(f.n, (f.shape[0] + 1, f.shape[1]), f.evaluate)
    if name == "theta":
        data = AglerData(theta=taller, factors=data.factors, grid=data.grid)
    else:
        data = AglerData(theta=data.theta, factors=(taller,) + data.factors[1:], grid=data.grid)
    rows = f.shape[0]
    said = f"{name} evaluates to shape (50, {rows}, 1), not (50, {rows + 1}, 1) as its shape says"
    with pytest.raises(ShapeError) as info:
        verify_agler_identity(data)
    assert str(info.value) == said
    with pytest.raises(ShapeError, match=f"^{name} evaluates to shape"):
        assemble_colligation(data)


def test_negative_padding_rejected():
    with pytest.raises(DomainError):
        assemble_colligation(canonical_fixture(), extra_padding=-1)


@pytest.mark.parametrize(
    "seed,n,q",
    [(0, 2, 1), (1, 2, 2), (2, 3, 1), (3, 2, 2)],
)
def test_inner_fixtures_realize_conservatively(seed, n, q):
    rng = np.random.default_rng(100 + seed)
    data = gen.inner_fixture(rng, n, q)
    assert verify_agler_identity(data).passed
    res = assemble_colligation(data)
    assert res.conservative
    assert res.residuals["transfer"] <= 1e-7
    pts = halton_disc(15, n, 0.6)
    assert poly_gap(res.system, data.theta, pts) <= 1e-7


def test_tall_theta_gets_an_isometric_colligation():
    # two outputs fed by one input: the extension can only be isometric,
    # so the result is flagged non-conservative with a clean pencil
    half = np.sqrt(0.5)
    theta = MatrixPolynomial(
        n=2,
        shape=(2, 1),
        coeffs={
            (1, 0): np.array([[half], [0.0]]),
            (0, 1): np.array([[0.0], [half]]),
        },
    )
    factors = tuple(
        MatrixPolynomial(n=2, shape=(1, 1), coeffs={(0, 0): half * np.eye(1)})
        for _ in range(2)
    )
    data = AglerData(theta=theta, factors=factors, grid=tuple(halton_disc(40, 2, 0.7)))
    assert verify_agler_identity(data).passed
    res = assemble_colligation(data)
    assert not res.conservative
    assert res.residuals["conservativity_iso"] <= 1e-8
    assert res.state_dim == 1
    pts = halton_disc(20, 2, 0.8)
    assert poly_gap(res.system, theta, pts) <= 1e-8


def test_wide_theta_rejected():
    half = np.sqrt(0.5)
    theta = MatrixPolynomial(
        n=2,
        shape=(1, 2),
        coeffs={
            (1, 0): np.array([[half, 0.0]]),
            (0, 1): np.array([[0.0, half]]),
        },
    )
    factors = tuple(
        MatrixPolynomial(n=2, shape=(1, 2), coeffs={(0, 0): np.zeros((1, 2))})
        for _ in range(2)
    )
    data = AglerData(theta=theta, factors=factors, grid=tuple(halton_disc(10, 2, 0.7)))
    with pytest.raises(RealizationError):
        assemble_colligation(data)


def test_corrupted_decomposition_is_caught():
    fix = canonical_fixture()
    bad_theta = MatrixPolynomial(
        n=2, shape=(1, 1), coeffs={(1, 1): 1.3 * np.eye(1)}
    )
    bad = AglerData(theta=bad_theta, factors=fix.factors, grid=fix.grid)
    report = verify_agler_identity(bad)
    assert not report.passed
    assert report.max_residual > 1e-3
    with pytest.raises(PreconditionError):
        assemble_colligation(bad)


def test_gramian_mismatch_is_refused_past_the_decomposition_probe(monkeypatch):
    # F1 = z2 + 1e-6 z1 breaks the decomposition by about 1e-6; with the
    # 120-point decomposition probe silenced, the Gramian check must refuse
    # it against tol * scale^2 on its own
    fix = canonical_fixture()
    f1 = MatrixPolynomial(
        n=2, shape=(1, 1), coeffs={(0, 1): np.eye(1), (1, 0): 1e-6 * np.eye(1)}
    )
    bad = AglerData(theta=fix.theta, factors=(f1, fix.factors[1]), grid=fix.grid)
    monkeypatch.setattr(realization, "_identity_residual", lambda *args: 0.0)
    with pytest.raises(PreconditionError, match="Gramians differ"):
        assemble_colligation(bad)


@pytest.mark.parametrize("perturb", [0.0, 1e-6])
def test_gram_gap_matches_the_explicit_gramian_difference(perturb):
    # the R-factor form against the two Gramians formed outright, on the
    # per-point core columns of one oracle case's 800-point grid
    work = oracles.padded(gen.inner_fixture(np.random.default_rng(104), 3, 2), 1)
    f0 = np.vstack([f.evaluate(np.zeros((1, 3)))[0] for f in work.factors])
    basis_x = np.linalg.svd(f0, full_matrices=True)[0][:, 2:]
    dom, img = oracles.core_columns_pointwise(work, halton_disc(800, 3, 0.8), basis_x, f0)
    img = img + perturb * np.roll(img, 1, axis=0)
    gap, norm, dom_r, img_r = _gram_gap(dom, img)
    want = float(np.linalg.norm(dom.conj().T @ dom - img.conj().T @ img))
    assert abs(gap - want) <= 1e-11 + 1e-9 * want
    assert (want > 1e-6) == (perturb > 0)
    assert abs(norm - np.linalg.norm(dom, 2)) <= 1e-12 * norm
    # dom = dom_r Q^H and img = img_r Q^H for one Q with orthonormal
    # columns: the small factors have the row Gramians of the columns
    assert dom_r.shape[0] == len(dom) and img_r.shape[0] == len(img)
    assert dom_r.shape[1] == img_r.shape[1] == len(dom) + len(img)
    for left, right, (a, b) in [
        (dom_r, dom_r, (dom, dom)),
        (img_r, img_r, (img, img)),
        (dom_r, img_r, (dom, img)),
    ]:
        rows = a @ b.conj().T
        assert np.abs(left @ right.conj().T - rows).max() <= 1e-12 * np.abs(rows).max()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
def test_n3_realization_holds_no_point_by_point_gramian():
    # two 1600 x 1600 complex Gramians of the 800-point, q = 2 grid would
    # grow the peak resident set by about 80 MB
    code = (
        "import resource, numpy as np, gen\n"
        "from ndsys import assemble_colligation\n"
        "data = gen.inner_fixture(np.random.default_rng(104), 3, 2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assemble_colligation(data, extra_padding=1)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(realization.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 40


def _perturbed(data):
    # F1 + 1e-3 z1 in every entry breaks the decomposition by about 1e-3
    f = data.factors[0]
    e1 = (1,) + (0,) * (data.n - 1)
    coeffs = dict(f.coeffs)
    coeffs[e1] = coeffs.get(e1, 0) + 1e-3 * np.ones(f.shape)
    grown = MatrixPolynomial(n=f.n, shape=f.shape, coeffs=coeffs)
    return AglerData(theta=data.theta, factors=(grown,) + data.factors[1:], grid=data.grid)


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(canonical_fixture(), id="canonical-q1"),
        pytest.param(gen.inner_fixture(np.random.default_rng(104), 2, 2), id="inner-q2"),
        pytest.param(gen.zero_row_fixture(), id="zero-row"),
        pytest.param(
            oracles.padded(gen.inner_fixture(np.random.default_rng(104), 3, 2), 2), id="padded"
        ),
        pytest.param(_perturbed(canonical_fixture()), id="perturbed-q1"),
        pytest.param(
            _perturbed(gen.inner_fixture(np.random.default_rng(104), 2, 2)), id="perturbed-q2"
        ),
    ],
)
def test_identity_residual_matches_the_pointwise_oracle(data):
    # two different point sets of unequal sizes, so no pair is a diagonal one
    a = [tuple(z) for z in halton_disc(37, data.n, 0.8)]
    b = oracles.random_disc_points(np.random.default_rng(7), 23, data.n)
    got = _identity_residual(_sample(data, a), _sample(data, b))
    want = oracles.identity_residual_pointwise(data, a, b)
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_stable_grid_returns_the_samples_of_its_grid(monkeypatch):
    # the first three grids are prefixes of one 800-point sample; a span
    # dimension that grows until 1000 holds still from 1600 points on, so
    # the grid grows to 6400 points, sampled afresh at each doubling past 800
    def grow(m, rank_tol):
        return np.zeros((m.shape[0], min(m.shape[1], 1000)))

    cases = [
        (canonical_fixture(), None),
        (oracles.padded(gen.inner_fixture(np.random.default_rng(104), 3, 2), 1), None),
        (canonical_fixture(), 6400),
    ]
    for data, size in cases:
        if size is not None:
            monkeypatch.setattr(realization, "orth_basis", grow)
        got = _stable_grid(data, 1e-10)
        monkeypatch.undo()
        assert len(got.z) == (size or 800)
        want = _sample(data, halton_disc(len(got.z), data.n, 0.8))
        for field in want._fields:
            assert oracles.same_bits(getattr(got, field), getattr(want, field)), field


def test_nonvanishing_origin_rejected():
    fix = canonical_fixture()
    shifted = MatrixPolynomial(
        n=2, shape=(1, 1), coeffs={(0, 0): np.eye(1), (1, 1): np.eye(1)}
    )
    with pytest.raises(PreconditionError):
        assemble_colligation(
            AglerData(theta=shifted, factors=fix.factors, grid=fix.grid)
        )


def test_fixture_shape_gates():
    fix = canonical_fixture()
    with pytest.raises(ShapeError):
        AglerData(theta=fix.theta, factors=fix.factors[:1], grid=fix.grid)
    wide = MatrixPolynomial(n=2, shape=(1, 2), coeffs={(0, 0): np.zeros((1, 2))})
    with pytest.raises(ShapeError):
        AglerData(theta=fix.theta, factors=(fix.factors[0], wide), grid=fix.grid)
    with pytest.raises(ShapeError):
        AglerData(theta=fix.theta, factors=fix.factors, grid=((0.1, 0.2, 0.3),))


def test_empty_grid_rejected():
    fix = canonical_fixture()
    hollow = AglerData(theta=fix.theta, factors=fix.factors, grid=())
    with pytest.raises(DomainError):
        verify_agler_identity(hollow)


def test_rank_dead_zone_is_refused():
    # put the rank cutoff just above the smallest relative singular value
    # of the core columns [z1 F1; z2 F2] on the 800-point grid the assembly
    # settles on, so that value falls inside the dead zone
    fix = canonical_fixture(20)
    core = _columns(_sample(fix, halton_disc(800, 2, 0.8)).g[:, :2])
    rel = np.linalg.svd(core, compute_uv=False)
    rel = rel / rel[0]
    with pytest.raises(RankAmbiguityError):
        assemble_colligation(fix, rank_tol=float(1.5 * rel[-1]))


@pytest.mark.parametrize("padding", [1, 3])
def test_padded_samples_are_the_samples_of_the_padded_polynomial(padding):
    # zero rows appended to F_1's sampled values are bitwise the values of
    # F_1's polynomial grown by zero coefficient rows, weighted ones too
    data = gen.inner_fixture(np.random.default_rng(104), 3, 2)
    work = oracles.padded(data, padding)
    z = halton_disc(40, 3, 0.8)
    for got, want in [
        (_sample(data, z, padding), _sample(work, z)),
        (_stable_grid(data, 1e-10, padding), _stable_grid(work, 1e-10)),
    ]:
        for field in want._fields:
            assert oracles.same_bits(getattr(got, field), getattr(want, field)), field


ORACLE_CASES = [pytest.param(canonical_fixture(), id="canonical")] + [
    pytest.param(
        gen.inner_fixture(np.random.default_rng(100 + seed), n, q), id=f"inner-n{n}-q{q}"
    )
    for seed, n, q in [(1, 2, 1), (4, 2, 2), (2, 3, 1), (4, 3, 2)]
]


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("data", ORACLE_CASES)
def test_sampled_realization_matches_the_pointwise_oracle(data, padding):
    # the oracle builds its columns point by point and decomposes them
    # whole: the thin SVD of each sampled matrix and one pinv of the
    # 1600-odd core columns.  The library evaluates each stack once, so the
    # columns are bitwise the oracle's, and reads every rank decision and
    # the core map from small triangular factors (R-SVD), so its sums run
    # in another order and its span bases carry other phases.  The rank
    # decisions, hence the grid, stay equal and every residual agrees to
    # rounding level, far below its threshold.  The unitary extension pairs
    # the ordered completions of the two spans, which depend on the spans
    # alone, so the realized matrices agree to rounding level too, also
    # where the domain columns do not span the stacked space (every padded
    # case, and inner-n2-q1, inner-n3-q1 and inner-n3-q2 unpadded)
    res = assemble_colligation(data, extra_padding=padding)
    system, residuals, grid_size = oracles.assemble_colligation_pointwise(data, padding)
    assert res.grid_size == grid_size
    grid = halton_disc(grid_size, data.n, 0.8)
    assert oracles.same_bits(
        _columns(_sample(data, grid, padding).g),
        oracles.stack_g_columns(oracles.padded(data, padding), grid),
    )
    assert res.residuals.keys() == residuals.keys()
    for key, value in res.residuals.items():
        limit = res.thresholds["transfer" if key in ("transfer", "intermediate") else "residual"]
        assert abs(value - residuals[key]) <= 1e-11, (key, value, residuals[key])
        assert value <= limit and residuals[key] <= limit, (key, value, residuals[key])
    assert res.residuals["gram"] <= 1e-11 and residuals["gram"] <= 1e-11
    report = verify_agler_identity(data)
    fresh = oracles.random_disc_points(np.random.default_rng(0), 50, data.n)
    near = {
        "decomposition": (res.residuals["decomposition"], residuals["decomposition"]),
        "grid_residual": (
            report.grid_residual,
            oracles.identity_residual_pointwise(data, data.grid, data.grid),
        ),
        "fresh_residual": (
            report.fresh_residual,
            oracles.identity_residual_pointwise(data, fresh, fresh),
        ),
    }
    for key, (value, oracle) in near.items():
        assert abs(value - oracle) <= 1e-12 and value <= 1e-12, (key, value, oracle)
    for key in "abcd":
        for got, want in zip(getattr(res.system, key), getattr(system, key)):
            assert np.abs(got - want).max(initial=0.0) <= 1e-12, key
    assert res.conservative and conservativity_check(system, tol=1e-8).passed
    assert res.state_dim == system.dim_x
    points = np.array(oracles.random_disc_points(np.random.default_rng(1), 50, data.n))
    gap = np.abs(transfer_eval(res.system, points) - transfer_eval(system, points)).max()
    assert gap <= 1e-12
