"""Shared linear-algebra and sampling helpers."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gen
import oracles
import ndsys
from ndsys import RankAmbiguityError, halton_disc
from ndsys.numerics import _halton_unit, _largest_norm, ordered_completion, orth_basis, spectral_norm
from ndsys.realization import _columns, _padded, _sample

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_spectral_norm_matches_svd():
    # bitwise the matrix 2-norm numpy computes, on rows, columns and empties
    rng = np.random.default_rng(0)
    shapes = [(4, 3), (1, 5), (5, 1), (1, 1), (6, 6), (0, 3), (3, 0), (0, 0)]
    shapes += [tuple(int(v) for v in rng.integers(1, 9, size=2)) for _ in range(20)]
    for shape in shapes:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m *= 10.0 ** rng.integers(-8, 9)
        assert oracles.same_bits(spectral_norm(m), float(np.linalg.norm(m, 2))), shape
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.isclose(spectral_norm(m), np.linalg.svd(m, compute_uv=False)[0])


@pytest.mark.parametrize("seed", range(20))
def test_largest_norm_matches_the_per_matrix_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 3001))
    rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
    stack = rng.standard_normal((count, rows, cols, 2)).view(complex)[..., 0]
    stack *= 10.0 ** rng.integers(-8, 9, size=(count, 1, 1))
    want = max(float(np.linalg.norm(m)) for m in stack)
    assert oracles.same_bits(_largest_norm(stack), want)


def test_largest_norm_of_an_empty_stack_is_zero():
    assert _largest_norm(np.zeros((0, 2, 3), dtype=complex)) == 0.0


def test_orth_basis_spans_and_truncates():
    rng = np.random.default_rng(1)
    cols = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    m = np.hstack([cols, cols @ rng.standard_normal((2, 3))])
    q = orth_basis(m)
    assert q.shape == (5, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2))
    # the basis reproduces every original column
    assert np.allclose(q @ (q.conj().T @ m), m)


def test_orth_basis_zero_and_empty():
    for m, shape in [
        (np.zeros((3, 2)), (3, 0)),
        (np.zeros((3, 0)), (3, 0)),
        (np.zeros((0, 3)), (0, 0)),
    ]:
        assert orth_basis(m).shape == oracles.orth_basis_svd(m).shape == shape


def test_orth_basis_dead_zone():
    # singular values 1, 1e-8 and 1e-15: diagonal, and between random
    # isometries square and wide; the rank cut and the dead zone decide as
    # the thin SVD of the matrix itself (the oracle) decides
    rng = np.random.default_rng(12)
    u = gen.haar_unitary(rng, 3)
    v = np.linalg.qr(rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3)))[0]
    s = np.diag([1.0, 1e-8, 1e-15])
    for m in (s, u @ s @ gen.haar_unitary(rng, 3), u @ s @ v.conj().T):
        for basis in (orth_basis, oracles.orth_basis_svd):
            assert basis(m, rank_tol=1e-10, dead_zone=True).shape[1] == 2
            assert basis(m, rank_tol=1e-6, dead_zone=True).shape[1] == 1
            with pytest.raises(RankAmbiguityError, match="dead zone"):
                basis(m, rank_tol=3e-8, dead_zone=True)
            # without the guard the cutoff silently decides
            assert basis(m, rank_tol=3e-8).shape[1] == 1


def _orth_basis_cases():
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # the pencil-certify realize shape: n = 3, q = 2 inner data, padding 1
    work = _padded(gen.inner_fixture(np.random.default_rng(104), 3, 2), 1)
    return {
        "sampled-10x1600": _columns(_sample(work, halton_disc(800, 3, 0.8)).g),
        "wide": cplx(6, 300),
        "wide-rank-2": cplx(7, 2) @ cplx(2, 40),
        "tall": cplx(9, 4),
        "tall-rank-2": cplx(9, 2) @ cplx(2, 4),
        "square": cplx(5, 5),
        "square-rank-3-small": 1e-9 * (cplx(5, 3) @ cplx(3, 5)),
        "real-wide": rng.standard_normal((3, 50)),
        "one-row": cplx(1, 30),
        "one-column": cplx(30, 1),
        "repeated-singular-values": gen.haar_unitary(rng, 4)[:, :3]
        @ np.diag([1.0, 1.0, 0.5])
        @ np.linalg.qr(cplx(60, 3))[0].conj().T,
    }


@pytest.mark.parametrize("name", list(_orth_basis_cases()))
def test_orth_basis_matches_the_svd_oracle(name):
    # R-SVD against the thin SVD of the matrix itself: the same rank and
    # the same span, as a projector
    m = _orth_basis_cases()[name]
    got, want = orth_basis(m), oracles.orth_basis_svd(m)
    assert got.shape == want.shape
    assert np.abs(got @ got.conj().T - want @ want.conj().T).max(initial=0.0) <= 1e-12


def test_ordered_completion_is_unitary_and_deterministic():
    rng = np.random.default_rng(2)
    q = orth_basis(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    rest = ordered_completion(q)
    assert rest.shape == (5, 3)
    full = np.hstack([q, rest])
    assert np.allclose(full.conj().T @ full, np.eye(5), atol=1e-12)
    assert np.array_equal(rest, ordered_completion(q))


@pytest.mark.parametrize("kind", ["generic", "inside-axes", "one-axis"])
def test_ordered_completion_depends_on_the_span_alone(kind):
    # a rotated basis of one span (any unitary, so also another choice of
    # singular vectors where singular values repeat) has the same
    # completion.  "inside-axes" spans coordinate axes 0-2, as a padded
    # realization's domain does, so e_0..e_2 project to rounding-level
    # remainders and are skipped; "one-axis" holds e_1
    rng = np.random.default_rng(5)
    if kind == "generic":
        q = orth_basis(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    elif kind == "inside-axes":
        q = np.vstack([gen.haar_unitary(rng, 3), np.zeros((3, 3))])
    else:
        q = np.eye(6, dtype=complex)[:, [1]]
    rest = ordered_completion(q)
    assert rest.shape == (6, 6 - q.shape[1])
    full = np.hstack([q, rest])
    assert np.abs(full.conj().T @ full - np.eye(6)).max() <= 1e-14
    for _ in range(3):
        turned = q @ gen.haar_unitary(rng, q.shape[1])
        assert np.abs(ordered_completion(turned) - rest).max() <= 1e-14
    if kind != "generic":
        # the skipped axes leave the completion to the others, in order
        axes = [j for j in range(6) if np.abs(q[j]).max() == 0.0]
        assert np.abs(np.abs(rest) - np.eye(6)[:, axes]).max() <= 1e-14


def test_ordered_completion_of_full_basis_is_empty():
    q = gen.haar_unitary(np.random.default_rng(3), 4)
    assert ordered_completion(q).shape == (4, 0)


def test_halton_disc_bounds_and_determinism():
    pts = halton_disc(64, 2, 0.7)
    assert pts.shape == (64, 2)
    assert np.abs(pts).max() <= 0.7 + 1e-12
    assert oracles.same_bits(pts, halton_disc(64, 2, 0.7))


def test_halton_disc_fills_the_disc():
    # area-uniform map: about half the points land beyond radius/sqrt(2)
    pts = halton_disc(512, 1, 1.0)
    outer = sum(1 for (z,) in pts if abs(z) > np.sqrt(0.5))
    assert 0.4 * 512 <= outer <= 0.6 * 512


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_halton_unit_matches_scipy_bitwise(dims):
    # each base's powers are where a column gains a digit
    counts = {0, 1, 100_000}
    for p in PRIMES[:dims]:
        counts |= {p, p + 1, p * p, p * p + 1}
    for count in sorted(counts):
        got = _halton_unit(count, dims)
        assert oracles.same_bits(got, np.ascontiguousarray(oracles.halton_unit_scipy(count, dims))), count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_halton_maps_match_the_per_row_oracles_bitwise(n):
    for count in (0, 1, 7, 1000):
        got, want = halton_disc(count, n, 0.7), oracles.halton_disc_rows(count, n, 0.7)
        assert oracles.same_bits(got, np.array(want, dtype=complex).reshape(count, n))


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndsys.__file__)))
    code = "import sys, ndsys.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
