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
    assert orth_basis(np.zeros((3, 2))).shape == (3, 0)
    assert orth_basis(np.zeros((3, 0))).shape == (3, 0)


def test_orth_basis_dead_zone():
    m = np.diag([1.0, 1e-8, 1e-15])
    assert orth_basis(m, rank_tol=1e-10, dead_zone=True).shape[1] == 2
    with pytest.raises(RankAmbiguityError):
        orth_basis(m, rank_tol=3e-8, dead_zone=True)
    # without the guard the cutoff silently decides
    assert orth_basis(m, rank_tol=3e-8).shape[1] == 1


def test_ordered_completion_is_unitary_and_deterministic():
    rng = np.random.default_rng(2)
    q = orth_basis(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    rest = ordered_completion(q)
    assert rest.shape == (5, 3)
    full = np.hstack([q, rest])
    assert np.allclose(full.conj().T @ full, np.eye(5), atol=1e-12)
    assert np.array_equal(rest, ordered_completion(q))


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
