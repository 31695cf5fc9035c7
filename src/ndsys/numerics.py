"""Small shared numeric helpers: rank-revealing bases, deterministic
completions, and the low-discrepancy polydisc points of the realization
grid and the default transfer grid."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, RankAmbiguityError

__all__ = [
    "spectral_norm",
    "orth_basis",
    "ordered_completion",
    "halton_disc",
]


def spectral_norm(m: np.ndarray) -> float:
    """The largest singular value, 0.0 for an empty matrix: bitwise
    ``np.linalg.norm(m, 2)``, which takes the largest value of this SVD."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _largest_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of matrices (0.0 when empty), each
    rounded as `np.linalg.norm` rounds it: re.re + im.im, each a BLAS dot."""
    count, rows, cols = stack.shape
    flat = stack.reshape(count, 1, rows * cols)

    def dots(v):
        return (v @ v.swapaxes(1, 2))[:, 0, 0]

    return float(np.sqrt(dots(flat.real) + dots(flat.imag)).max(initial=0.0))


def orth_basis(
    m: np.ndarray, rank_tol: float = 1e-10, dead_zone: bool = False
) -> np.ndarray:
    """Orthonormal basis of the column span of ``m``.

    The basis is read from the small factor of a thin QR, not from ``m``
    itself (Chan's R-SVD): ``m^H = Q R`` gives ``m = R^H Q^H`` with
    ``Q^H Q = I``, so the left singular vectors and the singular values of
    ``m`` are those of ``R^H``.  ``R^H`` has as many columns as the smaller
    side of ``m``, so a wide sampled matrix is decomposed through a square
    one of its row count.

    Singular values below ``rank_tol`` relative to the largest count as
    zero.  With ``dead_zone`` set, a singular value falling between
    ``rank_tol / 10`` and ``rank_tol`` (relative) makes the rank decision
    ambiguous and raises RankAmbiguityError instead of guessing.
    """
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    r = np.linalg.qr(m.conj().T, mode="r")
    u, s, _ = np.linalg.svd(r.conj().T, full_matrices=False)
    top = s[0]
    if top == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    rel = s / top
    if dead_zone:
        stuck = [float(v) for v in rel if rank_tol / 10 <= v <= rank_tol]
        if stuck:
            raise RankAmbiguityError(
                f"relative singular values {stuck} fall inside the "
                f"[{rank_tol / 10:g}, {rank_tol:g}] dead zone"
            )
    return u[:, : int(np.sum(rel > rank_tol))]


def ordered_completion(q: np.ndarray) -> np.ndarray:
    """Columns completing the orthonormal ``q`` to a full basis.

    The completion is Gram-Schmidt of the standard basis in its order:
    each ``e_j`` is projected off the span of ``q`` and of the columns
    taken so far (twice, for orthogonality to rounding), and its remainder,
    normalized, is the next column unless its norm is at most
    ``1 / (2 sqrt(dim))``; such an ``e_j`` lies nearly inside the span and
    is skipped.  The squared remainders of all ``e_j`` sum to the
    codimension of the span, so while that is positive one of them is at
    least ``1 / sqrt(dim)`` and the scan always completes.  Each column
    depends on the span of ``q`` alone, not on the phases or the rotation
    of its basis.
    """
    dim, r = q.shape
    if r >= dim:
        return np.zeros((dim, 0), dtype=complex)
    # columns not yet found stay zero and project nothing off
    basis = np.zeros((dim, dim), dtype=complex)
    basis[:, :r] = q
    floor = 0.5 / np.sqrt(dim)
    found = r
    for j in range(dim):
        v = -(basis @ basis[j].conj())
        v[j] += 1.0
        v -= basis @ (basis.conj().T @ v)
        norm = float(np.linalg.norm(v))
        if norm > floor:
            basis[:, found] = v / norm
            found += 1
            if found == dim:
                break
    return basis[:, r:]


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton_unit(count: int, dims: int) -> np.ndarray:
    """``count`` Halton points in the unit cube [0, 1)^dims, unscrambled.

    Column k is the radical inverse of 0, 1, ..., count - 1 in the k-th
    prime base, summed from the lowest digit up, so the points are those of
    ``scipy.stats.qmc.Halton(dims, scramble=False).random(count)`` bit for
    bit.  Raises DomainError for a negative ``count``.
    """
    if count < 0:
        raise DomainError(f"a Halton set needs a nonnegative point count, got {count}")
    out = np.zeros((count, dims))
    for k, base in enumerate(_primes(dims)):
        index, f = np.arange(count), 1.0
        top = count - 1  # the largest index fixes the number of digits
        while top > 0:
            f /= base
            index, digit = np.divmod(index, base)
            out[:, k] += f * digit
            top //= base
    return out


def halton_disc(count: int, n: int, radius: float) -> np.ndarray:
    """A ``(count, n)`` array of low-discrepancy points of the polydisc of
    the given radius in C^n.

    Each coordinate uses an area-uniform (sqrt-radius) map from a Halton
    pair, so the sequence is deterministic.
    """
    u = _halton_unit(count, 2 * n)
    return radius * np.sqrt(u[:, 0::2]) * np.exp(2j * np.pi * u[:, 1::2])
