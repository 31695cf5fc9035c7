"""Small shared numeric helpers: rank-revealing bases, deterministic
completions, and low-discrepancy sample sets."""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

from .errors import RankAmbiguityError

__all__ = [
    "spectral_norm",
    "orth_basis",
    "ordered_completion",
    "halton_disc",
    "halton_torus",
]


def spectral_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def orth_basis(
    m: np.ndarray, rank_tol: float = 1e-10, dead_zone: bool = False
) -> np.ndarray:
    """Orthonormal basis of the column span of ``m``.

    Singular values below ``rank_tol`` relative to the largest count as
    zero.  With ``dead_zone`` set, a singular value falling between
    ``rank_tol / 10`` and ``rank_tol`` (relative) makes the rank decision
    ambiguous and raises RankAmbiguityError instead of guessing.
    """
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
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

    The completion is the one induced by the standard basis order, via a
    Householder factorization of ``[q, I]``; deterministic for fixed input.
    """
    dim, r = q.shape
    if r >= dim:
        return np.zeros((dim, 0), dtype=complex)
    full, _ = np.linalg.qr(np.hstack([q, np.eye(dim, dtype=complex)]))
    return full[:, r:dim]


def _halton_unit(count: int, dims: int) -> np.ndarray:
    """``count`` Halton points in the unit cube [0, 1)^dims, unscrambled."""
    sampler = qmc.Halton(d=dims, scramble=False)
    return sampler.random(count)


def halton_disc(count: int, n: int, radius: float) -> list[tuple[complex, ...]]:
    """Low-discrepancy points of the polydisc of the given radius in C^n.

    Each coordinate uses an area-uniform (sqrt-radius) map from a Halton
    pair, so the sequence is deterministic.
    """
    u = _halton_unit(count, 2 * n)
    out = []
    for row in u:
        z = tuple(
            radius * np.sqrt(row[2 * k]) * np.exp(2j * np.pi * row[2 * k + 1])
            for k in range(n)
        )
        out.append(z)
    return out


def halton_torus(count: int, n: int) -> list[tuple[complex, ...]]:
    """Low-discrepancy points of the n-torus, deterministic."""
    u = _halton_unit(count, n)
    return [tuple(np.exp(2j * np.pi * row[k]) for k in range(n)) for row in u]
