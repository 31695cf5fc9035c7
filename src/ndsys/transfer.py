"""Transfer functions on the polydisc and their Maclaurin expansion.

The transfer function of a system is

    theta(z) = zD + zC (I - zA)^(-1) zB,

where ``zA`` abbreviates the pencil value, so theta vanishes at the origin
by construction.  Maclaurin coefficients come in closed form from bordered
multipowers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ArityError, DivergenceError, DomainError, ShapeError, SingularityError
from .lattice import as_index, order
from .pencil import bordered_multipower_table, eval_pencil, multinomial
from .system import MultiLSDS

__all__ = [
    "MatrixPolynomial",
    "transfer_eval",
    "transfer_eval_series",
    "maclaurin_poly",
    "schwarz_split",
]

_SINGULAR_REL = 1e-13


def _freeze_matrix(m, shape) -> np.ndarray:
    out = np.array(m, dtype=complex)
    if out.shape != shape:
        raise ShapeError(f"coefficient has shape {out.shape}, expected {shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MatrixPolynomial:
    """Matrix-valued polynomial in n commuting variables, stored sparsely
    by exponent multi-index."""

    n: int
    shape: tuple[int, int]
    coeffs: Mapping[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"variable count must be >= 1, got {self.n}")
        shape = (int(self.shape[0]), int(self.shape[1]))
        clean = {}
        for t, m in self.coeffs.items():
            key = as_index(t, self.n)
            if any(v < 0 for v in key):
                raise DomainError(f"negative exponent {key}")
            clean[key] = _freeze_matrix(m, shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coeffs", clean)

    def evaluate(self, z) -> np.ndarray:
        """The value at one point ``(n,)`` or at a stack ``(S, n)``: a
        ``(p, q)`` matrix or an ``(S, p, q)`` stack, as for `eval_pencil`.
        Terms are summed in dictionary order, each over every point at once."""
        z = np.asarray(z, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != self.n:
            raise ArityError(
                f"points have shape {z.shape}, expected ({self.n},) or (S, {self.n})"
            )
        stack = z.reshape(-1, self.n)
        acc = np.zeros((len(stack),) + self.shape, dtype=complex)
        for t, m in self.coeffs.items():
            # m[None], not m: broadcast over a one-point stack, a 1x1 m goes
            # through another numpy multiply loop that rounds differently
            acc += m[None] * np.prod(stack ** np.array(t), axis=1)[:, None, None]
        return acc if z.ndim == 2 else acc[0]

    def term_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (order(kv[0]), kv[0]))


def _first(bad: np.ndarray):
    """Index of the first flagged point of a point or a stack, else None."""
    hits = np.flatnonzero(bad)
    return np.unravel_index(hits[0], bad.shape) if hits.size else None


def transfer_eval(sys: MultiLSDS, z) -> np.ndarray:
    """Transfer function value via a direct solve.

    ``z`` is one point ``(n,)`` or a stack ``(S, n)``, as for `eval_pencil`.
    Raises SingularityError (carrying the smallest singular value) for the
    first point where the resolvent factor I - zA is numerically singular.
    """
    sys.require_wellformed()
    z = np.asarray(z, dtype=complex)
    zd = eval_pencil(z, sys.d)
    if sys.dim_x == 0:
        return zd
    m = np.eye(sys.dim_x, dtype=complex) - eval_pencil(z, sys.a)
    s = np.linalg.svd(m, compute_uv=False)
    i = _first(s[..., -1] <= _SINGULAR_REL * np.maximum(1.0, s[..., 0]))
    if i is not None:
        raise SingularityError(
            f"resolvent factor singular at z={tuple(z[i])}", sigma_min=float(s[i][-1])
        )
    return zd + eval_pencil(z, sys.c) @ np.linalg.solve(m, eval_pencil(z, sys.b))


def transfer_eval_series(sys: MultiLSDS, z, terms: int) -> np.ndarray:
    """Partial Neumann sum zD + sum_{i<=terms} zC (zA)^i zB at a point or a
    stack of points.

    Requires the pencil value zA to be a strict contraction so the full
    series converges geometrically; the first point where it is not raises
    DivergenceError.
    """
    sys.require_wellformed()
    if terms < 0:
        raise DomainError(f"terms must be >= 0, got {terms}")
    z = np.asarray(z, dtype=complex)
    za = eval_pencil(z, sys.a)
    norm_za = np.zeros(za.shape[:-2])
    if sys.dim_x:
        norm_za = np.linalg.svd(za, compute_uv=False)[..., 0]
    i = _first(norm_za >= 1.0)
    if i is not None:
        raise DivergenceError(
            f"series needs ||zA|| < 1, got {float(norm_za[i]):.6f} at z={tuple(z[i])}"
        )
    zc = eval_pencil(z, sys.c)
    acc = eval_pencil(z, sys.d)
    cur = eval_pencil(z, sys.b)
    for _ in range(terms + 1):
        acc = acc + zc @ cur
        cur = za @ cur
    return acc


def maclaurin_poly(sys: MultiLSDS, max_order: int) -> MatrixPolynomial:
    """All Maclaurin coefficients with 1 <= |t| <= max_order as one polynomial."""
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    sys.require_wellformed()
    grid = itertools.product(range(max_order + 1), repeat=sys.n)
    coeffs = _coefficients(sys, [t for t in grid if 1 <= sum(t) <= max_order])
    return MatrixPolynomial(
        n=sys.n, shape=(sys.dim_out, sys.dim_in), coeffs=coeffs
    )


def _coefficients(sys: MultiLSDS, exps: list[tuple[int, ...]]) -> dict:
    """Coefficients at nonzero exponents from one doubly bordered table; an
    entry depends only on its predecessors, never on the other exponents."""
    higher = [t for t in exps if order(t) >= 2]
    table = bordered_multipower_table("both", sys.a, higher, b=sys.b, c=sys.c)
    return {
        t: float(multinomial(t)) * table[t] if order(t) >= 2 else sys.d[t.index(1)]
        for t in exps
    }


def schwarz_split(theta: MatrixPolynomial, tol: float = 0.0) -> MatrixPolynomial:
    """Divide a one-variable polynomial vanishing at the origin by z.

    The inverse of multiplying through by the variable; a nonzero constant
    term (beyond ``tol``) means the polynomial is outside the domain of the
    bijection and raises DomainError.
    """
    if theta.n != 1:
        raise DomainError(f"defined for one variable only, got {theta.n}")
    zero = (0,)
    const = theta.coeffs.get(zero)
    if const is not None and float(np.max(np.abs(const))) > tol:
        raise DomainError("constant term present; the polynomial does not vanish at 0")
    shifted = {
        (t[0] - 1,): m for t, m in theta.coeffs.items() if t != zero
    }
    return MatrixPolynomial(n=1, shape=theta.shape, coeffs=shifted)
