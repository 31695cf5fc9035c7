"""Transfer functions on the polydisc and their Maclaurin expansion.

The transfer function of a system is

    theta(z) = zD + zC (I - zA)^(-1) zB,

where ``zA`` abbreviates the pencil value, so theta vanishes at the origin
by construction.  The Maclaurin coefficient at ``t`` is
``multinomial(t) (C...B)^t``, read from the ``Y, U`` corner of the
multipowers of the lifted colligation (see `ndsys.system`); at order one it
is ``D_k``.  `maclaurin_poly` reads exponents, weights and multipowers as
rows of one index of the cube ``0..max_order``, so its coefficients come
in front-then-lexicographic order, the order of `term_items`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ArityError, DivergenceError, DomainError, ShapeError, SingularityError
from .lattice import as_index, order
from .pencil import _cube, _weights, eval_pencil, sym_multipower_table
from .system import MultiLSDS, _lift

__all__ = [
    "MatrixPolynomial",
    "transfer_eval",
    "transfer_eval_series",
    "maclaurin_poly",
]

_SINGULAR_REL = 1e-13
# ||zA||_F <= 0.99 keeps sigma_min(I - zA) >= 0.01, far above the cut
_RESOLVENT_SAFE = 0.99
# ||zA||_2 <= ||zA||_F; the margin covers the rounding of both norms
_CONTRACTION_MARGIN = 1 + 1e-12
_TERM_BUDGET = 2**17  # Maclaurin coefficients; keeps every int64 order for n <= 4


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
        if min(shape) < 0:
            raise DomainError(f"polynomial: shape must hold sizes >= 0, got {list(shape)!r}")
        clean = {}
        for t, m in self.coeffs.items():
            key = as_index(t, self.n)
            if any(v < 0 for v in key):
                raise DomainError(f"negative exponent {key}")
            if key in clean:
                raise DomainError(f"polynomial: exponent {list(key)} is given twice")
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


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of an ``(S, rows, cols)`` stack."""
    return np.sqrt(np.square(stack.view(float)).sum(axis=(1, 2)))


def _rows(m: np.ndarray) -> np.ndarray:
    """An ``(S, r, c)`` complex stack as the ``(2r, c, S)`` real stack of its
    real rows over its imaginary rows."""
    r, m = m.shape[1], np.moveaxis(m, 0, -1)
    out = np.empty((2 * r,) + m.shape[1:])
    out[:r], out[r:] = m.real, m.imag
    return out


def _block(m: np.ndarray) -> np.ndarray:
    """An ``(S, r, k)`` complex stack as the ``(2r, 2k, S)`` real stack of
    ``[[re, -im], [im, re]]``, which maps `_rows` forms as ``m`` maps
    complex ones."""
    (r, k), m = m.shape[1:], np.moveaxis(m, 0, -1)
    out = np.empty((2 * r, 2 * k, m.shape[2]))
    out[:r, :k], out[:r, k:], out[r:, :k], out[r:, k:] = m.real, -m.imag, m.imag, m.real
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pointwise product of ``(r, k, S)`` and ``(k, c, S)`` real stacks,
    added up over the inner index in order.  Each step is one real multiply
    or add over every point at once, so a point's value does not depend on
    the rest of the stack or on the loop numpy picks for its shape."""
    if not a.shape[1]:
        return np.zeros((a.shape[0], b.shape[1], a.shape[2]))
    out = a[:, 0, None] * b[0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[k]
    return out


def _pencils(sys: MultiLSDS, z: np.ndarray):
    """The pencil values zA, zB, zC and zD at ``z``, a point or a stack as
    for `eval_pencil`, each evaluated once, and the Frobenius norm of zA at
    each point, which both evaluators screen by."""
    za, zb, zc, zd = (eval_pencil(z, ops) for ops in (sys.a, sys.b, sys.c, sys.d))
    count = len(z.reshape(-1, sys.n))
    return za, zb, zc, zd, _frobenius(za.reshape(count, sys.dim_x, sys.dim_x))


def transfer_eval(sys: MultiLSDS, z) -> np.ndarray:
    """Transfer function value via a direct solve.

    ``z`` is one point ``(n,)`` or a stack ``(S, n)``, as for `eval_pencil`.
    Raises SingularityError (carrying the smallest singular value) for the
    first point where the resolvent factor I - zA is numerically singular.
    A point with ||zA||_F <= 0.99 has sigma_min(I - zA) >= 0.01, so only
    the points past that screen are checked by an SVD.
    """
    sys.require_wellformed()
    z = np.asarray(z, dtype=complex)
    return _solved(sys, z, _pencils(sys, z))


def _solved(sys: MultiLSDS, z: np.ndarray, pencils) -> np.ndarray:
    """`transfer_eval` from the `_pencils` values at ``z``."""
    za, zb, zc, zd, frob = pencils
    if sys.dim_x == 0:
        return zd
    m = np.eye(sys.dim_x, dtype=complex) - za
    stack = m.reshape(-1, sys.dim_x, sys.dim_x)
    near = np.flatnonzero(~(frob <= _RESOLVENT_SAFE))
    if near.size:
        # LAPACK factors each matrix alone, so a subset keeps its bits
        s = np.linalg.svd(stack[near], compute_uv=False)
        bad = np.flatnonzero(s[:, -1] <= _SINGULAR_REL * np.maximum(1.0, s[:, 0]))
        if bad.size:
            raise SingularityError(
                f"resolvent factor singular at z={tuple(z.reshape(-1, sys.n)[near[bad[0]]])}",
                sigma_min=float(s[bad[0], -1]),
            )
    return zd + zc @ np.linalg.solve(m, zb)


def transfer_eval_series(sys: MultiLSDS, z, terms: int) -> np.ndarray:
    """Partial Neumann sum zD + sum_{i<=terms} zC (zA)^i zB at a point or a
    stack of points, summed by Horner's rule: h = zB, then ``terms`` times
    h = zB + zA h, and zD + zC h.

    Requires the pencil value zA to be a strict contraction so the full
    series converges geometrically; the first point where it is not raises
    DivergenceError.  ||zA|| <= ||zA||_F, so only the points that the
    Frobenius norm cannot clear are checked by an SVD.
    """
    sys.require_wellformed()
    if terms < 0:
        raise DomainError(f"terms must be >= 0, got {terms}")
    z = np.asarray(z, dtype=complex)
    return _neumann(sys, z, terms, _pencils(sys, z))


def _neumann(sys: MultiLSDS, z: np.ndarray, terms: int, pencils) -> np.ndarray:
    """`transfer_eval_series` from the `_pencils` values at ``z``."""
    pts = z.reshape(-1, sys.n)
    *values, frob = pencils
    za, zb, zc, zd = (v.reshape((len(pts),) + v.shape[-2:]) for v in values)
    near = np.flatnonzero(~(frob * _CONTRACTION_MARGIN < 1.0))
    if near.size:
        norm_za = np.linalg.svd(za[near], compute_uv=False)[:, 0]
        bad = np.flatnonzero(norm_za >= 1.0)
        if bad.size:
            raise DivergenceError(
                f"series needs ||zA|| < 1, got {float(norm_za[bad[0]]):.6f} "
                f"at z={tuple(pts[near[bad[0]]])}"
            )
    a, b = _block(za), _rows(zb)
    h = b
    for _ in range(terms):
        h = b + _product(a, h)
    out = _rows(zd) + _product(_block(zc), h)
    value = np.empty((len(pts), sys.dim_out, sys.dim_in), dtype=complex)
    value.real, value.imag = np.moveaxis(out.reshape(2, sys.dim_out, sys.dim_in, len(pts)), -1, 1)
    return value if z.ndim == 2 else value[0]


def maclaurin_poly(sys: MultiLSDS, max_order: int) -> MatrixPolynomial:
    """All Maclaurin coefficients with 1 <= |t| <= max_order as one polynomial,
    ``multinomial(t) L^t[Y, U]`` from one table of the lifted colligation.

    More than 2**17 coefficients (DomainError), or a multinomial weight past
    int64 (RangeError), are refused before the table is built, and a table
    whose entries stop being finite raises RangeError at that front.
    """
    if max_order < 1:
        raise DomainError(f"max_order must be >= 1, got {max_order}")
    sys.require_wellformed()
    count = math.comb(max_order + sys.n, sys.n) - 1
    if count > _TERM_BUDGET:
        raise DomainError(
            f"order {max_order} has {count} Maclaurin coefficients, past the budget of 2**17"
        )
    weights = _weights(sys.n, max_order)
    exps = _cube(sys.n, max_order)[0]
    table = sym_multipower_table(_lift(sys), max_order)
    y, u = slice(sys.dim_x, sys.dim_x + sys.dim_out), slice(sys.dim_x + sys.dim_out, None)
    terms = weights[1:, None, None].astype(float) * table[1:, y, u]
    coeffs = dict(zip(map(tuple, exps[1:].tolist()), terms))
    return MatrixPolynomial(n=sys.n, shape=(sys.dim_out, sys.dim_in), coeffs=coeffs)
