"""Operator tuples, linear pencils, and symmetrized multipowers.

For a tuple ``A = (A_1, ..., A_n)`` of square matrices and a multi-index
``s`` the symmetrized multipower ``A^s`` averages the products
``A_{w_1} ... A_{w_|s|}`` over every word ``w`` spelling the letter multiset
``s``.  It is evaluated through the first-letter recursion

    A^s = sum_k (s_k / |s|) A_k A^(s - e_k),

never by enumerating words; the enumeration definition survives only as a
test oracle.  `sym_multipower_table` is the only table builder: the
bordered multipowers of a system, whose first factor is a ``C`` member or
whose last is a ``B`` member, are corners of the multipowers of its lifted
colligation (see `ndsys.system`).  Its table is a stack on the window index
of the cube ``0..top`` (`_cube`, the index `simulate` and `closed_form`
build for their windows), filled one front at a time, and the multinomial
weights are one int64 array over the same index, by Pascal's rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ArityError, DomainError, RangeError, ShapeError
from .lattice import Box, _window_index, as_index

__all__ = [
    "OperatorTuple",
    "eval_pencil",
    "multinomial",
    "sym_multipower_table",
]

_INT64_MAX = 2**63 - 1


def _as_matrix(m) -> np.ndarray:
    out = np.array(m, dtype=complex)
    if out.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim {out.ndim}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OperatorTuple:
    """A nonempty tuple of complex matrices sharing one shape.

    Parameters
    ----------
    mats : sequence of array_like
        The members, one per lattice direction.
    """

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(_as_matrix(m) for m in self.mats)
        if not mats:
            raise ArityError("an operator tuple needs at least one member")
        shape = mats[0].shape
        for i, m in enumerate(mats):
            if m.shape != shape:
                raise ShapeError(
                    f"member {i} has shape {m.shape}, member 0 has {shape}"
                )
        object.__setattr__(self, "mats", mats)

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def rows(self) -> int:
        return self.mats[0].shape[0]

    @property
    def cols(self) -> int:
        return self.mats[0].shape[1]

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.mats[k]

    def __iter__(self):
        return iter(self.mats)

    def adjoint(self) -> "OperatorTuple":
        """Memberwise conjugate transpose."""
        return OperatorTuple(tuple(m.conj().T for m in self.mats))

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(m.view(float))) for m in self.mats)


def eval_pencil(z, ops: OperatorTuple) -> np.ndarray:
    """The pencil value ``sum_k z_k ops_k`` at one point ``(n,)``, or the
    ``(S, rows, cols)`` values at a stack ``(S, n)``; a stacked value is
    bitwise its point's value.  Raises ArityError unless the trailing
    length of ``z`` is the length of ``ops``.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim not in (1, 2) or z.shape[-1] != ops.n:
        raise ArityError(f"pencil point has shape {z.shape}, tuple has {ops.n} members")
    stack = z.reshape(-1, ops.n)
    acc = np.zeros((len(stack), ops.rows, ops.cols), dtype=complex)
    for k, m in enumerate(ops):
        # equal ranks on both sides: numpy rounds a one-entry product of
        # unequal ranks differently from the same product taken alone
        acc += stack[:, k, None, None] * m[None]
    return acc if z.ndim == 2 else acc[0]


def multinomial(s: Iterable[int]) -> int:
    """Exact multinomial coefficient ``|s|! / (s_1! ... s_n!)``.

    Computed in exact integer arithmetic; a value beyond the signed 64-bit
    range raises RangeError rather than wrapping.
    """
    s = as_index(s)
    if any(v < 0 for v in s):
        raise DomainError(f"multinomial needs nonnegative entries, got {s}")
    out = 1
    total = 0
    for v in s:
        total += v
        out *= math.comb(total, v)
    if out > _INT64_MAX:
        raise RangeError(f"multinomial({s}) = {out} exceeds 64-bit range")
    return out


def _check_weights(top: int, n: int) -> None:
    """Raise RangeError if some multinomial weight of an index in n
    variables, of order at most ``top``, passes int64.  The weight grows with
    the order and peaks at the most balanced index, so that index of order
    ``top`` passes first."""
    even, extra = divmod(top, n)
    multinomial((even + 1,) * extra + (even,) * (n - extra))


@functools.lru_cache(maxsize=8)
def _cube(n: int, top: int):
    """The window index of the cube ``0..top`` in ``n`` variables: every
    multi-index of order at most ``top``, front by front and
    lexicographically within a front.  Returns its ``(P, n)`` coordinates,
    the first row of each front 0..top+1, and the ``(P, n)`` rows of the
    predecessors ``s - e_k``, row ``P`` (a zero row of the caller's) where
    ``s_k = 0``.  The arrays are read-only: the table builder and both of
    its callers read the same index, so it is built once per ``(n, top)``.
    """
    if top < 0:
        raise DomainError(f"the top order must be >= 0, got {top}")
    coords, bounds, locate = _window_index(Box((0,) * n, (top,) * n), top, n)
    pred = np.full(coords.shape, len(coords), dtype=np.intp)
    for k in range(n):
        has = coords[:, k] > 0
        pred[has, k] = locate(coords[has] - np.eye(1, n, k, dtype=np.int64))
    for out in (coords, bounds, pred):
        out.setflags(write=False)
    return coords, bounds, pred


def _weights(n: int, top: int) -> np.ndarray:
    """``multinomial(s)`` for every row ``s`` of `_cube` ``(n, top)``, by
    Pascal's rule ``w(s) = sum_k w(s - e_k)``: exact in int64, because a
    weight past int64 is refused first (RangeError)."""
    _check_weights(top, n)
    _, bounds, pred = _cube(n, top)
    w = np.zeros(len(pred) + 1, dtype=np.int64)
    w[0] = 1
    for f in range(1, len(bounds) - 1):
        rows = slice(bounds[f], bounds[f + 1])
        w[rows] = w[pred[rows]].sum(axis=1)
    return w[:-1]


def sym_multipower_table(a: OperatorTuple, top: int) -> np.ndarray:
    """Symmetrized multipowers ``a^s`` for every ``s`` of order at most
    ``top``, each ``sum_k (s_k / |s|) a_k a^(s - e_k)`` added up from 0 in
    letter order, one stacked product per letter and front.

    Returns
    -------
    ndarray
        The ``(P, r, r)`` stack whose row ``i`` is ``a^s`` for the row ``s``
        of the cube index (`_cube`); row 0, the zero index, is the
        identity.  A front holding a non-finite entry raises RangeError.
    """
    if a.rows != a.cols:
        raise ShapeError(f"multipower needs square members, got {a.rows}x{a.cols}")
    coords, bounds, pred = _cube(a.n, top)
    size = len(coords)
    table = np.zeros((size + 1, a.rows, a.rows), dtype=complex)
    table[0] = np.eye(a.rows, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(1, len(bounds) - 1):
            rows = slice(bounds[f], bounds[f + 1])
            # from 0: an order-1 entry is 0 + a_k @ I, so its zeros are +0.0,
            # and a letter absent from s reads the zero row, adding +0.0
            acc = np.zeros((rows.stop - rows.start, a.rows, a.rows), dtype=complex)
            for k in range(a.n):
                acc += (coords[rows, k] / f)[:, None, None] * (a[k] @ table[pred[rows, k]])
            if not np.isfinite(acc.view(float)).all():
                raise RangeError(f"the multipowers of order {f} are not finite")
            table[rows] = acc
    return table[:size]
