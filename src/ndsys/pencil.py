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
colligation (see `ndsys.system`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ArityError, DomainError, RangeError, ShapeError
from .lattice import as_index, order, sub, unit

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


def _closure(targets: Iterable[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Downward closure of ``targets`` under unit subtraction, ordered by
    front then lexicographically."""
    seen: set[tuple[int, ...]] = set()
    stack = [as_index(t, n) for t in targets]
    for t in stack:
        if any(v < 0 for v in t):
            raise DomainError(f"multipower index must be nonnegative, got {t}")
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        for k in range(n):
            if t[k] > 0:
                stack.append(sub(t, unit(n, k)))
    return sorted(seen, key=lambda t: (order(t), t))


def sym_multipower_table(
    a: OperatorTuple, targets: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], np.ndarray]:
    """Symmetrized multipowers ``a^s`` for every ``s`` in the downward
    closure of ``targets``, each ``sum_k (s_k / |s|) a_k a^(s - e_k)``
    added up from 0 in letter order.

    Returns
    -------
    dict
        Maps each multi-index to a matrix; the zero index maps to the
        identity.
    """
    if a.rows != a.cols:
        raise ShapeError(f"multipower needs square members, got {a.rows}x{a.cols}")
    n = a.n
    table: dict[tuple[int, ...], np.ndarray] = {}
    for s in _closure(targets, n):
        m = order(s)
        if m == 0:
            table[s] = np.eye(a.rows, dtype=complex)
        else:
            # from 0, not from the first term: an order-1 entry is
            # 0 + a_k @ I, so its zeros are +0.0
            table[s] = sum(
                (v / m) * (a[k] @ table[sub(s, unit(n, k))]) for k, v in enumerate(s) if v > 0
            )
    return table
