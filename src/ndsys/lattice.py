"""Multi-index arithmetic, axis-aligned boxes, and finitely supported signals.

Lattice points are plain tuples of Python ints, and a signal keeps its
support as one int64 array with a point per row.  The *order* of a point is
the sum of its coordinates; the set of points of one fixed order is a front.
All enumeration here is lexicographic so that downstream assemblies are
deterministic.  The window index (`_window_index`: the box points of
fronts 0..n_max, front by front) is the one index that `simulate`,
`closed_form` and the multipower table (on the cube ``0..top``) read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ArityError, DomainError, ShapeError

__all__ = [
    "order",
    "unit",
    "as_index",
    "add",
    "sub",
    "Box",
    "SimulationWindow",
    "LatticeSignal",
]

_VALUE_BUDGET = 2**24  # window points times the values each point carries


def order(t: tuple[int, ...]) -> int:
    """Sum of the coordinates of ``t``."""
    return sum(t)


def unit(n: int, k: int) -> tuple[int, ...]:
    """The k-th coordinate unit vector in Z^n, k counted from 0."""
    if not 0 <= k < n:
        raise DomainError(f"coordinate index {k} outside 0..{n - 1}")
    return tuple(1 if i == k else 0 for i in range(n))


def whole(value, what: str) -> int:
    """``value`` as an int; a fractional number is refused, not truncated."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be an integer, got {value!r}") from exc
    if out != value and not isinstance(value, str):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return out


def as_index(t: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Coerce to an int tuple, checking length against ``n`` when given."""
    out = tuple(whole(v, "a lattice coordinate") for v in t)
    if n is not None and len(out) != n:
        raise ArityError(f"expected a point of Z^{n}, got length {len(out)}")
    return out


def add(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(s, t))


def sub(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(s, t))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``lo <= t <= hi`` in Z^n (bounds inclusive)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = as_index(self.lo)
        hi = as_index(self.hi, len(lo))
        if any(a > b for a, b in zip(lo, hi)):
            raise DomainError(f"empty box: lo={lo} exceeds hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return len(self.lo)

    def contains(self, t: tuple[int, ...]) -> bool:
        return all(a <= v <= b for a, v, b in zip(self.lo, t, self.hi))

    def holds(self, points: np.ndarray) -> np.ndarray:
        """Whether each row of an (N, n) point array lies in the box."""
        return ((points >= np.array(self.lo)) & (points <= np.array(self.hi))).all(axis=1)

    def front(self, n: int) -> list[tuple[int, ...]]:
        """All box points of order ``n``, lexicographically."""
        out: list[tuple[int, ...]] = []
        self._walk(0, n, (), out)
        return out

    def _walk(self, i, remaining, prefix, out):
        if i == self.n:
            if remaining == 0:
                out.append(prefix)
            return
        # prune by what the remaining coordinates can still sum to
        rest_lo = sum(self.lo[i + 1 :])
        rest_hi = sum(self.hi[i + 1 :])
        lo = max(self.lo[i], remaining - rest_hi)
        hi = min(self.hi[i], remaining - rest_lo)
        for v in range(lo, hi + 1):
            self._walk(i + 1, remaining - v, prefix + (v,), out)

    def negated(self) -> "Box":
        """The reflection ``-t`` of the box through the origin."""
        return Box(tuple(-b for b in self.hi), tuple(-a for a in self.lo))

    def shrunk(self, margin: int) -> "Box":
        """The box with ``margin`` layers peeled off every face."""
        return Box(
            tuple(a + margin for a in self.lo),
            tuple(b - margin for b in self.hi),
        )


@dataclass(frozen=True)
class SimulationWindow:
    """A box together with the last front order to evaluate.

    Fronts 1..n_max of the box are computed; front 0 carries initial data.
    """

    box: Box
    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def n(self) -> int:
        return self.box.n


def _row_locator(points: np.ndarray):
    """A map from (M, n) arrays of rows of the (N, n) int array ``points``
    to their row numbers there.

    Points are keyed row-major over the bounding box of ``points``, so a
    huge box with few fronts keeps a small key space.
    """
    if not len(points):
        return lambda pts: np.zeros(0, dtype=np.intp)
    lo = points.min(axis=0)
    extents = points.max(axis=0) - lo + 1
    if np.prod(np.asarray(extents, dtype=float)) >= 2.0**62:
        raise DomainError(f"points spanning {extents.tolist()} are too wide to index")
    strides = np.cumprod(np.append(extents[1:], 1)[::-1])[::-1]

    def keys(pts):
        return (pts - lo) @ strides

    window_keys = keys(points)
    sorter = np.argsort(window_keys)
    sorted_keys = window_keys[sorter]
    return lambda pts: sorter[np.searchsorted(sorted_keys, keys(pts))]


def _window_index(box: Box, n_max: int, width: int):
    """The box points of order 0..n_max, front by front and lexicographically
    within a front: their ``(P, n)`` coordinates, the first row of each front
    0..top+1 (top the highest nonempty front, 0 for an empty window) and
    their `_row_locator`.

    Each axis is clipped to the values that its window points take, then the
    prefixes grow one axis at a time by their feasible ranges, so the cost
    follows the point count however wide the box.  More than
    ``_VALUE_BUDGET`` values, ``width`` a point, are refused before they are
    allocated.
    """
    n = box.n
    lo = [max(a, b - sum(box.hi)) for a, b in zip(box.lo, box.hi)]
    hi = [min(b, n_max - sum(box.lo) + a) for a, b in zip(box.lo, box.hi)]
    if sum(max(-a, b) for a, b in zip(lo, hi)) >= 2**62:
        raise DomainError(f"the window {lo}..{hi} reaches past the int64 lattice range")
    top = min(n_max, sum(hi))
    coords, orders = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for i in range(n):
        first = np.maximum(lo[i], -orders - sum(hi[i + 1 :]))
        count = np.maximum(np.minimum(hi[i], top - orders - sum(lo[i + 1 :])) - first + 1, 0)
        total = count.sum(dtype=float)  # every prefix grows into a window point
        if total * width > _VALUE_BUDGET:
            raise DomainError(
                f"the window holds {total:.0f} points or more of {width} values each, "
                "past the budget of 2**24 values"
            )
        col = np.repeat(first - np.cumsum(count) + count, count) + np.arange(int(total))
        coords = np.column_stack([np.repeat(coords, count, axis=0), col])
        orders = np.repeat(orders, count) + col
    perm = np.argsort(orders, kind="stable")
    coords, orders = coords[perm], orders[perm]
    bounds = np.searchsorted(orders, np.arange(int(orders.max(initial=0)) + 2))
    return coords, bounds, _row_locator(coords)


class _Entries(Mapping):
    """The read-only ``{point: value}`` view of a signal; its length needs
    no point index."""

    def __init__(self, signal: "LatticeSignal"):
        self._signal = signal

    def __len__(self) -> int:
        return len(self._signal.points)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._signal._rows)

    def __getitem__(self, t) -> np.ndarray:
        return self._signal._rows[t]


class LatticeSignal:
    """Finitely supported map from Z^n into C^dim.

    ``points`` is the support as a read-only (N, n) int64 array, sorted
    lexicographically without repeats, and ``values`` the read-only (N, dim)
    complex array of the values there; other points read as zero.  Build one
    from a mapping, ``LatticeSignal(n, dim, {t: v})``, or with `from_arrays`.
    ``entries``, ``support``, ``value`` and ``items`` read through a point
    index built on first use.
    """

    def __init__(self, n: int, dim: int, entries: Mapping | None = None):
        entries = {} if entries is None else entries
        self.n, self.dim = n, dim
        self.points = [tuple(t) for t in entries]
        self.values = list(entries.values())
        self.__post_init__()

    @classmethod
    def from_arrays(cls, n: int, dim: int, points, values) -> "LatticeSignal":
        """The signal with ``values[i]`` at ``points[i]``, in any point order."""
        sig = cls.__new__(cls)
        sig.n, sig.dim, sig.points, sig.values = n, dim, points, values
        sig.__post_init__()
        return sig

    def __post_init__(self):
        n, dim = self.n, self.dim
        if n < 1:
            raise DomainError(f"lattice dimension must be >= 1, got {n}")
        if dim < 0:
            raise DomainError(f"value dimension must be >= 0, got {dim}")
        count = len(self.points)
        try:
            coords = np.array(self.points, dtype=float).reshape(count, n)
        except (TypeError, ValueError) as exc:
            raise ArityError(f"expected {count} points of Z^{n} as integers") from exc
        fraction = ~np.isfinite(coords) | (coords != np.round(coords))
        if fraction.any():
            row, col = np.argwhere(fraction)[0]
            raise DomainError(
                f"point {coords[row].tolist()} has the non-integer coordinate {coords[row, col]}"
            )
        reach = np.abs(coords).sum(axis=1)
        if (reach >= 2.0**63).any():  # coordinates and orders must not overflow int64
            bad = [int(c) for c in self.points[int(np.argmax(reach >= 2.0**63))]]
            raise DomainError(f"point {bad} lies outside the int64 lattice range")
        points = np.array(self.points, dtype=np.int64).reshape(count, n)
        try:
            values = np.array(self.values, dtype=complex).reshape(count, dim)
        except ValueError as exc:
            raise ShapeError(f"expected {count} values in C^{dim}") from exc
        perm = np.lexsort(points.T[::-1])
        points, values = points[perm], values[perm]
        repeated = (points[1:] == points[:-1]).all(axis=1)
        if repeated.any():
            raise DomainError(f"point {points[int(np.argmax(repeated))].tolist()} is given twice")
        points.setflags(write=False)
        values.setflags(write=False)
        self.points, self.values = points, values

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], np.ndarray]:
        return dict(zip(map(tuple, self.points.tolist()), self.values))

    @property
    def entries(self) -> Mapping[tuple[int, ...], np.ndarray]:
        return _Entries(self)

    def value(self, t: tuple[int, ...]) -> np.ndarray:
        v = self._rows.get(tuple(t))
        return np.zeros(self.dim, dtype=complex) if v is None else v

    @property
    def support(self):
        return self._rows.keys()

    def items(self) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        return zip(map(tuple, self.points.tolist()), self.values)

    def octant_supported(self) -> bool:
        """Whether every support point has only nonnegative coordinates."""
        return not (self.points < 0).any()

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))
