"""Lattice points, axis-aligned boxes, and finitely supported signals.

Lattice points are plain tuples of Python ints, and a signal keeps its
support as one int64 array with a point per row.  The *order* of a point is
the sum of its coordinates; the set of points of one fixed order is a front.
The window index (`_window_index`: the box points of the fronts
first..last, front by front and lexicographically within a front) is the
library's one way to enumerate lattice points: `Box.front`, `simulate`,
`closed_form`, the multipower table (on the cube ``0..top``) and the
scattering generators (on the whole box) all read it.  Its row locator
answers every query: a point the index does not hold gets row ``N``, the
shared zero row its callers keep after the ``N`` index rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ArityError, DomainError, ShapeError, _quote, _require_within, whole

__all__ = [
    "order",
    "as_index",
    "Box",
    "SimulationWindow",
    "LatticeSignal",
]


def order(t: tuple[int, ...]) -> int:
    """Sum of the coordinates of ``t``."""
    return sum(t)


def as_index(t: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Coerce to an int tuple, checking length against ``n`` when given."""
    out = tuple(whole(v, "a lattice coordinate") for v in t)
    if n is not None and len(out) != n:
        raise ArityError(f"expected a point of Z^{_quote(n)}, got length {len(out)}")
    return out


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

    def holds(self, points: np.ndarray) -> np.ndarray:
        """Whether each row of an (N, n) point array lies in the box."""
        return ((points >= np.array(self.lo)) & (points <= np.array(self.hi))).all(axis=1)

    def front(self, n: int) -> list[tuple[int, ...]]:
        """All box points of order ``n``, lexicographically: the rows of
        the window index of that one front."""
        if not sum(self.lo) <= n <= sum(self.hi):
            return []  # and an order past int64 never reaches numpy
        return list(map(tuple, _window_index(self, n, self.n, n)[0].tolist()))

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
        object.__setattr__(self, "n_max", _require_within("n_max", self.n_max, low=1))

    @property
    def n(self) -> int:
        return self.box.n


def _row_locator(points: np.ndarray):
    """A map from (..., n) int arrays of points to their row numbers in the
    (N, n) int array ``points``; a point not in ``points`` gets row ``N``,
    the shared zero row its callers keep after the ``N`` rows.

    Points are keyed row-major over the bounding box of ``points``, so a
    huge box with few fronts keeps a small key space.  The row that the key
    search finds is confirmed by comparing its point with the query, so a
    query off the index misses whatever key it forms: one inside the
    bounding box, and a far one whose key wraps or aliases a member's.
    """
    size = len(points)
    if not size:
        return lambda pts: np.zeros(pts.shape[:-1], dtype=np.intp)
    lo = points.min(axis=0)
    extents = points.max(axis=0) - lo + 1
    if np.prod(np.asarray(extents, dtype=float)) >= 2.0**62:
        raise DomainError(f"points spanning {extents.tolist()} are too wide to index")
    strides = np.cumprod(np.append(extents[1:], 1)[::-1])[::-1]
    keys = (points - lo) @ strides
    sorter = np.argsort(keys)
    sorted_keys = keys[sorter]
    # a search past the last key lands on row N, whose point is any point:
    # a match there still answers N
    sorter = np.append(sorter, size)
    held = np.append(points, points[:1], axis=0)

    def locate(pts):
        rows = sorter[np.searchsorted(sorted_keys, (pts - lo) @ strides)]
        return np.where((held[rows] == pts).all(axis=-1), rows, size)

    return locate


def _check_reach(lo, hi, what: str) -> None:
    """Refuse bounds ``lo..hi`` whose coordinates or orders could leave int64."""
    if sum(max(-a, b) for a, b in zip(lo, hi)) >= 2**62:
        raise DomainError(f"the {what} lo={_quote(lo)} hi={_quote(hi)} reaches past the int64 lattice range")


def _window_index(box: Box, last: int, width: int, first: int = 0):
    """The box points of order first..last, front by front and
    lexicographically within a front: their ``(P, n)`` coordinates, the
    first row of each front first..top+1 (top the highest nonempty front,
    ``first`` for an empty index) and their `_row_locator`.

    Each axis is clipped to the values that the index points take, then the
    prefixes grow one axis at a time by their feasible ranges, so the cost
    follows the point count however wide the box.  More than the values
    budget, ``width`` values a point, is refused before it is allocated.
    """
    n = box.n
    lo = [max(a, first - sum(box.hi) + b) for a, b in zip(box.lo, box.hi)]
    hi = [min(b, last - sum(box.lo) + a) for a, b in zip(box.lo, box.hi)]
    _check_reach(lo, hi, "window")
    top = min(last, sum(hi))
    coords, orders = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for i in range(n):
        start = np.maximum(lo[i], first - orders - sum(hi[i + 1 :]))
        count = np.maximum(np.minimum(hi[i], top - orders - sum(lo[i + 1 :])) - start + 1, 0)
        total = count.sum(dtype=float)  # every prefix grows into an index point
        what = f"the request spans {total:.0f} lattice points or more of {width} values each"
        _require_within(what, total * width, budget="values")
        col = np.repeat(start - np.cumsum(count) + count, count) + np.arange(int(total))
        coords = np.column_stack([np.repeat(coords, count, axis=0), col])
        orders = np.repeat(orders, count) + col
    perm = np.argsort(orders, kind="stable")
    coords, orders = coords[perm], orders[perm]
    bounds = np.searchsorted(orders, np.arange(first, int(orders.max(initial=first)) + 2))
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
        self.n = n = _require_within("lattice dimension", self.n, low=1)
        self.dim = dim = _require_within("value dimension", self.dim, low=0)
        count = len(self.points)
        try:
            raw = np.asarray(self.points)  # free on an int64 array
            if raw.dtype.kind in "USOc":  # a float conversion reads "1" as 1 and drops 1j
                for c in np.array(self.points, dtype=object).ravel():
                    whole(c, "a lattice coordinate")
            coords = raw.astype(float).reshape(count, n)
        except OverflowError as exc:  # an integer coordinate past the float range
            huge = (p.tolist() for p in map(np.ravel, self.points))
            bad = next(p for p in huge if any(isinstance(c, int) and abs(c) >= 2**63 for c in p))
            raise DomainError(f"point {_quote(bad)} lies outside the int64 lattice range") from exc
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
            raise DomainError(f"point {_quote(bad)} lies outside the int64 lattice range")
        points = raw.astype(np.int64).reshape(count, n)
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
