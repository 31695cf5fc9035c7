"""Lattice boxes, fronts, and signals."""

import numpy as np
import pytest

from ndsys import Box, DomainError, LatticeSignal, ShapeError, SimulationWindow
from ndsys.lattice import add, order, sub, unit


def test_order_is_coordinate_sum():
    assert order((2, -1, 3)) == 4
    assert order((0,)) == 0
    assert order((-2, 1)) == -1


def test_unit_vectors():
    assert unit(3, 0) == (1, 0, 0)
    assert unit(3, 2) == (0, 0, 1)
    assert add((1, 2), unit(2, 1)) == (1, 3)
    assert sub((1, 2), unit(2, 0)) == (0, 2)


def test_box_contains():
    box = Box((-1, 0), (2, 3))
    assert box.contains((0, 0))
    assert box.contains((-1, 3))
    assert not box.contains((-2, 0))
    assert not box.contains((0, 4))


def test_box_rejects_inverted_bounds():
    with pytest.raises(DomainError):
        Box((2,), (1,))


@pytest.mark.parametrize(
    "lo, hi",
    [((0.5, 0), (2, 1)), ((0, 0), (2.7, 1)), ((float("nan"), 0), (1, 1)), ((0, 0), (float("inf"), 1))],
)
def test_box_refuses_fractional_bounds(lo, hi):
    with pytest.raises(DomainError, match="lattice coordinate must be an integer"):
        Box(lo, hi)


def test_box_accepts_integral_floats():
    box = Box((0.0, np.int64(-1)), (2.0, np.float64(3.0)))
    assert box.lo == (0, -1) and box.hi == (2, 3)
    assert all(type(v) is int for v in box.lo + box.hi)


def test_front_enumerates_exactly_the_order_level():
    box = Box((-2, -2), (2, 2))
    for n in range(-4, 5):
        pts = box.front(n)
        assert all(order(t) == n for t in pts)
        assert len(set(pts)) == len(pts)
    # brute force cross-check
    brute = [
        (i, j) for i in range(-2, 3) for j in range(-2, 3) if i + j == 1
    ]
    assert sorted(box.front(1)) == sorted(brute)
    assert box.front(1) == sorted(box.front(1))  # lexicographic contract


def test_front_empty_beyond_range():
    box = Box((0, 0), (2, 2))
    assert box.front(5) == []
    assert box.front(-1) == []


def test_box_negated_and_shrunk():
    box = Box((-1, 0), (2, 3))
    neg = box.negated()
    assert neg.lo == (-2, -3) and neg.hi == (1, 0)
    inner = box.shrunk(1)
    assert inner.lo == (0, 1) and inner.hi == (1, 2)


def test_window_validation():
    with pytest.raises(DomainError):
        SimulationWindow(Box((0,), (3,)), 0)


def test_signal_value_and_support():
    sig = LatticeSignal(2, 2, {(1, 0): np.array([1.0, 2.0j])})
    assert np.allclose(sig.value((1, 0)), [1.0, 2.0j])
    assert np.allclose(sig.value((0, 1)), [0.0, 0.0])
    assert sig.support == {(1, 0)}


def test_signal_rejects_wrong_dim():
    with pytest.raises(ShapeError):
        LatticeSignal(2, 2, {(0, 0): np.array([1.0])})


def test_signal_entries_immutable():
    sig = LatticeSignal(1, 1, {(0,): np.array([1.0 + 0j])})
    with pytest.raises(ValueError):
        sig.entries[(0,)][0] = 5.0


def test_signal_octant_supported():
    assert LatticeSignal(2, 1, {(0, 2): np.zeros(1)}).octant_supported()
    assert not LatticeSignal(2, 1, {(-1, 2): np.zeros(1)}).octant_supported()


def test_signal_norm():
    sig = LatticeSignal(1, 2, {(0,): np.array([3.0, 0j]), (1,): np.array([0.0, 4.0])})
    assert np.isclose(sig.norm(), 5.0)
