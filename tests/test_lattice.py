"""Lattice boxes, fronts, the window index, and signals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ndsys import Box, DomainError, LatticeSignal, ShapeError, SimulationWindow
from ndsys.lattice import _row_locator, _window_index, order


def test_order_is_coordinate_sum():
    assert order((2, -1, 3)) == 4
    assert order((0,)) == 0
    assert order((-2, 1)) == -1


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
    assert box.front(2**70) == [] and box.front(-(2**70)) == []


@pytest.mark.parametrize(
    "box",
    [Box((-2, -1), (2, 3)), Box((3, -5), (4, -2)), Box((-1, 0, -2), (1, 2, 0)), Box((-3,), (2,))],
)
def test_front_is_the_walk_on_every_order_and_one_past(box):
    for f in range(sum(box.lo) - 1, sum(box.hi) + 2):
        assert box.front(f) == oracles.front_walk(box, f), f


@st.composite
def index_cases(draw):
    """A box of n = 1..4 axes, possibly negative, and an order range that
    may be empty, cut the box or reach past it."""
    n = draw(st.integers(1, 4))
    lo = draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    hi = [a + draw(st.integers(0, 3)) for a in lo]
    first = draw(st.integers(sum(lo) - 2, sum(hi) + 1))
    last = draw(st.integers(first - 2, sum(hi) + 2))
    return Box(tuple(lo), tuple(hi)), first, last


@settings(max_examples=200, deadline=None)
@given(index_cases())
def test_window_index_is_the_walk_over_its_order_range(case):
    box, first, last = case
    coords, bounds, _ = _window_index(box, last, 1, first)
    fronts = [oracles.front_walk(box, f) for f in range(first, last + 1)]
    assert [tuple(t) for t in coords.tolist()] == [t for front in fronts for t in front]
    sizes = [len(front) for front in fronts] or [0]  # an empty range: front ``first`` is empty
    top = max([i for i, size in enumerate(sizes) if size] or [0])
    assert bounds.tolist() == np.cumsum([0] + sizes[: top + 1]).tolist()


@settings(max_examples=200, deadline=None)
@given(index_cases(), st.integers(0, 2**32))
def test_locate_finds_members_and_sends_the_rest_to_row_n(case, seed):
    box, first, last = case
    coords, _, locate = _window_index(box, last, 1, first)
    size = len(coords)
    assert np.array_equal(locate(coords), np.arange(size))
    # points of a margin around the box, members and non-members alike,
    # and the same points moved 2**40 away along one axis
    rng = np.random.default_rng(seed)
    near = rng.integers(np.array(box.lo) - 2, np.array(box.hi) + 3, size=(64, box.n))
    far = near[:32].copy()
    far[:16, 0] += 2**40
    far[16:, -1] -= 2**40
    queries = np.vstack([near, far])
    members = {tuple(t): i for i, t in enumerate(coords.tolist())}
    want = [members.get(tuple(t), size) for t in queries.tolist()]
    assert locate(queries).tolist() == want


def test_locate_sends_every_kind_of_stranger_to_row_n():
    box = Box((0, 0), (3, 3))
    coords, _, locate = _window_index(box, 3, 1)
    size = len(coords)
    assert size == 10
    strangers = np.array(
        [
            [2, 2],  # in the bounding box, past the order range
            [3, 3],  # the far corner of the bounding box
            [4, 0],  # one past the bounding box
            [-1, 1],  # below it, of a member's order
            [2**40, 0],
            [-(2**40), 2**40],
            [2**62, -(2**62)],  # keyed unclipped, these would wrap int64
            [-(2**62), 2**62],
        ]
    )
    assert locate(strangers).tolist() == [size] * len(strangers)
    # a front index, whose bounding box holds more non-members than members
    front, _, on_front = _window_index(Box((-2, -2, -2), (2, 2, 2)), 0, 1, 0)
    inside_off_front = np.array([[0, 0, 1], [-2, -2, -2], [2, 2, 2], [1, 1, 1]])
    assert on_front(inside_off_front).tolist() == [len(front)] * 4
    assert np.array_equal(on_front(front), np.arange(len(front)))
    # leading axes are kept
    assert on_front(np.stack([front, front + 1])).shape == (2, len(front))


def test_an_empty_index_sends_every_query_to_row_0():
    locate = _row_locator(np.zeros((0, 2), dtype=np.int64))
    assert locate(np.array([[0, 0], [2**40, -(2**40)]])).tolist() == [0, 0]
    coords, bounds, locate = _window_index(Box((-4, -4), (-1, -1)), 3, 1)
    assert coords.shape == (0, 2) and bounds.tolist() == [0, 0]
    assert locate(np.array([[-1, -1], [0, 0]])).tolist() == [0, 0]


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
