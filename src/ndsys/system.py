"""Multiparametric linear stationary systems and their trajectories.

A system over Z^n carries four operator tuples acting between a state space
X and input/output value spaces.  States live on lattice points of
nonnegative front order; the recursion steps one unit along each coordinate
direction:

    x(t)   = sum_k ( A_k x(t - e_k) + B_k u(t - e_k) ),     |t| >= 1,
    y(t)   = sum_k ( C_k x(t - e_k) + D_k u(t - e_k) ),     |t| >= 1,

with initial state data prescribed on the zero-order front.  Two trajectory
evaluators are provided: the recursion itself (`simulate`) and the closed
multipower form (`closed_form`).  Both are array code on one window index,
the box points of fronts 0..n_max in front order, whose row locator sends a
read off the window to the shared zero row; they stay numerically
independent, so they must agree on uncontaminated window points: `simulate`
steps whole fronts (Lamport's hyperplanes: a front depends only on the one
before it) through the blocks, and `closed_form` gathers the data at
``t - d`` once per offset ``d`` through the multipowers of the lifted
colligation

    L_k = [[A_k, 0, B_k], [C_k, 0, D_k], [0, 0, 0]]   on X + Y + U,

whose table holds, for ``|s| >= 1``, ``A^s``, ``(A...B)^s``, ``(C...A)^s``
and ``(C...B)^s`` in its corners, with ``(C...B)^(e_k) = D_k``.  The
offsets, their multinomial weights and the table are rows of one index,
the window index (`lattice._window_index`) of the cube ``0..top``.  The
Maclaurin coefficients of the transfer function are its ``Y, U`` corners.
`energy_balance_report` buckets every signal by order in one pass, so it is
linear in the window.  A window of more than 2**24 values, and a closed form
of more than 2**26 point-offset pairs, is refused before it is allocated; a
trajectory or a front energy that stops being finite raises RangeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RangeError, ShapeError
from .lattice import Box, LatticeSignal, SimulationWindow, _window_index, order
from .pencil import OperatorTuple, _cube, _weights, sym_multipower_table

__all__ = [
    "MultiLSDS",
    "Violation",
    "SimulationResult",
    "validate",
    "conjugate",
    "simulate",
    "closed_form",
    "energy_balance_report",
    "EnergyRow",
    "EnergyReport",
]

_PAIR_BUDGET = 2**26  # closed-form window points times the offsets in their cones


@dataclass(frozen=True)
class Violation:
    """One well-formedness defect; ``kind`` is shape, arity, or finiteness."""

    kind: str
    message: str

    def __str__(self):
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class MultiLSDS:
    """System aggregate: state, input, and output operator tuples.

    Construction is deliberately lenient about cross-tuple consistency so
    that `validate` can report defects as diagnostics; operations that need
    a well-formed system check first and raise.

    Parameters
    ----------
    a : OperatorTuple
        State-to-state members, square.
    b : OperatorTuple
        Input-to-state members.
    c : OperatorTuple
        State-to-output members.
    d : OperatorTuple
        Input-to-output members.
    """

    a: OperatorTuple
    b: OperatorTuple
    c: OperatorTuple
    d: OperatorTuple

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def dim_x(self) -> int:
        return self.a.rows

    @property
    def dim_in(self) -> int:
        return self.b.cols

    @property
    def dim_out(self) -> int:
        return self.c.rows

    def block(self, k: int) -> np.ndarray:
        """The 2x2 block matrix pairing state and value spaces in direction k."""
        self.require_wellformed()
        return np.block([[self.a[k], self.b[k]], [self.c[k], self.d[k]]])

    def blocks(self) -> OperatorTuple:
        """Every direction's block, validating the system once."""
        self.require_wellformed()
        parts = zip(self.a, self.b, self.c, self.d)
        return OperatorTuple(tuple(np.block([[a, b], [c, d]]) for a, b, c, d in parts))

    def require_wellformed(self):
        problems = validate(self)
        shapeish = [v for v in problems if v.kind in ("shape", "arity")]
        if shapeish:
            raise ShapeError("; ".join(str(v) for v in shapeish))
        if problems:
            raise PreconditionError("; ".join(str(v) for v in problems))


def _lift(sys: MultiLSDS) -> OperatorTuple:
    """The lifted colligation ``[[A_k, 0, B_k], [C_k, 0, D_k], [0, 0, 0]]``
    on ``X + Y + U``, built from the four tuples of a system its caller has
    already validated."""
    x, y = sys.dim_x, sys.dim_x + sys.dim_out
    size = y + sys.dim_in
    mats = np.zeros((sys.n, size, size), dtype=complex)
    mats[:, :x, :x], mats[:, :x, y:] = sys.a.mats, sys.b.mats
    mats[:, x:y, :x], mats[:, x:y, y:] = sys.c.mats, sys.d.mats
    return OperatorTuple(tuple(mats))


def validate(sys: MultiLSDS) -> list[Violation]:
    """Diagnose shape, arity, and finiteness defects without raising."""
    out: list[Violation] = []
    n = sys.a.n
    for name, t in (("b", sys.b), ("c", sys.c), ("d", sys.d)):
        if t.n != n:
            out.append(
                Violation("arity", f"tuple {name} has {t.n} members, a has {n}")
            )
    if sys.a.rows != sys.a.cols:
        out.append(
            Violation("shape", f"a members must be square, got {sys.a.rows}x{sys.a.cols}")
        )
    if sys.b.rows != sys.a.rows:
        out.append(
            Violation("shape", f"b has {sys.b.rows} rows, state dimension is {sys.a.rows}")
        )
    if sys.c.cols != sys.a.cols:
        out.append(
            Violation("shape", f"c has {sys.c.cols} cols, state dimension is {sys.a.cols}")
        )
    if sys.d.rows != sys.c.rows:
        out.append(
            Violation("shape", f"d has {sys.d.rows} rows, output dimension is {sys.c.rows}")
        )
    if sys.d.cols != sys.b.cols:
        out.append(
            Violation("shape", f"d has {sys.d.cols} cols, input dimension is {sys.b.cols}")
        )
    for name, t in (("a", sys.a), ("b", sys.b), ("c", sys.c), ("d", sys.d)):
        for k, m in enumerate(t):
            if not np.all(np.isfinite(m)):
                out.append(
                    Violation("finiteness", f"{name}[{k}] has non-finite entries")
                )
    return out


def conjugate(sys: MultiLSDS) -> MultiLSDS:
    """The adjoint system: value spaces swap roles, members conjugate-transpose.

    An exact involution: conjugating twice restores every entry bitwise.
    """
    return MultiLSDS(
        a=sys.a.adjoint(),
        b=sys.c.adjoint(),
        c=sys.b.adjoint(),
        d=sys.d.adjoint(),
    )


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory on a window plus boundary-contamination masks.

    States cover fronts 0..n_max of the box (front 0 repeats the initial
    data), outputs cover fronts 1..n_max.  A masked point depended, directly
    or through earlier fronts, on a read outside the box that could not be
    proven zero.
    """

    window: SimulationWindow
    states: LatticeSignal
    outputs: LatticeSignal
    contaminated_states: frozenset[tuple[int, ...]]
    contaminated_outputs: frozenset[tuple[int, ...]]
    octant_exact: bool


def _check_signals(sys: MultiLSDS, window: SimulationWindow, input_signal, init):
    sys.require_wellformed()
    if input_signal.n != sys.n or init.n != sys.n:
        raise ShapeError(
            f"signals live on Z^{input_signal.n}/Z^{init.n}, system on Z^{sys.n}"
        )
    if input_signal.dim != sys.dim_in:
        raise ShapeError(
            f"input dimension {input_signal.dim} != system input dimension {sys.dim_in}"
        )
    if init.dim != sys.dim_x:
        raise ShapeError(
            f"initial-data dimension {init.dim} != state dimension {sys.dim_x}"
        )
    if window.n != sys.n:
        raise ShapeError(f"window lives in Z^{window.n}, system in Z^{sys.n}")
    for bad, where in (
        (init.points.sum(axis=1) != 0, "off the zero-order front"),
        (~window.box.holds(init.points), "outside the window"),
    ):
        if bad.any():
            t = tuple(init.points[int(np.argmax(bad))].tolist())
            raise DomainError(f"initial data {where} at {t}")


def _octant_exact(input_signal: LatticeSignal, init: LatticeSignal) -> bool:
    # Octant-supported data forces the whole trajectory to vanish at any
    # point with a negative coordinate, so such reads are exact zeros.
    return input_signal.octant_supported() and init.octant_supported()


def _scatter(signal: LatticeSignal, locate, rows: np.ndarray):
    """Copy the values of ``signal`` at the window points into ``rows``;
    the values off the window land on the zero row, which is cleared."""
    rows[locate(signal.points)] = signal.values
    rows[-1] = 0


def _result(window, coords, bounds, x, y, dirty, octant) -> SimulationResult:
    """The trajectory from its window arrays; outputs start on front 1.
    Raises RangeError at the lowest front holding a value that is not
    finite."""
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1))
    if bad.any():
        raise RangeError(f"the trajectory on front {coords[bad].sum(axis=1).min()} is not finite")
    masked = frozenset(map(tuple, coords[dirty].tolist()))
    first = int(bounds[1])
    return SimulationResult(
        window=window,
        states=LatticeSignal.from_arrays(window.n, x.shape[1], coords, x),
        outputs=LatticeSignal.from_arrays(window.n, y.shape[1], coords[first:], y[first:]),
        contaminated_states=masked,
        contaminated_outputs=masked,
        octant_exact=octant,
    )


def simulate(
    sys: MultiLSDS,
    window: SimulationWindow,
    input_signal: LatticeSignal,
    init: LatticeSignal,
) -> SimulationResult:
    """Evaluate the recursion front by front over the window.

    Each front is one dense array step: every point reads its predecessor
    ``t - e_k`` on the previous front through a fixed index per direction,
    and the stacked blocks ``[[A_k, B_k], [C_k, D_k]]`` act on all points at
    once.  Off-window reads yield zero vectors; the result masks every point
    whose value depended on such a read, except reads at negative
    coordinates when all supplied data is supported in the nonnegative
    octant (those are exact zeros).  A trajectory that stops being finite
    raises RangeError at its lowest such front.
    """
    _check_signals(sys, window, input_signal, init)
    box, n_max = window.box, window.n_max
    octant = _octant_exact(input_signal, init)
    n, dim_x, dim_in = sys.n, sys.dim_x, sys.dim_in
    coords, bounds, locate = _window_index(box, n_max, dim_x + dim_in + sys.dim_out)
    size = len(coords)

    # state and input side by side, plus one zero row that off-box reads hit
    z = np.zeros((size + 1, dim_x + dim_in), dtype=complex)
    _scatter(init, locate, z[:, :dim_x])
    _scatter(input_signal, locate, z[:, dim_x:])
    y = np.zeros((size, sys.dim_out), dtype=complex)
    gains = np.vstack([g.T for g in sys.blocks()])

    # the rows of the predecessors t - e_k; off the window, the zero row
    pred = locate(coords[:, None] - np.eye(n, dtype=np.int64))
    exact_zero = octant & ((coords < 0).any(axis=1)[:, None] | (coords < 1))
    dirty_read = (pred == size) & ~exact_zero

    dirty = np.zeros(size + 1, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(1, len(bounds) - 1):
            rows = slice(bounds[f], bounds[f + 1])
            step = z[pred[rows]].reshape(-1, n * (dim_x + dim_in)) @ gains
            z[rows, :dim_x] = step[:, :dim_x]
            y[rows] = step[:, dim_x:]
            dirty[rows] = (dirty[pred[rows]] | dirty_read[rows]).any(axis=1)
    return _result(window, coords, bounds, z[:size, :dim_x], y, dirty[:size], octant)


def closed_form(
    sys: MultiLSDS,
    window: SimulationWindow,
    input_signal: LatticeSignal,
    init: LatticeSignal,
) -> SimulationResult:
    """Evaluate the trajectory from the multipower sum instead of stepping.

    A point ``t`` of order ``f`` sums, over the offsets ``d`` with
    ``1 <= |d| <= f``, ``multinomial(d) L^d`` applied to ``[x0 | 0 | u]``
    at ``t - d``, where ``L`` is the lifted colligation (`_lift`) and the
    initial data ``x0`` is zero off the zero-order front.  The loop runs
    over the offsets: one gather of the rows ``t - d``, with off-box reads
    hitting a zero row, and one product serve every point of order
    ``>= |d|`` at once.  Contamination masks agree with `simulate` exactly:
    both reduce to whether the cone leaves the trusted region.  More than
    ``_PAIR_BUDGET`` point-offset pairs, or a weight past int64
    (RangeError), are refused before the table is built; a table whose
    entries stop being finite raises RangeError at that front, and so does
    a trajectory, at its lowest such front.
    """
    _check_signals(sys, window, input_signal, init)
    octant = _octant_exact(input_signal, init)
    n, dim_x, dim_in = sys.n, sys.dim_x, sys.dim_in
    coords, bounds, locate = _window_index(window.box, window.n_max, dim_x + dim_in + sys.dim_out)
    size, top = len(coords), len(bounds) - 2
    pairs = sum(int(p) * (math.comb(f + n, n) - 1) for f, p in enumerate(np.diff(bounds)))
    if pairs > _PAIR_BUDGET:
        raise DomainError(
            f"the closed form needs {pairs} point-offset pairs, past the budget of 2**26"
        )
    weights = _weights(n, top)
    offsets, fronts, _ = _cube(n, top)
    powers = sym_multipower_table(_lift(sys), top)

    # [x0 | 0 | u] on the window, plus one zero row that off-box reads hit
    xy = dim_x + sys.dim_out
    z = np.zeros((size + 1, xy + dim_in), dtype=complex)
    _scatter(init, locate, z[:, :dim_x])
    _scatter(input_signal, locate, z[:, xy:])
    # front 0 keeps the initial data, the sums start from zero above it
    acc = z[:size, :xy].copy()
    dirty = np.zeros(size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(1, top + 1):
            rows, pts = slice(bounds[f], size), coords[bounds[f] :]
            for i in range(fronts[f], fronts[f + 1]):
                p = pts - offsets[i]
                src = locate(p)
                dirty[rows] |= (src == size) & ~(octant & (p < 0).any(axis=1))
                acc[rows] += z[src] @ (float(weights[i]) * powers[i, :xy]).T
    return _result(window, coords, bounds, acc[:, :dim_x], acc[:, dim_x:], dirty, octant)


@dataclass(frozen=True)
class EnergyRow:
    """One front of the energy ledger.

    lhs is incoming minus outgoing value-space energy across the front
    step, rhs is the change in stored state energy; a dissipative system
    keeps lhs >= rhs on clean fronts, a conservative one balances them.
    """

    n: int
    e_minus: float
    e_plus: float
    e_x: float
    e_x_prev: float
    contaminated: bool

    @property
    def lhs(self) -> float:
        return self.e_minus - self.e_plus

    @property
    def rhs(self) -> float:
        return self.e_x - self.e_x_prev


@dataclass(frozen=True)
class EnergyReport:
    rows: tuple[EnergyRow, ...]
    tol: float

    @property
    def clean_rows(self) -> tuple[EnergyRow, ...]:
        return tuple(r for r in self.rows if not r.contaminated)

    @property
    def dissipative_consistent(self) -> bool:
        """No clean front loses less than it stores (lhs >= rhs - tol)."""
        return all(r.lhs - r.rhs >= -self.tol for r in self.clean_rows)

    @property
    def conservative_consistent(self) -> bool:
        """Every clean front balances exactly up to tol."""
        return all(abs(r.lhs - r.rhs) <= self.tol for r in self.clean_rows)


def _by_order(signal: LatticeSignal, box: Box, n_max: int):
    """Per-front tallies of one signal, from one pass over its arrays.

    Returns four arrays indexed by order 0..n_max: the squared mass, the
    squared mass inside the box, whether a nonzero entry lies outside the
    box, and whether a nonzero entry feeds a point outside the box on the
    next front.
    """
    orders = signal.points.sum(axis=1)
    kept = (orders >= 0) & (orders <= n_max)
    pts, vals, orders = signal.points[kept], signal.values[kept], orders[kept]
    lo, hi = np.array(box.lo), np.array(box.hi)
    coord_in = (pts >= lo) & (pts <= hi)
    step_in = (pts >= lo - 1) & (pts <= hi - 1)
    inside = coord_in.all(axis=1)
    leaks = np.zeros(len(pts), dtype=bool)
    for k in range(box.n):
        ok = coord_in.copy()
        ok[:, k] = step_in[:, k]
        leaks |= ~ok.all(axis=1)
    with np.errstate(over="ignore"):  # an infinite mass is refused by the caller
        sq = (vals.real**2 + vals.imag**2).sum(axis=1)
        mass = np.bincount(orders, sq, minlength=n_max + 1)
        mass_in = np.bincount(orders[inside], sq[inside], minlength=n_max + 1)
    nonzero = (vals != 0).any(axis=1)
    escaped = np.zeros(n_max + 1, dtype=bool)
    lost = np.zeros(n_max + 1, dtype=bool)
    escaped[orders[nonzero & ~inside]] = True
    lost[orders[nonzero & leaks]] = True
    return mass, mass_in, escaped, lost


def energy_balance_report(
    sys: MultiLSDS,
    window: SimulationWindow,
    input_signal: LatticeSignal,
    init: LatticeSignal,
    tol: float = 1e-9,
    result: SimulationResult | None = None,
) -> EnergyReport:
    """Simulate (or reuse ``result``) and tabulate per-front energies.

    A row is marked contaminated when any window point feeding its four
    energies is masked, or when the input carries mass on its front outside
    the window.  Each signal and mask is read once and bucketed by order,
    so the ledger is linear in the window.  A front whose energies are not
    finite raises RangeError.
    """
    if result is None:
        result = simulate(sys, window, input_signal, init)
    box, n_max = window.box, window.n_max
    _, e_minus, escaped, input_lost = _by_order(input_signal, box, n_max)
    e_x, _, _, state_lost = _by_order(result.states, box, n_max)
    e_plus = _by_order(result.outputs, box, n_max)[0]
    # front f reads e_minus[f - 1], e_x[f - 1], e_x[f] and e_plus[f]
    finite = np.isfinite([e_minus[:-1], e_x[:-1], e_x[1:], e_plus[1:]]).all(axis=0)
    if not finite.all():
        raise RangeError(f"the energies of front {int(np.argmin(finite)) + 1} are not finite")
    dirty_states = {order(t) for t in result.contaminated_states}
    dirty_outputs = {order(t) for t in result.contaminated_outputs}

    rows = []
    for front in range(1, n_max + 1):
        prev = front - 1
        contaminated = bool(
            escaped[prev]
            or input_lost[prev]
            or state_lost[prev]
            or prev in dirty_states
            or front in dirty_states
            or front in dirty_outputs
        )
        rows.append(
            EnergyRow(
                n=front,
                e_minus=float(e_minus[prev]),
                e_plus=float(e_plus[front]),
                e_x=float(e_x[front]),
                e_x_prev=float(e_x[prev]),
                contaminated=contaminated,
            )
        )
    return EnergyReport(rows=tuple(rows), tol=tol)
