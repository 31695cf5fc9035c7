"""Truncated scattering vectors and the translation generators acting on them.

The ambient space splits into an outgoing part (output values on fronts of
order <= 0), a present part (state values on the zero front), and an
incoming part (input values on fronts of order >= 0).  One generator per
lattice direction translates a vector one step along that direction,
consuming incoming data through the system matrices; each adjoint is the
conjugate system's generator seen through the reflection `gamma_map`.

Vectors are truncated to a box.  A read outside the box yields zero and
masks the written point, mirroring the window semantics of simulation.
The box points are the window index (`lattice._window_index`) of the whole
box, and an off-box read is the row locator's miss, the shared zero row.
A box past the values budget, ``dim_x + dim_in + dim_out`` values a point,
an associated view past it and trials whose boxes together pass it are
refused before they are built, and `gamma_map` refuses such a box and one
past the int64 lattice range as the generators do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, _quote, _require_within
from .lattice import Box, LatticeSignal, _check_reach, _window_index
from .pencil import OperatorTuple
from .system import MultiLSDS, conjugate

__all__ = [
    "TruncatedLPVector",
    "LPMask",
    "apply_generator",
    "apply_adjoint",
    "gamma_map",
    "commutation_residual",
    "metric_check",
    "MetricReport",
    "OneParamSystemView",
    "associated_one_param",
]


@dataclass(frozen=True)
class TruncatedLPVector:
    """Box truncation of a scattering vector.

    ``u_plus`` holds output-space values on box points of order <= 0,
    ``y`` state values on the zero-order front, ``u_minus`` input-space
    values on orders >= 0.  Supports outside those bands raise DomainError.
    """

    box: Box
    u_plus: LatticeSignal
    y: LatticeSignal
    u_minus: LatticeSignal

    def __post_init__(self):
        n = self.box.n
        for name, sig in (("u_plus", self.u_plus), ("y", self.y), ("u_minus", self.u_minus)):
            if sig.n != n:
                raise ShapeError(f"{name} lives on Z^{sig.n}, box on Z^{n}")
            orders = sig.points.sum(axis=1)
            band = {"u_plus": orders <= 0, "y": orders == 0, "u_minus": orders >= 0}[name]
            bad = ~(band & self.box.holds(sig.points))
            if bad.any():
                t = tuple(sig.points[int(np.argmax(bad))].tolist())
                raise DomainError(f"{name} support out of band at {t}")

    def norm(self) -> float:
        return float(
            np.sqrt(self.u_plus.norm() ** 2 + self.y.norm() ** 2 + self.u_minus.norm() ** 2)
        )


@dataclass(frozen=True)
class LPMask:
    """Points of each component whose value depended on an off-box read."""

    u_plus: frozenset[tuple[int, ...]]
    y: frozenset[tuple[int, ...]]
    u_minus: frozenset[tuple[int, ...]]


def _check_dims(sys: MultiLSDS, vec: TruncatedLPVector):
    if vec.box.n != sys.n:
        raise ShapeError(f"vector box in Z^{vec.box.n}, system in Z^{sys.n}")
    for name, have, space, want in (
        ("u_plus", vec.u_plus.dim, "output", sys.dim_out),
        ("y", vec.y.dim, "state", sys.dim_x),
        ("u_minus", vec.u_minus.dim, "input", sys.dim_in),
    ):
        if have != want:
            raise ShapeError(f"{name} dimension {have} != {space} dimension {want}")


def _box_points(sys: MultiLSDS, box: Box):
    """The window index of the whole box, front by front, and its row
    locator; a box past the values budget, ``dim_x + dim_in + dim_out``
    values a point, is refused before it is built."""
    width = sys.dim_x + sys.dim_in + sys.dim_out
    coords, _, locate = _window_index(box, sum(box.hi), width, sum(box.lo))
    return coords, locate


def apply_generator(
    sys: MultiLSDS, k: int, vec: TruncatedLPVector
) -> tuple[TruncatedLPVector, LPMask]:
    """One translation step along direction ``k``.

    Outgoing values shift toward the zero front, the zero front consumes
    the adjacent state and incoming data through the system matrices, and
    incoming values shift away.  Returns the new vector and the off-box
    read mask.

    Each band is one gather from dense arrays on the box index: a point
    reads row ``t + e_k``, a zero-front point rows ``t - e_j + e_k``, and
    an off-box read hits one shared zero row.
    """
    _check_dims(sys, vec)
    n = sys.n
    if not 0 <= k < n:
        raise DomainError(f"direction {_quote(k)} outside 0..{n - 1}")
    box = vec.box
    points, locate = _box_points(sys, box)
    orders = points.sum(axis=1)
    front, plus, minus = orders == 0, orders <= 0, orders >= 0

    def grid(sig):  # the signal's values on the box rows, then the zero row
        out = np.zeros((len(points) + 1, sig.dim), dtype=complex)
        out[locate(sig.points)] = sig.values
        return out

    e = np.eye(n, dtype=np.int64)
    shift = locate(points + e[k])
    coupled = locate(points[front, None] - e + e[k])  # row i, column j: t_i - e_j + e_k
    u_in = grid(vec.u_minus)
    gains = np.vstack([g.T for g in sys.blocks()])
    step = np.hstack([grid(vec.y), u_in])[coupled]
    step = step.reshape(len(step), len(gains)) @ gains
    up = grid(vec.u_plus)[shift]
    up[front] = step[:, sys.dim_x :]
    off = shift == len(points)
    off_up = off.copy()
    off_up[front] = (coupled == len(points)).any(axis=1)
    out = TruncatedLPVector(
        box,
        LatticeSignal.from_arrays(n, sys.dim_out, points[plus], up[plus]),
        LatticeSignal.from_arrays(n, sys.dim_x, points[front], step[:, : sys.dim_x]),
        LatticeSignal.from_arrays(n, sys.dim_in, points[minus], u_in[shift][minus]),
    )
    masks = (plus & off_up, front & off_up, minus & off)
    return out, LPMask(*(frozenset(map(tuple, points[m].tolist())) for m in masks))


def apply_adjoint(
    sys: MultiLSDS, k: int, vec: TruncatedLPVector
) -> tuple[TruncatedLPVector, LPMask]:
    """Adjoint of the direction-k generator: ``gamma W_k(conj sys) gamma``.

    The reflection `gamma_map` identifies the conjugate system's scattering
    space with this one, so the adjoint is the conjugate system's generator
    seen through it, with the read mask reflected the same way.
    """
    _check_dims(sys, vec)
    out, mask = apply_generator(conjugate(sys), k, gamma_map(vec))
    flipped = (mask.u_minus, mask.y, mask.u_plus)
    return gamma_map(out), LPMask(*(frozenset(tuple(-c for c in t) for t in m) for m in flipped))


def gamma_map(vec: TruncatedLPVector) -> TruncatedLPVector:
    """Reflect a vector through the origin, swapping incoming and outgoing
    roles.

    This is the unitary identification between the space of a system and
    that of its conjugate; applying it twice restores the vector exactly.
    Negation reverses lexicographic order, so each reflected signal is its
    original's arrays negated and read backwards.  A box past the int64
    lattice range or the values budget is refused, as by `apply_generator`,
    without building its index.
    """
    lo, hi = vec.box.lo, vec.box.hi
    _check_reach(lo, hi, "box")
    total = math.prod(b - a + 1 for a, b in zip(lo, hi))
    width = vec.u_plus.dim + vec.y.dim + vec.u_minus.dim
    what = f"the box spans {_quote(total)} lattice points of {width} values each"
    _require_within(what, total * width, budget="values")

    def flip(sig: LatticeSignal) -> LatticeSignal:
        return LatticeSignal.from_arrays(sig.n, sig.dim, -sig.points[::-1], sig.values[::-1])

    return TruncatedLPVector(vec.box.negated(), flip(vec.u_minus), flip(vec.y), flip(vec.u_plus))


def _check_trials(sys: MultiLSDS, box: Box, trials: int) -> int:
    """Refuse fewer than one trial, trials past the trials budget, and
    trials whose generator boxes hold more than the values budget together,
    before the first trial; return the trial count as an int."""
    trials = _require_within("trials", trials, low=1)
    _require_within(f"{_quote(trials)} trials", trials, budget="trials")
    width = sys.dim_x + sys.dim_in + sys.dim_out
    values = math.prod(b - a + 1 for a, b in zip(box.lo, box.hi)) * width
    what = f"{_quote(trials)} trials of {_quote(values)} box values"
    _require_within(what, trials * values, budget="values")
    return trials


def _random_interior_vector(sys: MultiLSDS, box: Box, margin: int, rng) -> TruncatedLPVector:
    if any(hi - lo < 2 * margin for lo, hi in zip(box.lo, box.hi)):
        raise DomainError(
            f"box lo={_quote(box.lo)} hi={_quote(box.hi)} is too small: the interior vector keeps {margin} "
            f"layer(s) off every face, so each side must span at least {2 * margin + 1} points"
        )
    points = _box_points(sys, box.shrunk(margin))[0]  # seeds draw front by front
    orders = points.sum(axis=1)

    def gauss(band, dim):
        # a real then an imaginary draw of ``dim`` per point, point by point
        draws = rng.standard_normal((int(band.sum()), 2, dim))
        return LatticeSignal.from_arrays(sys.n, dim, points[band], draws[:, 0] + 1j * draws[:, 1])

    u_plus, y = gauss(orders <= 0, sys.dim_out), gauss(orders == 0, sys.dim_x)
    return TruncatedLPVector(box, u_plus, y, gauss(orders >= 0, sys.dim_in))


def _masked_diff(a: TruncatedLPVector, b: TruncatedLPVector, skip: LPMask) -> float:
    """Norm of ``a - b`` off the skipped points.  Both are generator images
    on one box, so each part has the same points in both."""
    total = 0.0
    for part in ("u_plus", "y", "u_minus"):
        sa, sb, bad = getattr(a, part), getattr(b, part), getattr(skip, part)
        diff = (sa.values - sb.values)[[t not in bad for t in map(tuple, sa.points.tolist())]]
        total += float(np.vdot(diff, diff).real)
    return float(np.sqrt(total))


def commutation_residual(
    sys: MultiLSDS,
    k: int,
    j: int,
    box: Box,
    trials: int = 5,
    seed: int = 0,
) -> float:
    """Largest norm gap between the two orders of applying generators k and
    j, over random interior vectors, compared on jointly clean points.

    For n = 1 the two generators coincide and the residual is vacuously 0.
    Fewer than one trial, or trials past the values budget, raise
    DomainError.
    """
    trials = _check_trials(sys, box, trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        vec = _random_interior_vector(sys, box, 2, rng)
        kj, m1 = apply_generator(sys, j, vec)
        kj, m2 = apply_generator(sys, k, kj)
        jk, m3 = apply_generator(sys, k, vec)
        jk, m4 = apply_generator(sys, j, jk)
        skip = LPMask(
            m1.u_plus | m2.u_plus | m3.u_plus | m4.u_plus,
            m1.y | m2.y | m3.y | m4.y,
            m1.u_minus | m2.u_minus | m3.u_minus | m4.u_minus,
        )
        worst = max(worst, _masked_diff(kj, jk, skip))
    return worst


@dataclass(frozen=True)
class MetricReport:
    """Norm ratios ||W_k h|| / ||h|| per direction over interior vectors."""

    ratios: tuple[tuple[float, float], ...]
    tol: float

    @property
    def contractive(self) -> bool:
        return all(hi <= 1.0 + self.tol for _, hi in self.ratios)

    @property
    def isometric(self) -> bool:
        return all(
            abs(lo - 1.0) <= self.tol and abs(hi - 1.0) <= self.tol
            for lo, hi in self.ratios
        )


def metric_check(
    sys: MultiLSDS,
    box: Box,
    trials: int = 5,
    seed: int = 0,
    tol: float = 1e-9,
) -> MetricReport:
    """Probe the metric behaviour of each generator on interior vectors.

    Interior support (one layer off every face) makes the truncated image
    exact and fully contained in the box, so the ratios are true norm
    ratios of the untruncated generator.  Fewer than one trial, or trials
    past the values budget, raise DomainError.
    """
    trials = _check_trials(sys, box, trials)
    rng = np.random.default_rng(seed)
    ratios = []
    for k in range(sys.n):
        lo, hi = np.inf, -np.inf
        for _ in range(trials):
            vec = _random_interior_vector(sys, box, 1, rng)
            img, _ = apply_generator(sys, k, vec)
            ratio = img.norm() / vec.norm()
            lo = min(lo, ratio)
            hi = max(hi, ratio)
        ratios.append((float(lo), float(hi)))
    return MetricReport(ratios=tuple(ratios), tol=tol)


@dataclass(frozen=True)
class OneParamSystemView:
    """Classical one-parameter system associated with one lattice direction.

    States, inputs, and outputs stack the front values in lexicographic
    point order; cross-direction couplings enter through boundary-losing
    shift matrices on the front.
    """

    direction: int
    front: tuple[tuple[int, ...], ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def associated_one_param(sys: MultiLSDS, k: int, box: Box) -> OneParamSystemView:
    """Assemble the associated classical system for direction ``k`` on the
    zero-order front of ``box``.

    For n = 1 the front is the single origin point and the matrices reduce
    to the system's own members bit for bit.  A view past the values
    budget, ``m**2 (dim_x + dim_out)(dim_x + dim_in)`` values for ``m``
    front points, is refused before it is allocated.
    """
    n = sys.n
    if not 0 <= k < n:
        raise DomainError(f"direction {_quote(k)} outside 0..{n - 1}")
    if box.n != n:
        raise ShapeError(f"box in Z^{box.n}, system in Z^{n}")
    front, _, locate = _window_index(box, 0, sys.dim_x + sys.dim_in + sys.dim_out)
    m = len(front)
    if not m:
        raise DomainError("the box misses the zero-order front entirely")
    values = m * m * (sys.dim_x + sys.dim_out) * (sys.dim_x + sys.dim_in)
    _require_within(f"the view of {m} front points holds {values} values", values, budget="values")
    e = np.eye(n, dtype=np.int64)

    def shift_matrix(j: int) -> np.ndarray:
        # maps the stacked front to itself by t -> t + e_k - e_j; whatever
        # shifts off the front reads the dropped zero column m
        p = np.zeros((m, m + 1))
        p[np.arange(m), locate(front - e[j] + e[k])] = 1.0
        return p[:, :m]

    def assemble(ops: OperatorTuple) -> np.ndarray:
        acc = np.kron(np.eye(m), ops[k])
        for j in range(n):
            if j != k:
                acc = acc + np.kron(shift_matrix(j), ops[j])
        return acc

    return OneParamSystemView(
        direction=k,
        front=tuple(map(tuple, front.tolist())),
        a=assemble(sys.a),
        b=assemble(sys.b),
        c=assemble(sys.c),
        d=assemble(sys.d),
    )
