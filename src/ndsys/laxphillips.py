"""Truncated scattering vectors and the translation generators acting on them.

The ambient space splits into an outgoing part (output values on fronts of
order <= 0), a present part (state values on the zero front), and an
incoming part (input values on fronts of order >= 0).  One generator per
lattice direction translates a vector one step along that direction,
consuming incoming data through the system matrices; each adjoint is the
conjugate system's generator seen through the reflection `gamma_map`.

Vectors are truncated to a box.  A read outside the box yields zero and
masks the written point, mirroring the window semantics of simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .lattice import Box, LatticeSignal, _row_locator, add, sub, unit
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
    sys.require_wellformed()
    if vec.box.n != sys.n:
        raise ShapeError(f"vector box in Z^{vec.box.n}, system in Z^{sys.n}")
    for name, have, space, want in (
        ("u_plus", vec.u_plus.dim, "output", sys.dim_out),
        ("y", vec.y.dim, "state", sys.dim_x),
        ("u_minus", vec.u_minus.dim, "input", sys.dim_in),
    ):
        if have != want:
            raise ShapeError(f"{name} dimension {have} != {space} dimension {want}")


def _box_points(box: Box) -> np.ndarray:
    """Every point of the box as an (N, n) int64 array, lexicographically."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(box.lo, box.hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.n)


def apply_generator(
    sys: MultiLSDS, k: int, vec: TruncatedLPVector
) -> tuple[TruncatedLPVector, LPMask]:
    """One translation step along direction ``k``.

    Outgoing values shift toward the zero front, the zero front consumes
    the adjacent state and incoming data through the system matrices, and
    incoming values shift away.  Returns the new vector and the off-box
    read mask.

    Each band is one gather from dense box arrays: a point reads row
    ``t + e_k``, a zero-front point rows ``t - e_j + e_k``, and an off-box
    read hits one shared zero row.
    """
    _check_dims(sys, vec)
    n = sys.n
    if not 0 <= k < n:
        raise DomainError(f"direction {k} outside 0..{n - 1}")
    box = vec.box
    points = _box_points(box)
    orders = points.sum(axis=1)
    front, plus, minus = orders == 0, orders <= 0, orders >= 0
    locate = _row_locator(points)

    def rows(p):  # each point's row in the box arrays, or the zero row after them
        inside = box.holds(p)
        out = np.full(len(p), len(points))
        out[inside] = locate(p[inside])
        return out, ~inside

    def grid(sig):  # the signal's values on the box rows, then the zero row
        out = np.zeros((len(points) + 1, sig.dim), dtype=complex)
        out[locate(sig.points)] = sig.values
        return out

    e = np.eye(n, dtype=np.int64)
    shift, off = rows(points + e[k])
    coupled, dirty = zip(*(rows(points[front] - e[j] + e[k]) for j in range(n)))
    u_in = grid(vec.u_minus)
    gains = np.vstack([g.T for g in sys.blocks()])
    step = np.hstack([grid(vec.y), u_in])[np.stack(coupled, axis=1)]
    step = step.reshape(len(step), len(gains)) @ gains
    up = grid(vec.u_plus)[shift]
    up[front] = step[:, sys.dim_x :]
    off_up = off.copy()
    off_up[front] = np.any(dirty, axis=0)
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
    original's arrays negated and read backwards.
    """

    def flip(sig: LatticeSignal) -> LatticeSignal:
        return LatticeSignal.from_arrays(sig.n, sig.dim, -sig.points[::-1], sig.values[::-1])

    return TruncatedLPVector(vec.box.negated(), flip(vec.u_minus), flip(vec.y), flip(vec.u_plus))


def _random_interior_vector(sys: MultiLSDS, box: Box, margin: int, rng) -> TruncatedLPVector:
    points = _box_points(box.shrunk(margin))
    points = points[np.argsort(points.sum(axis=1), kind="stable")]  # seeds draw front by front
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
    Fewer than one trial raises DomainError.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
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
    ratios of the untruncated generator.  Fewer than one trial raises DomainError.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
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
    to the system's own members bit for bit.
    """
    sys.require_wellformed()
    if not 0 <= k < sys.n:
        raise DomainError(f"direction {k} outside 0..{sys.n - 1}")
    if box.n != sys.n:
        raise ShapeError(f"box in Z^{box.n}, system in Z^{sys.n}")
    front = box.front(0)
    if not front:
        raise DomainError("the box misses the zero-order front entirely")
    pos = {t: i for i, t in enumerate(front)}
    m = len(front)
    n = sys.n

    def shift_matrix(j: int) -> np.ndarray:
        # maps the stacked front to itself by t -> t + e_k - e_j, losing
        # whatever shifts off the front
        p = np.zeros((m, m))
        for t, i in pos.items():
            src = add(sub(t, unit(n, j)), unit(n, k))
            if src in pos:
                p[i, pos[src]] = 1.0
        return p

    def assemble(ops: OperatorTuple) -> np.ndarray:
        acc = np.kron(np.eye(m), ops[k])
        for j in range(n):
            if j != k:
                acc = acc + np.kron(shift_matrix(j), ops[j])
        return acc

    return OneParamSystemView(
        direction=k,
        front=tuple(front),
        a=assemble(sys.a),
        b=assemble(sys.b),
        c=assemble(sys.c),
        d=assemble(sys.d),
    )
