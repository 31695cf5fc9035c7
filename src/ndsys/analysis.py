"""Dissipativity, conservativity, and structure analysis of the block pencil.

The objects of study are the direction blocks ``G_k`` pairing state and
value spaces and the pencil ``G(z) = sum_k z_k G_k`` restricted to the unit
torus.  A system is dissipative when every torus value of the pencil is a
contraction and conservative when every torus value is unitary; the latter
is equivalent to four families of algebraic identities on the blocks, which
is what `conservativity_check` measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RangeError, _quote, _require_within
from .numerics import orth_basis, spectral_norm
from .pencil import OperatorTuple
from .system import MultiLSDS

__all__ = [
    "TorusScanReport",
    "dissipativity_scan",
    "ConservativityCertificate",
    "conservativity_check",
    "BlockStructure",
    "block_structure",
    "closely_connected_subspace",
]

_GRID_CAP = 100_000
_AXIS_DEFAULT = 32
# bytes of Gram weights, Grams and the screen's working copy per chunk:
# bounds the scan's memory
_CHUNK_BYTES = 2**24
# the scan's screen: the points eigensolved first as the likely maxima, the
# power steps of their guess, and the chunks screened, at least
# _SCREEN_POINTS points of Grams _SCREEN_SIDES on a side
_TOP = 8
_POWER_STEPS = 2
_SCREEN_POINTS = 128
_SCREEN_SIDES = (3, 20)
# the refinement's compass search takes at most this many stencils
_STENCILS = 100
# Every block product an analysis forms stays below this.  With each real
# and imaginary part of a block entry at most M, blocks at most d on a side
# and n directions, a sum of n products G_j^H G_k or G_j G_k^H has parts at
# most 2 n d M^2 (rounding adds a relative n d 2^-53 at most), so a
# Frobenius, hence spectral, norm at most 2 sqrt(2) n d^2 M^2 < 4 n d^2 M^2.
# The scan's Gram at a torus point sums the n^2 products G_j G_k^H (or
# G_k^H G_j), each entry of modulus at most 2 d M^2, with weights of modulus
# 1, so each of its partial sums has entries of modulus at most
# 2 n^2 d M^2 <= n _PRODUCT_CAP / (2 d), finite below 2^25 directions (a
# system with more holds more than 2^25 blocks); the eigensolver scales a
# Gram of large norm down itself.
_PRODUCT_CAP = 2.0**1000


@dataclass(frozen=True)
class TorusScanReport:
    """Outcome of a torus scan of the pencil norm.

    This is a semi-decision: ``dissipative`` False comes with a certifying
    witness (a torus point where the norm exceeds 1 + tol), while True only
    says the sampled and refined points stayed contractive.  ``samples``
    counts the ``P^n`` torus grid scanned; the norm is computed at its
    ``P^(n-1)`` points with ``z_1 = 1``, one per diagonal orbit, and the
    refinement moves only ``z_2..z_n``, so every witness has ``z_1 = 1``.
    ``refined`` says the compass search ran, possibly one stencil or, at
    n = 1, none.  ``rounding_bound`` is the bound ``e`` on the rounding
    of a computed norm that can hold the maximum (see
    `dissipativity_scan`): where ``|margin|`` is within it, the sign of
    the margin is rounding.
    """

    max_norm: float
    witness: tuple[complex, ...]
    samples: int
    refined: bool
    tol: float
    rounding_bound: float

    @property
    def dissipative(self) -> bool:
        return self.max_norm <= 1.0 + self.tol

    @property
    def margin(self) -> float:
        """Observed distance to the contractivity boundary (can be negative)."""
        return 1.0 - self.max_norm


def _axis_size(n: int, samples: int) -> int:
    """The largest ``P`` with ``P^n <= samples``.  For any budget below
    ``2^53`` the float root is off the real one by far less than one half,
    so it rounds to ``P`` or ``P + 1``."""
    per_axis = round(samples ** (1.0 / n))
    return per_axis - 1 if per_axis**n > samples else per_axis


def _representatives(n: int, samples: int | None) -> tuple[int, np.ndarray]:
    """The axis size ``P`` of the largest ``P^n`` torus grid within the
    budget, and the ``(P^(n-1), n)`` points of its diagonal-orbit
    representatives, the grid points with ``j_1 = 0``: orbit ``o`` is row
    ``o`` and flat grid index ``o``."""
    if samples is None:
        samples = min(_AXIS_DEFAULT**n, _GRID_CAP)
    _require_within("sample budget", samples, low=1)
    _require_within(f"sample budget {_quote(samples)}", samples, budget="values")
    per_axis = _axis_size(n, samples)
    # real phase arithmetic: numpy's vectorised complex division rounds
    # differently, and the grid must not move.  Every representative has
    # z_1 = 1, so an n = 1 scan takes the axis at j = 0 alone
    axis = np.exp(1j * (2 * np.pi * np.arange(per_axis if n > 1 else 1) / per_axis))
    return per_axis, axis[np.indices((1,) + (per_axis,) * (n - 1)).reshape(n, -1).T]


def _require_bounded(blocks: OperatorTuple) -> None:
    """Raise RangeError, before any product is formed, when block entries
    are large enough that a block product or its norm could overflow: every
    part must stay within sqrt(_PRODUCT_CAP / (4 n d^2))."""
    top = float(np.abs(np.array(blocks.mats).view(float)).max(initial=0.0))
    size = max(blocks.rows, blocks.cols, 1)
    limit = math.sqrt(_PRODUCT_CAP / (4 * blocks.n * size * size))
    if top > limit:
        raise RangeError(
            f"a block entry part of {top:.6g} exceeds {limit:.6g}, the size that keeps "
            "every block product finite"
        )


def _rounding_bound(blocks: OperatorTuple) -> float:
    """``e = (n (n^2 + k + 6) + 2 k + 64) m u (1 + sum_k ||G_k||)``, the
    rounding bound of a computed norm that can hold the maximum, which
    `dissipativity_scan` derives: ``u = 2^-53`` and ``k >= m`` the longer
    and the shorter side of a block; 0.0 for a pencil with an empty side,
    whose every norm is 0 exactly."""
    n = blocks.n
    longer, shorter = max(blocks.rows, blocks.cols), min(blocks.rows, blocks.cols)
    if shorter == 0:
        return 0.0
    total = float(np.linalg.svd(np.array(blocks.mats), compute_uv=False)[:, 0].sum())
    return (n * (n * n + longer + 6) + 2 * longer + 64) * shorter * 2.0**-53 * (1.0 + total)


def _products(blocks: OperatorTuple) -> np.ndarray:
    """The ``n^2`` block products of the pencil's smaller side, flattened to
    an ``(n^2, m^2)`` array: row ``j n + k`` is ``G_j G_k^H`` when a block
    has at most as many rows as columns and ``G_k^H G_j`` otherwise, so
    that the Gram of the pencil value at ``z`` is the sum of the rows
    weighted by ``z_j conj(z_k)`` (see `_grams`)."""
    mats = np.array(blocks.mats)
    adjoints = mats.conj().swapaxes(1, 2)
    if blocks.rows <= blocks.cols:
        products = mats[:, None] @ adjoints[None]
    else:
        products = adjoints[None] @ mats[:, None]
    return products.reshape(blocks.n**2, -1)


def _grams(points: np.ndarray, products: np.ndarray) -> np.ndarray:
    """The Gram on the smaller side of the pencil value at each of the
    ``(S, n)`` points, ``G G^H = sum_jk z_j conj(z_k) G_j G_k^H`` (or
    ``G^H G``), as one product of the ``(S, n^2)`` weights with the
    `_products` rows.  numpy hands a one-row product to gemv, which rounds
    apart from the gemm of a larger stack, so a lone point is multiplied
    as a stack of two: a point's Gram does not depend on its stack."""
    count = len(points)
    weights = (points[:, :, None] * points[:, None, :].conj()).reshape(count, -1)
    if count == 1:
        weights = np.repeat(weights, 2, axis=0)
    side = math.isqrt(products.shape[1])
    return (weights @ products)[:count].reshape(count, side, side)


def _norms(gram: np.ndarray) -> np.ndarray:
    """The root of the largest eigenvalue of each ``(S, m, m)`` Gram, one
    stacked Hermitian eigensolve; rounding can leave that eigenvalue a
    little below 0, which reads as norm 0, and an empty Gram has norm 0.
    LAPACK decomposes each matrix alone, so a norm does not depend on the
    other matrices of the stack."""
    eig = np.linalg.eigvalsh(gram)
    return np.sqrt(np.maximum(eig[:, -1], 0.0)) if eig.shape[1] else np.zeros(len(eig))


def _quotients(work: np.ndarray) -> np.ndarray:
    """A guess at the largest eigenvalue of each of the ``(m, m, S)``
    Hermitian matrices: the Rayleigh quotient after ``_POWER_STEPS`` power
    steps from the column at the largest diagonal entry.  Each vector is
    scaled to a largest part of 1 before it is multiplied, so no product
    leaves the range of the matrices; a zero matrix reads 0.  ``einsum``
    forms each product without a temporary the size of the stack."""
    m, _, count = work.shape
    diagonal = work[np.arange(m), np.arange(m)].real
    w = work[:, diagonal.argmax(axis=0), np.arange(count)]
    for _ in range(_POWER_STEPS + 1):
        top = np.abs(w).max(axis=0)
        v = w / np.where(top > 0, top, 1.0)
        w = np.einsum("ijs,js->is", work, v)
    return (w * v.conj()).sum(axis=0).real / np.maximum((np.abs(v) ** 2).sum(axis=0), 1.0)


def _definite(work: np.ndarray) -> np.ndarray:
    """Which of the ``(m, m, S)`` Hermitian matrices, read by their lower
    triangles as the eigensolver reads them, have every pivot positive in
    ``L D L^H`` without pivoting, computed in the lower triangles in place,
    one column at a time.  The pivot update subtracts ``|l|^2 d >= 0`` in
    floating point too, so a pivot never rises above its diagonal entry: a
    matrix that fails can overflow or divide by 0 (not reported), but its
    later pivots stay not positive."""
    definite = np.ones(work.shape[2], dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(len(work)):
            pivot = work[j, j].real
            definite &= pivot > 0
            scaled = work[j + 1 :, j] / pivot
            for k in range(j + 1, len(work)):
                work[k:, k] -= scaled[k - j - 1 :] * work[k, j].conj()
    return definite


def _screened_norms(gram: np.ndarray, level: float, bound: float) -> np.ndarray:
    """The norms of the ``(S, m, m)`` Grams that can hold the first maximum,
    and -1.0 at every point shown to lie below one computed norm: that of
    the ``_TOP`` points of largest `_quotients`, or ``level``, a computed
    norm from an earlier chunk.  With ``M`` the largest of those, a point
    whose ``gamma^2 I - H`` has positive pivots at ``gamma = M - bound``
    has a computed norm below ``M`` (see `dissipativity_scan`)."""
    # each diagonal entry is a Rayleigh quotient, at most the largest
    # eigenvalue: where every point's is within the margin of the largest,
    # as on a conservative pencil, the chunk is flat and eigensolved whole
    diagonal = np.maximum.reduce([gram[:, j, j].real for j in range(gram.shape[1])])
    low = max(math.sqrt(diagonal.max()) - bound, 0.0)
    if diagonal.min() >= low * low:
        return _norms(gram)
    work = np.ascontiguousarray(gram.transpose(1, 2, 0))
    top = np.argpartition(_quotients(work), -_TOP)[-_TOP:]
    norms = np.full(len(gram), -1.0)
    norms[top] = _norms(gram[top])
    gamma = max(level, float(norms[top].max())) - bound
    rest = np.ones(len(gram), dtype=bool)
    rest[top] = False
    if gamma > 0:
        on_diagonal = np.arange(len(work))
        np.negative(work, out=work)
        work[on_diagonal, on_diagonal] += gamma * gamma
        rest &= ~_definite(work)
    norms[rest] = _norms(gram[rest])
    return norms


def _scan_maximum(points: np.ndarray, products: np.ndarray, bound: float) -> tuple[float, int]:
    """The first maximum of the pencil norm over the ``(S, n)`` points and
    its index, one chunk at a time: as many points as have their ``n^2``
    Gram weights, Grams and a working copy of the Grams within
    ``_CHUNK_BYTES``, and at least one.  The largest singular value of a
    pencil value is the root of the largest eigenvalue of its `_grams`
    Gram, read from the `_products` table ``products``.  A chunk of at
    least ``_SCREEN_POINTS`` Grams ``_SCREEN_SIDES`` on a side, where
    screening was measured to cost less, eigensolves only the points
    `_screened_norms` keeps; ``bound`` is `_rounding_bound`."""
    side = math.isqrt(products.shape[1])
    per_point = 16 * (len(products) + 2 * side**2)
    chunk = max(1, _CHUNK_BYTES // per_point)
    screens = _SCREEN_SIDES[0] <= side <= _SCREEN_SIDES[1]
    best, at = -1.0, 0
    for start in range(0, len(points), chunk):
        gram = _grams(points[start : start + chunk], products)
        if screens and len(gram) >= _SCREEN_POINTS:
            norms = _screened_norms(gram, best, bound)
        else:
            norms = _norms(gram)
        here = int(np.argmax(norms))
        if norms[here] > best:
            best, at = float(norms[here]), start + here
    return best, at


def dissipativity_scan(
    sys: MultiLSDS,
    samples: int | None = None,
    refine: bool = True,
    tol: float = 1e-9,
) -> TorusScanReport:
    """Scan the torus for the largest pencil norm.

    Parameters
    ----------
    samples : int, optional
        Total budget, from 1 to 2^24; the scan takes the largest ``P^n``
        tensor grid within it, so a perfect n-th power is scanned whole and
        any other budget rounds down.  Defaults to 32^n capped at 1e5.
    refine : bool
        Polish the best grid point by a compass search on the scan's own
        norms, at most ``_STENCILS = 100`` stencils (see below).

    The pencil is linear, ``G(w z) = w G(z)`` for ``|w| = 1``, so the norm
    is constant on each diagonal orbit ``{w z : |w| = 1}`` of the grid.  It
    is computed once per orbit, at the ``P^(n-1)`` representatives with
    ``z_1 = 1`` (the grid points with ``j_1 = 0``), and the first maximum is
    kept: ties resolve to the lowest representative, which is also the
    lowest flat grid index ``sum_k j_k P^(n-k)`` among them.  ``samples``
    reports ``P^n``, the grid the representatives stand for, and the grid
    witness has ``z_1 = 1``; refinement starts from it.

    The refinement is a compass search (Kolda, Lewis and Torczon,
    Optimization by direct search, SIAM Review 45, 2003) on the same
    norms: ``z_1`` stays 1 and each step takes the norms of the
    ``{-1, 0, 1}^(n-1)`` stencil of step ``h`` around the current phases
    of ``z_2..z_n``, centre first, from ``h = pi / P``.  It moves to the
    stencil's first maximum where that norm beats the best so far, and
    halves ``h`` otherwise, so the grid maximum and witness stand unless a
    stencil point beats them, and the reported maximum is a computed norm
    at the witness.  It stops when the stencil's norms lie within ``e`` of
    each other, where their order is rounding: after one stencil on a
    conservative pencil or an empty side, and an n = 1 scan runs none.

    A computed norm is the root of the largest eigenvalue of the Gram on
    the smaller side of the pencil value.  The Gram is quadratic in ``z``,
    ``G G^H = sum_jk z_j conj(z_k) G_j G_k^H`` (and ``G^H G`` the same
    with ``G_k^H G_j``), so the scan forms the ``n^2`` block products once
    (`_products`) and the Grams of a chunk or a stencil as one product of
    their weights ``z_j conj(z_k)`` with them (`_grams`).  Take
    ``u = 2^-53``, ``S = sum_k ||G_k||``, and ``k >= m`` the longer and the
    shorter side of a block.  The axis phases are a few ulp off
    ``2 pi j / P``, which moves ``G`` by at most about ``20 u S`` in norm.
    Each block product is a length-``k`` inner product per entry, off by
    about ``1.5 (k + 2) u |G_j| |G_k|^H``, each weight by about ``3 u``, and
    a Gram entry, a length-``n^2`` sum of weighted products, adds
    ``1.5 (n^2 + 2) u sum_jk |G_j| |G_k|^H``.  That sum is
    ``(sum_j |G_j|)(sum_k |G_k|)^H`` and ``|| |G_j| || <= sqrt(m) ||G_j||``,
    so the computed Gram is off by about ``A = 1.5 (n^2 + k + 6) m u S^2``
    in norm whatever the norm ``s`` at the point: the error is absolute,
    where a Gram formed from the pencil value is off relative to ``s^2``.
    The backward-stable ``eigvalsh`` adds ``c m u s^2`` with a modest
    ``c``, and the root divides a change of the square by the sum of the
    two norms, about ``2 s``, so a computed norm is off by about
    ``A / (2 s) + c m u s / 2 + 20 u S``.

    Every point that can hold the maximum has ``s >= S / n``.  Each
    ``G_k`` is the mean of ``conj(z_k) G(z)`` over a grid of ``P >= 2``,
    whose roots of unity sum to 0, so the grid's maximum is at least
    ``max_k ||G_k|| >= S / n``; a refined scan's maximum is at least its
    first stencil's, which at ``P = 1`` holds the ``P = 2``
    representatives.  There a computed norm is off by at most about
    ``0.75 n (n^2 + k + 6) m u S + (c / 2 + 20) m u S``, within
    ``e = (n (n^2 + k + 6) + 2 k + 64) m u (1 + S)`` for any ``c`` up to
    ``4 k + 88``, and so is the largest singular value of an SVD of the
    same value.  At a point of smaller norm ``|computed^2 - s^2|`` stays
    within ``2 e S / n``; of the maxima only that of an unrefined scan at
    ``P = 1``, a budget below ``2^n``, can lie there, at its one
    representative ``(1, ..., 1)``.  The bound grows as ``d^2`` for blocks
    ``d`` on a side and as ``n^3``: about ``9.3e-14 (1 + S)`` for the
    6 x 6 blocks of an n = 3 pencil, ``6.8e-12 (1 + S)`` at d = 100.  The
    maximum over the representatives lies within ``2 e`` of the maximum of
    the norms an SVD computes at every grid point.  The report states
    ``e`` as ``rounding_bound``.

    Most representatives cannot hold the maximum, and a chunk of at least
    ``_SCREEN_POINTS = 128`` Grams 3 to 20 on a side eigensolves only those
    that can.  Its ``_TOP = 8`` points of largest Rayleigh quotient, after
    two power steps from the column at the largest diagonal entry, are
    eigensolved first; ``M``, the largest norm among them and the earlier
    chunks, is the computed norm of a kept point.  One stacked ``L D L^H``
    without pivoting of ``gamma^2 I - H`` at ``gamma = M - e`` then runs
    over every Gram ``H`` of the chunk, reading its lower triangle as
    ``eigvalsh`` does; a point whose pivots are all positive is excluded,
    and the rest are eigensolved.  The margin ``e`` covers both errors on
    the same computed Gram.  Positive pivots make ``L D L^H``, which is
    ``gamma^2 I - H + F`` with ``|F| <= g |L| D |L|^H`` and ``g`` about
    ``2 (m + 2) u`` in complex arithmetic (the backward error of Cholesky,
    Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5),
    positive definite.  ``|L| D |L|^H`` is positive semidefinite with the
    trace of ``L D L^H``, at most ``m gamma^2 / (1 - g)``, so
    ``||F|| <= 2 m (m + 2) u gamma^2`` and the largest eigenvalue of ``H``
    is below ``gamma^2 (1 + 2 m (m + 2) u)``.  ``eigvalsh`` adds at most
    ``c m u ||H||``, the ``c`` above, and the root and the level's own
    rounding a few ``u``, so the excluded point's computed norm is at most
    ``gamma + gamma (m + 5 + c / 2) m u``, below ``gamma + e = M`` since
    ``gamma < 1 + S`` and ``k >= m``, for any ``c`` below ``2 m + 118``.
    The test and the eigensolve read the same computed Gram, so how the
    Gram was formed does not enter this argument.
    A kept point holds ``M``, so no excluded point holds the maximum or
    ties it, and LAPACK decomposes each Gram alone, whatever stack holds
    it: the maximum and its index, and so every report value, are those
    of an eigensolve of every representative, bit for bit.  Where every
    Gram's largest diagonal entry lies within the margin of the largest
    (in norm), as on a conservative pencil whose norm is 1 everywhere, no
    point could be excluded and the chunk is eigensolved whole.  The test
    costs a fixed numpy overhead per column and the eigensolves it saves
    grow with the points: screening a chunk cost less from about 110
    points of 3 x 3 Grams, 95 of 4 x 4 and 70 to 90 from 6 x 6 to 20 x 20,
    but of 2 x 2 Grams only from about 700, and from 24 x 24 on it about
    broke even (one core of a shared 2-vCPU Linux container, OpenBLAS on
    one thread).
    """
    blocks = sys.blocks()
    _require_bounded(blocks)
    per_axis, reps = _representatives(sys.n, samples)
    bound = _rounding_bound(blocks)
    products = _products(blocks)
    best, at = _scan_maximum(reps, products, bound)
    witness = tuple(reps[at])

    if refine:
        best, witness = _refine(products, witness, best, per_axis, bound)

    return TorusScanReport(
        max_norm=best,
        witness=witness,
        samples=per_axis**sys.n,
        refined=refine,
        tol=tol,
        rounding_bound=bound,
    )


def _refine(
    products: np.ndarray, witness: tuple, best: float, per_axis: int, bound: float
) -> tuple[float, tuple]:
    """Polish the grid maximum ``best`` at ``witness``, on a grid of
    ``per_axis`` points an axis, by a compass search over the phases of
    ``z_2..z_n`` with ``z_1 = 1`` held, until a stencil's norms lie within
    ``bound``, `_rounding_bound` (see `dissipativity_scan`); ``products``
    is the `_products` table the stencils' Grams are read from."""
    n = len(witness)
    offsets = np.array(list(itertools.product((0.0, -1.0, 1.0), repeat=n - 1)))
    phases = np.angle(np.array(witness[1:]))
    step = math.pi / per_axis
    for _ in range(_STENCILS if n > 1 else 0):
        trial = phases + step * offsets
        points = np.hstack([np.ones((len(trial), 1)), np.exp(1j * trial)])
        norms = _norms(_grams(points, products))
        top = int(np.argmax(norms))
        if norms[top] > best:
            best, phases, witness = float(norms[top]), trial[top], tuple(points[top])
        else:
            step /= 2
        if norms[top] - norms.min() <= bound:
            break
    return best, witness


@dataclass(frozen=True)
class ConservativityCertificate:
    """Residuals of the four block identities characterizing unitarity of
    the pencil on the whole torus.

    iso / iso_cross cover the adjoint-times-block family (pencil isometric),
    coiso / coiso_cross the block-times-adjoint family (pencil coisometric).
    Cross entries are maxima over distinct direction pairs and vanish
    vacuously for n = 1.
    """

    residuals: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.residuals.values()) <= self.tol

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def conservativity_check(sys: MultiLSDS, tol: float = 1e-9) -> ConservativityCertificate:
    """Measure how far the block family is from conservative."""
    blocks = sys.blocks()
    _require_bounded(blocks)
    rows, cols = blocks.rows, blocks.cols
    gram = sum(g.conj().T @ g for g in blocks) - np.eye(cols)
    cogram = sum(g @ g.conj().T for g in blocks) - np.eye(rows)
    cross = 0.0
    cocross = 0.0
    # ||G_j^H G_k|| = ||G_k^H G_j||: one product per unordered pair
    for k in range(blocks.n):
        for j in range(k + 1, blocks.n):
            cross = max(cross, spectral_norm(blocks[k].conj().T @ blocks[j]))
            cocross = max(cocross, spectral_norm(blocks[k] @ blocks[j].conj().T))
    residuals = {
        "iso": spectral_norm(gram),
        "iso_cross": cross,
        "coiso": spectral_norm(cogram),
        "coiso_cross": cocross,
    }
    return ConservativityCertificate(residuals=residuals, tol=tol)


@dataclass(frozen=True)
class BlockStructure:
    """Direction-wise splitting of the value-plus-state spaces.

    For a conservative family each block is a partial isometry; its initial
    and final subspaces (columns of ``bases_in[k]`` / ``bases_out[k]``)
    split the two sides orthogonally, and the summed pencil becomes block
    diagonal with unitary diagonal blocks ``diag_blocks[k]``.
    """

    bases_in: tuple[np.ndarray, ...]
    bases_out: tuple[np.ndarray, ...]
    diag_blocks: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    orthogonality_residual: float
    completeness_defect: int
    coupling_residual: float
    unitarity_residual: float


def block_structure(sys: MultiLSDS, tol: float = 1e-9) -> BlockStructure:
    """Split the spaces along the partial-isometry ranges of the blocks.

    Requires a system passing `conservativity_check` at ``tol``; raises
    PreconditionError otherwise.
    """
    cert = conservativity_check(sys, tol)
    if not cert.passed:
        raise PreconditionError(
            f"block structure needs a conservative system; residual "
            f"{cert.max_residual:.3e} exceeds {tol:g}"
        )
    blocks = sys.blocks()
    n = blocks.n
    # Conservativity forces singular values of each block into {0, 1}, so
    # the rank cut sits at 0.5 with no ambiguity.
    bases_in = tuple(orth_basis(g.conj().T, rank_tol=0.5) for g in blocks)
    bases_out = tuple(orth_basis(g, rank_tol=0.5) for g in blocks)
    dims = tuple(q.shape[1] for q in bases_in)

    ortho = 0.0
    for k in range(n):
        for j in range(k + 1, n):
            ortho = max(ortho, spectral_norm(bases_in[k].conj().T @ bases_in[j]))
            ortho = max(ortho, spectral_norm(bases_out[k].conj().T @ bases_out[j]))

    defect = blocks.cols - sum(dims)

    coupling = 0.0
    diag = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                piece = bases_out[i].conj().T @ blocks[k] @ bases_in[j]
                if i == k and j == k:
                    continue
                coupling = max(coupling, spectral_norm(piece))
        diag.append(bases_out[k].conj().T @ blocks[k] @ bases_in[k])

    unit = 0.0
    for block in diag:
        if block.size:
            unit = max(
                unit,
                spectral_norm(block.conj().T @ block - np.eye(block.shape[1])),
            )
    return BlockStructure(
        bases_in=bases_in,
        bases_out=tuple(bases_out),
        diag_blocks=tuple(diag),
        dims=dims,
        orthogonality_residual=ortho,
        completeness_defect=defect,
        coupling_residual=coupling,
        unitarity_residual=unit,
    )


def closely_connected_subspace(sys: MultiLSDS, rank_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the smallest subspace containing the ranges of
    all input maps and adjoint output maps that is invariant under every
    state map and its adjoint.

    Saturation sweeps apply the state members and then their adjoints in
    fixed direction order, so the basis is deterministic.
    """
    seed = np.hstack(
        [sys.b[k] for k in range(sys.n)]
        + [sys.c[k].conj().T for k in range(sys.n)]
    )
    q = orth_basis(seed, rank_tol)
    for _ in range(sys.dim_x + 1):
        if q.shape[1] in (0, sys.dim_x):
            break
        grown = [q]
        for k in range(sys.n):
            grown.append(sys.a[k] @ q)
        for k in range(sys.n):
            grown.append(sys.a[k].conj().T @ q)
        q_next = orth_basis(np.hstack(grown), rank_tol)
        if q_next.shape[1] == q.shape[1]:
            break
        q = q_next
    return q

