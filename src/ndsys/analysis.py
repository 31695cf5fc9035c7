"""Dissipativity, conservativity, and structure analysis of the block pencil.

The objects of study are the direction blocks ``G_k`` pairing state and
value spaces and the pencil ``G(z) = sum_k z_k G_k`` restricted to the unit
torus.  A system is dissipative when every torus value of the pencil is a
contraction and conservative when every torus value is unitary; the latter
is equivalent to four families of algebraic identities on the blocks, which
is what `conservativity_check` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RangeError, _quote, _require_within
from .numerics import orth_basis, spectral_norm
from .pencil import OperatorTuple, eval_pencil
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
# points per stacked eigensolve: with the representatives, bounds the scan's memory
_CHUNK = 4096
# Every block product an analysis forms stays below this.  With each real
# and imaginary part of a block entry at most M, blocks at most d on a side
# and n directions, a sum of n products G_j^H G_k or G_j G_k^H has parts at
# most 2 n d M^2 (rounding adds a relative n d 2^-53 at most), so a
# Frobenius, hence spectral, norm at most 2 sqrt(2) n d^2 M^2 < 4 n d^2 M^2.
# A torus pencil value, n unit multiples of blocks, has parts at most 2 n M,
# so the Gram of its smaller side, sums of d products of two such entries,
# has parts at most 8 n^2 d M^2 <= 2 n _PRODUCT_CAP / d, finite below 2^23
# directions (a system with more holds more than 2^23 blocks); the
# eigensolver scales a Gram of large norm down itself.
_PRODUCT_CAP = 2.0**1000


@dataclass(frozen=True)
class TorusScanReport:
    """Outcome of a torus scan of the pencil norm.

    This is a semi-decision: ``dissipative`` False comes with a certifying
    witness (a torus point where the norm exceeds 1 + tol), while True only
    says the sampled and refined points stayed contractive.  ``samples``
    counts the ``P^n`` torus grid scanned; the norm is computed at its
    ``P^(n-1)`` points with ``z_1 = 1``, one per diagonal orbit, so an
    unrefined witness has ``z_1 = 1``.  ``refined`` says the ascent ran,
    possibly with no trial step: it stops at once where the gradient is
    only rounding.
    """

    max_norm: float
    witness: tuple[complex, ...]
    samples: int
    refined: bool
    tol: float

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


def _sigma_max(points: np.ndarray, blocks: OperatorTuple) -> np.ndarray:
    """The pencil norm at the ``(S, n)`` points, one stacked Hermitian
    eigensolve per ``_CHUNK`` of them.  The largest singular value of a
    pencil value ``G`` is the root of the largest eigenvalue of the Gram on
    its smaller side, ``G G^H`` when it has at most as many rows as columns
    and ``G^H G`` otherwise; rounding can leave that eigenvalue a little
    below 0, which reads as norm 0.  A pencil with an empty side has an
    empty Gram and norm 0."""
    parts = []
    for start in range(0, len(points), _CHUNK):
        value = eval_pencil(points[start : start + _CHUNK], blocks)
        adjoint = value.conj().swapaxes(1, 2)
        gram = value @ adjoint if blocks.rows <= blocks.cols else adjoint @ value
        eig = np.linalg.eigvalsh(gram)
        parts.append(np.sqrt(np.maximum(eig[:, -1], 0.0)) if eig.shape[1] else np.zeros(len(eig)))
    return np.concatenate(parts)


def _top_pair(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    u, s, vh = np.linalg.svd(m)
    return float(s[0]), u[:, 0], vh[0].conj()


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
        Polish the best grid point with at most 50 gradient-ascent steps on
        the top singular value, stepping in torus phases; the ascent stops
        where the gradient is only rounding, at once on a conservative or
        n = 1 pencil, and takes no step on an empty pencil value.

    The pencil is linear, ``G(w z) = w G(z)`` for ``|w| = 1``, so the norm
    is constant on each diagonal orbit ``{w z : |w| = 1}`` of the grid.  It
    is computed once per orbit, at the ``P^(n-1)`` representatives with
    ``z_1 = 1`` (the grid points with ``j_1 = 0``), and the first maximum is
    kept: ties resolve to the lowest representative, which is also the
    lowest flat grid index ``sum_k j_k P^(n-k)`` among them.  ``samples``
    reports ``P^n``, the grid the representatives stand for, and the grid
    witness has ``z_1 = 1``; refinement starts from it.

    A computed norm is the root of the largest eigenvalue of the Gram on
    the smaller side of the pencil value, and is off the exact one by
    rounding only.  Take ``u = 2^-53``, ``S = sum_k ||G_k||``, and ``k >= m``
    the longer and the shorter side of a block.  The axis phases are a few
    ulp off ``2 pi j / P`` and the n-term pencil sum rounds each entry, which
    moves the value ``G`` by at most about ``(n + 20) sqrt(m) u S`` in norm.
    Each Gram entry is an inner product of length ``k``, and
    ``|| |G| ||^2 <= m ||G||^2``, so forming the Gram moves it by about
    ``1.5 (k + 2) m u ||G||^2``; the backward-stable ``eigvalsh`` adds
    ``c m u ||G||^2`` with a modest ``c``, and the root halves the relative
    error.  The computed norm therefore lies within
    ``e = (n + 2 k + 64) m u (1 + S)`` of the exact one, and so does the
    largest singular value of an SVD of the same value.  The bound grows as
    ``d^2`` for blocks ``d`` on a side: about ``5.3e-14 (1 + S)`` for the
    6 x 6 blocks of an n = 3 pencil, ``3e-12 (1 + S)`` at d = 100.  The
    maximum over the representatives lies within ``2 e`` of the maximum of
    the norms an SVD computes at every grid point.
    """
    blocks = sys.blocks()
    _require_bounded(blocks)
    per_axis, reps = _representatives(sys.n, samples)
    sigma = _sigma_max(reps, blocks)
    at = int(np.argmax(sigma))
    best, witness = float(sigma[at]), tuple(reps[at])

    if refine:
        best, witness = _refine(blocks, witness, best)

    return TorusScanReport(
        max_norm=best, witness=witness, samples=per_axis**sys.n, refined=refine, tol=tol
    )


def _refine(blocks: OperatorTuple, z0, sigma0, steps: int = 50):
    # ascend sigma_max over torus phases; the gradient comes from the top
    # singular pair, d sigma = Re(u^H (i z_k G_k) v) d phi_k.  A rejected
    # trial sends phi back to best_phi, often the point the last step
    # decomposed, so the pair and the gradient are kept until phi moves, and
    # an accepted trial holds its point and pencil value for the next step.
    # It stops at the first decomposition whose gradient components are all
    # within `flat`: a computed component is off the exact one by rounding
    # only, a small multiple (n, the block size) of u ||G_k||_F, u = 2^-53,
    # from the pencil sum, the backward-stable SVD and the product, and that
    # stays below 1e4 u (1 + sum_k ||G_k||_F) for any block a scan can hold.
    # Where the exact gradient is 0 the exact ascent cannot move either,
    # trial = best_phi + eta * 0.  On a conservative pencil (a unitary value
    # has a skew derivative) and an n = 1 pencil (u^H (i z G) v = i sigma)
    # that is every point.  An empty pencil value has no pair to decompose
    # and is flat too
    phi = np.array([np.angle(z) for z in z0], dtype=float)
    best_phi = phi
    best = sigma0
    eta = 0.1
    mats = np.array(blocks.mats)
    flat = 1e4 * 2.0**-53 * (1.0 + float(np.linalg.norm(mats, axis=(1, 2)).sum()))
    decomposed = held = None  # the phases of the gradient, and of z and value
    for _ in range(steps if mats.size else 0):
        if phi is not decomposed:
            decomposed = phi
            if phi is not held:
                z = np.exp(1j * phi)
                value = eval_pencil(z, blocks)
            sigma, u, v = _top_pair(value)
            if sigma > best:
                best = sigma
                best_phi = phi
            grad = [(u.conj() @ (1j * z[k] * blocks[k] @ v)).real for k in range(blocks.n)]
            if max(map(abs, grad)) <= flat:
                break
            grad = np.array(grad)
        trial = best_phi + eta * grad
        z_trial = np.exp(1j * trial)
        value_trial = eval_pencil(z_trial, blocks)
        if spectral_norm(value_trial) > best:
            phi = held = trial
            z, value = z_trial, value_trial
            eta *= 1.5
        else:
            phi = best_phi
            eta *= 0.5
    return best, tuple(complex(v) for v in np.exp(1j * best_phi))


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
    for k in range(blocks.n):
        for j in range(blocks.n):
            if k == j:
                continue
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
    sys.require_wellformed()
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

