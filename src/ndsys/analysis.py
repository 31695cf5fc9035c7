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

from .errors import DomainError, PreconditionError, RangeError
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
# the largest scan budget taken: the grid is held whole, n complex numbers
# a point, so a larger one is refused before anything is allocated
_SAMPLE_CAP = 2**24
# points per stacked SVD: bounds the scan's working memory
_CHUNK = 4096
# Recheck margin, in units of 1 + sum_k ||G_k||_2.  The pencil is linear,
# so the points z and w z (|w| = 1) of one diagonal orbit have the same norm
# in exact arithmetic.  A computed norm is off by rounding only: the axis
# phases are a few ulp u = 2^-53 off 2 pi j / P, and eval_pencil's n-term
# sum and the backward-stable SVD each add a small multiple (n, the block
# size) of u sum_k ||G_k||.  That error e stays below 1e4 u (1 + sum_k
# ||G_k||) for any block a scan can hold, so two members of one orbit differ
# by at most 2 e, well inside the margin of about 1e6 u.  An orbit holding a
# point that reaches the best representative's norm therefore has its own
# representative within the margin of the best, and is rechecked.
_RECHECK = 1e-10
# Every block product an analysis forms stays below this.  With each real
# and imaginary part of a block entry at most M, blocks at most d on a side
# and n directions, a sum of n products G_j^H G_k or G_j G_k^H has parts at
# most 2 n d M^2 (rounding adds a relative n d 2^-53 at most), so a
# Frobenius, hence spectral, norm at most 2 sqrt(2) n d^2 M^2 < 4 n d^2 M^2.
# A torus pencil value, n unit multiples of blocks, has parts at most 2 n M.
_PRODUCT_CAP = 2.0**1000


@dataclass(frozen=True)
class TorusScanReport:
    """Outcome of a torus scan of the pencil norm.

    This is a semi-decision: ``dissipative`` False comes with a certifying
    witness (a torus point where the norm exceeds 1 + tol), while True only
    says the sampled and refined points stayed contractive.
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


def _torus_grid(n: int, samples: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``P^n`` tensor grid of the torus, ``P = floor(samples^(1/n))`` the
    largest axis whose grid fits the budget: the points as one ``(P^n, n)``
    array, the diagonal orbit of each point, and the number of orbits.

    Orbit ``o`` is represented by point ``o``, so the representatives are
    the first points.  The orbit of index ``j`` is
    ``(j_2 - j_1, ..., j_n - j_1) mod P``, numbered as its ``j_1 = 0``
    member is.
    """
    if samples is None:
        samples = min(_AXIS_DEFAULT**n, _GRID_CAP)
    if samples < 1:
        raise DomainError(f"sample budget must be >= 1, got {samples}")
    if samples > _SAMPLE_CAP:
        raise DomainError(f"sample budget must be <= {_SAMPLE_CAP}, got {samples}")
    per_axis = _axis_size(n, samples)
    # scalar phase arithmetic: numpy's vectorised complex division rounds
    # differently, and the grid must not move
    axis = np.exp([2j * np.pi * j / per_axis for j in range(per_axis)])
    # C order of the index grid is itertools.product order
    idx = np.indices((per_axis,) * n).reshape(n, -1).T
    place = per_axis ** np.arange(n - 2, -1, -1)
    orbit = (idx[:, 1:] - idx[:, :1]) % per_axis @ place
    return axis[idx], orbit, per_axis ** (n - 1)


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
    """The pencil norm at each of the ``(S, n)`` points, one stacked SVD per
    ``_CHUNK`` of them."""
    sigma = np.zeros(len(points))
    if blocks.rows and blocks.cols:
        for start in range(0, len(points), _CHUNK):
            stack = eval_pencil(points[start : start + _CHUNK], blocks)
            sigma[start : start + _CHUNK] = np.linalg.svd(stack, compute_uv=False)[:, 0]
    return sigma


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
        Polish the best grid point with 50 gradient-ascent steps on the
        top singular value, stepping in torus phases.

    The norm is constant on each diagonal orbit ``{w z : |w| = 1}`` of the
    grid, so it is computed at one representative per orbit, then at the
    other members of the orbits whose representative comes within a
    rounding margin of the best one; every point that can be the maximum
    is computed on its own grid value.  The maximum is the first one in
    enumeration order, so ties resolve to the lexicographically smallest
    grid index.
    """
    blocks = sys.blocks()
    _require_bounded(blocks)
    grid, orbit, orbits = _torus_grid(sys.n, samples)

    sigma = np.full(len(grid), -1.0)  # a skipped point stays below the rest
    sigma[:orbits] = _sigma_max(grid[:orbits], blocks)
    margin = _RECHECK * (1.0 + sum(spectral_norm(g) for g in blocks))
    near = sigma[:orbits] >= sigma[:orbits].max() - margin
    rest = orbits + np.flatnonzero(near[orbit[orbits:]])
    sigma[rest] = _sigma_max(grid[rest], blocks)
    i = int(np.argmax(sigma))
    best, witness = float(sigma[i]), tuple(grid[i])

    if refine:
        best, witness = _refine(blocks, witness, best)

    return TorusScanReport(
        max_norm=best, witness=witness, samples=len(grid), refined=refine, tol=tol
    )


def _refine(blocks: OperatorTuple, z0, sigma0, steps: int = 50):
    # ascend sigma_max over torus phases; the gradient comes from the top
    # singular pair, d sigma = Re(u^H (i z_k G_k) v) d phi_k
    phi = np.array([np.angle(z) for z in z0], dtype=float)
    best_phi = phi.copy()
    best = sigma0
    eta = 0.1
    for _ in range(steps):
        z = np.exp(1j * phi)
        sigma, u, v = _top_pair(eval_pencil(z, blocks))
        if sigma > best:
            best = sigma
            best_phi = phi.copy()
        grad = np.array(
            [(u.conj() @ (1j * z[k] * blocks[k] @ v)).real for k in range(blocks.n)]
        )
        step = eta * grad
        trial = best_phi + step
        z_trial = np.exp(1j * trial)
        sigma_trial = spectral_norm(eval_pencil(z_trial, blocks))
        if sigma_trial > best:
            phi = trial
            eta *= 1.5
        else:
            phi = best_phi
            eta *= 0.5
    z_best = np.exp(1j * best_phi)
    return best, tuple(complex(v) for v in z_best)


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

