"""Colligation assembly from decomposed Schur-class data.

Input is a polynomial matrix function theta vanishing at the origin
together with polynomial factors F_1, ..., F_n certifying the decomposition

    I - theta(l)* theta(z) = sum_k (1 - conj(l_k) z_k) F_k(l)* F_k(z)

on the open polydisc.  Stacking the factors yields two vector polynomials
whose Gramians coincide, so the correspondence between them extends to an
isometry; cutting that isometry along the coordinate summands of the
stacked space produces the blocks of a system whose transfer function
reproduces theta.  All spans are sampled on deterministic low-discrepancy
grids and every identity used along the way is re-verified on fresh
points before the result is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .analysis import conservativity_check
from .errors import (
    DomainError,
    PreconditionError,
    RealizationError,
    ShapeError,
)
from .numerics import halton_disc, ordered_completion, orth_basis, spectral_norm
from .pencil import OperatorTuple, eval_pencil
from .system import MultiLSDS
from .transfer import MatrixPolynomial, transfer_eval

__all__ = [
    "AglerData",
    "AglerReport",
    "verify_agler_identity",
    "StackPair",
    "build_stacks",
    "IsometryMatch",
    "gram_matched_isometry",
    "RealizationResult",
    "assemble_colligation",
    "builtin_examples",
    "canonical_fixture",
]

_GRID_START = 200
_GRID_RADIUS = 0.8
_GRID_DOUBLINGS = 6


@dataclass(frozen=True)
class AglerData:
    """Decomposition data: theta, its factors, and the sample grid.

    Shapes are validated at construction; the decomposition identity
    itself is measured by `verify_agler_identity` (and again inside
    `assemble_colligation`), not here, so that defective data can still be
    diagnosed.
    """

    theta: MatrixPolynomial
    factors: tuple[MatrixPolynomial, ...]
    grid: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        n = self.theta.n
        if len(self.factors) != n:
            raise ShapeError(
                f"need one factor per variable: got {len(self.factors)} for n = {n}"
            )
        q = self.theta.shape[1]
        for k, f in enumerate(self.factors):
            if f.n != n:
                raise ShapeError(f"factor {k} has {f.n} variables, theta has {n}")
            if f.shape[1] != q:
                raise ShapeError(
                    f"factor {k} has {f.shape[1]} columns, theta has {q}"
                )
        grid = tuple(tuple(complex(v) for v in z) for z in self.grid)
        for z in grid:
            if len(z) != n:
                raise ShapeError(f"grid point {z} has wrong arity")
        object.__setattr__(self, "grid", grid)

    @property
    def n(self) -> int:
        return self.theta.n

    @property
    def in_dim(self) -> int:
        return self.theta.shape[1]

    @property
    def out_dim(self) -> int:
        return self.theta.shape[0]

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


def _identity_residual(data: AglerData, pts_a, pts_b) -> float:
    """Largest pairwise decomposition residual (Frobenius) between the two
    point lists, assembled from stacked Gramians in one pass."""
    q = data.in_dim
    a, b = len(pts_a), len(pts_b)

    def stacked(points):
        th = np.hstack([data.theta.evaluate(z) for z in points])
        fs = [
            np.hstack([f.evaluate(z) for z in points]) for f in data.factors
        ]
        weights = [
            np.repeat([z[k] for z in points], q) for k in range(data.n)
        ]
        return th, fs, weights

    th_a, fs_a, w_a = stacked(pts_a)
    th_b, fs_b, w_b = stacked(pts_b)
    resid = np.kron(np.ones((a, b)), np.eye(q, dtype=complex))
    resid -= th_a.conj().T @ th_b
    for k in range(data.n):
        gram = fs_a[k].conj().T @ fs_b[k]
        resid -= gram
        resid += (np.conj(w_a[k])[:, None] * gram) * w_b[k][None, :]
    per_pair = np.sqrt(
        np.sum(np.abs(resid.reshape(a, q, b, q)) ** 2, axis=(1, 3))
    )
    return float(per_pair.max()) if per_pair.size else 0.0


@dataclass(frozen=True)
class AglerReport:
    grid_residual: float
    fresh_residual: float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.grid_residual, self.fresh_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def verify_agler_identity(
    data: AglerData,
    fresh_pairs: int = 50,
    seed: int = 0,
    tol: float = 1e-8,
) -> AglerReport:
    """Measure the decomposition residual on all grid pairs plus all pairs
    of random fresh points drawn inside the sampling polydisc."""
    if not data.grid:
        raise DomainError("data carries no sample grid")
    grid_res = _identity_residual(data, data.grid, data.grid)
    rng = np.random.default_rng(seed)
    fresh = [_random_disc_point(rng, data.n) for _ in range(fresh_pairs)]
    fresh_res = _identity_residual(data, fresh, fresh)
    return AglerReport(grid_residual=grid_res, fresh_residual=fresh_res, tol=tol)


def _random_disc_point(rng, n: int, radius: float = _GRID_RADIUS):
    return tuple(
        radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(n)
    )


@dataclass(frozen=True)
class StackPair:
    """The two stacked vector polynomials of the construction.

    ``g`` prepends the variable-weighted factors to a constant identity
    block (height k_dim = sum m_k + q); ``f`` stacks the bare factors over
    theta (height l_dim = sum m_k + p).  Their Gramians agree wherever the
    decomposition identity holds.
    """

    data: AglerData

    def g(self, z) -> np.ndarray:
        parts = [
            z[k] * self.data.factors[k].evaluate(z) for k in range(self.data.n)
        ]
        parts.append(np.eye(self.data.in_dim, dtype=complex))
        return np.vstack(parts)

    def f(self, z) -> np.ndarray:
        parts = [self.data.factors[k].evaluate(z) for k in range(self.data.n)]
        parts.append(self.data.theta.evaluate(z))
        return np.vstack(parts)

    @property
    def k_dim(self) -> int:
        return sum(self.data.factor_dims) + self.data.in_dim

    @property
    def l_dim(self) -> int:
        return sum(self.data.factor_dims) + self.data.out_dim


def build_stacks(data: AglerData) -> StackPair:
    return StackPair(data)


@dataclass(frozen=True)
class IsometryMatch:
    """An isometry between sampled column spans, in basis coordinates.

    ``domain_basis`` spans the sampled g-columns; ``matrix`` maps those
    basis coordinates into the f-side ambient space and has orthonormal
    columns up to ``isometry_residual``.
    """

    domain_basis: np.ndarray
    matrix: np.ndarray
    gram_residual: float
    isometry_residual: float


def _matched_isometry(
    dom_cols: np.ndarray,
    img_cols: np.ndarray,
    rank_tol: float,
    tol: float,
    what: str,
) -> IsometryMatch:
    # the correspondence dom-column -> img-column is well defined only
    # when the two Gramians agree; check before solving
    gram_gap = float(
        np.linalg.norm(
            dom_cols.conj().T @ dom_cols - img_cols.conj().T @ img_cols
        )
    )
    scale = max(1.0, spectral_norm(dom_cols))
    if gram_gap > tol * scale * scale:
        raise PreconditionError(
            f"{what}: Gramians differ by {gram_gap:.3e}, "
            f"beyond {tol:g} at scale {scale:.3g}"
        )
    basis = orth_basis(dom_cols, rank_tol, dead_zone=True)
    coords = basis.conj().T @ dom_cols
    mapped = img_cols @ np.linalg.pinv(coords)
    iso_gap = float(
        np.linalg.norm(
            mapped.conj().T @ mapped - np.eye(mapped.shape[1], dtype=complex)
        )
    )
    return IsometryMatch(
        domain_basis=basis,
        matrix=mapped,
        gram_residual=gram_gap,
        isometry_residual=iso_gap,
    )


def gram_matched_isometry(
    stacks: StackPair,
    grid=None,
    rank_tol: float = 1e-10,
    tol: float = 1e-8,
) -> IsometryMatch:
    """The isometry carrying sampled g-columns to the matching f-columns.

    Raises PreconditionError when the sampled Gramians disagree beyond
    ``tol`` and RankAmbiguityError when the span rank cannot be decided.
    """
    if grid is None:
        grid = stacks.data.grid
    if not grid:
        raise DomainError("empty sample grid")
    dom = np.hstack([stacks.g(z) for z in grid])
    img = np.hstack([stacks.f(z) for z in grid])
    return _matched_isometry(dom, img, rank_tol, tol, "stack correspondence")


def _stable_grid(stacks: StackPair, rank_tol: float) -> tuple[list, int]:
    """Grow a low-discrepancy grid until the sampled g-span dimension holds
    still for two consecutive doublings."""
    count = _GRID_START
    dims = []
    grid = None
    for _ in range(_GRID_DOUBLINGS):
        grid = halton_disc(count, stacks.data.n, _GRID_RADIUS)
        cols = np.hstack([stacks.g(z) for z in grid])
        dims.append(orth_basis(cols, rank_tol).shape[1])
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return grid, dims[-1]
        count *= 2
    # span dimension is capped by the stack height, so this means noise
    raise RealizationError(
        f"sampled span dimension failed to stabilize: {dims}",
        report={"span_dims": dims},
    )


@dataclass(frozen=True)
class RealizationResult:
    """Assembled system plus the verification residuals that admitted it."""

    system: MultiLSDS
    state_dim: int
    padding: int
    grid_size: int
    conservative: bool
    residuals: dict[str, float]


def _padded(data: AglerData, padding: int) -> AglerData:
    if padding == 0:
        return data
    f0 = data.factors[0]
    grown = MatrixPolynomial(
        n=f0.n,
        shape=(f0.shape[0] + padding, f0.shape[1]),
        coeffs={
            t: np.vstack([m, np.zeros((padding, f0.shape[1]))])
            for t, m in f0.coeffs.items()
        },
    )
    return AglerData(
        theta=data.theta, factors=(grown,) + data.factors[1:], grid=data.grid
    )


def assemble_colligation(
    data: AglerData,
    extra_padding: int = 0,
    rank_tol: float = 1e-10,
    tol: float = 1e-8,
    transfer_tol: float = 1e-7,
    fresh_points: int = 100,
    seed: int = 0,
) -> RealizationResult:
    """Build a system realizing ``data.theta`` and verify it end to end.

    The stacked space is cut along its factor summands; ``extra_padding``
    appends that many zero rows to the first summand, enlarging the state
    space without changing the transfer function (realizations are not
    unique).  Output dimension below input dimension is rejected; above it
    the extension is an isometry rather than unitary and the result is
    flagged dissipative-only (a finite-dimensional pencil cannot be
    unitary between spaces of different sizes).

    Raises RealizationError when any verification residual survives above
    its threshold.
    """
    if extra_padding < 0:
        raise DomainError(f"extra_padding must be >= 0, got {extra_padding}")
    p, q = data.out_dim, data.in_dim
    if p < q:
        raise RealizationError(
            f"output dimension {p} below input dimension {q}: the stacked "
            "correspondence cannot extend isometrically"
        )
    work = _padded(data, extra_padding)
    theta0 = work.theta.evaluate((0.0,) * work.n)
    if float(np.linalg.norm(theta0)) > tol:
        raise PreconditionError(
            f"theta must vanish at the origin, got norm {np.linalg.norm(theta0):.3e}"
        )

    stacks = build_stacks(work)
    grid, _ = _stable_grid(stacks, rank_tol)
    probe = grid[: min(len(grid), 120)]
    ident = _identity_residual(work, probe, probe)
    if ident > tol:
        raise PreconditionError(
            f"decomposition residual {ident:.3e} exceeds {tol:g} on the sample grid"
        )

    m_total = sum(work.factor_dims)

    def factor_stack(z) -> np.ndarray:
        return np.vstack([f.evaluate(z) for f in work.factors])

    f0 = factor_stack((0.0,) * work.n)
    f0_gap = float(np.linalg.norm(f0.conj().T @ f0 - np.eye(q, dtype=complex)))

    # state coordinates: the orthocomplement of ran F(0) inside the stack
    u, _, _ = np.linalg.svd(f0, full_matrices=True)
    basis_x = u[:, q:]
    x_dim = m_total - q
    split_gap = float(
        np.linalg.norm(
            basis_x @ basis_x.conj().T + f0 @ f0.conj().T - np.eye(m_total)
        )
    )

    dom_cols = []
    img_cols = []
    for z in grid:
        fz = factor_stack(z)
        top = np.vstack(
            [z[k] * work.factors[k].evaluate(z) for k in range(work.n)]
        )
        dom_cols.append(top)
        img_cols.append(
            np.vstack([basis_x.conj().T @ (fz - f0), work.theta.evaluate(z)])
        )
    match = _matched_isometry(
        np.hstack(dom_cols), np.hstack(img_cols), rank_tol, tol, "colligation core"
    )
    if match.isometry_residual > tol:
        raise RealizationError(
            f"core isometry residual {match.isometry_residual:.3e} exceeds {tol:g}",
            report={"isometry": match.isometry_residual},
        )

    # extend by pairing the ordered completions of both sides
    dom_rest = ordered_completion(match.domain_basis)
    img_span = orth_basis(match.matrix, rank_tol)
    img_rest = ordered_completion(img_span)
    if dom_rest.shape[1] > img_rest.shape[1]:
        raise RealizationError(
            f"no isometric extension: domain completion {dom_rest.shape[1]} "
            f"exceeds image completion {img_rest.shape[1]}"
        )
    extension = (
        match.matrix @ match.domain_basis.conj().T
        + img_rest[:, : dom_rest.shape[1]] @ dom_rest.conj().T
    )
    ext_gap = float(
        np.linalg.norm(
            extension.conj().T @ extension - np.eye(m_total, dtype=complex)
        )
    )

    embed = np.hstack([basis_x, f0])
    offsets = np.cumsum((0,) + work.factor_dims)
    blocks_a, blocks_b, blocks_c, blocks_d = [], [], [], []
    for k in range(work.n):
        select = np.zeros((m_total, m_total))
        select[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = np.eye(
            work.factor_dims[k]
        )
        g_k = extension @ select @ embed
        blocks_a.append(g_k[:x_dim, :x_dim])
        blocks_b.append(g_k[:x_dim, x_dim:])
        blocks_c.append(g_k[x_dim:, :x_dim])
        blocks_d.append(g_k[x_dim:, x_dim:])
    system = MultiLSDS(
        a=OperatorTuple(tuple(blocks_a)),
        b=OperatorTuple(tuple(blocks_b)),
        c=OperatorTuple(tuple(blocks_c)),
        d=OperatorTuple(tuple(blocks_d)),
    )

    cert = conservativity_check(system, tol=tol)
    conservative = cert.passed
    iso_side = max(cert.residuals["iso"], cert.residuals["iso_cross"])

    rng = np.random.default_rng(seed)
    fresh = [_random_disc_point(rng, work.n) for _ in range(fresh_points)]
    transfer_gap = 0.0
    intermediate_gap = 0.0
    for z in fresh:
        transfer_gap = max(
            transfer_gap,
            float(
                np.linalg.norm(transfer_eval(system, z) - data.theta.evaluate(z))
            ),
        )
        za = eval_pencil(z, system.a)
        zb = eval_pencil(z, system.b)
        lhs = basis_x.conj().T @ (factor_stack(z) - f0)
        rhs = np.linalg.solve(np.eye(x_dim, dtype=complex) - za, zb)
        intermediate_gap = max(intermediate_gap, float(np.linalg.norm(lhs - rhs)))

    residuals = {
        "decomposition": ident,
        "f0_isometry": f0_gap,
        "orthogonal_split": split_gap,
        "gram": match.gram_residual,
        "core_isometry": match.isometry_residual,
        "extension": ext_gap,
        "conservativity": cert.max_residual,
        "conservativity_iso": iso_side,
        "transfer": transfer_gap,
        "intermediate": intermediate_gap,
    }
    problems = []
    if f0_gap > tol:
        problems.append(f"F(0) isometry residual {f0_gap:.3e}")
    if split_gap > tol:
        problems.append(f"orthogonal splitting residual {split_gap:.3e}")
    if ext_gap > tol:
        problems.append(f"extension isometry residual {ext_gap:.3e}")
    if p == q and not conservative:
        problems.append(f"conservativity residual {cert.max_residual:.3e}")
    if p > q and iso_side > tol:
        problems.append(f"pencil isometry residual {iso_side:.3e}")
    if transfer_gap > transfer_tol:
        problems.append(f"transfer mismatch {transfer_gap:.3e}")
    if intermediate_gap > transfer_tol:
        problems.append(f"intermediate identity residual {intermediate_gap:.3e}")
    if problems:
        raise RealizationError("; ".join(problems), report=residuals)

    return RealizationResult(
        system=system,
        state_dim=x_dim,
        padding=extra_padding,
        grid_size=len(grid),
        conservative=conservative,
        residuals=residuals,
    )


def builtin_examples() -> dict[str, MultiLSDS]:
    """The two bundled two-direction systems sharing the transfer function
    z1 z2: a minimal one on a one-dimensional state space and a
    three-dimensional one.  Both are conservative and closely connected,
    witnessing non-uniqueness of conservative realizations.  They are read
    from the files that ``builtin:alpha`` and ``builtin:alpha_prime`` name."""
    from . import serialization  # serialization imports this module

    data = resources.files("ndsys") / "data"
    return {
        name: serialization.json_to_system(serialization.load_file(str(data / f"{name}.json")))
        for name in ("alpha", "alpha_prime")
    }


def canonical_fixture(grid_points: int = 50) -> AglerData:
    """Exact decomposition data for theta = z1 z2 with factors (z2) and (1).

    The identity telescopes exactly, so the residual is zero in exact
    arithmetic at every point pair.
    """
    theta = MatrixPolynomial(n=2, shape=(1, 1), coeffs={(1, 1): np.eye(1)})
    f1 = MatrixPolynomial(n=2, shape=(1, 1), coeffs={(0, 1): np.eye(1)})
    f2 = MatrixPolynomial(n=2, shape=(1, 1), coeffs={(0, 0): np.eye(1)})
    grid = tuple(halton_disc(grid_points, 2, _GRID_RADIUS))
    return AglerData(theta=theta, factors=(f1, f2), grid=grid)
