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
from typing import NamedTuple

import numpy as np

from . import serialization
from .analysis import conservativity_check
from .errors import (
    DomainError,
    PreconditionError,
    RealizationError,
    ShapeError,
    _require_within,
)
from .numerics import (
    _largest_norm,
    halton_disc,
    ordered_completion,
    orth_basis,
    spectral_norm,
)
from .pencil import OperatorTuple, eval_pencil
from .system import MultiLSDS
from .transfer import MatrixPolynomial, transfer_eval

__all__ = [
    "AglerData",
    "AglerReport",
    "verify_agler_identity",
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


class _Samples(NamedTuple):
    """theta and the factors at S points, each evaluated once per stack.

    ``z`` is (S, n) and ``theta`` is (S, p, q).  ``factors`` stacks F_1
    over ... over F_n, (S, sum m_k, q); ``g`` stacks z_1 F_1 over ... over
    z_n F_n over the identity, (S, sum m_k + q, q).  The Gramians of ``g``
    and of ``factors`` over ``theta`` agree wherever the decomposition
    identity holds.
    """

    z: np.ndarray
    theta: np.ndarray
    factors: np.ndarray
    g: np.ndarray


def _sample(data: AglerData, points) -> _Samples:
    z = np.asarray(points, dtype=complex).reshape(-1, data.n)
    q = data.in_dim
    factors = np.concatenate([f.evaluate(z) for f in data.factors], axis=1)
    # weight on the left: numpy rounds w * F and F * w differently
    weighted = np.repeat(z, data.factor_dims, axis=1)[:, :, None] * factors
    eye = np.broadcast_to(np.eye(q, dtype=complex), (len(z), q, q))
    return _Samples(
        z=z,
        theta=data.theta.evaluate(z),
        factors=factors,
        g=np.concatenate([weighted, eye], axis=1),
    )


def _columns(stack: np.ndarray) -> np.ndarray:
    """The (S, rows, cols) stack as one (rows, S * cols) matrix, its members
    side by side in order, C-contiguous as `np.hstack` leaves them."""
    count, rows, cols = stack.shape
    return np.ascontiguousarray(stack.transpose(1, 0, 2)).reshape(rows, count * cols)


def _identity_residual(a: _Samples, b: _Samples) -> float:
    """Largest pairwise decomposition residual (Frobenius) between the two
    sample sets.  At (l, z) it is ``g(l)* g(z) - h(l)* h(z)`` for
    ``h = [theta; F_1; ...; F_n]``, so one product of the stacked columns
    ``[g; -h]`` and ``[g; h]`` holds every pair's residual as a q x q block."""
    q = a.g.shape[2]
    left = _columns(np.concatenate([a.g, -a.theta, -a.factors], axis=1))
    right = _columns(np.concatenate([b.g, b.theta, b.factors], axis=1))
    # re^2 and im^2 side by side, squared in place; each block sums down its
    # q rows, then across its 2q numbers by one product with ones
    squares = (left.conj().T @ right).view(float)
    squares *= squares
    rows = squares.reshape(len(a.z), q, 2 * q * len(b.z)).sum(axis=1)
    per_pair = rows.reshape(len(a.z) * len(b.z), 2 * q) @ np.ones(2 * q)
    return float(np.sqrt(per_pair.max(initial=0.0)))


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
    grid = _sample(data, data.grid)
    fresh = _sample(data, _random_disc(np.random.default_rng(seed), fresh_pairs, data.n))
    return AglerReport(
        grid_residual=_identity_residual(grid, grid),
        fresh_residual=_identity_residual(fresh, fresh),
        tol=tol,
    )


def _random_disc(rng, count: int, n: int) -> np.ndarray:
    """``count`` random points of the sampling polydisc as a (count, n)
    array; each coordinate draws its radius, then its angle."""
    u = rng.uniform(size=(count, n, 2))
    return _GRID_RADIUS * np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1])


def _stable_grid(data: AglerData, rank_tol: float) -> _Samples:
    """Grow a low-discrepancy grid until the sampled g-span dimension holds
    still for two consecutive doublings; return that grid's samples.

    A Halton set is the prefix of every larger one and each point's samples
    do not depend on the rest of the stack, so the first three grids are
    read from one sample of the third."""
    count = _GRID_START
    sampled = _sample(data, halton_disc(4 * count, data.n, _GRID_RADIUS))
    dims = []
    for _ in range(_GRID_DOUBLINGS):
        if count > len(sampled.z):
            sampled = _sample(data, halton_disc(count, data.n, _GRID_RADIUS))
        samples = _Samples._make(a[:count] for a in sampled)
        dims.append(orth_basis(_columns(samples.g), rank_tol).shape[1])
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return samples
        count *= 2
    # span dimension is capped by the stack height, so this means noise
    raise RealizationError(
        f"sampled span dimension failed to stabilize: {dims}",
        report={"span_dims": dims},
    )


def _gram_gap(
    dom: np.ndarray, img: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``||dom^H dom - img^H img||_F`` and ``||dom||_2`` without forming
    either Gramian, and the small factors that stand for ``dom`` and
    ``img``.  Q has orthonormal columns in the thin QR
    ``[dom; img]^H = Q R``, so with R_dom and R_img the leading
    ``len(dom)`` and the remaining columns of R, ``dom = R_dom^H Q^H`` and
    ``img = R_img^H Q^H``: the two norms are
    ``||R_dom R_dom^H - R_img R_img^H||_F`` and ``||R_dom||_2``, and
    ``R_dom^H`` and ``R_img^H`` are returned after them."""
    r = np.linalg.qr(np.vstack([dom, img]).conj().T, mode="r")
    r_dom, r_img = r[:, : len(dom)], r[:, len(dom) :]
    gap = float(np.linalg.norm(r_dom @ r_dom.conj().T - r_img @ r_img.conj().T))
    return gap, spectral_norm(r_dom), r_dom.conj().T, r_img.conj().T


@dataclass(frozen=True)
class RealizationResult:
    """Assembled system plus the verification residuals that admitted it and
    the thresholds they were held to: ``residual`` for every residual but
    the two fresh-point ones, ``transfer`` for those, and ``rank`` for the
    rank cuts (a relative singular value in [rank / 10, rank] is refused)."""

    system: MultiLSDS
    state_dim: int
    padding: int
    grid_size: int
    conservative: bool
    residuals: dict[str, float]
    thresholds: dict[str, float]


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
    extra_padding = _require_within("extra_padding", extra_padding, low=0)
    p, q = data.out_dim, data.in_dim
    if p < q:
        raise RealizationError(
            f"output dimension {p} below input dimension {q}: the stacked "
            "correspondence cannot extend isometrically"
        )
    work = _padded(data, extra_padding)
    origin = _sample(work, [(0.0,) * work.n])
    theta0 = origin.theta[0]
    if float(np.linalg.norm(theta0)) > tol:
        raise PreconditionError(
            f"theta must vanish at the origin, got norm {np.linalg.norm(theta0):.3e}"
        )

    samples = _stable_grid(work, rank_tol)
    probe = _Samples._make(a[:120] for a in samples)
    ident = _identity_residual(probe, probe)
    if ident > tol:
        raise PreconditionError(
            f"decomposition residual {ident:.3e} exceeds {tol:g} on the sample grid"
        )

    m_total = sum(work.factor_dims)
    f0 = origin.factors[0]
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

    def state(s: _Samples) -> np.ndarray:
        return basis_x.conj().T @ (s.factors - f0)

    # the correspondence dom-column -> img-column is well defined only
    # when the two Gramians agree; check before solving.  Their difference
    # dom^H dom - img^H img is M^H J M for M = [dom; img], J = diag(I, -I),
    # and its norm is read from a thin QR of M^H
    dom_cols = _columns(samples.g[:, :m_total])
    img_cols = _columns(np.concatenate([state(samples), samples.theta], axis=1))
    gram_gap, dom_norm, dom_r, img_r = _gram_gap(dom_cols, img_cols)
    scale = max(1.0, dom_norm)
    if gram_gap > tol * scale * scale:
        raise PreconditionError(
            f"colligation core: Gramians differ by {gram_gap:.3e}, "
            f"beyond {tol:g} at scale {scale:.3g}"
        )
    # the columns are dom_r Q^H and img_r Q^H with Q^H Q = I: dom_r has the
    # left singular vectors and values of dom, and (X Q^H)^+ = Q X^+, so
    # the core map reads the small factors alone
    dom_basis = orth_basis(dom_r, rank_tol, dead_zone=True)
    mapped = img_r @ np.linalg.pinv(dom_basis.conj().T @ dom_r)
    iso_gap = float(
        np.linalg.norm(
            mapped.conj().T @ mapped - np.eye(mapped.shape[1], dtype=complex)
        )
    )
    if iso_gap > tol:
        raise RealizationError(
            f"core isometry residual {iso_gap:.3e} exceeds {tol:g}",
            report={"isometry": iso_gap},
        )

    # extend by pairing the ordered completions of both sides
    dom_rest = ordered_completion(dom_basis)
    img_span = orth_basis(mapped, rank_tol)
    img_rest = ordered_completion(img_span)
    if dom_rest.shape[1] > img_rest.shape[1]:
        raise RealizationError(
            f"no isometric extension: domain completion {dom_rest.shape[1]} "
            f"exceeds image completion {img_rest.shape[1]}"
        )
    extension = (
        mapped @ dom_basis.conj().T
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

    fresh = _sample(work, _random_disc(np.random.default_rng(seed), fresh_points, work.n))
    transfer_gap = _largest_norm(transfer_eval(system, fresh.z) - fresh.theta)
    resolved = np.linalg.solve(
        np.eye(x_dim, dtype=complex) - eval_pencil(fresh.z, system.a),
        eval_pencil(fresh.z, system.b),
    )
    intermediate_gap = _largest_norm(state(fresh) - resolved)

    residuals = {
        "decomposition": ident,
        "f0_isometry": f0_gap,
        "orthogonal_split": split_gap,
        "gram": gram_gap,
        "core_isometry": iso_gap,
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
        grid_size=len(samples.z),
        conservative=conservative,
        residuals=residuals,
        thresholds={"residual": tol, "transfer": transfer_tol, "rank": rank_tol},
    )


def builtin_examples() -> dict[str, MultiLSDS]:
    """The two bundled two-direction systems sharing the transfer function
    z1 z2: a minimal one on a one-dimensional state space and a
    three-dimensional one.  Both are conservative and closely connected,
    witnessing non-uniqueness of conservative realizations.  They are read
    from the files that ``builtin:alpha`` and ``builtin:alpha_prime`` name."""
    return {
        name: serialization.json_to_system(serialization.load_file(serialization.bundled(name)))
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
