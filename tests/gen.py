"""Random structured objects shared by the test modules.

Everything takes an explicit numpy Generator so individual tests stay
reproducible.
"""

import numpy as np

from ndsys import (
    AglerData,
    LatticeSignal,
    MatrixPolynomial,
    MultiLSDS,
    OperatorTuple,
)
from ndsys.numerics import halton_disc


def haar_unitary(rng, n):
    """Haar-distributed unitary via QR with the phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def composition(rng, total, parts):
    """Split ``total`` into ``parts`` nonnegative summands, uniformly."""
    cuts = np.sort(rng.integers(0, total + 1, size=parts - 1))
    edges = np.concatenate([[0], cuts, [total]])
    return np.diff(edges)


def conservative_system(rng, n, dim_x, dim_io):
    """A random system whose member blocks are partial isometries with
    orthogonal initial and final subspaces filling the whole space.

    Each member is G_k = W P_k V* where P_k projects onto the k-th block
    of a random composition and V, W are Haar unitaries; the four
    orthogonality identities then hold exactly up to rounding.
    """
    m = dim_x + dim_io
    sizes = composition(rng, m, n)
    v = haar_unitary(rng, m)
    w = haar_unitary(rng, m)
    a, b, c, d = [], [], [], []
    start = 0
    for k in range(n):
        sel = np.zeros((m, m), dtype=complex)
        stop = start + sizes[k]
        sel[start:stop, start:stop] = np.eye(sizes[k])
        start = stop
        g = w @ sel @ v.conj().T
        a.append(g[:dim_x, :dim_x])
        b.append(g[:dim_x, dim_x:])
        c.append(g[dim_x:, :dim_x])
        d.append(g[dim_x:, dim_x:])
    return MultiLSDS(
        a=OperatorTuple(tuple(a)),
        b=OperatorTuple(tuple(b)),
        c=OperatorTuple(tuple(c)),
        d=OperatorTuple(tuple(d)),
    )


def with_unitary_summand(rng):
    """A conservative n=2 system (2 states, 2 in/out) plus a closed
    conservative 2-state corner that touches no port: the sum is still
    conservative, but the corner never connects, so only 2 of its 4 states
    are closely connected."""
    base = conservative_system(rng, 2, 2, 2)
    corner = conservative_system(rng, 2, 2, 0)
    grown_a = []
    for k in range(2):
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = base.a[k]
        block[2:, 2:] = corner.a[k]
        grown_a.append(block)
    return MultiLSDS(
        a=OperatorTuple(tuple(grown_a)),
        b=OperatorTuple(tuple(np.vstack([base.b[k], np.zeros((2, 2))]) for k in range(2))),
        c=OperatorTuple(tuple(np.hstack([base.c[k], np.zeros((2, 2))]) for k in range(2))),
        d=base.d,
    )


def dissipative_system(rng, n, dim_x, dim_io, mixtures=3):
    """Convex combination of conservative members: dissipative, and
    strictly so with probability one."""
    weights = rng.dirichlet(np.ones(mixtures))
    parts = [conservative_system(rng, n, dim_x, dim_io) for _ in range(mixtures)]
    blocks = {name: [] for name in "abcd"}
    for k in range(n):
        for name in "abcd":
            acc = sum(
                wt * getattr(p, name)[k] for wt, p in zip(weights, parts)
            )
            blocks[name].append(acc)
    return MultiLSDS(
        a=OperatorTuple(tuple(blocks["a"])),
        b=OperatorTuple(tuple(blocks["b"])),
        c=OperatorTuple(tuple(blocks["c"])),
        d=OperatorTuple(tuple(blocks["d"])),
    )


def random_system(rng, n, dim_x, dim_in, dim_out, scale=0.5):
    """Unstructured system with independent Gaussian entries."""

    def draw(rows, cols):
        return scale * (
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        )

    return MultiLSDS(
        a=OperatorTuple(tuple(draw(dim_x, dim_x) for _ in range(n))),
        b=OperatorTuple(tuple(draw(dim_x, dim_in) for _ in range(n))),
        c=OperatorTuple(tuple(draw(dim_out, dim_x) for _ in range(n))),
        d=OperatorTuple(tuple(draw(dim_out, dim_in) for _ in range(n))),
    )


def random_signal(rng, n, dim, points):
    entries = {
        tuple(t): rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for t in points
    }
    return LatticeSignal(n, dim, entries)


def inner_fixture(rng, n, q, max_degree=2, grid_points=60):
    """Inner rational-free fixture: theta = U1 diag(z^t_i) U2.

    Unitary on the torus by construction, so it admits a conservative
    realization with matching value-space dimensions.  The factor
    polynomials come from telescoping each diagonal monomial along a
    fixed spelling of its exponent: 1 - conj(l)^t z^t splits into one
    rank-one term per letter, each landing in the factor of that letter.
    """
    u1 = haar_unitary(rng, q)
    u2 = haar_unitary(rng, q)
    exponents = []
    for _ in range(q):
        while True:
            t = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=n))
            if sum(t) >= 1:
                break
        exponents.append(t)

    theta_coeffs = {}
    for i, t in enumerate(exponents):
        term = np.outer(u1[:, i], u2[i, :])
        theta_coeffs[t] = theta_coeffs.get(t, np.zeros((q, q), dtype=complex)) + term
    theta = MatrixPolynomial(n, (q, q), theta_coeffs)

    factor_rows = {k: [] for k in range(n)}
    for i, t in enumerate(exponents):
        word = [k for k in range(n) for _ in range(t[k])]
        prefix = tuple(0 for _ in range(n))
        for letter in word:
            factor_rows[letter].append((prefix, u2[i, :].copy()))
            prefix = tuple(
                p + (1 if k == letter else 0) for k, p in enumerate(prefix)
            )
    factors = []
    for k in range(n):
        rows = factor_rows[k]
        coeffs = {}
        for row_index, (mono, vec) in enumerate(rows):
            block = coeffs.setdefault(
                mono, np.zeros((max(len(rows), 1), q), dtype=complex)
            )
            block[row_index, :] = vec
        if not rows:
            coeffs = {tuple(0 for _ in range(n)): np.zeros((1, q), dtype=complex)}
        factors.append(MatrixPolynomial(n, (max(len(rows), 1), q), coeffs))

    grid = halton_disc(grid_points, n, 0.75)
    return AglerData(theta=theta, factors=tuple(factors), grid=tuple(grid))


def zero_row_fixture(grid_points=40):
    """Decomposition data for theta = z1 z2 on n = 3 with factors (z2), (1)
    and a 0x1 factor: the third direction's block has rank 0."""
    one = np.eye(1)
    theta = MatrixPolynomial(n=3, shape=(1, 1), coeffs={(1, 1, 0): one})
    factors = (
        MatrixPolynomial(n=3, shape=(1, 1), coeffs={(0, 1, 0): one}),
        MatrixPolynomial(n=3, shape=(1, 1), coeffs={(0, 0, 0): one}),
        MatrixPolynomial(n=3, shape=(0, 1), coeffs={}),
    )
    return AglerData(theta=theta, factors=factors, grid=tuple(halton_disc(grid_points, 3, 0.8)))
