"""Point-by-point reference evaluators for the array engines.

`simulate_dict` steps the recursion one lattice point at a time with a dict
entry per point, `closed_form_dict` sums each point's dependency cone one
offset at a time, and `energy_balance_report_dict` rescans every signal
once per front.  All three follow the definitions word for word and are
slow; the library's `simulate`, `closed_form` and `energy_balance_report`
must reproduce them: values to rounding, masks and contamination flags
exactly.  `closed_form_offsets` is the library's closed form run one
offset at a time, one locate and one product per offset; `closed_form`,
which stacks the offsets of a front, must reproduce it bit for bit, masks
included.

`eval_pencil_point`, `dissipativity_scan_orbits`, `transfer_eval_point`
and `transfer_eval_series_point` evaluate the pencil, the torus scan and
the transfer function one point at a time, the series by the two-product
loop with an SVD at every point.  The library's stacked versions must
reproduce them bit for bit, errors included, except two.  The library
sums the series values by Horner's rule, within 1e-12 relative.  The scan
oracle takes one spectral norm, an SVD (`norms_pointwise`), per diagonal
orbit, at the ``j_1 = 0`` rows of `torus_grid_pointwise`, and keeps the
first strict maximum; the library takes each norm from a Hermitian
eigensolve of the value's smaller Gram, so its maximum must lie within
the rounding bound ``e`` that `dissipativity_scan` states of the
oracle's, at the oracle's witness bit for bit wherever the oracle's top
norm beats every other orbit's by more than ``2 e``.
`dissipativity_scan_pointwise` takes one SVD at every point of the
``P^n`` grid: the library's unrefined maximum must lie at most ``e``
above it and ``2 e`` below it, and the two verdicts must agree wherever
the maximum is farther than ``2 e`` from ``1 + tol``.
Both polish their maximum by `refine_stepwise`, the ascent that
decomposes its current point at every step; the library's, which
decomposes a point only when the ascent moves, must reproduce it bit for
bit from the same start point and norm.  Both stop at the first point whose gradient components are all
within ``1e4 u (1 + sum_k ||G_k||_F)``, ``u = 2^-53``, only rounding
(at once on a conservative or n = 1 pencil), and take no step on an empty
pencil value.

`matrix_poly_eval_point` sums a matrix polynomial term by term at one
point; `MatrixPolynomial.evaluate` over a stack must reproduce it bit for
bit.  `assemble_colligation_pointwise` is the realization built from
per-point columns through it: `stack_g_columns` for the grid growth,
`core_columns_pointwise` for the colligation core and
`fresh_gaps_pointwise` for the fresh-point checks.  It decomposes the
sampled matrices themselves: every span basis is `orth_basis_svd`, the
thin SVD of the matrix, and the core map takes the pseudo-inverse of the
wide domain columns.  Its `gram` residual is the difference of the two
sampled Gramians, formed outright, and `identity_residual_pointwise` sums
the decomposition residual variable by variable over a Kronecker
identity.  The library evaluates each function once per stack of points,
so its columns are bitwise the oracle's.  It reads every span basis and
the core map from the small R of a thin QR (`orth_basis`), so it must
reach the same grid size, every residual within 1e-11 (each decomposition
residual within 1e-12) and the same realized matrices within 1e-12: its
span bases carry other phases than the oracle's, and the extension pairs
the `ordered_completion` of each span, which depends on the span alone.

`apply_generator_dict` and `apply_adjoint_dict` are the scattering
generators and their adjoints walked front by front with a dict entry per
point, the adjoint by its own coupling loop through the conjugate matrices.
The library runs the generator as gathers over box arrays and derives the
adjoint as ``gamma W_k(conj sys) gamma``; supports and masks must match
exactly, values to 1e-12.  `signal_to_json_dict` and `json_to_signal_dict`
are the signal codec one entry and one pair at a time.

`dump_reference` is the report writer as the standard library alone
writes it: every `Rows` table and complex array of an encoder's output (a
signal's entries and a polynomial's terms, a system's tuples and an Agler
grid) first becomes its nested lists, built entry by entry.
`list_built_results` builds the arrays of a `transfer`, `check` or
`laxphillips --op associated` result as the CLI built them before it handed
them to `dump`, a Maclaurin block as the nested lists of its `poly_to_json`
terms.  `serialization.dump` writes all of these from their arrays and must
produce the same bytes.

`sym_multipower_table_loops` and `bordered_multipower_table_loops` build
the multipower tables over a set-based downward closure (`_closure`) with
one written-out accumulator loop per kind, and `closed_form_dict` reads its
four tables from them.  The library builds one table, of the lifted
colligation, as a stack on the window index of the cube ``0..top``
(`multipower_rows` keys its rows): it must reproduce the sym loop on that
lift bit for bit, signed zeros included, and the bordered loops in its
corners to 1e-12.

`associated_one_param_dict` assembles the associated one-parameter view
with its shift matrices filled one point at a time through a dict; the
library's view must reproduce its front and matrices bit for bit.
`stack_front` and `unstack_front` move front values in and out of the
stacked vectors of a `OneParamSystemView`.

`front_walk` enumerates a front by a recursive walk over the coordinates,
and `add`, `sub`, `unit` and `contains` are the tuple arithmetic the
point-by-point oracles use; the library enumerates and looks up lattice
points only through its window index, so these are independent of it.

`halton_unit_scipy` is scipy's unscrambled Halton engine, and
`halton_disc_rows` maps its points one row and one coordinate at a time.
The library's numpy radical inverse and its polydisc map must reproduce
them bit for bit.
"""

import itertools
import json

import numpy as np
from scipy.stats import qmc

from ndsys import (
    Box,
    DivergenceError,
    DomainError,
    LPMask,
    MultiLSDS,
    OperatorTuple,
    EnergyReport,
    EnergyRow,
    LatticeSignal,
    RankAmbiguityError,
    SimulationResult,
    SingularityError,
    TorusScanReport,
    TruncatedLPVector,
    conservativity_check,
    halton_disc,
    maclaurin_poly,
    ordered_completion,
    spectral_norm,
)
from ndsys.analysis import _AXIS_DEFAULT, _GRID_CAP, _top_pair
from ndsys.cli import _resolve_path
from ndsys.lattice import _window_index, order
from ndsys.laxphillips import _check_dims
from ndsys.pencil import _cube, _weights, eval_pencil, multinomial, sym_multipower_table
from ndsys.serialization import Rows, json_to_system, load_file, poly_to_json
from ndsys.realization import _GRID_DOUBLINGS, _GRID_RADIUS, _GRID_START, _padded
from ndsys.system import _check_signals, _lift, _octant_exact, _result, _scatter
from ndsys.transfer import _SINGULAR_REL


def unit(n, k):
    """The k-th coordinate unit vector in Z^n, k counted from 0."""
    return tuple(1 if i == k else 0 for i in range(n))


def add(s, t):
    return tuple(a + b for a, b in zip(s, t))


def sub(s, t):
    return tuple(a - b for a, b in zip(s, t))


def contains(box, t):
    """Whether the box holds the point ``t``."""
    return all(a <= v <= b for a, v, b in zip(box.lo, t, box.hi))


def front_walk(box, f):
    """The box points of order ``f``, lexicographically, by a recursive
    walk over the coordinates pruned by what the rest can still sum to."""
    out = []

    def walk(i, remaining, prefix):
        if i == box.n:
            if remaining == 0:
                out.append(prefix)
            return
        rest_lo, rest_hi = sum(box.lo[i + 1 :]), sum(box.hi[i + 1 :])
        for v in range(max(box.lo[i], remaining - rest_hi), min(box.hi[i], remaining - rest_lo) + 1):
            walk(i + 1, remaining - v, prefix + (v,))

    walk(0, f, ())
    return out


def simulate_dict(sys, window, input_signal, init):
    """The recursion evaluated point by point over the window."""
    _check_signals(sys, window, input_signal, init)
    box = window.box
    octant = _octant_exact(input_signal, init)
    n, dim_x = sys.n, sys.dim_x

    states = {}
    outputs = {}
    dirty_states = set()
    dirty_outputs = set()

    for t in front_walk(box, 0):
        states[t] = init.value(t)

    def read_state(p):
        if contains(box, p):
            return states[p], p in dirty_states
        if octant and min(p) < 0:
            return np.zeros(dim_x, dtype=complex), False
        return np.zeros(dim_x, dtype=complex), True

    def read_input(p):
        if contains(box, p):
            return input_signal.value(p), False
        if octant and min(p) < 0:
            return np.zeros(sys.dim_in, dtype=complex), False
        return np.zeros(sys.dim_in, dtype=complex), True

    for front in range(1, window.n_max + 1):
        for t in front_walk(box, front):
            x_acc = np.zeros(dim_x, dtype=complex)
            y_acc = np.zeros(sys.dim_out, dtype=complex)
            dirty = False
            for k in range(n):
                p = sub(t, unit(n, k))
                xv, dx = read_state(p)
                uv, du = read_input(p)
                dirty = dirty or dx or du
                x_acc += sys.a[k] @ xv + sys.b[k] @ uv
                y_acc += sys.c[k] @ xv + sys.d[k] @ uv
            states[t] = x_acc
            outputs[t] = y_acc
            if dirty:
                dirty_states.add(t)
                dirty_outputs.add(t)

    return SimulationResult(
        window=window,
        states=LatticeSignal(n, dim_x, states),
        outputs=LatticeSignal(n, sys.dim_out, outputs),
        contaminated_states=frozenset(dirty_states),
        contaminated_outputs=frozenset(dirty_outputs),
        octant_exact=octant,
    )


def closed_form_dict(sys, window, input_signal, init):
    """The multipower sum assembled point by point, offset by offset, over
    every offset of order at most n_max."""
    _check_signals(sys, window, input_signal, init)
    box = window.box
    octant = _octant_exact(input_signal, init)
    n, n_max = sys.n, window.n_max

    offsets = [
        d
        for d in itertools.product(range(n_max + 1), repeat=n)
        if 0 < sum(d) <= n_max
    ]
    pow_a = sym_multipower_table_loops(sys.a, offsets)
    pow_ab = bordered_multipower_table_loops("right", sys.a, offsets, b=sys.b)
    pow_ca = bordered_multipower_table_loops("left", sys.a, offsets, c=sys.c)
    pow_cab = bordered_multipower_table_loops("both", sys.a, offsets, b=sys.b, c=sys.c)

    states: dict[tuple[int, ...], np.ndarray] = {}
    outputs: dict[tuple[int, ...], np.ndarray] = {}
    dirty_states: set[tuple[int, ...]] = set()
    dirty_outputs: set[tuple[int, ...]] = set()

    for t in front_walk(box, 0):
        states[t] = init.value(t)

    def read(signal: LatticeSignal, p):
        """The signal's value at ``p`` and whether the read is contaminated."""
        if contains(box, p):
            return signal.value(p), False
        return np.zeros(signal.dim, dtype=complex), not (octant and min(p) < 0)

    for front in range(1, n_max + 1):
        for t in front_walk(box, front):
            x_acc = np.zeros(sys.dim_x, dtype=complex)
            y_acc = np.zeros(sys.dim_out, dtype=complex)
            dirty = False
            for d in offsets:
                nd = sum(d)
                if nd > front:
                    continue
                p = sub(t, d)
                weight = float(multinomial(d))
                if nd == front:
                    x0, dirty_read = read(init, p)
                    dirty = dirty or dirty_read
                    x_acc += weight * (pow_a[d] @ x0)
                    y_acc += weight * (pow_ca[d] @ x0)
                uv, dirty_read = read(input_signal, p)
                dirty = dirty or dirty_read
                x_acc += weight * (pow_ab[d] @ uv)
                if nd == 1:
                    y_acc += sys.d[d.index(1)] @ uv
                elif nd >= 2:
                    y_acc += weight * (pow_cab[d] @ uv)
            states[t] = x_acc
            outputs[t] = y_acc
            if dirty:
                dirty_states.add(t)
                dirty_outputs.add(t)

    return SimulationResult(
        window=window,
        states=LatticeSignal(n, sys.dim_x, states),
        outputs=LatticeSignal(n, sys.dim_out, outputs),
        contaminated_states=frozenset(dirty_states),
        contaminated_outputs=frozenset(dirty_outputs),
        octant_exact=octant,
    )


def closed_form_offsets(sys, window, input_signal, init):
    """The library's closed form with its offset loop written out: one
    locate, one mask update and one product per offset ``d``, serving every
    window point of order ``>= |d|`` at once, added in offset order."""
    _check_signals(sys, window, input_signal, init)
    octant = _octant_exact(input_signal, init)
    dim_x, dim_in = sys.dim_x, sys.dim_in
    coords, bounds, locate = _window_index(window.box, window.n_max, dim_x + dim_in + sys.dim_out)
    size, top = len(coords), len(bounds) - 2
    weights = _weights(sys.n, top)
    offsets, fronts, _ = _cube(sys.n, top)
    powers = sym_multipower_table(_lift(sys), top)

    xy = dim_x + sys.dim_out
    z = np.zeros((size + 1, xy + dim_in), dtype=complex)
    _scatter(init, locate, z[:, :dim_x])
    _scatter(input_signal, locate, z[:, xy:])
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


def front_energy_dict(signal, n):
    """Squared l2 mass of the signal on the order-n front."""
    return float(
        sum(np.vdot(v, v).real for t, v in signal.entries.items() if order(t) == n)
    )


def energy_balance_report_dict(sys, window, input_signal, init, tol=1e-9, result=None):
    """The energy ledger, each front found by a scan of every signal."""
    if result is None:
        result = simulate_dict(sys, window, input_signal, init)
    box = window.box
    units = [unit(sys.n, k) for k in range(sys.n)]

    def leaks(t):
        # mass here feeds window-external points on the next front
        return any(not contains(box, add(t, e)) for e in units)

    rows = []
    for front in range(1, window.n_max + 1):
        feed = [t for t in input_signal.support if order(t) == front - 1]
        escaped = any(
            not contains(box, t) and np.any(input_signal.entries[t] != 0)
            for t in feed
        )
        e_minus = float(
            sum(
                np.vdot(input_signal.entries[t], input_signal.entries[t]).real
                for t in feed
                if contains(box, t)
            )
        )
        lost = any(
            np.any(v != 0) and leaks(t)
            for t, v in result.states.entries.items()
            if order(t) == front - 1
        ) or any(
            contains(box, t) and np.any(input_signal.entries[t] != 0) and leaks(t)
            for t in feed
        )
        contaminated = (
            escaped
            or lost
            or any(order(t) in (front - 1, front) for t in result.contaminated_states)
            or any(order(t) == front for t in result.contaminated_outputs)
        )
        rows.append(
            EnergyRow(
                n=front,
                e_minus=e_minus,
                e_plus=front_energy_dict(result.outputs, front),
                e_x=front_energy_dict(result.states, front),
                e_x_prev=front_energy_dict(result.states, front - 1),
                contaminated=contaminated,
            )
        )
    return EnergyReport(rows=tuple(rows), tol=tol)


def same_bits(x, y):
    """Equal shape, dtype and bytes: bitwise equality, signed zeros included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def eval_pencil_point(z, ops):
    """The pencil value at one point, summed member by member."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros((ops.rows, ops.cols), dtype=complex)
    for zk, m in zip(z, ops):
        acc += zk * m
    return acc


def torus_axis_pointwise(n, samples):
    """The axis size of the largest tensor grid within the budget, found
    by integer search."""
    if samples is None:
        samples = min(_AXIS_DEFAULT**n, _GRID_CAP)
    per_axis = 1
    while (per_axis + 1) ** n <= samples:
        per_axis += 1
    return per_axis


def torus_grid_pointwise(n, samples, orbits=False):
    """The scan points as a list of tuples, built point by point on the
    largest tensor grid within the budget; with ``orbits``, only its rows
    with ``j_1 = 0``, one per diagonal orbit."""
    per_axis = torus_axis_pointwise(n, samples)
    first = range(1 if orbits else per_axis)
    return [
        tuple(np.exp(2j * np.pi * j / per_axis) for j in idx)
        for idx in itertools.product(first, *[range(per_axis)] * (n - 1))
    ]


def norms_pointwise(blocks, phases):
    """The pencil norm at each point of ``phases``, by an SVD."""
    return [spectral_norm(eval_pencil_point(z, blocks)) for z in phases]


def _scan_points(sys, phases, samples, refine, tol):
    """One spectral norm per point of ``phases``; the first strict maximum
    in enumeration order is the witness."""
    blocks = sys.blocks()
    best = -1.0
    witness = phases[0]
    for z, sigma in zip(phases, norms_pointwise(blocks, phases)):
        if sigma > best:
            best = sigma
            witness = z
    if refine:
        best, witness = refine_stepwise(blocks, witness, best)
    return TorusScanReport(
        max_norm=best, witness=witness, samples=samples, refined=refine, tol=tol
    )


def dissipativity_scan_pointwise(sys, samples=None, refine=True, tol=1e-9):
    """The torus scan with one spectral norm at every point of the grid."""
    phases = torus_grid_pointwise(sys.n, samples)
    return _scan_points(sys, phases, len(phases), refine, tol)


def dissipativity_scan_orbits(sys, samples=None, refine=True, tol=1e-9):
    """The torus scan with one spectral norm per diagonal orbit, at the grid
    rows with ``j_1 = 0``; it reports the ``P^n`` points they stand for."""
    phases = torus_grid_pointwise(sys.n, samples, orbits=True)
    return _scan_points(sys, phases, torus_axis_pointwise(sys.n, samples) ** sys.n, refine, tol)


def refine_stepwise(blocks, z0, sigma0, steps=50):
    """The torus ascent that decomposes its current point at every step,
    also when a rejected trial sent it back to a point it decomposed
    before, and stops at the first point whose gradient is only rounding."""
    phi = np.array([np.angle(z) for z in z0], dtype=float)
    best_phi = phi.copy()
    best = sigma0
    eta = 0.1
    flat = 1e4 * 2.0**-53 * (1.0 + sum(np.linalg.norm(g) for g in blocks))
    for _ in range(steps):
        if blocks.rows == 0 or blocks.cols == 0:
            break
        z = np.exp(1j * phi)
        sigma, u, v = _top_pair(eval_pencil(z, blocks))
        if sigma > best:
            best = sigma
            best_phi = phi.copy()
        grad = np.array(
            [(u.conj() @ (1j * z[k] * blocks[k] @ v)).real for k in range(blocks.n)]
        )
        if np.all(np.abs(grad) <= flat):
            break
        trial = best_phi + eta * grad
        sigma_trial = spectral_norm(eval_pencil(np.exp(1j * trial), blocks))
        if sigma_trial > best:
            phi = trial
            eta *= 1.5
        else:
            phi = best_phi
            eta *= 0.5
    return best, tuple(complex(v) for v in np.exp(1j * best_phi))


def transfer_eval_point(sys, z):
    """zD + zC (I - zA)^-1 zB at one point, by a direct solve."""
    sys.require_wellformed()
    z = np.asarray(z, dtype=complex)
    za = eval_pencil_point(z, sys.a)
    m = np.eye(sys.dim_x, dtype=complex) - za
    if sys.dim_x:
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= _SINGULAR_REL * max(1.0, s[0]):
            raise SingularityError(
                f"resolvent factor singular at z={tuple(z)}", sigma_min=float(s[-1])
            )
    zb = eval_pencil_point(z, sys.b)
    zc = eval_pencil_point(z, sys.c)
    zd = eval_pencil_point(z, sys.d)
    if sys.dim_x == 0:
        return zd
    return zd + zc @ np.linalg.solve(m, zb)


def transfer_eval_series_point(sys, z, terms):
    """The partial Neumann sum at one point."""
    sys.require_wellformed()
    z = np.asarray(z, dtype=complex)
    za = eval_pencil_point(z, sys.a)
    norm_za = spectral_norm(za)
    if norm_za >= 1.0:
        raise DivergenceError(
            f"series needs ||zA|| < 1, got {norm_za:.6f} at z={tuple(z)}"
        )
    zb = eval_pencil_point(z, sys.b)
    zc = eval_pencil_point(z, sys.c)
    acc = eval_pencil_point(z, sys.d)
    cur = zb
    for _ in range(terms + 1):
        acc = acc + zc @ cur
        cur = za @ cur
    return acc


def matrix_poly_eval_point(poly, z):
    """The polynomial's value at one point, summed term by term."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(poly.shape, dtype=complex)
    for t, m in poly.coeffs.items():
        acc += m * np.prod(z ** np.array(t))
    return acc


def stack_g_columns(data, grid):
    """The g-columns [z_1 F_1(z); ...; z_n F_n(z); I] side by side."""

    def g(z):
        parts = [z[k] * matrix_poly_eval_point(data.factors[k], z) for k in range(data.n)]
        parts.append(np.eye(data.in_dim, dtype=complex))
        return np.vstack(parts)

    return np.hstack([g(z) for z in grid])


def identity_residual_pointwise(data, pts_a, pts_b):
    """Largest pairwise decomposition residual, from per-point values."""
    q = data.in_dim
    a, b = len(pts_a), len(pts_b)

    def stacked(points):
        th = np.hstack([matrix_poly_eval_point(data.theta, z) for z in points])
        fs = [np.hstack([matrix_poly_eval_point(f, z) for z in points]) for f in data.factors]
        weights = [np.repeat([z[k] for z in points], q) for k in range(data.n)]
        return th, fs, weights

    th_a, fs_a, w_a = stacked(pts_a)
    th_b, fs_b, w_b = stacked(pts_b)
    resid = np.kron(np.ones((a, b)), np.eye(q, dtype=complex))
    resid -= th_a.conj().T @ th_b
    for k in range(data.n):
        gram = fs_a[k].conj().T @ fs_b[k]
        resid -= gram
        resid += (np.conj(w_a[k])[:, None] * gram) * w_b[k][None, :]
    per_pair = np.sqrt(np.sum(np.abs(resid.reshape(a, q, b, q)) ** 2, axis=(1, 3)))
    return float(per_pair.max()) if per_pair.size else 0.0


def random_disc_points(rng, count, n):
    """Random polydisc points, drawn point by point: radius, then angle."""
    return [
        tuple(
            _GRID_RADIUS * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(n)
        )
        for _ in range(count)
    ]


def core_columns_pointwise(data, grid, basis_x, f0):
    """Domain columns [z_k F_k(z)] and image columns
    [basis_x^H (F(z) - F(0)); theta(z)], one point at a time."""
    dom, img = [], []
    for z in grid:
        parts = [matrix_poly_eval_point(f, z) for f in data.factors]
        dom.append(np.vstack([z[k] * parts[k] for k in range(data.n)]))
        theta = matrix_poly_eval_point(data.theta, z)
        img.append(np.vstack([basis_x.conj().T @ (np.vstack(parts) - f0), theta]))
    return np.hstack(dom), np.hstack(img)


def fresh_gaps_pointwise(data, system, basis_x, f0, fresh_points=100, seed=0):
    """The transfer and intermediate residuals over fresh random points."""
    x_dim = basis_x.shape[1]
    transfer_gap = intermediate_gap = 0.0
    for z in random_disc_points(np.random.default_rng(seed), fresh_points, data.n):
        gap = transfer_eval_point(system, z) - matrix_poly_eval_point(data.theta, z)
        transfer_gap = max(transfer_gap, float(np.linalg.norm(gap)))
        fz = np.vstack([matrix_poly_eval_point(f, z) for f in data.factors])
        lhs = basis_x.conj().T @ (fz - f0)
        rhs = np.linalg.solve(
            np.eye(x_dim, dtype=complex) - eval_pencil_point(z, system.a),
            eval_pencil_point(z, system.b),
        )
        intermediate_gap = max(intermediate_gap, float(np.linalg.norm(lhs - rhs)))
    return transfer_gap, intermediate_gap


def orth_basis_svd(m, rank_tol=1e-10, dead_zone=False):
    """Orthonormal basis of the column span of ``m`` from a thin SVD of
    ``m`` itself, its rank cut and dead zone those of `orth_basis`."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    top = s[0]
    if top == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    rel = s / top
    if dead_zone:
        stuck = [float(v) for v in rel if rank_tol / 10 <= v <= rank_tol]
        if stuck:
            raise RankAmbiguityError(
                f"relative singular values {stuck} fall inside the "
                f"[{rank_tol / 10:g}, {rank_tol:g}] dead zone"
            )
    return u[:, : int(np.sum(rel > rank_tol))]


def assemble_colligation_pointwise(data, extra_padding=0, rank_tol=1e-10, tol=1e-8):
    """The realization of admissible data from per-point columns: the system,
    the residuals and the grid size, without the verdicts."""
    work = _padded(data, extra_padding)
    n, q = work.n, work.in_dim
    count, dims = _GRID_START, []
    for _ in range(_GRID_DOUBLINGS):
        grid = halton_disc(count, n, _GRID_RADIUS)
        dims.append(orth_basis_svd(stack_g_columns(work, grid), rank_tol).shape[1])
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            break
        count *= 2
    probe = grid[:120]
    f0 = np.vstack([matrix_poly_eval_point(f, (0.0,) * n) for f in work.factors])
    m_total = f0.shape[0]
    basis_x = np.linalg.svd(f0, full_matrices=True)[0][:, q:]
    x_dim = m_total - q
    dom, img = core_columns_pointwise(work, grid, basis_x, f0)
    dom_basis = orth_basis_svd(dom, rank_tol, dead_zone=True)
    mapped = img @ np.linalg.pinv(dom_basis.conj().T @ dom)
    dom_rest = ordered_completion(dom_basis)
    img_rest = ordered_completion(orth_basis_svd(mapped, rank_tol))
    extension = (
        mapped @ dom_basis.conj().T
        + img_rest[:, : dom_rest.shape[1]] @ dom_rest.conj().T
    )
    embed = np.hstack([basis_x, f0])
    offsets = np.cumsum((0,) + work.factor_dims)
    blocks = []
    for k in range(n):
        select = np.zeros((m_total, m_total))
        select[offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = np.eye(
            work.factor_dims[k]
        )
        blocks.append(extension @ select @ embed)
    system = MultiLSDS(
        a=OperatorTuple(tuple(g[:x_dim, :x_dim] for g in blocks)),
        b=OperatorTuple(tuple(g[:x_dim, x_dim:] for g in blocks)),
        c=OperatorTuple(tuple(g[x_dim:, :x_dim] for g in blocks)),
        d=OperatorTuple(tuple(g[x_dim:, x_dim:] for g in blocks)),
    )
    cert = conservativity_check(system, tol=tol)
    transfer_gap, intermediate_gap = fresh_gaps_pointwise(work, system, basis_x, f0)

    def gap(m, eye_dim):
        return float(np.linalg.norm(m - np.eye(eye_dim, dtype=complex)))

    residuals = {
        "decomposition": identity_residual_pointwise(work, probe, probe),
        "f0_isometry": gap(f0.conj().T @ f0, q),
        "orthogonal_split": float(
            np.linalg.norm(basis_x @ basis_x.conj().T + f0 @ f0.conj().T - np.eye(m_total))
        ),
        "gram": float(np.linalg.norm(dom.conj().T @ dom - img.conj().T @ img)),
        "core_isometry": gap(mapped.conj().T @ mapped, mapped.shape[1]),
        "extension": gap(extension.conj().T @ extension, m_total),
        "conservativity": cert.max_residual,
        "conservativity_iso": max(cert.residuals["iso"], cert.residuals["iso_cross"]),
        "transfer": transfer_gap,
        "intermediate": intermediate_gap,
    }
    return system, residuals, len(grid)


def _band_points(box: Box, lowest: int | None, highest: int | None):
    lo, hi = order(box.lo), order(box.hi)
    start = lo if lowest is None else max(lo, lowest)
    stop = hi if highest is None else min(hi, highest)
    for front in range(start, stop + 1):
        yield from front_walk(box, front)


def apply_generator_dict(
    sys: MultiLSDS, k: int, vec: TruncatedLPVector
) -> tuple[TruncatedLPVector, LPMask]:
    """One translation step along direction ``k``.

    Outgoing values shift toward the zero front, the zero front consumes
    the adjacent state and incoming data through the system matrices, and
    incoming values shift away.  Returns the new vector and the off-box
    read mask.
    """
    _check_dims(sys, vec)
    n = sys.n
    if not 0 <= k < n:
        raise DomainError(f"direction {k} outside 0..{n - 1}")
    box = vec.box
    e_k = unit(n, k)

    up: dict = {}
    yv: dict = {}
    um: dict = {}
    mask_up, mask_y, mask_um = set(), set(), set()

    def read(sig, p):
        if contains(box, p):
            return sig.value(p), False
        return np.zeros(sig.dim, dtype=complex), True

    for t in _band_points(box, None, -1):
        v, dirty = read(vec.u_plus, add(t, e_k))
        up[t] = v
        if dirty:
            mask_up.add(t)

    for t in front_walk(box, 0):
        acc_up = np.zeros(sys.dim_out, dtype=complex)
        acc_y = np.zeros(sys.dim_x, dtype=complex)
        dirty = False
        for j in range(n):
            p = add(sub(t, unit(n, j)), e_k)
            ys, d1 = read(vec.y, p)
            us, d2 = read(vec.u_minus, p)
            dirty = dirty or d1 or d2
            acc_up += sys.c[j] @ ys + sys.d[j] @ us
            acc_y += sys.a[j] @ ys + sys.b[j] @ us
        up[t] = acc_up
        yv[t] = acc_y
        if dirty:
            mask_up.add(t)
            mask_y.add(t)

    for t in _band_points(box, 0, None):
        v, dirty = read(vec.u_minus, add(t, e_k))
        um[t] = v
        if dirty:
            mask_um.add(t)

    out = TruncatedLPVector(
        box=box,
        u_plus=LatticeSignal(n, sys.dim_out, up),
        y=LatticeSignal(n, sys.dim_x, yv),
        u_minus=LatticeSignal(n, sys.dim_in, um),
    )
    return out, LPMask(frozenset(mask_up), frozenset(mask_y), frozenset(mask_um))


def apply_adjoint_dict(
    sys: MultiLSDS, k: int, vec: TruncatedLPVector
) -> tuple[TruncatedLPVector, LPMask]:
    """Adjoint of the direction-k generator, via the conjugate matrices."""
    _check_dims(sys, vec)
    n = sys.n
    if not 0 <= k < n:
        raise DomainError(f"direction {k} outside 0..{n - 1}")
    box = vec.box
    e_k = unit(n, k)

    up: dict = {}
    yv: dict = {}
    um: dict = {}
    mask_up, mask_y, mask_um = set(), set(), set()

    def read(sig, p):
        if contains(box, p):
            return sig.value(p), False
        return np.zeros(sig.dim, dtype=complex), True

    for t in _band_points(box, None, 0):
        v, dirty = read(vec.u_plus, sub(t, e_k))
        up[t] = v
        if dirty:
            mask_up.add(t)

    for t in front_walk(box, 0):
        acc_y = np.zeros(sys.dim_x, dtype=complex)
        acc_um = np.zeros(sys.dim_in, dtype=complex)
        dirty = False
        for j in range(n):
            p = add(sub(t, e_k), unit(n, j))
            ys, d1 = read(vec.y, p)
            us, d2 = read(vec.u_plus, p)
            dirty = dirty or d1 or d2
            acc_y += sys.a[j].conj().T @ ys + sys.c[j].conj().T @ us
            acc_um += sys.b[j].conj().T @ ys + sys.d[j].conj().T @ us
        yv[t] = acc_y
        um[t] = acc_um
        if dirty:
            mask_y.add(t)
            mask_um.add(t)

    for t in _band_points(box, 1, None):
        v, dirty = read(vec.u_minus, sub(t, e_k))
        um[t] = v
        if dirty:
            mask_um.add(t)

    out = TruncatedLPVector(
        box=box,
        u_plus=LatticeSignal(n, sys.dim_out, up),
        y=LatticeSignal(n, sys.dim_x, yv),
        u_minus=LatticeSignal(n, sys.dim_in, um),
    )
    return out, LPMask(frozenset(mask_up), frozenset(mask_y), frozenset(mask_um))


def signal_to_json_dict(sig):
    """The signal encoding written one entry at a time, points sorted."""
    return {
        "n": sig.n,
        "dim": sig.dim,
        "entries": [
            {"t": list(t), "v": [[complex(x).real, complex(x).imag] for x in sig.entries[t]]}
            for t in sorted(sig.entries)
        ],
    }


def json_to_signal_dict(obj):
    """The signal decoding read pair by pair into a dict."""
    entries = {}
    for item in obj["entries"]:
        t = tuple(int(v) for v in item["t"])
        entries[t] = np.array([complex(float(p[0]), float(p[1])) for p in item["v"]], dtype=complex)
    return LatticeSignal(int(obj["n"]), int(obj["dim"]), entries)


def complex_out(v):
    return [float(v.real), float(v.imag)]


def matrix_out(m):
    return [[complex_out(v) for v in row] for row in np.asarray(m, dtype=complex)]


def nested_out(a):
    """An int or complex array as nested lists built entry by entry, each
    complex number as its [re, im] pair."""
    if not np.iscomplexobj(a):
        return np.asarray(a).tolist()
    return complex_out(a) if np.ndim(a) == 0 else [nested_out(x) for x in a]


def list_built_results(argv, results):
    """``results`` of the command line ``argv`` with its arrays built as
    nested lists, as the CLI built its reports before it handed the arrays
    to `dump`; a Maclaurin block is `poly_to_json` of the system's
    `maclaurin_poly` with its terms built as nested lists."""
    command = argv[0]
    out = dict(results)
    if command == "transfer":
        rows = results["points"].fields
        out["points"] = [
            {"z": [complex_out(v) for v in z], "value": matrix_out(val)}
            for z, val in zip(rows["z"], rows["value"])
        ]
        if "--coeffs" in argv:
            system = json_to_system(load_file(_resolve_path(argv[1])))
            order = int(argv[argv.index("--coeffs") + 1])
            out["maclaurin"] = _plain(poly_to_json(maclaurin_poly(system, order)))
    elif command == "check":
        scan = dict(results["torus_scan"])
        scan["witness"] = [complex_out(z) for z in scan["witness"]]
        out["torus_scan"] = scan
    else:
        out.update({key: matrix_out(results[key]) for key in "ABCD"})
    return out


def _plain(obj):
    if isinstance(obj, Rows):
        count = len(next(iter(obj.fields.values())))
        return [{name: nested_out(a[i]) for name, a in obj.fields.items()} for i in range(count)]
    if isinstance(obj, np.ndarray):
        return nested_out(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dump_reference(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2)


def halton_unit_scipy(count, dims):
    """``count`` unscrambled Halton points of [0, 1)^dims from scipy."""
    return qmc.Halton(d=dims, scramble=False).random(count)


def halton_disc_rows(count, n, radius):
    """The polydisc Halton points, mapped coordinate by coordinate."""
    return [
        tuple(
            radius * np.sqrt(row[2 * k]) * np.exp(2j * np.pi * row[2 * k + 1])
            for k in range(n)
        )
        for row in halton_unit_scipy(count, 2 * n)
    ]


def _closure(targets, n):
    """Downward closure of ``targets`` under unit subtraction, ordered by
    front then lexicographically."""
    seen = set()
    stack = [tuple(int(v) for v in t) for t in targets]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        for k in range(n):
            if t[k] > 0:
                stack.append(sub(t, unit(n, k)))
    return sorted(seen, key=lambda t: (order(t), t))


def multipower_rows(a, top):
    """The rows of ``sym_multipower_table(a, top)``, keyed by the rows of
    the cube index they stand for."""
    keys = map(tuple, _cube(a.n, top)[0].tolist())
    return dict(zip(keys, sym_multipower_table(a, top)))


def sym_multipower_table_loops(a, targets):
    """The symmetrized multipowers over the closure, one accumulator each."""
    table = {}
    for s in _closure(targets, a.n):
        m = order(s)
        if m == 0:
            table[s] = np.eye(a.rows, dtype=complex)
            continue
        acc = np.zeros((a.rows, a.rows), dtype=complex)
        for k in range(a.n):
            if s[k] > 0:
                acc += (s[k] / m) * (a[k] @ table[sub(s, unit(a.n, k))])
        table[s] = acc
    return table


def _right_table_loop(a, b, closure):
    table = {}
    for s in closure:
        m = order(s)
        if m == 0:
            continue
        if m == 1:
            table[s] = b[s.index(1)]
            continue
        acc = np.zeros((a.rows, b.cols), dtype=complex)
        for k in range(a.n):
            if s[k] > 0:
                acc += (s[k] / m) * (a[k] @ table[sub(s, unit(a.n, k))])
        table[s] = acc
    return table


def bordered_multipower_table_loops(kind, a, targets, b=None, c=None):
    """The bordered multipowers of one kind over the closure: the right
    table by its own loop, the left one by a last-letter loop, and the
    doubly bordered one by a first-letter contraction of the right table."""
    n = a.n
    closure = _closure(targets, n)
    if kind == "right":
        return _right_table_loop(a, b, closure)
    table = {}
    if kind == "left":
        for s in closure:
            m = order(s)
            if m == 0:
                continue
            if m == 1:
                table[s] = c[s.index(1)]
                continue
            acc = np.zeros((c.rows, a.cols), dtype=complex)
            for k in range(n):
                if s[k] > 0:
                    acc += (s[k] / m) * (table[sub(s, unit(n, k))] @ a[k])
            table[s] = acc
        return table
    right = _right_table_loop(a, b, closure)
    for s in closure:
        m = order(s)
        if m < 2:
            continue
        acc = np.zeros((c.rows, b.cols), dtype=complex)
        for k in range(n):
            if s[k] > 0:
                acc += (s[k] / m) * (c[k] @ right[sub(s, unit(n, k))])
        table[s] = acc
    return table


def associated_one_param_dict(sys, k, box):
    """The associated view's four matrices, each shift matrix filled one
    front point at a time through a ``{point: position}`` dict."""
    front = front_walk(box, 0)
    pos = {t: i for i, t in enumerate(front)}
    m, n = len(front), sys.n

    def shift_matrix(j):
        p = np.zeros((m, m))
        for t, i in pos.items():
            src = add(sub(t, unit(n, j)), unit(n, k))
            if src in pos:
                p[i, pos[src]] = 1.0
        return p

    def assemble(ops):
        acc = np.kron(np.eye(m), ops[k])
        for j in range(n):
            if j != k:
                acc = acc + np.kron(shift_matrix(j), ops[j])
        return acc

    return tuple(front), tuple(assemble(ops) for ops in (sys.a, sys.b, sys.c, sys.d))


def stack_front(view, values, dim):
    """The front values of ``values`` stacked in the view's point order,
    zero where a point has none."""
    out = np.zeros(len(view.front) * dim, dtype=complex)
    for i, t in enumerate(view.front):
        v = values.get(t)
        if v is not None:
            out[i * dim : (i + 1) * dim] = v
    return out


def unstack_front(view, vec, dim):
    """A stacked front vector of the view back as ``{point: value}``."""
    return {t: vec[i * dim : (i + 1) * dim] for i, t in enumerate(view.front)}
