"""Point-by-point reference evaluators for the array engines.

`simulate_dict` steps the recursion one lattice point at a time with a dict
entry per point, and `energy_balance_report_dict` rescans every signal once
per front.  Both follow the definitions word for word and are slow; the
library's `simulate` and `energy_balance_report` must reproduce them: values
to rounding, masks and contamination flags exactly.

`eval_pencil_point`, `dissipativity_scan_pointwise`, `transfer_eval_point`
and `transfer_eval_series_point` evaluate the pencil, the torus scan and
the transfer function one point at a time.  The library's stacked versions
must reproduce them bit for bit, errors included.

`assemble_colligation_pointwise` is the realization built from per-point
columns: `stack_g_columns` for the grid growth, `core_columns_pointwise` for
the colligation core and `fresh_gaps_pointwise` for the fresh-point checks.
The library samples each point once into stacks and must reproduce its
residuals and realized matrices bit for bit.

`dump_reference` is the report writer as the standard library alone
writes it: every LatticeSignal first becomes its `signal_to_json` dict.
`serialization.dump` writes signals from their arrays and must produce the
same bytes.
"""

import itertools
import json

import numpy as np

from ndsys import (
    DivergenceError,
    MultiLSDS,
    OperatorTuple,
    EnergyReport,
    EnergyRow,
    LatticeSignal,
    SimulationResult,
    SingularityError,
    TorusScanReport,
    conservativity_check,
    halton_disc,
    halton_torus,
    ordered_completion,
    orth_basis,
    spectral_norm,
)
from ndsys.analysis import _AXIS_DEFAULT, _GRID_CAP, _refine
from ndsys.lattice import add, order, sub, unit
from ndsys.serialization import signal_to_json
from ndsys.realization import _GRID_DOUBLINGS, _GRID_RADIUS, _GRID_START, _padded
from ndsys.system import _check_signals, _octant_exact
from ndsys.transfer import _SINGULAR_REL


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

    for t in box.front(0):
        states[t] = init.value(t)

    def read_state(p):
        if box.contains(p):
            return states[p], p in dirty_states
        if octant and min(p) < 0:
            return np.zeros(dim_x, dtype=complex), False
        return np.zeros(dim_x, dtype=complex), True

    def read_input(p):
        if box.contains(p):
            return input_signal.value(p), False
        if octant and min(p) < 0:
            return np.zeros(sys.dim_in, dtype=complex), False
        return np.zeros(sys.dim_in, dtype=complex), True

    for front in range(1, window.n_max + 1):
        for t in box.front(front):
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
        return any(not box.contains(add(t, e)) for e in units)

    rows = []
    for front in range(1, window.n_max + 1):
        feed = [t for t in input_signal.support if order(t) == front - 1]
        escaped = any(
            not box.contains(t) and np.any(input_signal.entries[t] != 0)
            for t in feed
        )
        e_minus = float(
            sum(
                np.vdot(input_signal.entries[t], input_signal.entries[t]).real
                for t in feed
                if box.contains(t)
            )
        )
        lost = any(
            np.any(v != 0) and leaks(t)
            for t, v in result.states.entries.items()
            if order(t) == front - 1
        ) or any(
            box.contains(t) and np.any(input_signal.entries[t] != 0) and leaks(t)
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


def torus_grid_pointwise(n, samples):
    """The scan points as a list of tuples, built point by point."""
    if samples is None:
        samples = min(_AXIS_DEFAULT**n, _GRID_CAP)
    per_axis = round(samples ** (1.0 / n))
    if per_axis >= 1 and per_axis**n == samples:
        return [
            tuple(np.exp(2j * np.pi * j / per_axis) for j in idx)
            for idx in itertools.product(range(per_axis), repeat=n)
        ]
    return halton_torus(samples, n)


def dissipativity_scan_pointwise(sys, samples=None, refine=True, tol=1e-9):
    """The torus scan with one spectral norm per point; the first strict
    maximum in enumeration order is the witness."""
    blocks = sys.blocks()
    phases = torus_grid_pointwise(sys.n, samples)
    best = -1.0
    witness = phases[0]
    for z in phases:
        sigma = spectral_norm(eval_pencil_point(z, blocks))
        if sigma > best:
            best = sigma
            witness = z
    if refine:
        best, witness = _refine(blocks, witness, best)
    return TorusScanReport(
        max_norm=best, witness=witness, samples=len(phases), refined=refine, tol=tol
    )


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


def stack_g_columns(data, grid):
    """The g-columns [z_1 F_1(z); ...; z_n F_n(z); I] side by side."""

    def g(z):
        parts = [z[k] * data.factors[k].evaluate(z) for k in range(data.n)]
        parts.append(np.eye(data.in_dim, dtype=complex))
        return np.vstack(parts)

    return np.hstack([g(z) for z in grid])


def identity_residual_pointwise(data, pts_a, pts_b):
    """Largest pairwise decomposition residual, from per-point values."""
    q = data.in_dim
    a, b = len(pts_a), len(pts_b)

    def stacked(points):
        th = np.hstack([data.theta.evaluate(z) for z in points])
        fs = [np.hstack([f.evaluate(z) for z in points]) for f in data.factors]
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
        fz = np.vstack([f.evaluate(z) for f in data.factors])
        dom.append(np.vstack([z[k] * data.factors[k].evaluate(z) for k in range(data.n)]))
        img.append(np.vstack([basis_x.conj().T @ (fz - f0), data.theta.evaluate(z)]))
    return np.hstack(dom), np.hstack(img)


def fresh_gaps_pointwise(data, system, basis_x, f0, fresh_points=100, seed=0):
    """The transfer and intermediate residuals over fresh random points."""
    x_dim = basis_x.shape[1]
    transfer_gap = intermediate_gap = 0.0
    for z in random_disc_points(np.random.default_rng(seed), fresh_points, data.n):
        gap = transfer_eval_point(system, z) - data.theta.evaluate(z)
        transfer_gap = max(transfer_gap, float(np.linalg.norm(gap)))
        lhs = basis_x.conj().T @ (np.vstack([f.evaluate(z) for f in data.factors]) - f0)
        rhs = np.linalg.solve(
            np.eye(x_dim, dtype=complex) - eval_pencil_point(z, system.a),
            eval_pencil_point(z, system.b),
        )
        intermediate_gap = max(intermediate_gap, float(np.linalg.norm(lhs - rhs)))
    return transfer_gap, intermediate_gap


def assemble_colligation_pointwise(data, extra_padding=0, rank_tol=1e-10, tol=1e-8):
    """The realization of admissible data from per-point columns: the system,
    the residuals and the grid size, without the verdicts."""
    work = _padded(data, extra_padding)
    n, q = work.n, work.in_dim
    count, dims = _GRID_START, []
    for _ in range(_GRID_DOUBLINGS):
        grid = halton_disc(count, n, _GRID_RADIUS)
        dims.append(orth_basis(stack_g_columns(work, grid), rank_tol).shape[1])
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            break
        count *= 2
    probe = grid[:120]
    f0 = np.vstack([f.evaluate((0.0,) * n) for f in work.factors])
    m_total = f0.shape[0]
    basis_x = np.linalg.svd(f0, full_matrices=True)[0][:, q:]
    x_dim = m_total - q
    dom, img = core_columns_pointwise(work, grid, basis_x, f0)
    dom_basis = orth_basis(dom, rank_tol, dead_zone=True)
    mapped = img @ np.linalg.pinv(dom_basis.conj().T @ dom)
    dom_rest = ordered_completion(dom_basis)
    img_rest = ordered_completion(orth_basis(mapped, rank_tol))
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


def _plain(obj):
    if isinstance(obj, LatticeSignal):
        return signal_to_json(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dump_reference(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2)
