"""End-to-end acceptance: every shipped guarantee, one line of verdict each.

Each test exercises one guarantee at its stated tolerance and budget and
prints a single PASS/FAIL line; details live in the assertion messages.
"""

import itertools
import time

import numpy as np

import gen
import oracles
from ndsys import (
    Box,
    LatticeSignal,
    MultiLSDS,
    OperatorTuple,
    SimulationWindow,
    apply_adjoint,
    apply_generator,
    assemble_colligation,
    associated_one_param,
    block_structure,
    builtin_examples,
    canonical_fixture,
    closed_form,
    closely_connected_subspace,
    commutation_residual,
    conservativity_check,
    energy_balance_report,
    eval_pencil,
    gamma_map,
    maclaurin_poly,
    multinomial,
    simulate,
    transfer_eval,
    verify_agler_identity,
)
from ndsys.laxphillips import _random_interior_vector
from ndsys.system import _lift, conjugate


def verdict(label, ok, elapsed, limit=None, detail=""):
    timing = f"{elapsed:.2f}s" + (f" of {limit:g}s" if limit is not None else "")
    in_budget = limit is None or elapsed < limit
    word = "PASS" if (ok and in_budget) else "FAIL"
    line = f"{word} {label}: {detail} [{timing}]"
    print(line)
    assert ok and in_budget, line


def disc_points(rng, n, count, radius=1.0):
    return [
        tuple(
            radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(n)
        )
        for _ in range(count)
    ]


def octant_signal(rng, n, dim, max_order, per_front=2):
    entries = {}
    for front in range(max_order + 1):
        for _ in range(per_front):
            t = tuple(int(v) for v in rng.multinomial(front, [1.0 / n] * n))
            entries[t] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return LatticeSignal(n, dim, entries)


def test_example_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    systems = builtin_examples()
    worst_cert = max(
        conservativity_check(sys).max_residual for sys in systems.values()
    )
    dims_ok = (
        closely_connected_subspace(systems["alpha"]).shape[1] == 1
        and closely_connected_subspace(systems["alpha_prime"]).shape[1] == 3
    )
    gap = 0.0
    for z in disc_points(rng, 2, 50):
        for sys in systems.values():
            gap = max(gap, abs(transfer_eval(sys, z)[0, 0] - z[0] * z[1]))
    elapsed = time.perf_counter() - start
    verdict(
        "example reproduction",
        worst_cert <= 1e-12 and dims_ok and gap <= 1e-12,
        elapsed,
        1.0,
        f"cert {worst_cert:.1e}, transfer gap {gap:.1e}, dims {dims_ok}",
    )


def test_recursion_matches_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 3
        dim_x = int(rng.integers(1, 5))
        dim_in = int(rng.integers(1, 5))
        dim_out = int(rng.integers(1, 5))
        sys = gen.random_system(rng, n, dim_x, dim_in, dim_out)
        window = SimulationWindow(Box((0,) * n, (5,) * n), 5)
        if i % 2 == 0:
            u = LatticeSignal(n, dim_in, {(0,) * n: np.ones(dim_in, dtype=complex)})
            x0 = LatticeSignal(n, dim_x, {})
        else:
            u = octant_signal(rng, n, dim_in, 4)
            x0 = LatticeSignal(
                n,
                dim_x,
                {(0,) * n: rng.standard_normal(dim_x) + 1j * rng.standard_normal(dim_x)},
            )
        direct = simulate(sys, window, u, x0)
        closed = closed_form(sys, window, u, x0)
        for field in ("states", "outputs"):
            a = getattr(direct, field)
            b = getattr(closed, field)
            for t in a.support:
                if t in direct.contaminated:
                    continue
                av = a.value(t)
                worst = max(
                    worst,
                    float(np.linalg.norm(av - b.value(t)))
                    / max(1.0, float(np.linalg.norm(av))),
                )
    elapsed = time.perf_counter() - start
    verdict(
        "recursion vs closed form",
        worst <= 1e-10,
        elapsed,
        30.0,
        f"100 systems, worst relative gap {worst:.1e}",
    )


def test_multipower_generating_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n_vars = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        order = int(rng.integers(1, 6))
        a = OperatorTuple(
            tuple(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(n_vars)
            )
        )
        b = OperatorTuple(
            tuple(
                rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
                for _ in range(n_vars)
            )
        )
        c = OperatorTuple(
            tuple(
                rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
                for _ in range(n_vars)
            )
        )
        z = rng.standard_normal(n_vars) + 1j * rng.standard_normal(n_vars)
        za = eval_pencil(z, a)
        front = [
            s
            for s in itertools.product(range(order + 1), repeat=n_vars)
            if sum(s) == order
        ]

        def front_sum(term):
            first = term(front[0])
            out = np.zeros(first.shape, dtype=complex)
            for s in front:
                out += multinomial(s) * np.prod(z ** np.array(s)) * term(s)
            return out

        def rel(lhs, rhs):
            return float(np.linalg.norm(lhs - rhs)) / max(
                1.0, float(np.linalg.norm(lhs))
            )

        # the four multipowers are corners of the lifted colligation's table
        d = OperatorTuple((np.zeros((2, 2)),) * n_vars)
        table = oracles.multipower_rows(_lift(MultiLSDS(a, b, c, d)), order)
        x, y, u = slice(0, dim), slice(dim, dim + 2), slice(dim + 2, None)

        def corner(rows, cols):
            return lambda s: table[s][rows, cols]

        lhs = np.linalg.matrix_power(za, order)
        worst = max(worst, rel(lhs, front_sum(corner(x, x))))
        lhs = np.linalg.matrix_power(za, order - 1) @ eval_pencil(z, b)
        worst = max(worst, rel(lhs, front_sum(corner(x, u))))
        lhs = eval_pencil(z, c) @ np.linalg.matrix_power(za, order - 1)
        worst = max(worst, rel(lhs, front_sum(corner(y, x))))
        if order >= 2:
            lhs = (
                eval_pencil(z, c)
                @ np.linalg.matrix_power(za, order - 2)
                @ eval_pencil(z, b)
            )
            worst = max(worst, rel(lhs, front_sum(corner(y, u))))
    elapsed = time.perf_counter() - start
    verdict(
        "multipower generating identity",
        worst <= 1e-10,
        elapsed,
        10.0,
        f"200 triples with borders, worst relative gap {worst:.1e}",
    )


def _front_report(sys, rng, n_max=4):
    n = sys.n
    window = SimulationWindow(Box((0,) * n, (n_max,) * n), n_max)
    u = octant_signal(rng, n, sys.dim_in, n_max - 1)
    x0 = LatticeSignal(
        n,
        sys.dim_x,
        {(0,) * n: rng.standard_normal(sys.dim_x) + 1j * rng.standard_normal(sys.dim_x)},
    )
    result = simulate(sys, window, u, x0)
    return energy_balance_report(result, u, tol=1e-9)


def test_energy_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    eq_gap = 0.0
    clean_rows = 0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        sys = gen.conservative_system(
            rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        for variant in (sys, conjugate(sys)):
            report = _front_report(variant, rng)
            for row in report.rows:
                if row.contaminated:
                    continue
                clean_rows += 1
                eq_gap = max(eq_gap, abs(row.lhs - row.rhs))
    slack = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        sys = gen.dissipative_system(
            rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        report = _front_report(sys, rng)
        for row in report.rows:
            if not row.contaminated:
                slack = max(slack, row.rhs - row.lhs)
    elapsed = time.perf_counter() - start
    verdict(
        "front energy laws",
        eq_gap <= 1e-9 and slack <= 1e-9 and clean_rows >= 100,
        elapsed,
        60.0,
        f"equality gap {eq_gap:.1e} over {clean_rows} clean fronts, "
        f"dissipative slack {slack:.1e}",
    )


def test_conservativity_torus_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    systems = list(builtin_examples().values())
    for _ in range(3):
        systems.append(
            gen.conservative_system(
                rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            )
        )
    sigma_lo, sigma_hi = 1.0, 1.0
    recon_gap = 0.0
    structure_ok = True
    for sys in systems:
        cert = conservativity_check(sys)
        assert cert.passed
        blocks = sys.blocks()
        for _ in range(100):
            zeta = tuple(np.exp(2j * np.pi * rng.uniform()) for _ in range(sys.n))
            svals = np.linalg.svd(eval_pencil(zeta, blocks), compute_uv=False)
            sigma_lo = min(sigma_lo, float(svals[-1]))
            sigma_hi = max(sigma_hi, float(svals[0]))
        split = block_structure(sys)
        structure_ok = structure_ok and split.completeness_defect == 0
        structure_ok = structure_ok and split.orthogonality_residual <= 1e-9
        structure_ok = structure_ok and split.coupling_residual <= 1e-9
        structure_ok = structure_ok and split.unitarity_residual <= 1e-9
        for k in range(sys.n):
            rebuilt = (
                split.bases_out[k]
                @ split.diag_blocks[k]
                @ split.bases_in[k].conj().T
            )
            recon_gap = max(
                recon_gap, float(np.linalg.norm(rebuilt - blocks[k]))
            )
    elapsed = time.perf_counter() - start
    verdict(
        "torus unitarity and block structure",
        1.0 - sigma_lo <= 1e-9
        and sigma_hi - 1.0 <= 1e-9
        and recon_gap <= 1e-9
        and structure_ok,
        elapsed,
        None,
        f"sigma in [{sigma_lo:.12f}, {sigma_hi:.12f}], rebuild gap {recon_gap:.1e}",
    )


def _max_entry_gap(a, b, skip):
    gap = 0.0
    for t in set(a.support) | set(b.support):
        if t in skip:
            continue
        gap = max(gap, float(np.max(np.abs(a.value(t) - b.value(t)))))
    return gap


def _conjugation_square_gap(sys, box, rng):
    gap = 0.0
    vec = _random_interior_vector(conjugate(sys), box, 2, rng)
    for k in range(sys.n):
        direct, mask_d = apply_generator(conjugate(sys), k, vec)
        adj, mask_a = apply_adjoint(sys, k, gamma_map(vec))
        routed = gamma_map(adj)
        flip = lambda pts: {tuple(-c for c in t) for t in pts}
        skip = set(mask_d.u_plus) | set(mask_d.y) | set(mask_d.u_minus)
        skip |= flip(mask_a.u_plus | mask_a.y | mask_a.u_minus)
        gap = max(gap, _max_entry_gap(direct.u_plus, routed.u_plus, skip))
        gap = max(gap, _max_entry_gap(direct.y, routed.y, skip))
        gap = max(gap, _max_entry_gap(direct.u_minus, routed.u_minus, skip))
    return gap


def _reproduction_gap(sys, box, rng):
    from oracles import add, contains, sub, unit

    n = sys.n
    gap = 0.0
    window = SimulationWindow(box, 1)
    for k in range(n):
        view = associated_one_param(sys, k, box)
        front0 = view.front
        x0 = {t: rng.standard_normal(sys.dim_x) + 0j for t in front0}
        u0 = {t: rng.standard_normal(sys.dim_in) + 0j for t in front0}
        x, u = oracles.stack_front(view, x0, sys.dim_x), oracles.stack_front(view, u0, sys.dim_in)
        x1 = oracles.unstack_front(view, view.a @ x + view.b @ u, sys.dim_x)
        y1 = oracles.unstack_front(view, view.c @ x + view.d @ u, sys.dim_out)
        result = simulate(
            sys,
            window,
            LatticeSignal(n, sys.dim_in, u0),
            LatticeSignal(n, sys.dim_x, x0),
        )
        for s in front0:
            target = add(s, unit(n, k))
            if not contains(box, target):
                continue
            if any(sub(target, unit(n, j)) not in front0 for j in range(n)):
                continue
            gap = max(gap, float(np.max(np.abs(x1[s] - result.states.value(target)))))
            gap = max(gap, float(np.max(np.abs(y1[s] - result.outputs.value(target)))))
    return gap


def test_translation_generator_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    commute_gap = adjoint_gap = conj_gap = repr_gap = 0.0
    for i in range(20):
        n = 3 if i % 5 == 0 else 2
        reach = 3 if n == 3 else 4
        box = Box((-reach,) * n, (reach,) * n)
        sys = gen.random_system(
            rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        for k in range(n):
            for j in range(k + 1, n):
                commute_gap = max(
                    commute_gap,
                    commutation_residual(sys, k, j, box, trials=2, seed=i),
                )
        v = _random_interior_vector(sys, box, 1, rng)
        w = _random_interior_vector(sys, box, 1, rng)
        for k in range(n):
            moved, _ = apply_generator(sys, k, v)
            pulled, _ = apply_adjoint(sys, k, w)
            lhs = _pair(moved, w)
            rhs = _pair(v, pulled)
            adjoint_gap = max(adjoint_gap, abs(lhs - rhs) / max(1.0, abs(lhs)))
        conj_gap = max(conj_gap, _conjugation_square_gap(sys, box, rng))
        repr_gap = max(repr_gap, _reproduction_gap(sys, box, rng))
    elapsed = time.perf_counter() - start
    verdict(
        "translation generator structure",
        commute_gap <= 1e-10
        and adjoint_gap <= 1e-10
        and conj_gap <= 1e-10
        and repr_gap <= 1e-10,
        elapsed,
        60.0,
        f"commute {commute_gap:.1e}, adjoint {adjoint_gap:.1e}, "
        f"conjugation {conj_gap:.1e}, reproduction {repr_gap:.1e}",
    )


def _pair(a, b):
    total = 0.0 + 0j
    for sig_a, sig_b in ((a.u_plus, b.u_plus), (a.y, b.y), (a.u_minus, b.u_minus)):
        for t in set(sig_a.support) | set(sig_b.support):
            total += np.vdot(sig_b.value(t), sig_a.value(t))
    return total


def test_realization_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    cons_gap = transfer_gap = intermediate_gap = 0.0
    fixtures = [canonical_fixture()]
    for i in range(10):
        n = 3 if i >= 7 else 2
        q = 1 + i % 2
        fixtures.append(gen.inner_fixture(rng, n, q))
    for data in fixtures:
        assert verify_agler_identity(data).passed
        res = assemble_colligation(data)
        cons_gap = max(cons_gap, res.residuals["conservativity"])
        transfer_gap = max(transfer_gap, res.residuals["transfer"])
        intermediate_gap = max(intermediate_gap, res.residuals["intermediate"])
    elapsed = time.perf_counter() - start
    verdict(
        "realization round trip",
        cons_gap <= 1e-8 and transfer_gap <= 1e-7 and intermediate_gap <= 1e-7,
        elapsed,
        120.0,
        f"11 fixtures: conservativity {cons_gap:.1e}, transfer {transfer_gap:.1e}, "
        f"intermediate {intermediate_gap:.1e}",
    )


def test_classical_degeneration():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    traj_gap = tf_gap = split_gap = 0.0
    for _ in range(20):
        dim_x = int(rng.integers(1, 4))
        dim_in = int(rng.integers(1, 4))
        dim_out = int(rng.integers(1, 4))
        sys = gen.random_system(rng, 1, dim_x, dim_in, dim_out)
        a, b, c, d = sys.a[0], sys.b[0], sys.c[0], sys.d[0]

        steps = 6
        us = [
            rng.standard_normal(dim_in) + 1j * rng.standard_normal(dim_in)
            for _ in range(steps)
        ]
        x = rng.standard_normal(dim_x) + 1j * rng.standard_normal(dim_x)
        xs, ys = [x], []
        for j in range(steps):
            ys.append(c @ xs[j] + d @ us[j])
            xs.append(a @ xs[j] + b @ us[j])

        window = SimulationWindow(Box((0,), (steps,)), steps)
        result = simulate(
            sys,
            window,
            LatticeSignal(1, dim_in, {(j,): us[j] for j in range(steps)}),
            LatticeSignal(1, dim_x, {(0,): x}),
        )
        for j in range(steps + 1):
            traj_gap = max(
                traj_gap, float(np.max(np.abs(result.states.value((j,)) - xs[j])))
            )
        # outputs trail the textbook read-out by one step
        for j in range(1, steps + 1):
            traj_gap = max(
                traj_gap, float(np.max(np.abs(result.outputs.value((j,)) - ys[j - 1])))
            )

        eye = np.eye(dim_x, dtype=complex)
        for (z,) in disc_points(rng, 1, 10, radius=0.3):
            classical = d + z * c @ np.linalg.solve(eye - z * a, b)
            tf_gap = max(
                tf_gap,
                float(np.linalg.norm(transfer_eval(sys, (z,)) - z * classical)),
            )

        # theta(z) = z theta_classical(z): the coefficient at j + 1 is the
        # classical one at j
        coeffs = maclaurin_poly(sys, steps).coeffs
        power = np.eye(dim_x, dtype=complex)
        for j in range(steps):
            textbook = d if j == 0 else c @ power @ b
            split_gap = max(
                split_gap,
                float(np.max(np.abs(coeffs.get((j + 1,), np.zeros_like(textbook)) - textbook))),
            )
            if j >= 1:
                power = power @ a
    elapsed = time.perf_counter() - start
    verdict(
        "classical degeneration",
        traj_gap <= 1e-12 and tf_gap <= 1e-12 and split_gap <= 1e-12,
        elapsed,
        None,
        f"trajectory {traj_gap:.1e}, transfer {tf_gap:.1e}, split {split_gap:.1e}",
    )
