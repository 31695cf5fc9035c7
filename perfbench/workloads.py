"""Workloads: the request shapes each one sends and the oracles that check
every response.

A workload sends all five subcommands plus a cold start, one request shape
each, so every workload reports every end-to-end metric.  Each workload has
focus shapes sized to stress its layers; the remaining subcommands use the
``small-mixed`` shape, which costs little next to the focus shapes.

Oracles use numpy and json only, except ``prepare``, which computes
references once per run through the other code path of the library
(recursion against closed form, generator against adjoint).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import inputs as gen

KINDS = ("check", "simulate", "transfer", "realize", "laxphillips", "cold_start")

# name, unit, better; the metrics an untraced run reports
E2E = [("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")] + [
    (f"{kind}.{stat}", "s", "lower") for kind in KINDS for stat in ("p50_s", "tail_s")
]


class CheckFailed(Exception):
    """A response that is missing, malformed or wrong."""


@dataclass
class Shape:
    """One request shape: argv lists sent in rotation, and their oracle."""

    kind: str
    describe: str
    argvs: list
    check: Callable  # check(argv_index, exit_code, stdout_text)
    prepare: Callable = lambda: None

    @property
    def in_process(self) -> bool:
        return self.kind != "cold_start"


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _report(code, text, command):
    _require(code == 0, f"{command}: exit code {code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{command}: stdout is not JSON ({exc})") from exc
    _require(report.get("command") == command, f"{command}: wrong report command")
    return report["results"]


def _unpair(p) -> complex:
    return complex(p[0], p[1])


def _unmatrix(m) -> np.ndarray:
    return np.array([[_unpair(v) for v in row] for row in m], dtype=complex)


def _entries(sig: dict, keep=None) -> dict:
    out = {}
    for item in sig["entries"]:
        t = tuple(item["t"])
        if keep is None or keep(t):
            out[t] = np.array([_unpair(v) for v in item["v"]], dtype=complex)
    return out


def _pencil(z, mats) -> np.ndarray:
    return sum(zk * m for zk, m in zip(z, mats))


def transfer_value(sys_: gen.System, z) -> np.ndarray:
    """``zD + zC (I - zA)^-1 zB`` by a dense solve."""
    za = _pencil(z, sys_.a)
    m = np.eye(za.shape[0]) - za
    return _pencil(z, sys_.d) + _pencil(z, sys_.c) @ np.linalg.solve(m, _pencil(z, sys_.b))


def _ndsys_system(sys_: gen.System):
    import ndsys

    return ndsys.MultiLSDS(
        a=ndsys.OperatorTuple(sys_.a),
        b=ndsys.OperatorTuple(sys_.b),
        c=ndsys.OperatorTuple(sys_.c),
        d=ndsys.OperatorTuple(sys_.d),
    )


# --- simulate ---------------------------------------------------------------


def simulate_shape(workdir, tag, sys_, sys_path, signal, box_hi, nmax, *, energy, closed):
    """``simulate`` on the box ``0:box_hi`` squared.

    Oracle: on the sub-box ``0:m`` with ``m = min(12, box_hi)``, points of
    order <= m have their whole dependency cone in the window, so the
    response equals the other evaluator (closed form for the recursion, the
    recursion for the closed form) run on that sub-box.
    """
    sig_path = gen.write(workdir, f"{tag}_input.json", gen.signal_json(2, 2, signal))
    argv = [
        "simulate", sys_path, "--input", sig_path,
        "--box", f"0:{box_hi},0:{box_hi}", "--nmax", str(nmax),
    ]
    csv_path = None
    if energy:
        csv_path = f"{workdir}/{tag}_energy.csv"
        argv += ["--energy", csv_path]
    if closed:
        argv.append("--closed-form")
    m = min(12, box_hi)
    box_pts = [(i, j) for i in range(box_hi + 1) for j in range(box_hi + 1)]
    n_outputs = sum(1 for t in box_pts if 1 <= sum(t) <= nmax)
    n_states = sum(1 for t in box_pts if sum(t) <= nmax)
    state = {}

    def prepare():
        import ndsys

        other = ndsys.simulate if closed else ndsys.closed_form
        sub = {t: v for t, v in signal.items() if max(t) <= m}
        res = other(
            _ndsys_system(sys_),
            ndsys.SimulationWindow(ndsys.Box((0, 0), (m, m)), m),
            ndsys.LatticeSignal(2, 2, sub),
            ndsys.LatticeSignal(2, sys_.a[0].shape[0], {}),
        )
        state["states"] = dict(res.states.entries)
        state["outputs"] = dict(res.outputs.entries)

    def near(t):
        return max(t) <= m and sum(t) <= m

    def check(_, code, text):
        r = _report(code, text, "simulate")
        _require(r["evaluator"] == ("closed_form" if closed else "recursion"), "evaluator")
        _require(len(r["states"]["entries"]) == n_states, "state count")
        _require(len(r["outputs"]["entries"]) == n_outputs, "output count")
        _require(r["octant_exact"] and not r["contaminated_outputs"], "contamination")
        for part in ("states", "outputs"):
            got = _entries(r[part], near)
            ref = state[part]
            _require(got.keys() == ref.keys(), f"{part}: support near the origin")
            scale = max(1.0, max(float(np.abs(v).max()) for v in ref.values()))
            err = max(float(np.abs(got[t] - ref[t]).max()) for t in ref)
            _require(err <= 1e-12 * scale, f"{part}: recursion vs closed form gap {err:.3e}")
        _require(r["energy"]["dissipative_consistent"], "energy ledger not dissipative")
        _require(len(r["energy"]["rows"]) == nmax, "energy row count")
        if csv_path is not None:
            with open(csv_path, newline="") as fh:
                _require(sum(1 for _ in csv.reader(fh)) == nmax + 1, "energy CSV rows")

    kind = "closed form" if closed else "recursion"
    extra = ", energy CSV" if energy else ""
    return Shape(
        "simulate",
        f"{kind}, n=2 dissipative dim_x=4, box 0:{box_hi}^2, nmax {nmax}, "
        f"{len(signal)} input points{extra}",
        [argv], check, prepare,
    )


# --- laxphillips ------------------------------------------------------------


def _lp_parts(vec_json) -> dict:
    return {part: _entries(vec_json[part]) for part in ("u_plus", "y", "u_minus")}


def _inner(x: dict, y: dict) -> complex:
    """Inner product, linear in ``x``."""
    total = 0j
    for part in x:
        ys = y[part]
        for t, v in x[part].items():
            w = ys.get(t)
            if w is not None:
                total += np.vdot(w, v)
    return total


def laxphillips_shape(workdir, tag, sys_, sys_path, rng, half):
    """Generator and adjoint in turn on one interior vector of the box
    ``-half:half`` squared.

    Oracle: a conservative system's generator and adjoint keep the norm of
    an interior vector, and <W v, v> = <v, W* v>: each response is checked
    against the library's other operation run once in ``prepare``.
    """
    vec = gen.interior_vector(rng, sys_, -half, half)
    path = gen.write(workdir, f"{tag}_vector.json", gen.vector_json(vec))
    base = ["laxphillips", sys_path, "--vector", path, "--k", "0", "--op"]
    argvs = [base + ["generator"], base + ["adjoint"]]
    parts = {p: vec[p] for p in ("u_plus", "y", "u_minus")}
    norm2 = _inner(parts, parts).real
    state = {}

    def prepare():
        import ndsys

        sys_obj = _ndsys_system(sys_)
        box = ndsys.Box(*vec["box"])
        lp = ndsys.TruncatedLPVector(
            box=box,
            **{p: ndsys.LatticeSignal(2, vec["dims"][p], vec[p]) for p in parts},
        )
        img, _ = ndsys.apply_generator(sys_obj, 0, lp)
        adj, _ = ndsys.apply_adjoint(sys_obj, 0, lp)

        def as_parts(v):
            return {p: dict(getattr(v, p).entries) for p in parts}

        state["gen"] = _inner(as_parts(img), parts)  # <W v, v>
        state["adj"] = _inner(parts, as_parts(adj))  # <v, W* v>
        gap = abs(state["gen"] - state["adj"])
        _require(gap <= 1e-12 * norm2, f"<Wv,v> != <v,W*v> in-process: {gap:.3e}")

    def check(index, code, text):
        r = _report(code, text, "laxphillips")
        out = _lp_parts(r["vector"])
        n2 = _inner(out, out).real
        _require(abs(n2 - norm2) <= 1e-12 * norm2, f"norm moved by {abs(n2 - norm2) / norm2:.3e}")
        if index == 0:
            got, want = _inner(out, parts), state["adj"]
        else:
            got, want = _inner(parts, out), state["gen"]
        _require(abs(got - want) <= 1e-12 * norm2, f"<Wv,v> vs <v,W*v> gap {abs(got - want):.3e}")

    size = 2 * half + 1
    points = sum(len(p) for p in parts.values())
    return Shape(
        "laxphillips",
        f"generator and adjoint in turn, n=2 conservative dim_x=4, "
        f"{size}x{size} box, {points}-point interior vector",
        argvs, check, prepare,
    )


# --- check ------------------------------------------------------------------


def check_shape(system_arg, conservative, n, describe):
    """``check``: verdicts must match how the system was built."""
    samples = min(32**n, 100_000)

    def check(_, code, text):
        r = _report(code, text, "check")
        _require(r["violations"] == [], "violations reported")
        _require(r["conservativity"]["passed"] == conservative, "conservativity verdict")
        scan = r["torus_scan"]
        _require(scan["dissipative"] and scan["samples"] == samples, "torus scan verdict")

    return Shape("check", describe, [["check", system_arg]], check)


# --- transfer ---------------------------------------------------------------


def _maclaurin_check(r, sys_, order):
    poly = r["maclaurin"]
    n = sys_.n
    terms = {tuple(item["t"]): _unmatrix(item["m"]) for item in poly["terms"]}
    _require(len(terms) == math.comb(order + n, n) - 1, "maclaurin term count")
    # first and second order coefficients in closed form:
    # theta = zD + zC zB + O(|z|^3)
    for t, m in terms.items():
        if sum(t) == 1:
            want = sys_.d[t.index(1)]
        elif sum(t) == 2:
            i, j = [k for k in range(n) for _ in range(t[k])]
            want = sys_.c[i] @ sys_.b[j] + (sys_.c[j] @ sys_.b[i] if i != j else 0)
        else:
            continue
        _require(np.abs(m - want).max() <= 1e-12, f"maclaurin coefficient {t}")


def transfer_shape(argv, sys_, expected_points, checked, order, series, describe):
    """``transfer``: values at ``checked`` point indices (all, if None) must
    match a dense numpy solve; low Maclaurin coefficients must match zD and
    zC zB."""

    def check(_, code, text):
        r = _report(code, text, "transfer")
        pts = r["points"]
        _require(len(pts) == expected_points, "point count")
        for i in checked if checked is not None else range(len(pts)):
            z = [_unpair(v) for v in pts[i]["z"]]
            want = transfer_value(sys_, z)
            err = float(np.abs(_unmatrix(pts[i]["value"]) - want).max())
            _require(err <= 1e-10 * max(1.0, float(np.abs(want).max())), f"value at point {i}: {err:.3e}")
        if series:
            gap = r["series_gap"]["max_truncation_error"]
            _require(r["series_gap"]["terms"] == series and gap < 1e-5, "series gap")
        _maclaurin_check(r, sys_, order)

    return Shape("transfer", describe, [argv], check)


# --- realize ----------------------------------------------------------------


def realize_shape(argv, theta: gen.Poly, fresh, describe):
    """``realize``: the identity and conservativity verdicts must pass, and
    the returned system's transfer function must reproduce theta at fresh
    points."""

    def check(_, code, text):
        r = _report(code, text, "realize")
        _require(r["identity"]["passed"] and r["conservative"], "realization verdict")
        s = r["system"]
        sys_ = gen.System(*(tuple(_unmatrix(m) for m in s[key]) for key in "ABCD"))
        for z in fresh:
            err = float(np.abs(transfer_value(sys_, z) - theta.evaluate(z)).max())
            _require(err <= 1e-7, f"realized transfer misses theta by {err:.3e}")

    return Shape("realize", describe, [argv], check)


# --- cold start -------------------------------------------------------------


def cold_start_shape():
    def check(_, code, text):
        r = _report(code, text, "check")
        _require(r["conservativity"]["passed"], "builtin:alpha must be conservative")

    argv = [sys.executable, "-m", "ndsys", "check", "builtin:alpha"]
    return Shape("cold_start", "fresh `python -m ndsys check builtin:alpha`", [argv], check)


# --- workloads --------------------------------------------------------------

# Requests per round, in the order they are sent.  The loop repeats rounds until the
# run's time is up; cheap shapes repeat within a round so that each gets
# enough samples for a tail percentile.
ROUNDS = {
    "lattice-sweep": [
        ("simulate", 1), ("laxphillips", 2), ("check", 3),
        ("transfer", 3), ("realize", 3), ("cold_start", 1),
    ],
    "pencil-certify": [
        ("check", 1), ("transfer", 1), ("realize", 2), ("simulate", 2),
        ("laxphillips", 4), ("cold_start", 1),
    ],
    "small-mixed": [
        ("check", 3), ("simulate", 6), ("transfer", 6), ("realize", 2),
        ("laxphillips", 6), ("cold_start", 1),
    ],
}

WHY = {
    "lattice-sweep": "front recursion on an 81x81 box with its energy ledger, and the "
    "scattering generators on an 81x81 vector: time goes to system and serialization",
    "pencil-certify": "n=3 torus certification, 2,000-point transfer with series and "
    "Maclaurin, n=3 realization, closed-form simulate: pointwise linear algebra",
    "small-mixed": "all five subcommands on tiny inputs plus cold starts: fixed per-call "
    "costs (parsing, digests, JSON, validate, import) dominate",
}


# theta = U1 diag(z^t_1, z^t_2) U2 on n=3 variables.  Fixed exponents fix
# the realization's state dimension, so its cost does not vary with the seed.
INNER_EXPONENTS = ((1, 1, 1), (2, 0, 1))


def build(workload: str, seed: int, workdir: str) -> dict:
    """Write every input of ``workload`` under ``workdir``; return its shapes
    by kind.  The same seed gives the same files."""
    rng = np.random.default_rng(seed)
    d2 = gen.dissipative_system(rng, 2, 4, 2)
    c2 = gen.conservative_system(rng, 2, 4, 2)
    d2_path = gen.write(workdir, "d2_system.json", gen.system_json(d2))
    c2_path = gen.write(workdir, "c2_system.json", gen.system_json(c2))
    impulse = {(0, 0): gen.gauss(rng, 2)}
    canon_theta, canon_factors = _canonical()
    canon_grid = gen.disc_points(rng, 50, 2, 0.8)
    canon_path = gen.write(
        workdir, "canonical_agler.json", gen.agler_json(canon_theta, canon_factors, canon_grid)
    )
    shapes = {
        "check": check_shape(
            "builtin:alpha_prime", True, 2, "builtin:alpha_prime (n=2, dim_x=3)"
        ),
        "simulate": simulate_shape(
            workdir, "small", d2, d2_path, impulse, 8, 16, energy=True, closed=False
        ),
        "transfer": transfer_shape(
            ["transfer", d2_path, "--coeffs", "4"], d2, 20, None, 4, None,
            "n=2 dissipative dim_x=4, default 20-point grid, --coeffs 4",
        ),
        "realize": realize_shape(
            ["realize", canon_path], canon_theta, gen.disc_points(rng, 8, 2, 0.6),
            "canonical fixture (theta = z1 z2), 50-point grid",
        ),
        "laxphillips": laxphillips_shape(workdir, "small", c2, c2_path, rng, 4),
        "cold_start": cold_start_shape(),
    }
    if workload == "lattice-sweep":
        signal = gen.dense_signal(rng, (0, 0), (80, 80), 2)
        shapes["simulate"] = simulate_shape(
            workdir, "dense", d2, d2_path, signal, 80, 160, energy=True, closed=False
        )
        shapes["laxphillips"] = laxphillips_shape(workdir, "dense", c2, c2_path, rng, 40)
    elif workload == "pencil-certify":
        d3 = gen.dissipative_system(rng, 3, 4, 2)
        d3_path = gen.write(workdir, "d3_system.json", gen.system_json(d3))
        points = gen.disc_points(rng, 2000, 3, 0.6)
        pts_path = gen.write(workdir, "points.json", gen.points_json(points))
        theta, factors, grid = gen.inner_fixture(rng, INNER_EXPONENTS)
        agler_path = gen.write(workdir, "inner_agler.json", gen.agler_json(theta, factors, grid))
        signal = gen.dense_signal(rng, (0, 0), (16, 16), 2)
        shapes["check"] = check_shape(
            d3_path, False, 3, "n=3 dissipative dim_x=4, default 32^3 torus grid + refinement"
        )
        shapes["transfer"] = transfer_shape(
            ["transfer", d3_path, "--points", pts_path, "--series-terms", "30", "--coeffs", "8"],
            d3, 2000, sorted(rng.choice(2000, size=24, replace=False).tolist()), 8, 30,
            "n=3 dissipative dim_x=4, 2,000 points at radius 0.6, --series-terms 30, --coeffs 8",
        )
        shapes["realize"] = realize_shape(
            ["realize", agler_path, "--padding", "1"], theta, gen.disc_points(rng, 8, 3, 0.6),
            "inner-fixture Agler data n=3 q=2, exponents (1,1,1) and (2,0,1), --padding 1",
        )
        shapes["simulate"] = simulate_shape(
            workdir, "closed", d2, d2_path, signal, 16, 16, energy=False, closed=True
        )
    elif workload != "small-mixed":
        raise ValueError(f"unknown workload {workload!r}")
    return shapes


def _canonical():
    """Decomposition data of ``canonical_fixture()``: theta = z1 z2 with
    factors (z2) and (1)."""
    one = np.eye(1, dtype=complex)
    theta = gen.Poly(2, (1, 1), {(1, 1): one})
    return theta, [gen.Poly(2, (1, 1), {(0, 1): one}), gen.Poly(2, (1, 1), {(0, 0): one})]


def requests_in_round(workload: str) -> list:
    """The round as a flat list of kinds."""
    return [kind for kind, count in ROUNDS[workload] for _ in range(count)]
