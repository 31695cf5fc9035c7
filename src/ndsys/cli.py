"""Command-line entry point.

Five subcommands (check, simulate, transfer, realize, laxphillips) read
JSON inputs and print one RunReport JSON document (schema tag "ndsys/1")
to stdout.  Exit codes: 0 when a result was computed (negative analysis
verdicts are results, not failures), 2 for input problems (parse, shape,
arity, domain, singular evaluation points), 3 for verification failures
(realization residuals, Gram mismatches, rank ambiguity, violated
preconditions).

The shared flags --tol and --seed apply everywhere; --config names a JSON
file of flag defaults.  Precedence: explicit flag, then config file, then
the NDSYS_TOL environment variable (for tol), then built-ins.  System
paths of the form builtin:NAME resolve to bundled example files.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import math
import os
import sys as _sys
import time
from importlib import resources

import numpy as np

from . import analysis, laxphillips, realization, serialization, transfer
from .errors import (
    ArityError,
    DivergenceError,
    DomainError,
    NdsysError,
    PreconditionError,
    RangeError,
    RankAmbiguityError,
    RealizationError,
    ShapeError,
    SingularityError,
)
from .lattice import Box, LatticeSignal, SimulationWindow
from .numerics import halton_disc
from .system import closed_form, energy_balance_report, simulate, validate

SCHEMA = "ndsys/1"

_INPUT_ERRORS = (
    DomainError,
    ShapeError,
    ArityError,
    RangeError,
    SingularityError,
    DivergenceError,
)
_VERIFICATION_ERRORS = (PreconditionError, RealizationError, RankAmbiguityError)


def _resolve_path(path: str) -> str:
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        ref = resources.files("ndsys").joinpath(f"data/{name}.json")
        if not ref.is_file():
            raise DomainError(f"no bundled file named {name!r}")
        return str(ref)
    return path


def _digest(path: str) -> dict:
    with open(path, "rb") as fh:
        h = hashlib.sha256(fh.read()).hexdigest()
    return {"path": path, "sha256": h}


def _parse_box(text: str, n: int | None = None) -> Box:
    try:
        parts = [p.split(":") for p in text.split(",")]
        lo = tuple(int(p[0]) for p in parts)
        hi = tuple(int(p[1]) for p in parts)
    except (ValueError, IndexError) as exc:
        raise DomainError(
            f"box must look like lo:hi,lo:hi,... got {text!r}"
        ) from exc
    if n is not None and len(lo) != n:
        raise ArityError(f"box has {len(lo)} coordinates, system has {n}")
    return Box(lo, hi)


def _complex_out(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def _matrix_out(m) -> list:
    return [[_complex_out(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _load_system(path: str, inputs: list):
    path = _resolve_path(path)
    sys_obj = serialization.json_to_system(serialization.load_file(path))
    inputs.append(_digest(path))
    return sys_obj


def _load_signal(path: str, inputs: list) -> LatticeSignal:
    signal = serialization.json_to_signal(serialization.load_file(path))
    inputs.append(_digest(path))
    return signal


def _cmd_check(args, inputs) -> dict:
    sys_obj = _load_system(args.system, inputs)
    problems = validate(sys_obj)
    cert = analysis.conservativity_check(sys_obj, tol=args.tol)
    scan = analysis.dissipativity_scan(
        sys_obj, samples=args.samples, refine=not args.no_refine, tol=args.tol
    )
    connected = analysis.closely_connected_subspace(sys_obj)
    results = {
        "violations": [{"kind": v.kind, "message": v.message} for v in problems],
        "conservativity": {
            "residuals": cert.residuals,
            "passed": cert.passed,
            "tol": cert.tol,
        },
        "torus_scan": {
            "max_norm": scan.max_norm,
            "witness": [_complex_out(z) for z in scan.witness],
            "samples": scan.samples,
            "refined": scan.refined,
            "dissipative": scan.dissipative,
            "margin": scan.margin,
        },
        "closely_connected": {
            "dim_state": sys_obj.dim_x,
            "dim_connected": int(connected.shape[1]),
        },
    }
    return results


def _cmd_simulate(args, inputs) -> dict:
    sys_obj = _load_system(args.system, inputs)
    input_signal = _load_signal(args.input, inputs)
    if args.init is not None:
        init = _load_signal(args.init, inputs)
    else:
        init = LatticeSignal(sys_obj.n, sys_obj.dim_x, {})
    window = SimulationWindow(_parse_box(args.box, sys_obj.n), args.nmax)
    evaluator = closed_form if args.closed_form else simulate
    result = evaluator(sys_obj, window, input_signal, init)
    report = energy_balance_report(
        sys_obj, window, input_signal, init, tol=args.tol, result=result
    )
    if args.energy is not None:
        with open(args.energy, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n", "E_minus", "E_plus", "E_x", "lhs", "rhs", "contaminated"]
            )
            for row in report.rows:
                writer.writerow(
                    [
                        row.n,
                        repr(row.e_minus),
                        repr(row.e_plus),
                        repr(row.e_x),
                        repr(row.lhs),
                        repr(row.rhs),
                        int(row.contaminated),
                    ]
                )
    return {
        "evaluator": "closed_form" if args.closed_form else "recursion",
        "octant_exact": result.octant_exact,
        "states": result.states,
        "outputs": result.outputs,
        "contaminated_states": sorted(
            list(t) for t in result.contaminated_states
        ),
        "contaminated_outputs": sorted(
            list(t) for t in result.contaminated_outputs
        ),
        "energy": {
            "rows": [
                {
                    "n": r.n,
                    "E_minus": r.e_minus,
                    "E_plus": r.e_plus,
                    "E_x": r.e_x,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "contaminated": r.contaminated,
                }
                for r in report.rows
            ],
            "dissipative_consistent": report.dissipative_consistent,
            "conservative_consistent": report.conservative_consistent,
            "tol": report.tol,
        },
    }


def _transfer_points(args, n: int) -> np.ndarray:
    if args.points is None:
        return np.array(halton_disc(args.grid, n, 0.7), dtype=complex).reshape(-1, n)
    raw = serialization.load_file(args.points)
    if not isinstance(raw, list):
        raise DomainError("points file must hold a JSON list of points")
    pts = []
    for item in raw:
        z = tuple(complex(float(p[0]), float(p[1])) for p in item)
        if len(z) != n:
            raise ArityError(f"point {item} has arity {len(z)}, system has {n}")
        if not all(map(cmath.isfinite, z)):
            raise DomainError(f"point {item} has non-finite coordinates")
        pts.append(z)
    return np.array(pts, dtype=complex).reshape(-1, n)


def _cmd_transfer(args, inputs) -> dict:
    sys_obj = _load_system(args.system, inputs)
    pts = _transfer_points(args, sys_obj.n)
    if args.points is not None:
        inputs.append(_digest(args.points))
    vals = transfer.transfer_eval(sys_obj, pts)
    results = {
        "points": [
            {"z": [_complex_out(v) for v in z], "value": _matrix_out(val)}
            for z, val in zip(pts, vals)
        ]
    }
    if args.series_terms is not None and len(pts):
        approx = transfer.transfer_eval_series(sys_obj, pts, args.series_terms)
        results["series_gap"] = {
            "terms": args.series_terms,
            "max_truncation_error": max(
                float(np.linalg.norm(v - a)) for v, a in zip(vals, approx)
            ),
        }
    if args.coeffs is not None:
        poly = transfer.maclaurin_poly(sys_obj, args.coeffs)
        results["maclaurin"] = serialization.poly_to_json(poly)
    return results


def _cmd_realize(args, inputs) -> dict:
    path = _resolve_path(args.data)
    data = serialization.json_to_agler(serialization.load_file(path))
    inputs.append(_digest(path))
    check = realization.verify_agler_identity(
        data, seed=args.seed, tol=args.tol if args.tol <= 1e-8 else 1e-8
    )
    result = realization.assemble_colligation(
        data, extra_padding=args.padding, seed=args.seed
    )
    return {
        "identity": {
            "grid_residual": check.grid_residual,
            "fresh_residual": check.fresh_residual,
            "passed": check.passed,
        },
        "state_dim": result.state_dim,
        "padding": result.padding,
        "grid_size": result.grid_size,
        "conservative": result.conservative,
        "residuals": result.residuals,
        "thresholds": {"identity": check.tol, **result.thresholds},
        "system": serialization.system_to_json(result.system),
    }


def _cmd_laxphillips(args, inputs) -> dict:
    sys_obj = _load_system(args.system, inputs)
    op = args.op
    if op in ("generator", "adjoint", "gamma"):
        if args.vector is None:
            raise DomainError(f"op {op!r} needs --vector")
        vec = serialization.json_to_lp_vector(
            serialization.load_file(args.vector)
        )
        inputs.append(_digest(args.vector))
        if op == "gamma":
            out = laxphillips.gamma_map(vec)
            return {"vector": serialization.lp_vector_fields(out)}
        apply_fn = (
            laxphillips.apply_generator if op == "generator" else laxphillips.apply_adjoint
        )
        out, mask = apply_fn(sys_obj, args.k, vec)
        return {
            "vector": serialization.lp_vector_fields(out),
            "mask": {
                "u_plus": sorted(list(t) for t in mask.u_plus),
                "y": sorted(list(t) for t in mask.y),
                "u_minus": sorted(list(t) for t in mask.u_minus),
            },
        }
    if args.box is None:
        raise DomainError(f"op {op!r} needs --box")
    box = _parse_box(args.box, sys_obj.n)
    if op == "commute":
        j = args.j if args.j is not None else args.k
        residual = laxphillips.commutation_residual(
            sys_obj, args.k, j, box, trials=args.trials, seed=args.seed
        )
        return {"commutation_residual": residual, "k": args.k, "j": j}
    if op == "metric":
        report = laxphillips.metric_check(
            sys_obj, box, trials=args.trials, seed=args.seed, tol=args.tol
        )
        return {
            "ratios": [list(r) for r in report.ratios],
            "contractive": report.contractive,
            "isometric": report.isometric,
        }
    if op == "associated":
        view = laxphillips.associated_one_param(sys_obj, args.k, box)
        return {
            "direction": view.direction,
            "front": [list(t) for t in view.front],
            "A": _matrix_out(view.a),
            "B": _matrix_out(view.b),
            "C": _matrix_out(view.c),
            "D": _matrix_out(view.d),
        }
    raise DomainError(f"unknown laxphillips op {op!r}")


def _build_parser() -> argparse.ArgumentParser:
    env_tol = os.environ.get("NDSYS_TOL")
    try:
        default_tol = float(env_tol) if env_tol is not None else 1e-9
    except ValueError:
        raise DomainError(f"NDSYS_TOL must be a float, got {env_tol!r}")

    parser = argparse.ArgumentParser(
        prog="ndsys",
        description="Multiparametric stationary system toolkit",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=default_tol)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="JSON file of flag defaults")

    p = sub.add_parser("check", help="validate and analyse a system file")
    p.add_argument("system")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--no-refine", action="store_true")
    common(p)

    p = sub.add_parser("simulate", help="run a windowed simulation")
    p.add_argument("system")
    p.add_argument("--input", required=True)
    p.add_argument("--init", default=None)
    p.add_argument("--box", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--energy", default=None, help="write the energy ledger CSV here")
    p.add_argument("--closed-form", action="store_true")
    common(p)

    p = sub.add_parser("transfer", help="evaluate the transfer function")
    p.add_argument("system")
    p.add_argument("--points", default=None)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--series-terms", type=int, default=None)
    p.add_argument("--coeffs", type=int, default=None)
    common(p)

    p = sub.add_parser("realize", help="assemble a system from decomposition data")
    p.add_argument("data")
    p.add_argument("--padding", type=int, default=0)
    common(p)

    p = sub.add_parser("laxphillips", help="translation generators and views")
    p.add_argument("system")
    p.add_argument(
        "--op",
        required=True,
        choices=["generator", "adjoint", "gamma", "commute", "metric", "associated"],
    )
    p.add_argument("--vector", default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--box", default=None)
    p.add_argument("--trials", type=int, default=5)
    common(p)
    return parser


_DISPATCH = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "transfer": _cmd_transfer,
    "realize": _cmd_realize,
    "laxphillips": _cmd_laxphillips,
}


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            overrides = serialization.load_file(args.config)
            if not isinstance(overrides, dict):
                raise DomainError("config file must hold a JSON object")
            known = set(vars(args))
            for key, value in overrides.items():
                attr = key.replace("-", "_")
                if attr not in known:
                    raise DomainError(f"config key {key!r} matches no flag")
                # explicit flags win; config only fills values left at default
                if _flag_given(argv, key):
                    continue
                setattr(args, attr, value)
        if not isinstance(args.tol, (int, float)) or not math.isfinite(args.tol):
            raise DomainError(f"tol must be a finite number, got {args.tol!r}")
        inputs: list = []
        results = _DISPATCH[args.command](args, inputs)
        text = serialization.dump(
            {
                "schema": SCHEMA,
                "command": args.command,
                "inputs": inputs,
                "parameters": {
                    "tol": args.tol,
                    "seed": args.seed,
                },
                "results": results,
                "timing": {"seconds": round(time.monotonic() - started, 3)},
            }
        )
    except _INPUT_ERRORS as exc:
        _sys.stderr.write(f"input error: {exc}\n")
        return 2
    except _VERIFICATION_ERRORS as exc:
        _sys.stderr.write(f"verification failure: {exc}\n")
        if isinstance(exc, RealizationError) and exc.report:
            _sys.stderr.write(_residuals_text(exc.report) + "\n")
        return 3
    except NdsysError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    print(text)
    return 0


def _residuals_text(residuals: dict) -> str:
    try:
        return serialization.dump({"residuals": residuals})
    except DomainError:
        # a NaN or infinite residual is still the diagnosis; strict JSON
        # cannot carry it, so it goes out as Python writes it
        return f"residuals: {residuals!r}"


def _flag_given(argv, key: str) -> bool:
    source = argv if argv is not None else _sys.argv[1:]
    want = "--" + key.replace("_", "-")
    return any(tok == want or tok.startswith(want + "=") for tok in source)


if __name__ == "__main__":
    raise SystemExit(main())
