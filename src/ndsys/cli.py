"""Command-line entry point.

Five subcommands (check, simulate, transfer, realize, laxphillips) read
JSON inputs and print one RunReport JSON document (schema tag "ndsys/1")
to stdout.  Exit codes: 0 when a result was computed (negative analysis
verdicts are results, not failures), 2 for input problems (parse, shape,
arity, domain, singular evaluation points), 3 for verification failures
(realization residuals, Gram mismatches, rank ambiguity, violated
preconditions), 1 when stdout was closed before the report was written
(e.g. ``ndsys transfer ... | head``), without a traceback.

The shared flags --tol and --seed apply everywhere; --config, after the
subcommand, names a JSON object of that subcommand's flags, parsed as if
written just after its name.  Precedence: explicit flag, then config file,
then the NDSYS_TOL environment variable (for tol), then built-ins.  System
paths of the form builtin:NAME resolve to bundled example files.

Each interpreter start pays for what its subcommand runs: this module
loads the package core (errors, lattice, pencil, system, numerics,
serialization), and each subcommand imports its engine when it runs:
check the analysis module, transfer the transfer module, realize the
realization module (which brings analysis and transfer), laxphillips the
laxphillips module.  simulate needs the core alone, and loads csv only
for --energy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import sys as _sys
import time

import numpy as np

from . import serialization
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
    _quote,
    _require_within,
)
from .lattice import Box, LatticeSignal, SimulationWindow
from .numerics import _largest_norm, halton_disc
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
    """``path``, or the bundled file that ``builtin:NAME`` names."""
    if path.startswith("builtin:"):
        return serialization.bundled(path.split(":", 1)[1])
    return path


def _load(path: str, inputs: list):
    """The parsed JSON file at ``path``; the digest of the bytes parsed
    joins ``inputs``."""
    obj, raw = serialization.read_json(path)
    inputs.append({"path": path, "sha256": hashlib.sha256(raw).hexdigest()})
    return obj


def _parse_box(text: str, n: int | None = None) -> Box:
    try:
        parts = [p.split(":") for p in text.split(",")]
        lo, hi = zip(*((int(a), int(b)) for a, b in parts))
    except ValueError as exc:
        raise DomainError(
            f"box must look like lo:hi,lo:hi,... got {text!r}"
        ) from exc
    if n is not None and len(lo) != n:
        raise ArityError(f"box has {len(lo)} coordinates, system has {n}")
    return Box(lo, hi)


def _load_system(path: str, inputs: list):
    return serialization.json_to_system(_load(_resolve_path(path), inputs))


def _cmd_check(args, inputs) -> dict:
    from . import analysis

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
            "witness": np.array(scan.witness, dtype=complex),
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
    input_signal = serialization.json_to_signal(_load(args.input, inputs))
    if args.init is not None:
        init = serialization.json_to_signal(_load(args.init, inputs))
    else:
        init = LatticeSignal(sys_obj.n, sys_obj.dim_x, {})
    window = SimulationWindow(_parse_box(args.box, sys_obj.n), args.nmax)
    evaluator = closed_form if args.closed_form else simulate
    columns = ("n", "E_minus", "E_plus", "E_x", "lhs", "rhs", "contaminated")
    # the ledger file opens before the run, so an unwritable path is refused
    # first; mode "a" leaves an existing file whole until the run is done
    try:
        opened = contextlib.nullcontext() if args.energy is None else open(args.energy, "a", newline="")
        with opened as ledger:
            result = evaluator(sys_obj, window, input_signal, init)
            report = energy_balance_report(
                sys_obj, window, input_signal, init, tol=args.tol, result=result
            )
            rows = [
                dict(zip(columns, (r.n, r.e_minus, r.e_plus, r.e_x, r.lhs, r.rhs, r.contaminated)))
                for r in report.rows
            ]
            if ledger is not None:
                import csv

                ledger.truncate(0)
                writer = csv.writer(ledger)  # it writes a float as its repr
                writer.writerow(columns)
                writer.writerows({**row, "contaminated": int(row["contaminated"])}.values() for row in rows)
    except OSError as exc:
        raise DomainError(f"cannot write the energy ledger to {args.energy}: {exc.strerror or exc}") from exc
    return {
        "evaluator": "closed_form" if args.closed_form else "recursion",
        "octant_exact": result.octant_exact,
        "states": serialization.signal_to_json(result.states),
        "outputs": serialization.signal_to_json(result.outputs),
        "contaminated_states": sorted(
            list(t) for t in result.contaminated_states
        ),
        "contaminated_outputs": sorted(
            list(t) for t in result.contaminated_outputs
        ),
        "energy": {
            "rows": rows,
            "dissipative_consistent": report.dissipative_consistent,
            "conservative_consistent": report.conservative_consistent,
            "tol": report.tol,
        },
    }


def _transfer_points(args, n: int, inputs: list) -> np.ndarray:
    if args.points is None:
        return halton_disc(args.grid, n, 0.7)
    return serialization.json_to_points(_load(args.points, inputs), n)


def _check_point_budget(count: int, sys_obj, terms: int | None) -> None:
    """Refuse points past the values budget, ``n + dim_x**2 + dim_out *
    dim_in`` values each, and series terms past the terms budget or, times
    the points, past the values budget."""
    width = sys_obj.n + sys_obj.dim_x**2 + sys_obj.dim_out * sys_obj.dim_in
    _require_within(f"{_quote(count)} points of {width} values each", count * width, budget="values")
    if terms is not None:
        _require_within(f"--series-terms {_quote(terms)}", terms, budget="terms")
        what = f"--series-terms {_quote(terms)} on {_quote(count)} points"
        _require_within(what, count * terms, budget="values")


def _cmd_transfer(args, inputs) -> dict:
    from . import transfer

    sys_obj = _load_system(args.system, inputs)
    if args.series_terms is not None:
        _require_within("series terms", args.series_terms, low=0)
    if args.points is None:
        _check_point_budget(args.grid, sys_obj, args.series_terms)  # before the grid is drawn
    pts = _transfer_points(args, sys_obj.n, inputs)
    _check_point_budget(len(pts), sys_obj, args.series_terms)
    # one evaluation of each pencil serves the solve and the series
    sys_obj.require_wellformed()
    pencils = transfer._pencils(sys_obj, pts)
    vals = transfer._solved(sys_obj, pts, pencils)
    results = {"points": serialization.Rows("transfer value", z=pts, value=vals)}
    if args.series_terms is not None and len(pts):
        approx = transfer._neumann(sys_obj, pts, args.series_terms, pencils)
        results["series_gap"] = {
            "terms": args.series_terms,
            "max_truncation_error": _largest_norm(vals - approx),
        }
    if args.coeffs is not None:
        poly = transfer.maclaurin_poly(sys_obj, args.coeffs)
        results["maclaurin"] = serialization.poly_to_json(poly)
    return results


def _cmd_realize(args, inputs) -> dict:
    from . import realization

    _require_within("padding", args.padding, low=0)  # before the identity check runs
    path = _resolve_path(args.data)
    data = serialization.json_to_agler(_load(path, inputs))
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
    from . import laxphillips

    sys_obj = _load_system(args.system, inputs)
    op = args.op
    if op in ("generator", "adjoint", "gamma"):
        if args.vector is None:
            raise DomainError(f"op {op!r} needs --vector")
        vec = serialization.json_to_lp_vector(_load(args.vector, inputs))
        if op == "gamma":
            out = laxphillips.gamma_map(vec)
            return {"vector": serialization.lp_vector_to_json(out)}
        apply_fn = (
            laxphillips.apply_generator if op == "generator" else laxphillips.apply_adjoint
        )
        out, mask = apply_fn(sys_obj, args.k, vec)
        return {
            "vector": serialization.lp_vector_to_json(out),
            "mask": {p: sorted(map(list, getattr(mask, p))) for p in ("u_plus", "y", "u_minus")},
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
            "A": view.a,
            "B": view.b,
            "C": view.c,
            "D": view.d,
        }
    raise DomainError(f"unknown laxphillips op {op!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 2)."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _config_flags(path: str) -> list[str]:
    """The flags spelled by the JSON object in the config file at ``path``:
    ``--key=value`` for a string or a number, a bare ``--key`` for true."""
    obj = serialization.load_file(path)
    if not isinstance(obj, dict):
        raise DomainError("config file must hold a JSON object")
    flags = []
    for key, value in obj.items():
        if key == "config":
            raise DomainError("config key 'config' is refused: a config file cannot name another")
        if value is False or not isinstance(value, (str, int, float)):
            raise DomainError(f"config key {key!r} must hold a string, a number or true")
        flag = "--" + key.replace("_", "-")
        flags.append(flag if value is True else f"{flag}={value}")
    return flags


def _env_tol() -> float:
    """The tol of a call that sets none by flag or config: NDSYS_TOL when
    it is set, else 1e-9."""
    env_tol = os.environ.get("NDSYS_TOL")
    try:
        return float(env_tol) if env_tol is not None else 1e-9
    except ValueError:
        raise DomainError(f"NDSYS_TOL must be a float, got {env_tol!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and kept:
    it holds no per-call state, since tol defaults to None here and `main`
    resolves it from the environment on every call."""
    parser = _Parser(
        prog="ndsys",
        description="Multiparametric stationary system toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="JSON file of this subcommand's flags")

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
        argv = _sys.argv[1:] if argv is None else list(argv)
        env_tol = _env_tol()
        parser = _parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # the last value given wins, so the user's own flags override
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        if args.tol is None:
            args.tol = env_tol
        if not math.isfinite(args.tol) or args.tol < 0:
            raise DomainError(f"tol must be a finite number >= 0, got {args.tol!r}")
        _require_within("seed", args.seed, low=0)
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
    try:
        print(text)
        _sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 1
    return 0


def _residuals_text(residuals: dict) -> str:
    try:
        return serialization.dump({"residuals": residuals})
    except DomainError:
        # a NaN or infinite residual is still the diagnosis; strict JSON
        # cannot carry it, so it goes out as Python writes it
        return f"residuals: {residuals!r}"


if __name__ == "__main__":
    raise SystemExit(main())
