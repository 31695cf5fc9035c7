"""JSON encodings for systems, signals, polynomials, and scattering vectors.

Complex scalars are [re, im] pairs, matrices are nested row-major lists of
pairs.  Every writer sorts keys and entry lists, so serialization is
deterministic; floats use repr round-tripping, so parse(serialize(x))
restores x bit for bit.  Malformed input, non-finite numbers included,
surfaces as DomainError (or ShapeError for structurally valid but
dimensionally inconsistent data), never as a raw KeyError or TypeError.

`dump` writes strict JSON and takes LatticeSignal values anywhere in its
argument: it writes each one straight from its arrays, with the same bytes
the standard library writes for its `signal_to_json` dict.
"""

from __future__ import annotations

import cmath
import json
from typing import Any

import numpy as np

from .errors import DomainError
from .lattice import Box, LatticeSignal
from .laxphillips import TruncatedLPVector
from .pencil import OperatorTuple
from .realization import AglerData
from .system import MultiLSDS
from .transfer import MatrixPolynomial

__all__ = [
    "system_to_json",
    "json_to_system",
    "signal_to_json",
    "json_to_signal",
    "poly_to_json",
    "json_to_poly",
    "lp_vector_fields",
    "lp_vector_to_json",
    "json_to_lp_vector",
    "agler_to_json",
    "json_to_agler",
    "dump",
    "load_file",
]


def _pair(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def _unpair(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise DomainError(f"expected a [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def _matrix(m: np.ndarray) -> list:
    return [[_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _unmatrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DomainError(f"expected a nested matrix list, got {type(obj).__name__}")
    return np.array(
        [[_unpair(v) for v in row] for row in obj], dtype=complex
    ).reshape(len(obj), len(obj[0]) if obj else 0)


def _unvector(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise DomainError(f"expected a vector list, got {type(obj).__name__}")
    return np.array([_unpair(x) for x in obj], dtype=complex)


def system_to_json(sys: MultiLSDS) -> dict:
    sys.require_wellformed()
    return {
        "n": sys.n,
        "dims": {"x": sys.dim_x, "nm": sys.dim_in, "np": sys.dim_out},
        "A": [_matrix(m) for m in sys.a],
        "B": [_matrix(m) for m in sys.b],
        "C": [_matrix(m) for m in sys.c],
        "D": [_matrix(m) for m in sys.d],
    }


def _need(obj: dict, key: str, context: str):
    if key not in obj:
        raise DomainError(f"{context}: missing key {key!r}")
    return obj[key]


def json_to_system(obj: dict) -> MultiLSDS:
    if not isinstance(obj, dict):
        raise DomainError(f"system file must be a JSON object, got {type(obj).__name__}")
    n = int(_need(obj, "n", "system"))
    dims = _need(obj, "dims", "system")
    tuples = {}
    for key in ("A", "B", "C", "D"):
        raw = _need(obj, key, "system")
        if not isinstance(raw, list) or len(raw) != n:
            raise DomainError(f"system: {key} must list {n} matrices")
        tuples[key] = OperatorTuple(tuple(_unmatrix(m) for m in raw))
    sys = MultiLSDS(a=tuples["A"], b=tuples["B"], c=tuples["C"], d=tuples["D"])
    stated = (int(dims.get("x", -1)), int(dims.get("nm", -1)), int(dims.get("np", -1)))
    if stated != (sys.dim_x, sys.dim_in, sys.dim_out):
        raise DomainError(
            f"system: stated dims {stated} disagree with matrices "
            f"({sys.dim_x}, {sys.dim_in}, {sys.dim_out})"
        )
    for key, t in zip("ABCD", (sys.a, sys.b, sys.c, sys.d)):
        if not t.is_finite():
            raise DomainError(f"system: {key} has non-finite entries")
    sys.require_wellformed()
    return sys


def _sorted_values(sig: LatticeSignal) -> tuple[list, np.ndarray]:
    """The support in sorted order and its values as one (N, dim) array."""
    points = sorted(sig.entries)
    values = np.array([sig.entries[t] for t in points], dtype=complex)
    return points, values.reshape(len(points), sig.dim)


def signal_to_json(sig: LatticeSignal) -> dict:
    points, values = _sorted_values(sig)
    pairs = np.stack([values.real, values.imag], -1).tolist()
    return {
        "n": sig.n,
        "dim": sig.dim,
        "entries": [{"t": list(t), "v": v} for t, v in zip(points, pairs)],
    }


def json_to_signal(obj: dict) -> LatticeSignal:
    if not isinstance(obj, dict):
        raise DomainError(f"signal must be a JSON object, got {type(obj).__name__}")
    n = int(_need(obj, "n", "signal"))
    dim = int(_need(obj, "dim", "signal"))
    entries = {}
    for item in obj.get("entries", []):
        t = tuple(int(v) for v in _need(item, "t", "signal entry"))
        entries[t] = _unvector(_need(item, "v", "signal entry"))
    sig = LatticeSignal(n=n, dim=dim, entries=entries)
    values = np.array(list(sig.entries.values())).reshape(len(sig.entries), dim)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = list(sig.entries)[int(np.argmin(finite))]
        raise DomainError(f"signal: non-finite value at {list(bad)}")
    return sig


def poly_to_json(poly: MatrixPolynomial) -> dict:
    return {
        "n": poly.n,
        "shape": list(poly.shape),
        "terms": [
            {"t": list(t), "m": _matrix(m)} for t, m in poly.term_items()
        ],
    }


def json_to_poly(obj: dict) -> MatrixPolynomial:
    if not isinstance(obj, dict):
        raise DomainError(f"polynomial must be a JSON object, got {type(obj).__name__}")
    n = int(_need(obj, "n", "polynomial"))
    shape = _need(obj, "shape", "polynomial")
    coeffs = {}
    for item in obj.get("terms", []):
        t = tuple(int(v) for v in _need(item, "t", "polynomial term"))
        coeffs[t] = _unmatrix(_need(item, "m", "polynomial term"))
        if not np.isfinite(coeffs[t]).all():
            raise DomainError(f"polynomial: non-finite coefficient at exponent {list(t)}")
    return MatrixPolynomial(
        n=n, shape=(int(shape[0]), int(shape[1])), coeffs=coeffs
    )


def lp_vector_fields(vec: TruncatedLPVector) -> dict:
    """The JSON layout of a vector with its three parts left as
    LatticeSignal values, which `dump` writes as `signal_to_json` does."""
    return {
        "box": {"lo": list(vec.box.lo), "hi": list(vec.box.hi)},
        "u_plus": vec.u_plus,
        "y": vec.y,
        "u_minus": vec.u_minus,
    }


def lp_vector_to_json(vec: TruncatedLPVector) -> dict:
    return {
        key: signal_to_json(v) if isinstance(v, LatticeSignal) else v
        for key, v in lp_vector_fields(vec).items()
    }


def json_to_lp_vector(obj: dict) -> TruncatedLPVector:
    if not isinstance(obj, dict):
        raise DomainError(f"vector must be a JSON object, got {type(obj).__name__}")
    box_obj = _need(obj, "box", "vector")
    box = Box(
        tuple(int(v) for v in _need(box_obj, "lo", "vector box")),
        tuple(int(v) for v in _need(box_obj, "hi", "vector box")),
    )
    return TruncatedLPVector(
        box=box,
        u_plus=json_to_signal(_need(obj, "u_plus", "vector")),
        y=json_to_signal(_need(obj, "y", "vector")),
        u_minus=json_to_signal(_need(obj, "u_minus", "vector")),
    )


def agler_to_json(data: AglerData) -> dict:
    return {
        "theta": poly_to_json(data.theta),
        "factors": [poly_to_json(f) for f in data.factors],
        "grid": [[_pair(v) for v in z] for z in data.grid],
    }


def json_to_agler(obj: dict) -> AglerData:
    if not isinstance(obj, dict):
        raise DomainError(f"decomposition data must be a JSON object, got {type(obj).__name__}")
    theta = json_to_poly(_need(obj, "theta", "decomposition data"))
    factors = tuple(
        json_to_poly(f) for f in _need(obj, "factors", "decomposition data")
    )
    grid = tuple(
        tuple(_unpair(v) for v in z) for z in obj.get("grid", [])
    )
    for i, z in enumerate(grid):
        if not all(map(cmath.isfinite, z)):
            raise DomainError(f"decomposition data: non-finite grid point at index {i}")
    return AglerData(theta=theta, factors=factors, grid=grid)


# What `dump` leaves in the text for each LatticeSignal it meets.
_PLACEHOLDER = "\x00LatticeSignal"
_PLACED = json.dumps(_PLACEHOLDER)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list whose opening line sits at ``indent``, as indent=2 writes it."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _write_signal(sig: LatticeSignal, indent: str) -> str:
    """``json.dumps(signal_to_json(sig), sort_keys=True, indent=2)`` with
    every line after the first shifted right by ``indent``, filled from one
    template with one ``%`` operation."""
    points, values = _sorted_values(sig)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = points[int(np.argmin(finite))]
        raise DomainError(f"report is not strict JSON: non-finite signal value at {list(bad)}")
    at = indent + "    "  # an entry's opening line
    pair = _json_list(["%r", "%r"], at + "    ")
    entry = (
        "{\n" + at + '  "t": ' + _json_list(["%d"] * sig.n, at + "  ")
        + ",\n" + at + '  "v": ' + _json_list([pair] * sig.dim, at + "  ")
        + "\n" + at + "}"
    )
    args = np.empty((len(points), sig.n + 2 * sig.dim), dtype=object)
    args[:, : sig.n] = np.array(points, dtype=object).reshape(-1, sig.n)
    args[:, sig.n :] = values.view(float)
    entries = _json_list([entry] * len(points), indent + "  ") % tuple(args.ravel())
    return (
        "{\n" + indent + f'  "dim": {sig.dim},\n' + indent + '  "entries": ' + entries
        + ",\n" + indent + f'  "n": {sig.n}\n' + indent + "}"
    )


def dump(obj: Any) -> str:
    """Deterministic strict JSON text: sorted keys, two-space indent.

    A LatticeSignal anywhere in ``obj`` is written as its `signal_to_json`
    dict, from its arrays.  A NaN or infinite number raises DomainError.
    """
    signals = []

    def place(value):
        if isinstance(value, LatticeSignal):
            signals.append(value)
            return _PLACEHOLDER
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=place)
    except ValueError as exc:
        raise DomainError(f"report is not strict JSON: {exc}") from exc
    pieces = text.split(_PLACED)
    if len(pieces) != len(signals) + 1:
        raise DomainError("report: a string equals the placeholder for a signal")
    out = [pieces[0]]
    for sig, before, after in zip(signals, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        out.append(_write_signal(sig, line[: len(line) - len(line.lstrip(" "))]))
        out.append(after)
    return "".join(out)


def load_file(path: str) -> Any:
    """Parse a JSON file, folding parse failures into DomainError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from exc
