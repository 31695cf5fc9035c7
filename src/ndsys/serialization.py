"""JSON encodings for systems, signals, polynomials, and scattering vectors.

Complex scalars are [re, im] pairs, matrices are nested row-major lists of
pairs.  Every writer sorts keys and entry lists, so serialization is
deterministic; floats use repr round-tripping, so parse(serialize(x))
restores x bit for bit.  Malformed input surfaces as DomainError (or
ShapeError for structurally valid but dimensionally inconsistent data),
never as a raw KeyError or TypeError.
"""

from __future__ import annotations

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


def signal_to_json(sig: LatticeSignal) -> dict:
    points = sorted(sig.entries)
    values = np.array([sig.entries[t] for t in points], dtype=complex)
    values = values.reshape(len(points), sig.dim)
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
    return MatrixPolynomial(
        n=n, shape=(int(shape[0]), int(shape[1])), coeffs=coeffs
    )


def lp_vector_to_json(vec: TruncatedLPVector) -> dict:
    return {
        "box": {"lo": list(vec.box.lo), "hi": list(vec.box.hi)},
        "u_plus": signal_to_json(vec.u_plus),
        "y": signal_to_json(vec.y),
        "u_minus": signal_to_json(vec.u_minus),
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
    return AglerData(theta=theta, factors=factors, grid=grid)


def dump(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2)


def load_file(path: str) -> Any:
    """Parse a JSON file, folding parse failures into DomainError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from exc
