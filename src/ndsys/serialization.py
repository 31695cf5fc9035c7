"""JSON encodings for systems, signals, polynomials, and scattering vectors.

Complex scalars are [re, im] pairs, matrices are nested row-major lists of
pairs.  Every writer sorts keys and entry lists, so serialization is
deterministic; floats use repr round-tripping, so parse(serialize(x))
restores x bit for bit.  Malformed input, non-finite numbers included,
surfaces as DomainError (or ShapeError for structurally valid but
dimensionally inconsistent data), never as a raw KeyError or TypeError.

`dump` writes strict JSON and takes `Rows` tables, complex ndarrays and
LatticeSignal values anywhere in its argument: it writes each one straight
from its arrays, with the bytes the standard library writes for its
nested-list form.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any

import numpy as np

from .errors import DomainError, ShapeError
from .lattice import Box, LatticeSignal, whole
from .laxphillips import TruncatedLPVector
from .pencil import OperatorTuple
from .realization import AglerData
from .system import MultiLSDS
from .transfer import MatrixPolynomial

__all__ = [
    "system_to_json",
    "system_fields",
    "json_to_system",
    "signal_to_json",
    "json_to_signal",
    "poly_to_json",
    "poly_fields",
    "json_to_poly",
    "lp_vector_fields",
    "lp_vector_to_json",
    "json_to_lp_vector",
    "agler_to_json",
    "json_to_agler",
    "Rows",
    "dump",
    "load_file",
]


def _pair(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def _unpair(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise DomainError(f"expected a [re, im] pair, got {obj!r}")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected a [re, im] pair of numbers, got {obj!r}") from exc


def _matrix(m: np.ndarray) -> list:
    return [[_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _unmatrix(obj, what: str) -> np.ndarray:
    """The nested matrix list ``obj`` as a complex array; an error names the
    field ``what``."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DomainError(f"{what}: expected a nested matrix list, got {type(obj).__name__}")
    try:
        rows = [[_unpair(v) for v in row] for row in obj]
        return np.array(rows, dtype=complex).reshape(len(obj), len(obj[0]) if obj else 0)
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}") from exc
    except ValueError as exc:  # numpy refuses ragged rows
        lengths = sorted({len(row) for row in obj})
        raise DomainError(
            f"{what}: matrix rows must have one length, got lengths {lengths}"
        ) from exc


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


def system_fields(sys: MultiLSDS) -> dict:
    """The JSON layout of `system_to_json` with each tuple left as one
    ``(n, rows, cols)`` complex array, which `dump` writes with the same
    bytes."""
    sys.require_wellformed()
    fields = {"n": sys.n, "dims": {"x": sys.dim_x, "nm": sys.dim_in, "np": sys.dim_out}}
    for key, ops in zip("ABCD", (sys.a, sys.b, sys.c, sys.d)):
        fields[key] = np.array(ops.mats, dtype=complex)
    return fields


def _need(obj: dict, key: str, context: str):
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        if isinstance(obj, dict):
            raise DomainError(f"{context}: missing key {key!r}") from exc
        raise DomainError(f"{context} must be a JSON object, got {type(obj).__name__}") from exc


def json_to_system(obj: dict) -> MultiLSDS:
    if not isinstance(obj, dict):
        raise DomainError(f"system file must be a JSON object, got {type(obj).__name__}")
    n = whole(_need(obj, "n", "system"), "system: n")
    dims = _need(obj, "dims", "system")
    if not isinstance(dims, dict):
        raise DomainError(f"system: dims must be an object, got {type(dims).__name__}")
    tuples = {}
    for key in ("A", "B", "C", "D"):
        raw = _need(obj, key, "system")
        if not isinstance(raw, list) or len(raw) != n:
            raise DomainError(f"system: {key} must list {n} matrices")
        tuples[key] = OperatorTuple(tuple(_unmatrix(m, f"system: {key}") for m in raw))
    sys = MultiLSDS(a=tuples["A"], b=tuples["B"], c=tuples["C"], d=tuples["D"])
    stated = tuple(whole(dims.get(key, -1), f"system: dims {key}") for key in ("x", "nm", "np"))
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
    pairs = np.stack([sig.values.real, sig.values.imag], -1).tolist()
    return {
        "n": sig.n,
        "dim": sig.dim,
        "entries": [{"t": t, "v": v} for t, v in zip(sig.points.tolist(), pairs)],
    }


def json_to_signal(obj: dict) -> LatticeSignal:
    if not isinstance(obj, dict):
        raise DomainError(f"signal must be a JSON object, got {type(obj).__name__}")
    n = whole(_need(obj, "n", "signal"), "signal: n")
    dim = whole(_need(obj, "dim", "signal"), "signal: dim")
    items = obj.get("entries", [])
    points = [_need(item, "t", "signal entry") for item in items]
    try:
        pairs = np.array([_need(item, "v", "signal entry") for item in items], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"signal: each value must list {dim} [re, im] pairs") from exc
    if pairs.shape != (len(items), dim, 2) and (pairs.size or len(items) * dim):
        raise DomainError(f"signal: each value must list {dim} [re, im] pairs")
    values = pairs.reshape(len(items), dim, 2).view(complex)[..., 0]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = points[int(np.argmin(finite))]
        raise DomainError(f"signal: non-finite value at {list(bad)}")
    return LatticeSignal.from_arrays(n, dim, points, values)


def poly_to_json(poly: MatrixPolynomial) -> dict:
    return {
        "n": poly.n,
        "shape": list(poly.shape),
        "terms": [
            {"t": list(t), "m": _matrix(m)} for t, m in poly.term_items()
        ],
    }


def poly_fields(poly: MatrixPolynomial) -> dict:
    """The JSON layout of `poly_to_json` with its terms left as a `Rows`
    table, which `dump` writes from its arrays with the same bytes."""
    exps, mats = zip(*poly.term_items()) if poly.coeffs else ((), ())
    return {
        "n": poly.n,
        "shape": list(poly.shape),
        "terms": Rows(
            "polynomial term",
            t=np.array(exps, dtype=np.int64).reshape(len(exps), poly.n),
            m=np.array(mats, dtype=complex).reshape((len(mats),) + poly.shape),
        ),
    }


def json_to_poly(obj: dict) -> MatrixPolynomial:
    if not isinstance(obj, dict):
        raise DomainError(f"polynomial must be a JSON object, got {type(obj).__name__}")
    n = whole(_need(obj, "n", "polynomial"), "polynomial: n")
    shape = _need(obj, "shape", "polynomial")
    if not (isinstance(shape, list) and len(shape) == 2):
        raise DomainError(f"polynomial: shape must be a [rows, cols] list, got {shape!r}")
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise DomainError(f"polynomial: terms must be a list, got {type(terms).__name__}")
    coeffs = {}
    for item in terms:
        exps = _need(item, "t", "polynomial term")
        try:
            t = tuple(whole(v, "polynomial: exponent") for v in exps)
        except TypeError as exc:
            raise DomainError(f"polynomial term: t must list exponents, got {exps!r}") from exc
        coeffs[t] = _unmatrix(_need(item, "m", "polynomial term"), "polynomial term: m")
        if not np.isfinite(coeffs[t]).all():
            raise DomainError(f"polynomial: non-finite coefficient at exponent {list(t)}")
    rows, cols = whole(shape[0], "polynomial: shape"), whole(shape[1], "polynomial: shape")
    return MatrixPolynomial(n=n, shape=(rows, cols), coeffs=coeffs)


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
        tuple(whole(v, "vector box: lo") for v in _need(box_obj, "lo", "vector box")),
        tuple(whole(v, "vector box: hi") for v in _need(box_obj, "hi", "vector box")),
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
    factors = _need(obj, "factors", "decomposition data")
    if not isinstance(factors, list):
        raise DomainError(
            f"decomposition data: factors must be a list, got {type(factors).__name__}"
        )
    factors = tuple(json_to_poly(f) for f in factors)
    points = obj.get("grid", [])
    if not isinstance(points, list):
        raise DomainError(f"decomposition data: grid must be a list, got {type(points).__name__}")
    try:
        grid = tuple(tuple(_unpair(v) for v in z) for z in points)
    except TypeError as exc:  # a point that is no list of pairs; name the first
        i = next(i for i, z in enumerate(points) if not isinstance(z, list))
        raise DomainError(
            f"decomposition data: grid point at index {i} must be a list of [re, im] pairs, "
            f"got {points[i]!r}"
        ) from exc
    for i, z in enumerate(grid):
        if not all(map(cmath.isfinite, z)):
            raise DomainError(f"decomposition data: non-finite grid point at index {i}")
    return AglerData(theta=theta, factors=factors, grid=grid)


class Rows:
    """A table for `dump`: int or complex arrays that share their first axis,
    written as a JSON list of records ``{name: array[i]}`` in nested lists,
    a complex number as its [re, im] pair.  A non-finite number is refused
    with an error naming ``what`` and the first bad row by its first field.
    """

    def __init__(self, what: str, /, **fields):
        self.what, self.fields = what, {name: np.asarray(a) for name, a in fields.items()}
        rows = {a.shape[:1] for a in self.fields.values()}
        if len(rows) != 1 or () in rows or any(a.dtype.kind not in "iuc" for a in self.fields.values()):
            raise ShapeError(f"table fields {sorted(fields)} must be int or complex arrays with shared rows")


# What `dump` leaves in the text for each table or complex array it meets.
_PLACEHOLDER = "\x00LatticeSignal"
_PLACED = json.dumps(_PLACEHOLDER)


def _nested(shape: tuple[int, ...], slot: str, indent: str) -> str:
    """Nested lists of ``shape`` opening at ``indent`` as indent=2 writes
    them, with ``slot`` for each innermost item."""
    if not shape:
        return slot
    if not shape[0]:
        return "[]"
    inner, item = "\n" + indent + "  ", _nested(shape[1:], slot, indent + "  ")
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + indent + "]"


def _numbers(a: np.ndarray) -> tuple[str, np.ndarray]:
    """The slot and the numbers of an int or complex array, a complex number
    as a trailing [re, im] axis."""
    if a.dtype.kind == "c":
        return "%r", np.ascontiguousarray(a, dtype=complex).view(float).reshape(a.shape + (2,))
    return "%d", a


def _write_array(value, indent: str) -> str:
    """What ``json.dumps(..., sort_keys=True, indent=2)`` writes for the
    nested lists of ``value``, a `Rows` table or a complex array, with every
    line after the first shifted right by ``indent``: one template, filled
    with one ``%`` operation."""
    if isinstance(value, np.ndarray):
        slot, numbers = _numbers(value)
        bad = np.argwhere(~np.isfinite(value))
        if len(bad):
            raise DomainError(f"report is not strict JSON: non-finite array value at {bad[0].tolist()}")
        return _nested(numbers.shape, slot, indent) % tuple(numbers.ravel().tolist())
    first, at = next(iter(value.fields.values())), indent + "    "  # a record's fields
    slots, columns = [], []
    for name in sorted(value.fields):
        slot, numbers = _numbers(value.fields[name])
        columns.append(numbers.reshape(len(first), math.prod(numbers.shape[1:])))
        finite = np.isfinite(columns[-1]).all(axis=1)
        if not finite.all():
            bad = first[int(np.argmin(finite))].tolist()
            raise DomainError(f"report is not strict JSON: non-finite {value.what} at {bad}")
        slots.append(json.dumps(name).replace("%", "%%") + ": " + _nested(numbers.shape[1:], slot, at))
    record = "{\n" + at + (",\n" + at).join(slots) + "\n" + indent + "  }"
    args = np.concatenate(columns, axis=1, dtype=object)
    return _nested((len(first),), record, indent) % tuple(args.ravel())


def dump(obj: Any) -> str:
    """Deterministic strict JSON text: sorted keys, two-space indent.

    ``obj`` may hold `Rows` tables, complex ndarrays and LatticeSignal values
    anywhere: each is written from its arrays, with the bytes the standard
    library writes for its nested-list form (a signal's is `signal_to_json`).
    A NaN or infinite number raises DomainError.
    """
    arrays = []

    def place(value):
        if isinstance(value, LatticeSignal):
            table = Rows("signal value", t=value.points, v=value.values)
            return {"dim": value.dim, "entries": table, "n": value.n}
        if isinstance(value, Rows) or isinstance(value, np.ndarray) and value.dtype.kind == "c":
            arrays.append(value)
            return _PLACEHOLDER
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=place)
    except ValueError as exc:
        raise DomainError(f"report is not strict JSON: {exc}") from exc
    pieces = text.split(_PLACED)
    if len(pieces) != len(arrays) + 1:
        raise DomainError("report: a string equals the placeholder for an array")
    out = [pieces[0]]
    for value, before, after in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        out.append(_write_array(value, line[: len(line) - len(line.lstrip(" "))]))
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
