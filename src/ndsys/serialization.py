"""JSON encodings for systems, signals, polynomials, Agler data and
scattering vectors.

Each object has one encoder, ``X_to_json``, and one decoder, ``json_to_X``.
An encoder returns the layout `dump` writes: plain JSON values, complex
ndarrays (the tuples A-D, an Agler grid) and `Rows` tables (signal entries,
polynomial terms).  A file is the text ``dump(X_to_json(obj))``: complex
scalars as [re, im] pairs, matrices as nested row-major lists of pairs,
keys and entry lists sorted, so serialization is deterministic; floats use
repr round-tripping, so ``json_to_X(json.loads(dump(X_to_json(x))))``
restores x bit for bit.  Malformed input, non-finite numbers included,
surfaces as DomainError (or ShapeError for structurally valid but
dimensionally inconsistent data), never as a raw KeyError or TypeError.
An integer field (a count, a size, an exponent, a box bound, a signal
coordinate) takes a JSON number of integral value and is read as the
Python constructors read it, by `errors.whole` or `LatticeSignal`: a
string is refused in both.

One decoder, `_complex`, reads every field of [re, im] pairs: the tuples
A-D, signal values, polynomial coefficients, the Agler grid and a points
file (`json_to_points`).  A field is a list of items of one fixed shape;
the first item that breaks it, or holds a number that is not finite as a
float, raises DomainError naming the field and the item's index path.

`dump` writes strict JSON and takes `Rows` tables and complex ndarrays
anywhere in its argument: it writes each one straight from its arrays, with
the bytes the standard library writes for its nested-list form.
"""

from __future__ import annotations

import json
import math
import os
import sys as _sys
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import DomainError, ShapeError, _quote, _require_within, whole
from .lattice import Box, LatticeSignal
from .pencil import OperatorTuple
from .system import MultiLSDS

if TYPE_CHECKING:  # the engines load when a decoder needs them
    from .laxphillips import TruncatedLPVector
    from .realization import AglerData
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
    "json_to_points",
    "Rows",
    "dump",
    "load_file",
    "bundled",
    "read_json",
]


def _refuse(node, shape: tuple[int, ...], what: str, path: list) -> None:
    """Raise DomainError, naming the field ``what`` and an index path, at the
    first place where ``node`` (at ``path``) departs from nested lists of
    ``shape`` holding finite numbers."""
    if shape and isinstance(node, list) and len(node) == shape[0]:
        for i, item in enumerate(node):
            _refuse(item, shape[1:], what, path + [i])
        return
    if shape:
        problem = "must be a [re, im] pair" if len(shape) == 1 else f"must be a list of {_quote(shape[0])}"
    elif not isinstance(node, (int, float)):
        problem = "must be a number"
    elif abs(node) <= _sys.float_info.max:  # false for nan, inf and integers past the float range
        return
    else:
        problem = "is non-finite"
    got = f"a list of {len(node)}" if isinstance(node, list) else _quote(node)
    raise DomainError(f"{what}: item {path} {problem}, got {got}")


def _complex(obj, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The JSON list ``obj`` as a complex array of shape ``(len(obj),) +
    shape``: each item nested lists of ``shape`` ending in [re, im] pairs of
    finite numbers.  Anything else raises DomainError in one form, naming
    the field ``what`` and the index path of the first bad item."""
    want = (len(_list(obj, what)), *shape, 2)
    try:
        a = np.array(obj)  # a str or object array for a string, None or an int past uint64
        fits = a.shape == want and np.isfinite(a).all()  # which isfinite refuses with TypeError
    except (TypeError, ValueError, OverflowError):
        fits = False
    if not fits:  # name the first bad item, or read what numpy could not type
        _refuse(obj, want, what, [])
        try:
            a = np.array(obj, dtype=float).reshape(want)
        except (ValueError, OverflowError) as exc:  # no items, of a shape numpy cannot hold
            raise DomainError(f"{what}: items of shape {list(shape)} are past numpy's range") from exc
    return a.astype(float, copy=False).view(complex)[..., 0]


def system_to_json(sys: MultiLSDS) -> dict:
    """The system with each tuple as one ``(n, rows, cols)`` complex array."""
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


def _list(value, what: str) -> list:
    """``value``, which must be a JSON list; an error names the field ``what``."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list, got {type(value).__name__}")
    return value


def json_to_system(obj: dict) -> MultiLSDS:
    if not isinstance(obj, dict):
        raise DomainError(f"system file must be a JSON object, got {type(obj).__name__}")
    n = whole(_need(obj, "n", "system"), "system: n")
    dims = _need(obj, "dims", "system")
    if not isinstance(dims, dict):
        raise DomainError(f"system: dims must be an object, got {type(dims).__name__}")
    keys = ("x", "nm", "np")
    stated = {key: whole(_need(dims, key, "system: dims"), f"system: dims {key}") for key in keys}
    for key, size in stated.items():
        _require_within(f"system: dims {key}", size, low=0)
    x, nm, ny = stated.values()
    tuples = []  # read with the shapes dims states, so the system is well formed
    for key, shape in zip("ABCD", ((x, x), (x, nm), (ny, x), (ny, nm))):
        mats = _complex(_need(obj, key, "system"), f"system: {key}", shape)
        if len(mats) != n:
            raise DomainError(f"system: {key} must list {_quote(n)} matrices, got {len(mats)}")
        tuples.append(OperatorTuple(tuple(mats)))
    return MultiLSDS(*tuples)


def signal_to_json(sig: LatticeSignal) -> dict:
    """The signal with its entries as a `Rows` table, points sorted."""
    return {
        "n": sig.n,
        "dim": sig.dim,
        "entries": Rows("signal value", t=sig.points, v=sig.values),
    }


def json_to_signal(obj: dict) -> LatticeSignal:
    if not isinstance(obj, dict):
        raise DomainError(f"signal must be a JSON object, got {type(obj).__name__}")
    n = whole(_need(obj, "n", "signal"), "signal: n")
    dim = whole(_need(obj, "dim", "signal"), "signal: dim")
    _require_within("signal: dim", dim, low=0)
    items = _list(obj.get("entries", []), "signal: entries")
    points = [_need(item, "t", "signal entry") for item in items]  # read by the signal in one conversion
    values = _complex([_need(item, "v", "signal entry") for item in items], "signal entries: v", (dim,))
    return LatticeSignal.from_arrays(n, dim, points, values)


def poly_to_json(poly: MatrixPolynomial) -> dict:
    """The polynomial with its terms as a `Rows` table, in `term_items`
    order."""
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
    from .transfer import MatrixPolynomial

    if not isinstance(obj, dict):
        raise DomainError(f"polynomial must be a JSON object, got {type(obj).__name__}")
    n = whole(_need(obj, "n", "polynomial"), "polynomial: n")
    # the constructor is the one check of the shape, before the terms are read by it
    shape = MatrixPolynomial(n=n, shape=_need(obj, "shape", "polynomial")).shape
    terms = _list(obj.get("terms", []), "polynomial: terms")
    mats = [_need(item, "m", "polynomial term") for item in terms]
    mats = _complex(mats, "polynomial terms: m", shape)
    coeffs = {}
    for item, m in zip(terms, mats):
        exps = _need(item, "t", "polynomial term")
        try:
            t = tuple(whole(v, "polynomial: exponent") for v in exps)
        except TypeError as exc:
            raise DomainError(f"polynomial term: t must list exponents, got {_quote(exps)}") from exc
        if t in coeffs:
            raise DomainError(f"polynomial: exponent {_quote(list(t))} is given twice")
        coeffs[t] = m
    return MatrixPolynomial(n=n, shape=shape, coeffs=coeffs)


def lp_vector_to_json(vec: TruncatedLPVector) -> dict:
    return {
        "box": {"lo": list(vec.box.lo), "hi": list(vec.box.hi)},
        "u_plus": signal_to_json(vec.u_plus),
        "y": signal_to_json(vec.y),
        "u_minus": signal_to_json(vec.u_minus),
    }


def json_to_lp_vector(obj: dict) -> TruncatedLPVector:
    from .laxphillips import TruncatedLPVector

    if not isinstance(obj, dict):
        raise DomainError(f"vector must be a JSON object, got {type(obj).__name__}")
    box_obj = _need(obj, "box", "vector")

    def bound(key):
        what = f"vector box: {key}"
        return tuple(whole(v, what) for v in _list(_need(box_obj, key, "vector box"), what))

    return TruncatedLPVector(
        box=Box(bound("lo"), bound("hi")),
        u_plus=json_to_signal(_need(obj, "u_plus", "vector")),
        y=json_to_signal(_need(obj, "y", "vector")),
        u_minus=json_to_signal(_need(obj, "u_minus", "vector")),
    )


def json_to_points(obj: list, n: int) -> np.ndarray:
    """The ``(S, n)`` complex array of a points file: a list of points,
    each a list of ``n`` [re, im] pairs."""
    return _complex(obj, "points", (n,))


def agler_to_json(data: AglerData) -> dict:
    """Raises DomainError, naming it, on a theta or factor that is not a
    `MatrixPolynomial`: a function known only by its values has no terms."""
    from .transfer import MatrixPolynomial

    for name, f in [("theta", data.theta), *((f"factor {k}", f) for k, f in enumerate(data.factors))]:
        if not isinstance(f, MatrixPolynomial):
            raise DomainError(f"decomposition data: {name} is a {type(f).__name__}, not a MatrixPolynomial")
    return {
        "theta": poly_to_json(data.theta),
        "factors": [poly_to_json(f) for f in data.factors],
        "grid": np.array(data.grid, dtype=complex).reshape(len(data.grid), data.theta.n),
    }


def json_to_agler(obj: dict) -> AglerData:
    from .realization import AglerData

    if not isinstance(obj, dict):
        raise DomainError(f"decomposition data must be a JSON object, got {type(obj).__name__}")
    theta = json_to_poly(_need(obj, "theta", "decomposition data"))
    factors = _list(_need(obj, "factors", "decomposition data"), "decomposition data: factors")
    factors = tuple(json_to_poly(f) for f in factors)
    # AglerData reads the grid fastest as nested lists
    grid = _complex(obj.get("grid", []), "decomposition data: grid", (theta.n,)).tolist()
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
_PLACEHOLDER = "\x00array"
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

    ``obj`` may hold `Rows` tables and complex ndarrays anywhere: each is
    written from its arrays, with the bytes the standard library writes for
    its nested-list form.  A NaN or infinite number raises DomainError.
    """
    arrays = []

    def place(value):
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


# The bundled example files, next to the package's __init__.py.
_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def bundled(name: str) -> str:
    """The path of the bundled file ``NAME.json`` that ``builtin:NAME``
    names.  NAME must be the name of a bundled file, so it holds no path
    separator and no ``..``."""
    names = sorted(f.removesuffix(".json") for f in os.listdir(_DATA) if f.endswith(".json"))
    if name not in names:
        raise DomainError(f"no bundled file named {name!r}; bundled: {', '.join(names)}")
    return os.path.join(_DATA, f"{name}.json")


def load_file(path: str) -> Any:
    """Parse a JSON file, folding read and parse failures into DomainError."""
    return read_json(path)[0]


def read_json(path: str) -> tuple[Any, bytes]:
    """The parsed JSON file at ``path`` and the bytes it was parsed from,
    read once.  A file that cannot be read (missing, a directory, no
    permission), that is not UTF-8 or that is not JSON raises DomainError
    naming ``path``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise DomainError(f"no such file: {path}") from exc
    except OSError as exc:
        raise DomainError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:
        return json.loads(raw.decode("utf-8")), raw
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise DomainError(f"{path}: invalid JSON ({exc})") from exc
