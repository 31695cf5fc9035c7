"""Seeded input generation for the benchmark.

Everything here uses numpy and the standard library only, so writing the
inputs costs the same whatever the program under test does.  The files
follow the JSON formats of ``ndsys.serialization``: complex scalars are
``[re, im]`` pairs and matrices are nested row-major lists of pairs.

The system constructions mirror ``tests/gen.py``: conservative systems are
unitary colligations cut into partial isometries, dissipative ones are
convex mixtures of conservative ones, and the Agler data is the inner
fixture ``theta = U1 diag(z^t_i) U2`` with telescoped factors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class System:
    """Operator tuples as plain arrays: ``a[k]``, ``b[k]``, ``c[k]``, ``d[k]``."""

    a: tuple
    b: tuple
    c: tuple
    d: tuple

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class Poly:
    """Matrix polynomial: exponent tuple -> coefficient matrix."""

    n: int
    shape: tuple
    coeffs: dict

    def evaluate(self, z) -> np.ndarray:
        acc = np.zeros(self.shape, dtype=complex)
        for t, m in self.coeffs.items():
            acc += m * np.prod(np.asarray(z, dtype=complex) ** np.array(t))
        return acc


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _composition(rng, total, parts):
    cuts = np.sort(rng.integers(0, total + 1, size=parts - 1))
    return np.diff(np.concatenate([[0], cuts, [total]]))


def conservative_system(rng, n, dim_x, dim_io) -> System:
    m = dim_x + dim_io
    sizes = _composition(rng, m, n)
    v = _haar_unitary(rng, m)
    w = _haar_unitary(rng, m)
    a, b, c, d = [], [], [], []
    start = 0
    for k in range(n):
        sel = np.zeros((m, m), dtype=complex)
        stop = start + sizes[k]
        sel[start:stop, start:stop] = np.eye(sizes[k])
        start = stop
        g = w @ sel @ v.conj().T
        a.append(g[:dim_x, :dim_x])
        b.append(g[:dim_x, dim_x:])
        c.append(g[dim_x:, :dim_x])
        d.append(g[dim_x:, dim_x:])
    return System(tuple(a), tuple(b), tuple(c), tuple(d))


def dissipative_system(rng, n, dim_x, dim_io, mixtures=3) -> System:
    weights = rng.dirichlet(np.ones(mixtures))
    parts = [conservative_system(rng, n, dim_x, dim_io) for _ in range(mixtures)]
    mixed = {
        name: tuple(
            sum(wt * getattr(p, name)[k] for wt, p in zip(weights, parts))
            for k in range(n)
        )
        for name in "abcd"
    }
    return System(**mixed)


def gauss(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def dense_signal(rng, lo, hi, dim) -> dict:
    """Random values at every point of the 2-D box ``lo..hi`` (inclusive)."""
    return {
        (i, j): gauss(rng, dim)
        for i in range(lo[0], hi[0] + 1)
        for j in range(lo[1], hi[1] + 1)
    }


def interior_vector(rng, sys: System, lo: int, hi: int) -> dict:
    """Dense scattering vector on the square box ``lo..hi`` in Z^2, one layer
    off every face, so generator images stay inside the box."""
    inner = range(lo + 1, hi)
    pts = [(i, j) for i in inner for j in inner]
    dim_x, dim_in, dim_out = sys.a[0].shape[0], sys.b[0].shape[1], sys.c[0].shape[0]
    return {
        "box": ((lo, lo), (hi, hi)),
        "u_plus": {t: gauss(rng, dim_out) for t in pts if sum(t) <= 0},
        "y": {t: gauss(rng, dim_x) for t in pts if sum(t) == 0},
        "u_minus": {t: gauss(rng, dim_in) for t in pts if sum(t) >= 0},
        "dims": {"u_plus": dim_out, "y": dim_x, "u_minus": dim_in},
    }


def disc_points(rng, count, n, radius) -> list:
    """Area-uniform random points of the polydisc of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=(count, n)))
    phase = np.exp(2j * np.pi * rng.uniform(size=(count, n)))
    return [tuple(complex(v) for v in row) for row in r * phase]


def inner_fixture(rng, exponents, grid_points=60):
    """Agler data for ``theta = U1 diag(z^t_i) U2``, one exponent ``t_i``
    per diagonal entry; unitary on the torus.  The exponents fix the
    realization's state dimension and so its cost; the seed draws the
    unitaries and the grid."""
    q, n = len(exponents), len(exponents[0])
    u1 = _haar_unitary(rng, q)
    u2 = _haar_unitary(rng, q)
    theta = {}
    for i, t in enumerate(exponents):
        theta[t] = theta.get(t, np.zeros((q, q), dtype=complex)) + np.outer(
            u1[:, i], u2[i, :]
        )
    rows = {k: [] for k in range(n)}
    for i, t in enumerate(exponents):
        prefix = (0,) * n
        for letter in [k for k in range(n) for _ in range(t[k])]:
            rows[letter].append((prefix, u2[i, :].copy()))
            prefix = tuple(p + (k == letter) for k, p in enumerate(prefix))
    factors = []
    for k in range(n):
        height = max(len(rows[k]), 1)
        coeffs = {}
        for index, (mono, vec) in enumerate(rows[k]):
            block = coeffs.setdefault(mono, np.zeros((height, q), dtype=complex))
            block[index, :] = vec
        if not rows[k]:
            coeffs = {(0,) * n: np.zeros((1, q), dtype=complex)}
        factors.append(Poly(n, (height, q), coeffs))
    grid = disc_points(rng, grid_points, n, 0.75)
    return Poly(n, (q, q), theta), factors, grid


# --- JSON encodings -------------------------------------------------------


def _pair(v) -> list:
    return [float(v.real), float(v.imag)]


def _matrix(m) -> list:
    return [[_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def system_json(sys: System) -> dict:
    return {
        "n": sys.n,
        "dims": {
            "x": sys.a[0].shape[0],
            "nm": sys.b[0].shape[1],
            "np": sys.c[0].shape[0],
        },
        "A": [_matrix(m) for m in sys.a],
        "B": [_matrix(m) for m in sys.b],
        "C": [_matrix(m) for m in sys.c],
        "D": [_matrix(m) for m in sys.d],
    }


def signal_json(n, dim, entries: dict) -> dict:
    return {
        "n": n,
        "dim": dim,
        "entries": [
            {"t": list(t), "v": [_pair(x) for x in v]} for t, v in sorted(entries.items())
        ],
    }


def vector_json(vec: dict) -> dict:
    lo, hi = vec["box"]
    return {
        "box": {"lo": list(lo), "hi": list(hi)},
        **{
            part: signal_json(len(lo), vec["dims"][part], vec[part])
            for part in ("u_plus", "y", "u_minus")
        },
    }


def poly_json(p: Poly) -> dict:
    return {
        "n": p.n,
        "shape": list(p.shape),
        "terms": [{"t": list(t), "m": _matrix(m)} for t, m in sorted(p.coeffs.items())],
    }


def agler_json(theta: Poly, factors, grid) -> dict:
    return {
        "theta": poly_json(theta),
        "factors": [poly_json(f) for f in factors],
        "grid": [[_pair(v) for v in z] for z in grid],
    }


def points_json(points) -> list:
    return [[_pair(v) for v in z] for z in points]


def write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))
    return path
