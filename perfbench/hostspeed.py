"""Host-speed correction for request latencies.

The benchmark runs on a few vCPUs of a shared host.  There the speed of a
vCPU flips between states up to 1.6x apart that each last a second or
more, and CPU time slows down as much as wall time.  A fixed reference
kernel, independent of ndsys, is therefore timed right before and right
after the requests, and each request's latency is scaled by
``reference_s / k``, where ``k`` is the median kernel time of the samples
that bracket it.  A reported latency is thus the seconds the request
would take on a host that runs the kernel in ``reference_s``.  A change to
ndsys moves the request and not the kernel, so it shows in full.

There are two kernels, because a fresh interpreter does other work than a
request inside a warm one and does not slow down in step with it:

- ``kernel`` for in-process requests and set-ups mixes the three kinds of
  work ndsys does: a Python loop over a dict with tuple keys and complex
  values (the front recursion), small dense linear algebra (the pointwise
  pencil work) and a JSON round trip (serialization);
- ``interpreter_kernel`` for cold starts starts a fresh interpreter that
  imports numpy and the standard modules the command line uses.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import subprocess
import sys
import time

import numpy as np

# Kernel seconds on the host where the bounds were set (Intel Xeon, 2 vCPUs).
KERNEL_S = 0.0045
INTERPRETER_KERNEL_S = 0.11
INTERVAL = 0.1  # seconds; a request is bracketed by samples at most this old

_rng = np.random.default_rng(0)
_MATS = [
    0.3 * (_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6)))
    for _ in range(12)
]
_RHS = _rng.standard_normal((6, 2)) + 0j
_EYE = np.eye(6)
_DOC = {
    "entries": [
        {"t": [i, j], "v": [[0.5 * i, -0.25 * j], [1.0 / (1 + i + j), 0.125]]}
        for i in range(24)
        for j in range(24)
    ]
}


def kernel() -> None:
    table = {(0, 0): 1 + 0j}
    for i in range(40):
        for j in range(40):
            if i or j:
                table[(i, j)] = (0.5 + 0.25j) * table.get((i - 1, j), 0j) + (
                    0.25 - 0.5j
                ) * table.get((i, j - 1), 0j) + complex(i, j) * 1e-3
    for m in _MATS:
        np.linalg.svd(m, compute_uv=False)
        np.linalg.solve(_EYE - m, _RHS)
        m @ m.conj().T
    json.loads(json.dumps(_DOC))


def interpreter_kernel() -> None:
    subprocess.run(
        [sys.executable, "-c", "import argparse, json, hashlib, numpy"],
        check=True, capture_output=True, timeout=60,
    )


class HostSpeed:
    """Timings of one kernel over a run, and the correction they give."""

    def __init__(self, kernel, reference_s: float, bracket: int):
        kernel()  # the first call pays one-off costs (LAPACK set-up, caches)
        self.kernel = kernel
        self.reference_s = reference_s
        self.bracket = bracket  # samples on each side of a request
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self, count: int | None = None) -> None:
        # The collector would make the kernel's time depend on the heap the
        # requests left behind; the kernel's own garbage goes by refcount.
        gc.disable()
        try:
            for _ in range(count or self.bracket):
                start = time.perf_counter()
                self.kernel()
                end = time.perf_counter()
                self.times.append((start + end) / 2)
                self.seconds.append(end - start)
        finally:
            gc.enable()

    def before(self) -> None:
        """Sample unless the last samples are younger than ``INTERVAL``."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def after(self, seconds: float) -> None:
        """Sample after a request that took ``INTERVAL`` or longer; a
        shorter one shares the samples before the next request."""
        if seconds >= INTERVAL:
            self.sample()

    def correct(self, seconds: float, start: float, count: int | None = None) -> float:
        """``seconds`` measured from ``start``, at the reference speed: the
        median of the ``count`` kernel samples before and the ``count``
        after sets the speed."""
        count = count or self.bracket
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, start + seconds)
        around = self.seconds[max(0, i - count):i] + self.seconds[j:j + count]
        return seconds * self.reference_s / statistics.median(around)
