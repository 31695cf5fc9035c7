#!/usr/bin/env python3
"""Seeded benchmark of the ndsys command line.

Run from the repository root:

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 28 --trace 0

One process, one client, closed loop: each request is an in-process
``ndsys.cli.main(argv)`` call with stdout captured in memory, except the
cold start, which runs ``python -m ndsys check builtin:alpha`` in a fresh
interpreter, one child at a time.  Inputs are generated from ``--seed``
into ``.perfbench/`` before any timed request; every response is checked
outside the timed region.  BLAS runs on one thread, and the process and
its children run on one CPU.

Latencies and set-up times are corrected for the host's speed, which
drifts on a shared host: a reference kernel is timed right before and
after the requests, and each time is scaled to a host that runs the kernel
in a fixed reference time (see ``perfbench/hostspeed.py``).  Each run
prints the measured medians too.

``--trace 0`` prints the end-to-end metrics: set-up time, peak RSS, and the
median and tail latency of each subcommand and of the cold start.
``--trace 1`` runs rounds of every request shape alternately untraced and
traced, and prints the per-layer metrics of one traced round; the spans go
to ``.perfbench/traces/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The other lines repeat the
metrics for people, with each tail's percentile and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# Set before numpy loads; the children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

SETUP_RUNS = 3  # set-ups per run: this process plus fresh children
SPEED_AROUND_SETUP = 5  # host-speed samples before and after a set-up
IMPORT_RUNS = 3
CHILD_TIMEOUT = 150
TIMING = re.compile(r'"timing": \{[^}]*\}')


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


class Ledger:
    """Every response checked, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def record(self, shape, index, code, text):
        from perfbench.workloads import CheckFailed

        self.attempted += 1
        try:
            shape.check(index, code, text)
        except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            self.fail(f"{shape.kind}: {type(exc).__name__}: {exc}")

    def prepare(self, shapes):
        for shape in shapes.values():
            try:
                shape.prepare()
            except Exception as exc:  # the oracle itself failed: no response can pass
                self.fail(f"{shape.kind} oracle: {type(exc).__name__}: {exc}")


def send(shape, index, cli, tracer=None, request=0):
    """Send one request; return (exit code, stdout, seconds)."""
    argv = shape.argvs[index]
    gc.collect()  # no request pays for the garbage of the one before
    if not shape.in_process:
        start = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        return proc.returncode, proc.stdout, time.perf_counter() - start
    buf = io.StringIO()
    with tracer.installed(request) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    return code, buf.getvalue(), seconds


def setup(workload: str, seed: int, workdir: str, speed):
    """Import the program, write the inputs, warm up each in-process
    request once.  The cold start needs no warm-up: every sample of it is
    a fresh interpreter.

    Returns the shapes, the warm-up responses and the seconds it took at
    the reference host speed, from host-speed samples on both sides.
    """
    speed.sample(SPEED_AROUND_SETUP)
    start = time.perf_counter()
    import ndsys.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        sys.exit(f"ndsys was imported from {cli.__file__}, not from {SRC}")
    from perfbench import workloads

    shapes = workloads.build(workload, seed, workdir)
    warm = []
    for kind in dict.fromkeys(workloads.requests_in_round(workload)):
        shape = shapes[kind]
        if not shape.in_process:
            continue
        for index in range(len(shape.argvs)):
            warm.append((shape, index) + send(shape, index, cli)[:2])
    seconds = time.perf_counter() - start
    speed.sample(SPEED_AROUND_SETUP)
    return cli, shapes, warm, speed.correct(seconds, start, SPEED_AROUND_SETUP)


def measure(cli, shapes, kinds, seconds, ledger, speed, child_speed):
    """Closed loop over the round's requests until ``seconds`` have passed,
    stopping between requests once every kind has been sampled.  Host
    speed is sampled around the requests: ``speed`` in this process for
    in-process requests, ``child_speed`` in fresh interpreters for the
    cold start.

    Returns each kind's latencies, measured and at the reference speed.
    """
    raw = {kind: [] for kind in kinds}
    sent = dict.fromkeys(kinds, 0)
    deadline = time.perf_counter() + seconds
    while not (all(raw.values()) and time.perf_counter() >= deadline):
        for kind in kinds:
            if all(raw.values()) and time.perf_counter() >= deadline:
                break
            shape = shapes[kind]
            index = sent[kind] % len(shape.argvs)
            sent[kind] += 1
            around = speed if shape.in_process else child_speed
            around.before()
            code, text, elapsed = send(shape, index, cli)
            raw[kind].append((time.perf_counter() - elapsed, elapsed))
            around.after(elapsed)
            ledger.record(shape, index, code, text)
    speed.sample()
    measured = {kind: [e for _, e in pairs] for kind, pairs in raw.items()}
    corrected = {
        kind: [
            (speed if shapes[kind].in_process else child_speed).correct(e, start)
            for start, e in pairs
        ]
        for kind, pairs in raw.items()
    }
    return measured, corrected


def tail(values):
    """The highest percentile with at least ten samples beyond it, its
    percentile and the sample count.  Below 20 samples no percentile at or
    above the median qualifies, and the median stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def digest(code, text, workdir) -> str:
    """Response fingerprint without the wall-clock field and the work
    directory, which are the only parts that differ between processes."""
    text = TIMING.sub("", text.replace(workdir, "<work>"))
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def child_setups(workload, seed, count, want, ledger):
    """Set up ``count`` more times, each in a fresh interpreter.

    A child's warm-up responses must equal this process's, which passed
    the oracles: ``want`` holds their (kind, fingerprint) pairs, and equal
    fingerprints stand in for checking the responses again.
    """
    times = []
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            ledger.fail(f"set-up child {i} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        times.append(result["setup_s"])
        ledger.attempted += len(want)
        for (kind, expected), got in zip(want, result["digests"]):
            if got != expected:
                ledger.fail(f"{kind}: set-up child {i} warm-up response differs")
    return times


def import_seconds(count, ledger):
    """Cumulative import time of ndsys.numerics from ``-X importtime``."""
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ndsys"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "ndsys.numerics":
                values.append(int(parts[1]) / 1e6)
    if not values:
        ledger.fail("-X importtime printed no ndsys.numerics line")
        return 0.0
    return statistics.median(values)


def traced(cli, shapes, kinds, seconds, trace_path, ledger):
    """Rounds of every request argv, alternately untraced and traced."""
    from perfbench.trace import LAYERS, Tracer

    modules = {layer: importlib.import_module(f"ndsys.{layer}") for layer in LAYERS}
    tracer = Tracer(modules)
    plan = [
        (shapes[kind], index)
        for kind in dict.fromkeys(kinds)
        if shapes[kind].in_process
        for index in range(len(shapes[kind].argvs))
    ]
    plain = with_trace = 0.0
    rounds = request = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for side in ((False, True) if rounds % 2 == 0 else (True, False)):
            for shape, index in plan:
                code, text, elapsed = send(
                    shape, index, cli, tracer if side else None, request
                )
                if side:
                    request += 1
                    with_trace += elapsed
                else:
                    plain += elapsed
                ledger.record(shape, index, code, text)
        rounds += 1
    metrics = tracer.metrics(rounds)
    metrics["trace.overhead_s"] = (with_trace - plain) / rounds
    metrics["numerics.import_s"] = import_seconds(IMPORT_RUNS, ledger)
    total = tracer.request_time() / rounds
    shares = {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS}
    tracer.write(trace_path)
    return metrics, rounds, total, shares


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ndsys", "__init__.py")):
        print(f"no ndsys sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the children it starts, so that the
        # host-speed samples time the CPU the requests run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, ROOT]
    from perfbench import hostspeed
    from perfbench.workloads import E2E, ROUNDS, requests_in_round

    if args.workload not in ROUNDS:
        parser.error(f"--workload must be one of {', '.join(ROUNDS)}")
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        speed = hostspeed.HostSpeed(hostspeed.kernel, hostspeed.KERNEL_S, 2)
        cli, shapes, warm, setup_s = setup(args.workload, args.seed, workdir, speed)
        if args.setup_only:
            print(json.dumps({
                "setup_s": setup_s,
                "digests": [digest(code, text, workdir) for _, _, code, text in warm],
            }))
            return 0
        ledger = Ledger()
        ledger.prepare(shapes)
        for shape, index, code, text in warm:
            ledger.record(shape, index, code, text)
        want = [(shape.kind, digest(code, text, workdir)) for shape, _, code, text in warm]
        del warm
        kinds = requests_in_round(args.workload)
        print(f"workload {args.workload}  seed {args.seed}  environment {json.dumps(environment())}")
        for kind, shape in shapes.items():
            print(f"  shape {kind}: {shape.describe}")
        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}-{os.getpid()}.tsv.gz"
            )
            values, rounds, total, shares = traced(
                cli, shapes, kinds, args.seconds, trace_path, ledger
            )
            from perfbench.trace import PER_LAYER

            specs = PER_LAYER
            print(f"traced rounds {rounds}, {total:.4f} s of requests per traced round; spans in {trace_path}")
            print("layer shares of traced request time: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])
            ))
        else:
            child_speed = hostspeed.HostSpeed(
                hostspeed.interpreter_kernel, hostspeed.INTERPRETER_KERNEL_S, 1
            )
            measured, samples = measure(
                cli, shapes, kinds, args.seconds, ledger, speed, child_speed
            )
            setups = [setup_s] + child_setups(
                args.workload, args.seed, SETUP_RUNS - 1, want, ledger
            )
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for kind, times in samples.items():
                high, pct, n = tail(times)
                values[f"{kind}.p50_s"] = statistics.median(times)
                values[f"{kind}.tail_s"] = high
                print(
                    f"  {kind}: n={n} p50={values[f'{kind}.p50_s']:.6f} s  tail=p{pct:.1f} {high:.6f} s"
                    f"  (measured p50={statistics.median(measured[kind]):.6f} s)"
                )
            print(f"  set-ups: {', '.join(f'{s:.4f}' for s in setups)} s")
            for name, s in (("kernel", speed), ("interpreter kernel", child_speed)):
                print(
                    f"  host-speed {name}: median {statistics.median(s.seconds):.6f} s over"
                    f" {len(s.seconds)} samples, reference {s.reference_s} s"
                )
            specs = E2E
        for message in ledger.messages:
            print(f"FAILED {message}", file=sys.stderr)
        print(f"fail_ratio {ledger.failed / ledger.attempted!r} ratio ({ledger.failed}/{ledger.attempted})")
        metrics = {}
        for name, unit, _ in specs:
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name} {values[name]!r} {unit}")
        print(json.dumps({
            "correct": ledger.failed == 0 and len(metrics) == len(specs),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
