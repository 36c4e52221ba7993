"""compactpool benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload stream_mid --seed 1 --seconds 60 --trace 0

One process, one caller, closed loop: the next op starts when the last one
returns. Each op wraps raw numpy inputs into library tensors, calls the
library through its public functions and takes the result's values; that
is the time measured. Every op's output is then checked outside the clock.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced segments, half the time
each, and reports the per-layer metrics. The last line of standard output is the
result object; the line before it holds the environment and run details.
Exit codes: 0 all outputs correct, 1 an output check failed, 2 the library
source is missing or the arguments are bad, 3 the traced run lacks a layer.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from checks import CheckFailure, rel_err
from tracer import LAYER_UNITS, TraceError, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is measured in this process and in this many fresh child processes.
SETUP_CHILDREN = 2
# rel_err.median uses the first this many checked ops of the run.
MAX_REL_ERRS = 3000
# A traced run alternates this many untraced and traced segments.
TRACE_SEGMENTS = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library():
    """Import compactpool from this checkout's src/, never from elsewhere."""
    if not (SRC / "compactpool" / "__init__.py").is_file():
        raise ImportError(f"no compactpool package under {SRC}")
    sys.path.insert(0, str(SRC))
    import compactpool

    if Path(compactpool.__file__).resolve().parent != SRC / "compactpool":
        raise ImportError(f"compactpool imported from {compactpool.__file__}, not {SRC}")


def _blas_threads():
    """OpenBLAS's thread count as the loaded library reports it, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "compactpool").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class Window:
    """What one timed window observed."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.failed = 0
        self.failures: list[str] = []
        self.check_ns = 0
        self.rel_errs: list[float] = []
        self.kind_ns: dict[str, list[int]] = {}  # op kind -> [ops, total op time]

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    @property
    def ops_per_s(self) -> float:
        return len(self.latency_ns) / (sum(self.latency_ns) / 1e9)


def _traced_call(kind, op, tracer):
    if not kind.wraps:
        out = kind.invoke(kind.prepare(op))
        return out, kind.extract(out)
    args = tracer.span("tensor.wrap", kind.prepare, op, sum(a.nbytes for a in op.inputs))
    out = kind.invoke(args)
    return out, tracer.span("tensor.wrap", kind.extract, out)


def run_window(ops, seconds, pinned, w, tracer=None, accuracy=False):
    """Closed loop over ``ops`` for ``seconds`` of wall time, observed into ``w``.

    Op time excludes the checks, which run between ops.
    """
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(ops)
        kind = op.kind
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = kind.invoke(kind.prepare(op))
                values = kind.extract(out)
            else:
                tracer.begin_op()
                try:
                    out, values = _traced_call(kind, op, tracer)
                finally:
                    tracer.end_op(time.perf_counter_ns() - t0)
        except Exception as e:  # a failing op is counted, and the loop goes on
            w.latency_ns.append(time.perf_counter_ns() - t0)
            w.fail(f"{kind.name} raised {e!r}")
            continue
        dt = time.perf_counter_ns() - t0
        w.latency_ns.append(dt)
        tally = w.kind_ns.setdefault(kind.name, [0, 0])
        tally[0] += 1
        tally[1] += dt

        c0 = time.perf_counter_ns()
        try:
            checked = kind.check(op, out, values, kind.name not in pinned)
            pinned.add(kind.name)
        except CheckFailure as e:
            w.fail(str(e))
            checked = None
        except Exception:  # the check itself broke: report it as a failed op
            w.fail(f"{kind.name} check raised:\n{traceback.format_exc()}")
            checked = None
        if accuracy and checked is not None and len(w.rel_errs) < MAX_REL_ERRS:
            w.rel_errs.append(rel_err(*kind.estimate(op, checked)))
        w.check_ns += time.perf_counter_ns() - c0


def _setup_samples(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    args = _parse(argv)
    # A terminated run still removes its temp dir and its set-up child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _import_library()
    except ImportError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, ROOT)
    try:
        wl.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        detail = {"workload": args.workload, "env": environment(args.seed)}
        try:
            if args.trace:
                windows, metrics = _traced(args, wl, detail)
            else:
                windows, metrics = _timed(args, wl, setup_s, detail)
        except TraceError as e:
            print(f"perfbench: traced run failed: {e}", file=sys.stderr)
            return 3
    finally:
        wl.close()
    attempted = sum(len(w.latency_ns) for w in windows)
    failed = sum(w.failed for w in windows)
    detail.update(failed_ratio=failed / attempted, failures=[f for w in windows for f in w.failures])
    correct = failed == 0 and all(np.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _timed(args, wl, setup_s, detail):
    """The end-to-end metrics, from one untraced window."""
    w = Window()
    run_window(wl.ops(), args.seconds, set(), w, accuracy=True)
    setup = [setup_s, *_setup_samples(args)]
    lat_ms = np.asarray(w.latency_ns) / 1e6
    p99 = np.percentile(lat_ms, 99)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(w.ops_per_s, "1/s"),
        "latency_ms.p50": _metric(np.percentile(lat_ms, 50), "ms"),
        "latency_ms.p99": _metric(p99, "ms"),
        "rel_err.median": _metric(statistics.median(w.rel_errs) if w.rel_errs else float("nan"), "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail.update(setup_samples_s=setup, latency_samples=len(lat_ms),
                  samples_beyond_p99=int((lat_ms > p99).sum()), rel_err_samples=len(w.rel_errs),
                  kinds={k: {"ops": n, "time_share": round(ns / sum(w.latency_ns), 4)}
                         for k, (n, ns) in w.kind_ns.items()})
    return [w], metrics


def _traced(args, wl, detail):
    """The per-layer metrics. Untraced and traced segments alternate over one
    op sequence, so drift during the run falls on both sides of trace.overhead."""
    ops, pinned, plain, traced, tracer = wl.ops(), set(), Window(), Window(), Tracer()
    segment = args.seconds / 2 / TRACE_SEGMENTS
    for _ in range(TRACE_SEGMENTS):
        run_window(ops, segment, pinned, plain)
        tracer.install()
        try:
            run_window(ops, segment, pinned, traced, tracer=tracer)
        finally:
            tracer.uninstall()
    windows = [plain, traced]
    check_ms = sum(w.check_ns for w in windows) / 1e6 / sum(len(w.latency_ns) for w in windows)
    layer = tracer.metrics(wl.expected_calls, check_ms, traced.ops_per_s / plain.ops_per_s)
    detail.update(traced_ops=tracer.ops, untraced_ops=len(plain.latency_ns))
    return windows, {name: _metric(v, LAYER_UNITS[name]) for name, v in layer.items()}


if __name__ == "__main__":
    sys.exit(main())
