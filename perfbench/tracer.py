"""Per-layer tracing for the benchmark's traced run.

The layers are compactpool's modules. During a traced run only, each public
function in TRACED is replaced by a timing wrapper at its module attribute
and at every other compactpool module attribute bound to the same function
(``from .sketch import count_sketch`` binds one in ``pooling``). Spans are
recorded only inside an op, so the benchmark's own checks are not counted.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "hashplan": ("build_plan",),
    "sketch": ("count_sketch", "md_sketch"),
    "spectral": ("ndfft", "indfft", "checked_real"),
    "pooling": ("mcb", "mct", "polynomial_sketch", "local_mct"),
    "fileio": ("read_tensor", "write_tensor"),
    "cli": ("main",),
}
LAYERS = ("tensor", *TRACED)


def _size(args, result) -> int:
    return args[0].size


def _read_bytes(args, result) -> int:
    return result.values.nbytes


def _write_bytes(args, result) -> int:
    return args[0].values.nbytes


# Work counted per call: cells scattered, FFT points, file payload bytes.
AMOUNT = {
    "sketch.count_sketch": _size,
    "sketch.md_sketch": _size,
    "spectral.ndfft": _size,
    "spectral.indfft": _size,
    "fileio.read_tensor": _read_bytes,
    "fileio.write_tensor": _write_bytes,
}


LAYER_UNITS = {
    "hashplan.build_plan.calls_per_op": "count",
    "hashplan.build_plan.ms_per_op": "ms",
    "hashplan.share": "ratio",
    "hashplan.key_reuse": "ratio",
    "sketch.count_sketch.ms_per_op": "ms",
    "sketch.md_sketch.ms_per_op": "ms",
    "sketch.cells_per_s": "cells/s",
    "sketch.share": "ratio",
    "spectral.fft.ms_per_op": "ms",
    "spectral.fft.points_per_op": "points",
    "spectral.checked_real.ms_per_op": "ms",
    "spectral.checked_real.p99_ms": "ms",
    "spectral.share": "ratio",
    "tensor.wrap.ms_per_op": "ms",
    "tensor.wrap.bytes_per_op": "B",
    "pooling.self_ms_per_op": "ms",
    "fileio.read_tensor.ms_per_op": "ms",
    "fileio.write_tensor.ms_per_op": "ms",
    "fileio.bytes_per_op": "B",
    "cli.self_ms_per_op": "ms",
    "reference.ms_per_check": "ms",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class TraceError(RuntimeError):
    """A traced function is missing, or a workload's ops never reached it."""


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "amount", "durations")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.amount = 0
        self.durations: list[int] = []


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[int] = []  # child time accumulated by each open span
        self._restore: list[tuple[object, str, object]] = []
        self.plan_keys: set[tuple] = set()
        self.plan_reused = 0
        self.ops = 0
        self.op_ns = 0

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "compactpool" or name.startswith("compactpool.")]
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"compactpool.{layer}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if orig is None:
                    raise TraceError(f"compactpool.{layer}.{fname} is gone; update perfbench/tracer.py")
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, name, fn):
        amount = AMOUNT.get(name)
        is_plan = name == "hashplan.build_plan"

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self._stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                child = self._stack.pop()
                self._stack[-1] += dur
                self._record(name, dur, dur - child)
            if amount is not None:
                self.stats[name].amount += amount(args, result)
            if is_plan:
                key = (tuple(args[0]), tuple(args[1]), int(args[2]))
                self.plan_reused += key in self.plan_keys
                self.plan_keys.add(key)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, name, dur, self_ns):
        s = self.stats[name]
        s.calls += 1
        s.total_ns += dur
        s.self_ns += self_ns
        s.durations.append(dur)

    def span(self, name, fn, arg, amount=0):
        """Time a benchmark-side step inside the current op as its own span."""
        self._stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(arg)
        finally:
            dur = time.perf_counter_ns() - t0
            self._record(name, dur, dur - self._stack.pop())
            self._stack[-1] += dur
            self.stats[name].amount += amount

    def begin_op(self) -> None:
        self._stack.append(0)

    def end_op(self, dur_ns: int) -> None:
        self._stack.pop()
        self.ops += 1
        self.op_ns += dur_ns

    def layer_self_ns(self, layer: str) -> int:
        return sum(s.self_ns for name, s in self.stats.items() if name.split(".")[0] == layer)

    def metrics(self, expected: set[str], check_ms: float, overhead: float) -> dict[str, float]:
        """Per-layer metrics; raises TraceError if an expected function saw no call."""
        missing = sorted(name for name in expected if self.stats[name].calls == 0)
        if missing:
            raise TraceError(f"no traced calls to {', '.join(missing)}")
        ops = max(self.ops, 1)
        wall = max(self.op_ns, 1)
        st = self.stats

        def ms_per_op(*names):
            return sum(st[n].total_ns for n in names) / 1e6 / ops

        sketch_ns = st["sketch.count_sketch"].total_ns + st["sketch.md_sketch"].total_ns
        build = st["hashplan.build_plan"]
        checked = st["spectral.checked_real"].durations
        fileio_bytes = st["fileio.read_tensor"].amount + st["fileio.write_tensor"].amount
        return {
            "hashplan.build_plan.calls_per_op": build.calls / ops,
            "hashplan.build_plan.ms_per_op": ms_per_op("hashplan.build_plan"),
            "hashplan.share": self.layer_self_ns("hashplan") / wall,
            "hashplan.key_reuse": self.plan_reused / build.calls if build.calls else 0.0,
            "sketch.count_sketch.ms_per_op": ms_per_op("sketch.count_sketch"),
            "sketch.md_sketch.ms_per_op": ms_per_op("sketch.md_sketch"),
            "sketch.cells_per_s": (st["sketch.count_sketch"].amount + st["sketch.md_sketch"].amount)
            / (sketch_ns / 1e9) if sketch_ns else 0.0,
            "sketch.share": self.layer_self_ns("sketch") / wall,
            "spectral.fft.ms_per_op": ms_per_op("spectral.ndfft", "spectral.indfft"),
            "spectral.fft.points_per_op": (st["spectral.ndfft"].amount + st["spectral.indfft"].amount) / ops,
            "spectral.checked_real.ms_per_op": ms_per_op("spectral.checked_real"),
            "spectral.checked_real.p99_ms": float(np.percentile(checked, 99)) / 1e6 if checked else 0.0,
            "spectral.share": self.layer_self_ns("spectral") / wall,
            "tensor.wrap.ms_per_op": ms_per_op("tensor.wrap"),
            "tensor.wrap.bytes_per_op": st["tensor.wrap"].amount / ops,
            "pooling.self_ms_per_op": self.layer_self_ns("pooling") / 1e6 / ops,
            "fileio.read_tensor.ms_per_op": ms_per_op("fileio.read_tensor"),
            "fileio.write_tensor.ms_per_op": ms_per_op("fileio.write_tensor"),
            "fileio.bytes_per_op": fileio_bytes / ops,
            "cli.self_ms_per_op": self.layer_self_ns("cli") / 1e6 / ops,
            "reference.ms_per_check": check_ms,
            "trace.overhead": overhead,
            "trace.coverage": sum(self.layer_self_ns(layer) for layer in LAYERS) / wall,
        }
