"""Each op kind of the gated workloads reaches every function the traced run declares.

The benchmark's traced run (``perfbench/run.py --trace 1``) times each library
layer through the functions in ``tracer.TRACED``, and exits 3 when one of them
is gone or a workload's ops never reached it. perfbench's own tests trace only
sweep_trials, which never reaches local_mct, frequency mcb, fileio or
cli.main; the gated workloads in BENCHMARK.json do. Here one op of every kind
of each gated workload runs under the tracer and passes its pinned check, so
the guard does not depend on which ops a timed segment happens to hold
(stream_mid runs local_mct once in 501 ops).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

run._import_library()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", GATED)
def test_every_op_kind_reaches_the_declared_functions(workload, tmp_path):
    wl = workloads.build(workload, 1, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        for op in wl.warm_up_ops():  # one op of every kind
            tracer.begin_op()
            try:
                out, values = run._traced_call(op.kind, op, tracer)
            finally:
                tracer.end_op(0)
            op.kind.check(op, out, values, True)
    finally:
        tracer.uninstall()
        wl.close()
    tracer.metrics(wl.expected_calls, 0.0, 1.0)  # TraceError names a function no op reached
