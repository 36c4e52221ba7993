"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from compactpool.cli import main, run_sweep
from compactpool.fileio import BenchRecord, write_csv
from compactpool.hashplan import build_plan, derive_seed
from compactpool.pooling import PoolingConfig, mcb, polynomial_sketch
from compactpool.reference import kernel_oracle, mcb_oracle
from compactpool.selfcheck import fft_errors, mcb_error, mct_error, padding_error
from compactpool.sketch import count_sketch, decode_estimate
from compactpool.tensor import DenseTensor

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_mcb_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n1 = int(rng.choice([4, 8, 16]))
        n2 = int(rng.choice([4, 8, 16]))
        d = int(rng.choice([8, 16, 32]))
        seed = int(rng.integers(0, 2**32))
        x = DenseTensor.vector(rng.standard_normal(n1))
        y = DenseTensor.vector(rng.standard_normal(n2))
        worst = max(worst, mcb_error(x, y, d, seed))
    elapsed = time.perf_counter() - start
    _report(1, "mcb identity", worst <= 1e-9 and elapsed < 10.0,
            f"max abs err {worst:.2e} over 100 cases in {elapsed:.1f}s")


def test_criterion_2_mct_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        c, h, w, l = (int(v) for v in rng.integers(1, 7, size=4))
        d = int(rng.choice([4, 8]))
        seed = int(rng.integers(0, 2**32))
        img = DenseTensor.from_array(rng.standard_normal((c, h, w)))
        txt = DenseTensor.vector(rng.standard_normal(l))
        worst = max(worst, mct_error(img, txt, d, seed))
    elapsed = time.perf_counter() - start
    _report(2, "mct identity", worst <= 1e-9 and elapsed < 30.0,
            f"max abs err {worst:.2e} over 50 cases in {elapsed:.1f}s")


def test_criterion_3_fft_matches_naive():
    rng = np.random.default_rng(3)
    worst_fwd = 0.0
    worst_inv = 0.0
    for case in range(50):
        order = case % 3 + 1
        dims = tuple(int(v) for v in rng.integers(1, 17, size=order))
        fwd, inv = fft_errors(DenseTensor.from_array(rng.standard_normal(dims)))
        worst_fwd = max(worst_fwd, fwd)
        worst_inv = max(worst_inv, inv)
    ok = worst_fwd <= 1e-9 and worst_inv <= 1e-9
    _report(3, "fft vs naive dft", ok,
            f"forward rel err {worst_fwd:.2e}, round-trip rel err {worst_inv:.2e}")


def test_criterion_4_decode_unbiased():
    start = time.perf_counter()
    n, d, trials = 32, 8, 20_000
    v = DenseTensor.vector(np.random.default_rng(42).standard_normal(n))
    indices = (0, 7, 13, 21, 31)
    estimates = np.empty((len(indices), trials))
    for r in range(trials):
        p = build_plan([n], [d], r)
        out = count_sketch(v, p)
        for row, idx in enumerate(indices):
            estimates[row, r] = decode_estimate(out, p, (idx,))
    worst_ratio = 0.0
    for row, idx in enumerate(indices):
        err = abs(estimates[row].mean() - v.values[idx])
        bound = 4 * estimates[row].std(ddof=1) / np.sqrt(trials)
        worst_ratio = max(worst_ratio, err / bound)
    elapsed = time.perf_counter() - start
    _report(4, "decode unbiasedness", worst_ratio <= 1.0 and elapsed < 60.0,
            f"worst |mean err| / (4 sd/sqrt(R)) = {worst_ratio:.2f} in {elapsed:.1f}s")


def test_criterion_5_inner_product_preserved():
    n, d, trials = 32, 8, 20_000
    rng = np.random.default_rng(42)
    x = DenseTensor.vector(rng.standard_normal(n))
    y = DenseTensor.vector(rng.standard_normal(n))
    truth = float(np.dot(x.values, y.values))
    estimates = np.empty(trials)
    for r in range(trials):
        p = build_plan([n], [d], r)
        estimates[r] = float(np.dot(count_sketch(x, p).values, count_sketch(y, p).values))
    err = abs(estimates.mean() - truth)
    bound = 4 * estimates.std(ddof=1) / np.sqrt(trials)
    _report(5, "inner-product preservation", err <= bound,
            f"|mean - truth| = {err:.4f} vs bound {bound:.4f}")


def test_criterion_6_polynomial_kernel():
    n, d, degree, trials = 8, 64, 2, 20_000
    rng = np.random.default_rng(5)
    x = DenseTensor.vector(rng.standard_normal(n))
    y = DenseTensor.vector(rng.standard_normal(n))
    truth = kernel_oracle(x, y, degree)
    estimates = np.empty(trials)
    for r in range(trials):
        sx = polynomial_sketch(x, degree, d, r)
        sy = polynomial_sketch(y, degree, d, r)
        estimates[r] = float(np.dot(sx.values, sy.values))
    err = abs(estimates.mean() - truth)
    bound = 4 * estimates.std(ddof=1) / np.sqrt(trials)
    _report(6, "degree-2 kernel estimate", err <= bound,
            f"|mean - truth| = {err:.4f} vs bound {bound:.4f}")


def test_criterion_7_error_decays_with_dim(tmp_path):
    records = run_sweep("mcb", [(512,)], [16, 64, 256, 1024], trials=200, seed=1)
    write_csv(records, tmp_path / "decay.csv")
    by_dim: dict[int, list[float]] = {}
    for r in records:
        if r.metric == "rel_err_inner":
            by_dim.setdefault(r.d, []).append(r.value)
    assert all(len(v) == 200 for v in by_dim.values())
    med16 = float(np.median(by_dim[16]))
    med1024 = float(np.median(by_dim[1024]))
    _report(7, "error decay with sketch size", med1024 < med16,
            f"median rel err d=16: {med16:.3f}, d=1024: {med1024:.3f}")


def test_criterion_8_compactness_and_runtime(tmp_path):
    n_fast, n_slow, d, seed = 4096, 256, 1024, 88
    rng = np.random.default_rng(8)
    x = DenseTensor.vector(rng.standard_normal(n_fast))
    y = DenseTensor.vector(rng.standard_normal(n_fast))
    cfg = PoolingConfig((d,), "time", False, seed)
    fast_ns = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        out = mcb(x, y, cfg)
        elapsed = time.perf_counter_ns() - t0
        fast_ns = elapsed if fast_ns is None else min(fast_ns, elapsed)
    out_bytes = out.data.values.nbytes

    xs = DenseTensor.vector(x.values[:n_slow])
    ys = DenseTensor.vector(y.values[:n_slow])
    t0 = time.perf_counter_ns()
    mcb_oracle(xs, ys, d, seed)
    slow_ns = time.perf_counter_ns() - t0

    scale = (n_fast / n_slow) ** 2
    write_csv(
        [
            BenchRecord(method="mcb", d=d, trial=0, seed=seed, metric="runtime_ns",
                        value=fast_ns, n1=n_fast, n2=n_fast),
            BenchRecord(method="mcb", d=d, trial=1, seed=seed, metric="runtime_ns",
                        value=slow_ns, n1=n_slow, n2=n_slow),
            BenchRecord(method="mcb", d=d, trial=0, seed=seed, metric="bytes",
                        value=out_bytes, n1=n_fast, n2=n_fast),
        ],
        tmp_path / "compactness.csv",
    )
    ok = out_bytes <= 16 * d * 2 and fast_ns < slow_ns * scale
    _report(8, "compact output and runtime", ok,
            f"output {out_bytes} B (cap {16 * d * 2}); mcb(n={n_fast}) {fast_ns / 1e6:.2f} ms vs "
            f"oracle(n={n_slow}) {slow_ns / 1e6:.2f} ms x {scale:.0f}")


def test_criterion_9_padding_recovery():
    n1, n2, d = 3, 2, 512
    rng = np.random.default_rng(9)
    x = DenseTensor.vector(rng.standard_normal(n1))
    y = DenseTensor.vector(rng.standard_normal(n2))
    for attempt in range(1000):
        worst = padding_error(x, y, d, derive_seed(9, "padding", attempt))
        if worst is not None:
            break
    found = worst is not None
    worst = worst if found else float("inf")
    _report(9, "padding recovery", found and worst <= 1e-9,
            f"worst decode err {worst:.2e} (injective draw at attempt {attempt})")


def test_criterion_10_determinism(tmp_path):
    gen_bytes = []
    for name in ("g1.tsk", "g2.tsk"):
        path = tmp_path / name
        assert main(["gen", "--shape", "4x4x4", "--dist", "gauss", "--seed", "7",
                     "--out", str(path)]) == 0
        gen_bytes.append(path.read_bytes())
    img = tmp_path / "g1.tsk"
    txt = tmp_path / "txt.tsk"
    assert main(["gen", "--shape", "6", "--dist", "gauss", "--seed", "8",
                 "--out", str(txt)]) == 0
    pool_bytes = []
    for name in ("p1.tsk", "p2.tsk"):
        path = tmp_path / name
        assert main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt),
                     "--dims", "4,4,4,4", "--variant", "time", "--seed", "3",
                     "--out", str(path)]) == 0
        pool_bytes.append(path.read_bytes())
    check_outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["selfcheck", "--seed", "11"])
        assert rc == 0
        check_outputs.append(buf.getvalue())
    ok = (
        gen_bytes[0] == gen_bytes[1]
        and pool_bytes[0] == pool_bytes[1]
        and check_outputs[0] == check_outputs[1]
    )
    _report(10, "determinism of gen/pool/selfcheck", ok,
            "byte-identical artifacts and identical selfcheck output")
