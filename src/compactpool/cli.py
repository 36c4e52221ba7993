"""Command-line front end: generate inputs, run pooling, sweep benchmarks, self-check.

Exit codes: 0 success, 1 check failure (including a result that fails its
residue or finiteness check), 2 usage error (including non-finite input
values and running out of memory), 3 IO error. Every
command is deterministic for fixed flags; benchmark CSVs carry raw per-trial
rows and leave aggregation to the analyst.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import pooling, reference, selfcheck
from .fileio import BenchRecord, read_tensor, write_csv, write_tensor
from .hashplan import derive_seed
from .spectral import ORACLE_CAP, ResidueError
from .tensor import DenseTensor, inner_product

__all__ = ["entry", "main", "run_sweep"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split("x"))
    except ValueError:
        raise UsageError(f"bad shape {text!r}: expected integers separated by 'x'") from None
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"bad shape {text!r}: all dims must be >= 1")
    return dims


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad {what} {text!r}: expected comma-separated integers") from None
    if not out or any(v < 1 for v in out):
        raise UsageError(f"bad {what} {text!r}: all entries must be >= 1")
    return out


def _cmd_gen(args) -> int:
    dims = _parse_shape(args.shape)
    rng = np.random.default_rng(args.seed % 2**64)
    n = int(np.prod(dims))
    values = rng.standard_normal(n) if args.dist == "gauss" else rng.random(n)
    write_tensor(DenseTensor(dims, values), args.out)
    print(f"wrote {args.out}: dims {dims}, dist {args.dist}, seed {args.seed}")
    return EXIT_OK


def _variant(text: str) -> str:
    return {"time": "time", "freq": "frequency"}[text]


def _read_input(path) -> DenseTensor:
    t = read_tensor(path)
    if not isinstance(t, DenseTensor):
        raise UsageError(f"{path} holds complex values; pooling inputs are real")
    if not np.isfinite(t.values).all():
        raise UsageError(f"{path} holds NaN or infinite values")
    return t


def _cmd_pool(args) -> int:
    a = _read_input(args.a)
    dims = _parse_int_list(args.dims, "--dims")
    if args.pad and args.mode != "mcb":
        raise UsageError("--pad applies to mcb only")
    if args.mode == "poly":
        if args.b is not None:
            raise UsageError("--b applies to mcb and mct only")
        if args.variant != "time":
            raise UsageError("poly supports only --variant time")
        if len(dims) != 1:
            raise UsageError(f"poly needs one output dim, got {dims}")
        if args.degree < 1:
            raise UsageError(f"--degree must be >= 1, got {args.degree}")
        start = time.perf_counter_ns()
        out = pooling.polynomial_sketch(a, args.degree, dims[0], args.seed)
        elapsed = time.perf_counter_ns() - start
    else:
        if args.b is None:
            raise UsageError(f"{args.mode} needs --b")
        b = _read_input(args.b)
        cfg = pooling.PoolingConfig(tuple(dims), _variant(args.variant), args.pad, args.seed)
        start = time.perf_counter_ns()
        feature = pooling.mcb(a, b, cfg) if args.mode == "mcb" else pooling.mct(a, b, cfg)
        elapsed = time.perf_counter_ns() - start
        out = feature.data
    write_tensor(out, args.out)
    print(f"output dims {out.dims}; pool time {elapsed / 1e6:.3f} ms")
    return EXIT_OK


def _bench_size(method: str, text: str) -> tuple[int, ...]:
    dims = _parse_shape(text)
    if method in ("mcb", "poly") and len(dims) != 1:
        raise UsageError(f"{method} sizes are single integers, got {text!r}")
    if method == "mct" and len(dims) != 4:
        raise UsageError(f"mct sizes are CxHxWxL, got {text!r}")
    return dims


def _rel_err(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / max(abs(exact), np.finfo(float).tiny)


def run_sweep(
    method: str,
    sizes: Sequence[tuple[int, ...]],
    dims_sweep: Sequence[int],
    trials: int,
    seed: int,
    degree: int = 2,
    oracle_cap: int = ORACLE_CAP,
) -> list[BenchRecord]:
    """Raw per-trial benchmark rows for one pooling method.

    Per (size, d, trial): rel_err_inner compares the sketched estimate of the
    exact bilinear/polynomial inner product against its true value,
    max_abs_err compares one pooled output against the definitional oracle
    (only when the materialized product fits under the cap), runtime_ns times
    the pooling call alone, and bytes records the output payload. Trial seeds
    derive from (seed, trial), so trials are schedule-independent and inputs
    are paired across the d sweep.
    """
    records: list[BenchRecord] = []
    for size in sizes:
        for d in dims_sweep:
            for trial in range(trials):
                tseed = derive_seed(seed, "trial", trial)
                rng = np.random.default_rng(derive_seed(tseed, "inputs", *size))
                if method == "mcb":
                    n = size[0]
                    x1, y1, x2, y2 = (DenseTensor.vector(rng.standard_normal(n)) for _ in range(4))
                    cfg = pooling.PoolingConfig((d,), "time", False, tseed)
                    start = time.perf_counter_ns()
                    z1 = pooling.mcb(x1, y1, cfg)
                    elapsed = time.perf_counter_ns() - start
                    z2 = pooling.mcb(x2, y2, cfg)
                    est = inner_product(z1.data, z2.data)
                    exact = inner_product(x1, x2) * inner_product(y1, y2)
                    sizes_kw = dict(n1=n, n2=n)
                    max_abs = None
                    if n * n <= oracle_cap:
                        oracle = reference.mcb_oracle(x1, y1, d, tseed, cap=oracle_cap)
                        max_abs = float(np.max(np.abs(z1.data.values - oracle.values)))
                    out_bytes = z1.data.values.nbytes
                elif method == "poly":
                    n = size[0]
                    x = DenseTensor.vector(rng.standard_normal(n))
                    y = DenseTensor.vector(rng.standard_normal(n))
                    start = time.perf_counter_ns()
                    sx = pooling.polynomial_sketch(x, degree, d, tseed)
                    elapsed = time.perf_counter_ns() - start
                    sy = pooling.polynomial_sketch(y, degree, d, tseed)
                    est = inner_product(sx, sy)
                    exact = reference.kernel_oracle(x, y, degree)
                    sizes_kw = dict(n1=n)
                    max_abs = None
                    out_bytes = sx.values.nbytes
                elif method == "mct":
                    c, h, w, l = size
                    img1 = DenseTensor.from_array(rng.standard_normal((c, h, w)))
                    txt1 = DenseTensor.vector(rng.standard_normal(l))
                    img2 = DenseTensor.from_array(rng.standard_normal((c, h, w)))
                    txt2 = DenseTensor.vector(rng.standard_normal(l))
                    cfg = pooling.PoolingConfig((d, d, d, d), "time", False, tseed)
                    start = time.perf_counter_ns()
                    z1 = pooling.mct(img1, txt1, cfg)
                    elapsed = time.perf_counter_ns() - start
                    z2 = pooling.mct(img2, txt2, cfg)
                    est = inner_product(z1.data, z2.data)
                    exact = inner_product(img1, img2) * inner_product(txt1, txt2)
                    sizes_kw = dict(C=c, H=h, W=w, L=l)
                    max_abs = None
                    if c * h * w * l <= oracle_cap:
                        oracle = reference.mct_oracle(img1, txt1, d, tseed, cap=oracle_cap)
                        max_abs = float(np.max(np.abs(z1.data.values - oracle.values)))
                    out_bytes = z1.data.values.nbytes
                else:
                    raise UsageError(f"unknown method {method!r}")

                def rec(metric: str, value: float) -> BenchRecord:
                    return BenchRecord(
                        method=method, d=d, trial=trial, seed=tseed,
                        metric=metric, value=value, **sizes_kw,
                    )

                records.append(rec("rel_err_inner", _rel_err(est, exact)))
                if max_abs is not None:
                    records.append(rec("max_abs_err", max_abs))
                records.append(rec("runtime_ns", elapsed))
                records.append(rec("bytes", out_bytes))
    return records


def _cmd_bench(args) -> int:
    sizes = [_bench_size(args.method, part) for part in args.sizes.split(",")]
    dims_sweep = _parse_int_list(args.dims_sweep, "--dims-sweep")
    if args.trials < 0:
        raise UsageError(f"--trials must be >= 0, got {args.trials}")
    records = run_sweep(args.method, sizes, dims_sweep, args.trials, args.seed, args.degree)
    write_csv(records, args.csv)
    print(f"wrote {len(records)} records to {args.csv}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = selfcheck.run_checks(args.seed, corrupt_mcb_signs=args.corrupt_mcb_signs)
    if args.json:
        print(json.dumps(results))
    else:
        for name, ok in results.items():
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed = [name for name, ok in results.items() if not ok]
        if failed:
            print(f"failed: {', '.join(failed)}")
        else:
            print("all checks passed")
    return EXIT_OK if all(results.values()) else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="compactpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random tensor file")
    gen.add_argument("--shape", required=True, help="dims as CxHxW or N")
    gen.add_argument("--dist", required=True, choices=("gauss", "uniform"))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    pool = sub.add_parser("pool", help="run a pooling operator on tensor files")
    pool.add_argument("--mode", required=True, choices=("mcb", "mct", "poly"))
    pool.add_argument("--a", required=True, help="first input tensor file")
    pool.add_argument("--b", help="second input tensor file (mcb, mct)")
    pool.add_argument("--dims", required=True, help="output dims d1[,d2,d3,d4]")
    pool.add_argument("--variant", default="time", choices=("time", "freq"))
    pool.add_argument("--pad", action="store_true", help="pad inputs with ones (mcb)")
    pool.add_argument("--degree", type=int, default=2, help="polynomial degree (poly)")
    pool.add_argument("--seed", type=int, required=True)
    pool.add_argument("--out", required=True)
    pool.set_defaults(func=_cmd_pool)

    bench = sub.add_parser("bench", help="sweep sketch sizes and emit raw CSV rows")
    bench.add_argument("--method", required=True, choices=("mcb", "mct", "poly"))
    bench.add_argument("--sizes", required=True, help="comma list: N (mcb, poly) or CxHxWxL (mct)")
    bench.add_argument("--dims-sweep", required=True, help="comma list of output sizes")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--degree", type=int, default=2, help="polynomial degree (poly)")
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser("selfcheck", help="run the oracle-equivalence checks")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--json", action="store_true", help="emit per-check booleans as JSON")
    check.add_argument("--corrupt-mcb-signs", action="store_true", help=argparse.SUPPRESS)
    check.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except ValueError as e:  # library contract violations
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResidueError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except MemoryError as e:
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
