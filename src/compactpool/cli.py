"""Command-line front end: generate inputs, run pooling, sweep benchmarks, self-check.

Exit codes: 0 success, 1 check failure (including a result that fails its
residue or finiteness check), 2 usage error (including non-finite input
values and running out of memory), 3 IO error. Every
command is deterministic for fixed flags; benchmark CSVs carry raw per-trial
rows and leave aggregation to the analyst.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import pooling, reference, selfcheck
from .fileio import BenchRecord, read_tensor, write_csv, write_tensor
from .hashplan import derive_seed
from .spectral import OracleCapExceeded, ResidueError
from .tensor import DenseTensor, _checked_dims, inner_product

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


def _parse_ints(text: str, what: str, sep: str = ",") -> tuple[int, ...]:
    """Parse a list of positive integers such as ``8,8`` or ``4x4x4``."""
    try:
        out = tuple(int(part) for part in text.split(sep))
    except ValueError:
        raise UsageError(f"bad {what} {text!r}: expected integers separated by {sep!r}") from None
    if any(v < 1 for v in out):
        raise UsageError(f"bad {what} {text!r}: all entries must be >= 1")
    return out


def _cmd_gen(args) -> int:
    dims = _checked_dims(_parse_ints(args.shape, "shape", "x"))
    rng = np.random.default_rng(args.seed % 2**64)
    values = rng.standard_normal(dims) if args.dist == "gauss" else rng.random(dims)
    write_tensor(DenseTensor.from_array(values), args.out)
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


def _degree(method: str, degree: Optional[int]) -> int:
    """poly's degree, 2 when --degree is unset; refused for the other methods."""
    if degree is not None and method != "poly":
        raise UsageError("--degree applies to poly only")
    return 2 if degree is None else degree


def _cmd_pool(args) -> int:
    side = [_read_input(args.a)]
    dims = _parse_ints(args.dims, "--dims")
    if args.pad and args.mode != "mcb":
        raise UsageError("--pad applies to mcb only")
    degree = _degree(args.mode, args.degree)
    if args.mode == "poly":
        if args.b is not None:
            raise UsageError("--b applies to mcb and mct only")
        if args.variant != "time":
            raise UsageError("poly supports only --variant time")
        if len(dims) != 1:
            raise UsageError(f"poly needs one output dim, got {dims}")
    elif args.b is None:
        raise UsageError(f"{args.mode} needs --b")
    else:
        side.append(_read_input(args.b))
    cfg = pooling.PoolingConfig(dims, _variant(args.variant), args.pad, args.seed)
    start = time.perf_counter_ns()
    out = _METHODS[args.mode].pool(side, cfg, degree)
    elapsed = time.perf_counter_ns() - start
    write_tensor(out, args.out)
    print(f"output dims {out.dims}; pool time {elapsed / 1e6:.3f} ms")
    return EXIT_OK


def _bilinear(side1, side2, degree: int) -> float:
    return inner_product(side1[0], side2[0]) * inner_product(side1[1], side2[1])


class _Method(NamedTuple):
    """What `bench` needs to know about one pooling method."""

    size_form: str  # one --sizes entry; its 'x'-separated parts give the arity
    shapes: Callable[..., tuple]  # size -> input shapes of one side of a trial
    out_order: int  # a trial's config has output dims (d,) * out_order
    pool: Callable[..., DenseTensor]  # (side, cfg, degree) -> pooled output
    exact: Callable[..., float]  # (side1, side2, degree) -> exact inner product
    oracle: Optional[Callable[..., DenseTensor]]  # (*side, d, seed) -> literal sketch
    fields: tuple[str, ...]  # BenchRecord size fields, one per dim of one side's inputs


_METHODS = {
    "mcb": _Method(
        "N", lambda n: ((n,), (n,)), 1,
        lambda side, cfg, degree: pooling.mcb(*side, cfg).data,
        _bilinear, reference.mcb_oracle, ("n1", "n2"),
    ),
    "mct": _Method(
        "CxHxWxL", lambda c, h, w, l: ((c, h, w), (l,)), 4,
        lambda side, cfg, degree: pooling.mct(*side, cfg).data,
        _bilinear, reference.mct_oracle, ("C", "H", "W", "L"),
    ),
    "poly": _Method(
        "N", lambda n: ((n,),), 1,
        lambda side, cfg, degree: pooling.polynomial_sketch(
            side[0], degree, cfg.output_dims[0], cfg.seed),
        lambda side1, side2, degree: reference.kernel_oracle(side1[0], side2[0], degree),
        None, ("n1",),
    ),
}


def _bench_size(method: str, text: str) -> tuple[int, ...]:
    dims = _parse_ints(text, "size", "x")
    form = _METHODS[method].size_form
    if len(dims) != form.count("x") + 1:
        raise UsageError(f"{method} sizes are {form}, got {text!r}")
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
) -> list[BenchRecord]:
    """Raw per-trial benchmark rows for one pooling method.

    Per (size, d, trial): rel_err_inner compares the sketched estimate of the
    exact bilinear/polynomial inner product against its true value,
    max_abs_err compares one pooled output against the definitional oracle
    (only when the oracle accepts the size), runtime_ns times the first
    pooling call alone, and bytes records the output payload. Trial seeds
    derive from (seed, trial), so trials are schedule-independent and inputs
    are paired across the d sweep.
    """
    if method not in _METHODS:
        raise UsageError(f"unknown method {method!r}")
    spec = _METHODS[method]
    records: list[BenchRecord] = []
    for size in sizes:
        shapes = spec.shapes(*size)
        fields = dict(zip(spec.fields, (dim for shape in shapes for dim in shape)))
        for d in dims_sweep:
            for trial in range(trials):
                tseed = derive_seed(seed, "trial", trial)
                rng = np.random.default_rng(derive_seed(tseed, "inputs", *size))
                side1, side2 = (
                    [DenseTensor.from_array(rng.standard_normal(shape)) for shape in shapes]
                    for _ in range(2)
                )
                cfg = pooling.PoolingConfig((d,) * spec.out_order, "time", False, tseed)
                start = time.perf_counter_ns()
                z1 = spec.pool(side1, cfg, degree)
                elapsed = time.perf_counter_ns() - start
                z2 = spec.pool(side2, cfg, degree)
                exact = spec.exact(side1, side2, degree)
                rows = [("rel_err_inner", _rel_err(inner_product(z1, z2), exact))]
                try:
                    oracle = spec.oracle(*side1, d, tseed) if spec.oracle else None
                except OracleCapExceeded:
                    oracle = None
                if oracle is not None:
                    rows.append(("max_abs_err", float(np.max(np.abs(z1.values - oracle.values)))))
                rows += [("runtime_ns", elapsed), ("bytes", z1.values.nbytes)]
                records.extend(
                    BenchRecord(method=method, d=d, trial=trial, seed=tseed,
                                metric=metric, value=value, **fields)
                    for metric, value in rows
                )
    return records


def _cmd_bench(args) -> int:
    sizes = [_bench_size(args.method, part) for part in args.sizes.split(",")]
    dims_sweep = _parse_ints(args.dims_sweep, "--dims-sweep")
    if args.trials < 0:
        raise UsageError(f"--trials must be >= 0, got {args.trials}")
    degree = _degree(args.method, args.degree)
    records = run_sweep(args.method, sizes, dims_sweep, args.trials, args.seed, degree)
    write_csv(records, args.csv)
    print(f"wrote {len(records)} records to {args.csv}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = selfcheck.run_checks(args.seed)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args leaves the parser unchanged."""
    parser = _Parser(prog="compactpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random tensor file")
    gen.add_argument("--shape", required=True, help="dims as CxHxW or N")
    gen.add_argument("--dist", required=True, choices=("gauss", "uniform"))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    pool = sub.add_parser("pool", help="run a pooling operator on tensor files")
    pool.add_argument("--mode", required=True, choices=tuple(_METHODS))
    pool.add_argument("--a", required=True, help="first input tensor file")
    pool.add_argument("--b", help="second input tensor file (mcb, mct)")
    pool.add_argument("--dims", required=True, help="output dims d1[,d2,d3,d4]")
    pool.add_argument("--variant", default="time", choices=("time", "freq"))
    pool.add_argument("--pad", action="store_true", help="pad inputs with ones (mcb)")
    pool.add_argument("--degree", type=int, help="polynomial degree (poly only; default 2)")
    pool.add_argument("--seed", type=int, required=True)
    pool.add_argument("--out", required=True)
    pool.set_defaults(func=_cmd_pool)

    bench = sub.add_parser("bench", help="sweep sketch sizes and emit raw CSV rows")
    bench.add_argument("--method", required=True, choices=tuple(_METHODS))
    bench.add_argument("--sizes", required=True, help="comma list: N (mcb, poly) or CxHxWxL (mct)")
    bench.add_argument("--dims-sweep", required=True, help="comma list of output sizes")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--degree", type=int, help="polynomial degree (poly only; default 2)")
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser("selfcheck", help="run the oracle-equivalence checks")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--json", action="store_true", help="emit per-check booleans as JSON")
    check.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except ValueError as e:  # usage errors and library contract violations
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
