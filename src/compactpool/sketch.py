"""Count-sketch for vectors, its multi-dimensional extension, and decoding.

count_sketch projects a length-n vector into d signed buckets; md_sketch does
the same per mode of an order-N tensor, keeping tensor order and spatial
structure. Both are linear maps and return the sketch as a DenseTensor shaped
like the plan's output dims. count_sketch costs one pass over the input
entries; md_sketch one mode product per mode, each over a shrinking tensor.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .hashplan import ModeHash, SketchPlan, _Memo, _plan_bytes
from .tensor import DenseTensor, _integer

__all__ = [
    "aggregate_estimates",
    "count_sketch",
    "decode_estimate",
    "md_sketch",
]

# Largest mode output size d that md_sketch sketches by one-hot GEMM. The
# GEMM's cost grows with d while the scatter's does not: on a 2-vCPU
# OpenBLAS host, over modes whose d is at most the cells outside the mode,
# the GEMM took 0.07-0.5 of the scatter's time at d = 16 and 0.2-0.85 at 64.
_GEMM_MAX_OUTPUT = 64


def count_sketch(v: DenseTensor, p: SketchPlan, *, ones: int = 0) -> DenseTensor:
    """Scatter a real vector into signed buckets: w(t) = sum over h(i)=t of s(i) v(i).

    One multiply by the plan's float signs and one np.bincount, which adds
    the entries of each bucket in index order. With ones = k, v stands for
    [v; 1, ..., 1] with k trailing ones, under a plan of len(v) + k inputs,
    and the padded vector is never built: cs([v; 1]) = cs_head(v) +
    cs_tail(1), where the tail, constant per (plan, len(v)), is built on the
    first such call and memoised (_ones_tail).
    """
    if not isinstance(v, DenseTensor):
        raise ValueError(f"count_sketch needs a DenseTensor, got {type(v).__name__}")
    if v.order != 1:
        raise ValueError(f"count_sketch needs an order-1 tensor, got order {v.order}")
    if p.order != 1:
        raise ValueError(f"count_sketch needs an order-1 plan, got order {p.order}")
    mode, n = p.modes[0], v.dims[0]
    if _integer(ones, "ones") < 0 or n + ones != mode.input_size:
        raise ValueError(f"size mismatch: vector {n} and {ones} ones, plan {mode.input_size}")
    h, s = mode.hash_table, mode._signs
    if ones:
        h, s = h[:n], s[:n]
    w = np.bincount(h, v.values * s, minlength=mode.output_size)
    if ones:
        w += _ones_tail(p, n)
    return DenseTensor._adopt((mode.output_size,), w)


# The ones tail of a padded count-sketch by (id(plan), split). An entry holds
# its plan, as _kernels does, so no other live object has that id while the
# entry exists, and counts the plan's bytes with the tail's.
_ones_tails = _Memo(lambda entry: _plan_bytes(entry[0]) + entry[1].nbytes)


def _ones_tail(p: SketchPlan, n: int) -> np.ndarray:
    """count_sketch of ones at the inputs n.. of an order-1 plan, read-only and memoised."""
    entry = _ones_tails.get((id(p), n))
    if entry is None:
        mode = p.modes[0]
        tail = np.bincount(mode.hash_table[n:], mode._signs[n:], minlength=mode.output_size)
        tail.setflags(write=False)
        entry = (p, tail)
        _ones_tails.put((id(p), n), entry)
    return entry[1]


def md_sketch(t: DenseTensor, p: SketchPlan) -> DenseTensor:
    """Per-mode signed scatter of an order-N tensor.

    X(t1..tN) = sum over all input cells whose per-mode hashes hit (t1..tN) of
    (product of mode signs) times the cell value. Reduces to count_sketch for
    N = 1. A tensor with one more mode than p is a stack: mode 0 indexes
    blocks, each sketched bit for bit as md_sketch of that block alone; a
    stack of zero blocks gives an empty sketch.

    Computed as mode products X x1 S1 x2 S2 ... xN SN, one mode at a time.
    A mode of input size n and output size d costs either
    - a dense GEMM against the d x n signed one-hot matrix S: 2*d*c flops for
      a block of c cells, through BLAS; taken when d <= 64 and d is at most
      the number of cells outside that mode, so S is never larger than the
      block; or
    - a signed np.bincount scatter along that mode: one int64 index and one
      weight pass over the c cells, whatever d is. Consecutive scatter modes
      share one bincount, so a plan with no GEMM mode is one flat scatter.
    The choice depends on the block's shape only. A plan with no GEMM mode
    adds cells in row-major order, as a cell-by-cell scatter does. With one,
    sums run in another order and agree with such a scatter to rounding, and
    the bits also depend on the BLAS build and its thread count.
    A non-finite input cell gives a non-finite sketch: the scatter adds inf
    into one bucket of that cell's mode, the GEMM also adds 0 * inf = NaN
    into every other one (numpy reports it as a RuntimeWarning).
    """
    if not isinstance(t, DenseTensor):
        raise ValueError(f"md_sketch needs a DenseTensor, got {type(t).__name__}")
    stacked = t.order - p.order  # 1 when mode 0 indexes blocks
    if stacked not in (0, 1):
        raise ValueError(f"order mismatch: tensor {t.order}, plan {p.order} (a stack has one more)")
    if t.dims[stacked:] != p.input_dims:
        raise ValueError(f"size mismatch: tensor {t.dims}, plan {p.input_dims}")
    dims, count = t.dims[:stacked] + p.output_dims, math.prod(t.dims[:stacked])
    if count == 0:
        return DenseTensor._adopt(dims, np.zeros(dims))
    x = t.values
    for onehot, run, pre, post in _kernel(p):
        if onehot is None:
            x = _scatter(x, run, count * pre, post)
        else:
            x = _gemm(x, onehot, count, pre, post)
    return DenseTensor._adopt(dims, x)


# md_sketch's kernel per plan, built on its first sketch. Keyed by id(plan):
# an entry holds its plan, so no other live object has that id while the
# entry exists. An entry counts its plan's bytes and its one-hot matrices'
# (8 * n * d bytes each): within the memo's 1 MiB, a (2048, 14, 14) image
# plan keeps them up to d = 32; at d = 64 they are built per call.
_kernels = _Memo(lambda entry: _plan_bytes(entry[0]) + sum(
    onehot.nbytes for onehot, *_ in entry[1] if onehot is not None))


def _kernel(p: SketchPlan) -> list[tuple[np.ndarray | None, list[ModeHash], int, int]]:
    """p's modes in order as (onehot, modes, pre, post), memoised per plan.

    A GEMM mode comes alone with its read-only signed one-hot matrix, and
    scatter modes come in runs with None. pre is the product of the output
    sizes before the run, post that of the input sizes after it.
    """
    entry = _kernels.get(id(p))
    if entry is not None:
        return entry[1]
    runs: list[tuple[np.ndarray | None, list[ModeHash], int, int]] = []
    pre, post = 1, math.prod(p.input_dims)
    for mode in p.modes:
        post //= mode.input_size
        if mode.output_size <= _GEMM_MAX_OUTPUT and mode.output_size <= pre * post:
            # n x d, so the last mode's right-multiply reads it row-major
            onehot = np.zeros((mode.input_size, mode.output_size))
            onehot[np.arange(mode.input_size), mode.hash_table] = mode.sign_table
            onehot.setflags(write=False)
            runs.append((onehot, [mode], pre, post))
        elif not runs or runs[-1][0] is not None:
            runs.append((None, [mode], pre, post))
        else:
            runs[-1] = (None, runs[-1][1] + [mode], runs[-1][2], post)
        pre *= mode.output_size
    _kernels.put(id(p), (p, runs))
    return runs


def _gemm(x: np.ndarray, onehot: np.ndarray, count: int, pre: int, post: int) -> np.ndarray:
    """x, seen as count blocks of (pre, n, post), times the d x n signed one-hot matrix.

    onehot holds that matrix transposed. The blocks stay a matmul batch
    axis, never part of a GEMM's rows, so every block gets the same BLAS
    calls as it would alone.
    """
    n = onehot.shape[0]
    if post == 1:
        return np.matmul(x.reshape(count, pre, n), onehot)
    return np.matmul(onehot.T, x.reshape(count * pre, n, post))


def _scatter(x: np.ndarray, run: list[ModeHash], rows: int, post: int) -> np.ndarray:
    """Signed np.bincount of x, seen as (rows, *run's input sizes, post), along the run's modes."""
    first, *rest = run
    at, sign, size = first.hash_table, first._signs, rows * first.output_size * post
    if rows > 1:
        at = np.add.outer(np.arange(rows) * first.output_size, at)
    for mode in rest:
        at = np.add.outer(at * mode.output_size, mode.hash_table)
        sign = np.multiply.outer(sign, mode._signs)
        size *= mode.output_size
    if post > 1:
        at = np.add.outer(at * post, np.arange(post))
        sign = sign[..., None]
    w = x.reshape(at.shape) * sign
    return np.bincount(at.ravel(), w.ravel(), minlength=size)


def decode_estimate(sketch: DenseTensor, p: SketchPlan, index: Sequence[int]) -> float:
    """Single-sketch element estimate: (prod of signs at index) * X(hashed index).

    sketch is the output of p, so its dims must equal p's output dims.
    Unbiased for the true element over random plans; average estimates from
    independent plans with aggregate_estimates to cut variance.
    """
    idx = tuple(_integer(i, "index entry") for i in index)
    if len(idx) != p.order:
        raise IndexError(f"index has {len(idx)} entries for an order-{p.order} plan")
    if sketch.dims != p.output_dims:
        raise ValueError(f"sketch dims {sketch.dims} do not match plan output {p.output_dims}")
    for i, mode in zip(idx, p.modes):
        if not 0 <= i < mode.input_size:
            raise IndexError(f"index {idx} out of range for input dims {p.input_dims}")
    sign = 1
    loc = []
    for i, mode in zip(idx, p.modes):
        sign *= int(mode.sign_table[i])
        loc.append(int(mode.hash_table[i]))
    return sign * float(sketch.array[tuple(loc)])


def aggregate_estimates(estimates: Sequence[float], strategy: str = "mean") -> float:
    """Combine estimates from independent plans: arithmetic mean or lower median.

    Either refuses NaN or infinite estimates, which a median would sort aside.
    """
    vals = np.asarray(list(estimates), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("cannot aggregate an empty sequence")
    if not np.isfinite(vals).all():
        raise ValueError("cannot aggregate non-finite (NaN or infinite) estimates")
    if strategy == "mean":
        return float(vals.mean())
    if strategy == "median":
        return float(np.sort(vals)[(vals.size - 1) // 2])
    raise ValueError(f"unknown strategy {strategy!r} (use 'mean' or 'median')")
