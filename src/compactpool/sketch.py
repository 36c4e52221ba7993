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

from .hashplan import ModeHash, SketchPlan
from .tensor import DenseTensor

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


def count_sketch(v: DenseTensor, p: SketchPlan) -> DenseTensor:
    """Scatter a vector into signed buckets: w(t) = sum over h(i)=t of s(i) v(i)."""
    if v.order != 1:
        raise ValueError(f"count_sketch needs an order-1 tensor, got order {v.order}")
    if p.order != 1:
        raise ValueError(f"count_sketch needs an order-1 plan, got order {p.order}")
    mode = p.modes[0]
    if v.dims[0] != mode.input_size:
        raise ValueError(f"size mismatch: vector {v.dims[0]}, plan {mode.input_size}")
    w = np.bincount(mode.hash_table, mode.sign_table * v.values, minlength=mode.output_size)
    return DenseTensor._adopt((mode.output_size,), w)


def md_sketch(t: DenseTensor, p: SketchPlan, batched: bool = False) -> DenseTensor:
    """Per-mode signed scatter of an order-N tensor.

    X(t1..tN) = sum over all input cells whose per-mode hashes hit (t1..tN) of
    (product of mode signs) times the cell value. Reduces to count_sketch for
    N = 1. With batched, mode 0 indexes independent blocks: each block comes
    out as md_sketch of that block alone, bit for bit; a stack of zero blocks
    gives an empty sketch.

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
    if t.order - batched != p.order:
        raise ValueError(f"order mismatch: tensor {t.order}, plan {p.order}, batched={batched}")
    if t.dims[batched:] != p.input_dims:
        raise ValueError(f"size mismatch: tensor {t.dims}, plan {p.input_dims}, batched={batched}")
    dims = t.dims[:batched] + p.output_dims
    count = t.dims[0] if batched else 1
    if count == 0:
        return DenseTensor._adopt(dims, np.zeros(dims))
    x = t.values
    for gemm, run, pre, post in _kernel_runs(p):
        x = _gemm(x, run[0], count, pre, post) if gemm else _scatter(x, run, count * pre, post)
    return DenseTensor._adopt(dims, x)


def _kernel_runs(p: SketchPlan) -> list[tuple[bool, list[ModeHash], int, int]]:
    """p's modes in order as (gemm, modes, pre, post): GEMM modes alone, scatter modes in runs.

    pre is the product of the output sizes before the run, post that of the
    input sizes after it.
    """
    runs: list[tuple[bool, list[ModeHash], int, int]] = []
    pre, post = 1, math.prod(p.input_dims)
    for mode in p.modes:
        post //= mode.input_size
        gemm = mode.output_size <= _GEMM_MAX_OUTPUT and mode.output_size <= pre * post
        if gemm or not runs or runs[-1][0]:
            runs.append((gemm, [mode], pre, post))
        else:
            runs[-1] = (False, runs[-1][1] + [mode], runs[-1][2], post)
        pre *= mode.output_size
    return runs


def _gemm(x: np.ndarray, mode: ModeHash, count: int, pre: int, post: int) -> np.ndarray:
    """x, seen as count blocks of (pre, n, post), times mode's d x n signed one-hot matrix.

    The blocks stay a matmul batch axis, never part of a GEMM's rows, so every
    block gets the same BLAS calls as it would alone.
    """
    n, d = mode.input_size, mode.output_size
    s = np.zeros((n, d))  # transposed, so the last mode's right-multiply reads it row-major
    s[np.arange(n), mode.hash_table] = mode.sign_table
    if post == 1:
        return np.matmul(x.reshape(count, pre, n), s)
    return np.matmul(s.T, x.reshape(count * pre, n, post))


def _scatter(x: np.ndarray, run: list[ModeHash], rows: int, post: int) -> np.ndarray:
    """Signed np.bincount of x, seen as (rows, *run's input sizes, post), along the run's modes."""
    first, *rest = run
    at, sign, size = first.hash_table, first.sign_table, rows * first.output_size * post
    if rows > 1:
        at = np.add.outer(np.arange(rows) * first.output_size, at)
    for mode in rest:
        at = np.add.outer(at * mode.output_size, mode.hash_table)
        sign = np.multiply.outer(sign, mode.sign_table)
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
    idx = tuple(int(i) for i in index)
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
    """Combine estimates from independent plans: arithmetic mean or lower median."""
    vals = np.asarray(list(estimates), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("cannot aggregate an empty sequence")
    if strategy == "mean":
        return float(vals.mean())
    if strategy == "median":
        return float(np.sort(vals)[(vals.size - 1) // 2])
    raise ValueError(f"unknown strategy {strategy!r} (use 'mean' or 'median')")
