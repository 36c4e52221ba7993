"""Count-sketch for vectors, its multi-dimensional extension, and decoding.

count_sketch projects a length-n vector into d signed buckets; md_sketch does
the same per mode of an order-N tensor, keeping tensor order and spatial
structure. Both are linear maps, cost one pass over the input entries, and
return the sketch as a DenseTensor shaped like the plan's output dims.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .hashplan import SketchPlan
from .tensor import DenseTensor

__all__ = [
    "aggregate_estimates",
    "count_sketch",
    "decode_estimate",
    "md_sketch",
]


def count_sketch(v: DenseTensor, p: SketchPlan) -> DenseTensor:
    """Scatter a vector into signed buckets: w(t) = sum over h(i)=t of s(i) v(i)."""
    if v.order != 1:
        raise ValueError(f"count_sketch needs an order-1 tensor, got order {v.order}")
    if p.order != 1:
        raise ValueError(f"count_sketch needs an order-1 plan, got order {p.order}")
    mode = p.modes[0]
    if v.dims[0] != mode.input_size:
        raise ValueError(f"size mismatch: vector {v.dims[0]}, plan {mode.input_size}")
    w = np.zeros(mode.output_size)
    np.add.at(w, mode.hash_table, mode.sign_table * v.values)
    return DenseTensor((mode.output_size,), w)


def md_sketch(t: DenseTensor, p: SketchPlan) -> DenseTensor:
    """Per-mode signed scatter of an order-N tensor.

    X(t1..tN) = sum over all input cells whose per-mode hashes hit (t1..tN) of
    (product of mode signs) times the cell value. Reduces to count_sketch for
    N = 1.
    """
    if t.order != p.order:
        raise ValueError(f"order mismatch: tensor {t.order}, plan {p.order}")
    if t.dims != p.input_dims:
        raise ValueError(f"size mismatch: tensor {t.dims}, plan {p.input_dims}")
    flat = np.zeros(t.dims, dtype=np.int64)
    sign = np.ones(t.dims, dtype=np.int64)
    for m, mode in enumerate(p.modes):
        shape = [1] * t.order
        shape[m] = mode.input_size
        flat = flat * mode.output_size + mode.hash_table.reshape(shape)
        sign = sign * mode.sign_table.reshape(shape)
    out = np.zeros(math.prod(p.output_dims))
    np.add.at(out, flat.ravel(), (sign * t.array).ravel())
    return DenseTensor(p.output_dims, out)


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
