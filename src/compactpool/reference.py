"""Brute-force definitional oracles.

Slow, loop-based, small-instance implementations that every fast path is
tested against. They share nothing with the fast paths except the hash-plan
construction, which both sides must agree on by design.
"""

from __future__ import annotations

import numpy as np

from .hashplan import SketchPlan, compose_sum, image_text_plans, paired_vector_plans
from .spectral import ORACLE_CAP, OracleCapExceeded
from .tensor import DenseTensor, _integer, outer_product, pad_with_ones

__all__ = ["kernel_oracle", "mcb_oracle", "mct_oracle"]


def mcb_oracle(
    x: DenseTensor,
    y: DenseTensor,
    d: int,
    seed: int,
    pad: bool = False,
    plans: tuple[SketchPlan, SketchPlan] | None = None,
) -> DenseTensor:
    """Literal sketch of the outer product: materialize x (x) y, flatten, scatter.

    Uses the same seed-derived per-input plans as the fast bilinear pooling,
    composed into one flat plan. ``plans`` overrides the derivation (testing
    hook for deliberately corrupted tables).
    """
    if x.order != 1 or y.order != 1:
        raise ValueError("mcb_oracle needs two order-1 tensors")
    if pad:
        n1, n2 = x.dims[0], y.dims[0]
        x, y = pad_with_ones(x, n2), pad_with_ones(y, n1)
    if x.size * y.size > ORACLE_CAP:
        raise OracleCapExceeded(f"{x.size} * {y.size} cells exceeds the oracle cap of {ORACLE_CAP}")
    if plans is None:
        plans = paired_vector_plans(x.dims[0], y.dims[0], d, seed)
    if [(p.input_dims, p.output_dims) for p in plans] != [(x.dims, (d,)), (y.dims, (d,))]:
        raise ValueError(f"mcb_oracle: plans do not map sizes {x.dims[0]} and {y.dims[0]} to d={d}")
    composed = compose_sum(*plans)
    mode = composed.modes[0]
    u = outer_product(x, y).values
    out = np.zeros(d)
    for t in range(u.size):
        out[mode.hash_table[t]] += mode.sign_table[t] * u[t]
    return DenseTensor((d,), out)


def mct_oracle(
    img: DenseTensor,
    txt: DenseTensor,
    d: int,
    seed: int,
    plans: tuple[SketchPlan, SketchPlan] | None = None,
) -> DenseTensor:
    """Literal order-4 sketch: scatter every cell of img (x) txt one at a time.

    Cell (i, j, k, l) lands at ((h1(i)+h4(l)) mod d, (h2(j)+h4(l)) mod d,
    (h3(k)+h4(l)) mod d) with sign s1 s2 s3 s4.
    """
    if img.order != 3 or txt.order != 1:
        raise ValueError("mct_oracle needs an order-3 tensor and a vector")
    if img.size * txt.size > ORACLE_CAP:
        raise OracleCapExceeded(
            f"{img.size} * {txt.size} cells exceeds the oracle cap of {ORACLE_CAP}"
        )
    if plans is None:
        plans = image_text_plans(img.dims, txt.dims[0], (d, d, d, d), seed)
    p_img, p_txt = plans
    if (p_img.input_dims, p_img.output_dims, p_txt.input_dims, p_txt.output_dims) != (
            img.dims, (d, d, d), txt.dims, (d,)):
        raise ValueError(f"mct_oracle: plans do not map {img.dims} and {txt.dims} to d={d}")
    (m1, m2, m3), m4 = p_img.modes, p_txt.modes[0]
    arr = img.array
    vec = txt.values
    out = np.zeros((d, d, d))
    for i, j, k, l in np.ndindex(*img.dims, txt.dims[0]):
        t1 = (m1.hash_table[i] + m4.hash_table[l]) % d
        t2 = (m2.hash_table[j] + m4.hash_table[l]) % d
        t3 = (m3.hash_table[k] + m4.hash_table[l]) % d
        sign = m1.sign_table[i] * m2.sign_table[j] * m3.sign_table[k] * m4.sign_table[l]
        out[t1, t2, t3] += sign * arr[i, j, k] * vec[l]
    return DenseTensor((d, d, d), out.ravel())


def kernel_oracle(x: DenseTensor, y: DenseTensor, p: int) -> float:
    """Exact polynomial kernel value: inner_product(x, y) ** p."""
    if x.dims != y.dims:
        raise ValueError(f"dimension mismatch: {x.dims} vs {y.dims}")
    if _integer(p, "power") < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    total = 0.0
    for a, b in zip(x.values, y.values):
        total += float(a) * float(b)
    return total**p
