"""Compact pooling via sketching.

Count-sketch for vectors, a per-mode multi-dimensional sketch for tensors of
arbitrary order, and FFT-based compact bilinear/tensor pooling operators,
together with brute-force oracles, a bit-exact tensor file format, and a
benchmarking CLI.
"""

from .hashplan import (
    ModeHash,
    PlanFormatError,
    SketchPlan,
    build_plan,
    compose_sum,
    derive_seed,
    load_plan,
    save_plan,
)
from .pooling import (
    PooledFeature,
    PoolingConfig,
    PoolingContractError,
    local_mct,
    mcb,
    mct,
    polynomial_sketch,
)
from .reference import kernel_oracle, mcb_oracle, mct_oracle
from .sketch import aggregate_estimates, count_sketch, decode_estimate, md_sketch
from .spectral import OracleCapExceeded, ResidueError, indfft, naive_ndft, ndfft
from .tensor import (
    CapacityError,
    ComplexTensor,
    DenseTensor,
    inner_product,
    outer_product,
    pad_with_ones,
    stack_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ComplexTensor",
    "DenseTensor",
    "ModeHash",
    "OracleCapExceeded",
    "PlanFormatError",
    "PooledFeature",
    "PoolingConfig",
    "PoolingContractError",
    "ResidueError",
    "SketchPlan",
    "aggregate_estimates",
    "build_plan",
    "compose_sum",
    "count_sketch",
    "decode_estimate",
    "derive_seed",
    "indfft",
    "inner_product",
    "kernel_oracle",
    "load_plan",
    "local_mct",
    "md_sketch",
    "mcb",
    "mcb_oracle",
    "mct",
    "mct_oracle",
    "naive_ndft",
    "ndfft",
    "outer_product",
    "pad_with_ones",
    "polynomial_sketch",
    "save_plan",
    "stack_blocks",
]
