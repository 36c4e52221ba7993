"""Compact pooling operators built on sketching and circular convolution.

mcb sketches the outer product of two vectors as the circular convolution of
their count-sketches; mct combines the order-3 sketch of an image tensor with
the sketch of a text vector through their spectra. Both expose a "time"
variant (real output, inverse transform applied) and a "frequency" variant
that keeps the complex spectral product and skips the inverse transform.
Either variant raises ResidueError rather than return non-finite values.

Plan seeds are derived deterministically from the config seed, so a single
(config, inputs) pair reproduces the whole pipeline. Outputs are
byte-identical for the same numpy/BLAS build and BLAS thread count: md_sketch
runs BLAS matrix products, whose sums a different thread count may order
differently (agreement is then to rounding, far inside 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hashplan
from .sketch import count_sketch, md_sketch
from .spectral import checked_finite, checked_real, indfft, ndfft
from .tensor import ComplexTensor, DenseTensor, pad_with_ones, stack_blocks

__all__ = [
    "PooledFeature",
    "PoolingConfig",
    "PoolingContractError",
    "local_mct",
    "mcb",
    "mct",
    "polynomial_sketch",
]

VARIANTS = ("time", "frequency")


class PoolingContractError(ValueError):
    """A pooling call violated a variant/dimension rule."""


@dataclass(frozen=True)
class PoolingConfig:
    """Output sizes, domain variant, padding flag, and the master seed."""

    output_dims: tuple[int, ...]
    variant: str = "time"
    pad_with_ones: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.output_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"output_dims must be positive integers, got {dims}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "output_dims", dims)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class PooledFeature:
    """Pooling result: real data in the time domain, complex in the frequency domain."""

    data: DenseTensor | ComplexTensor
    config: PoolingConfig
    plans: tuple[hashplan.SketchPlan, ...]

    def __post_init__(self) -> None:
        if isinstance(self.data, ComplexTensor) != (self.domain == "frequency"):
            raise ValueError(f"{self.domain}-domain data has the wrong value type")

    @property
    def domain(self) -> str:
        """The config's variant: "time" or "frequency"."""
        return self.config.variant


def mcb(x: DenseTensor, y: DenseTensor, cfg: PoolingConfig) -> PooledFeature:
    """Compact bilinear pooling of two vectors into d buckets.

    Time variant: inverse transform of ndfft(cs(x)) * ndfft(cs(y)), which
    equals the count-sketch of the flattened outer product under the composed
    plan. Frequency variant: the elementwise spectral product itself. With
    pad_with_ones, x gains len(y) trailing ones and y gains len(x), so the
    sketched product also carries both first-order inputs.
    """
    if x.order != 1 or y.order != 1:
        raise ValueError("mcb needs two order-1 tensors")
    if len(cfg.output_dims) != 1:
        raise PoolingContractError(
            f"mcb needs exactly one output dim, got {cfg.output_dims}"
        )
    d = cfg.output_dims[0]
    if cfg.pad_with_ones:
        n1, n2 = x.dims[0], y.dims[0]
        x, y = pad_with_ones(x, n2), pad_with_ones(y, n1)
    px, py = hashplan.paired_vector_plans(x.dims[0], y.dims[0], d, cfg.seed)
    fx, fy = _spectra([(x, px), (y, py)])
    product = ComplexTensor._adopt((d,), fx * fy)
    if cfg.variant == "frequency":
        checked_finite(product.values, "mcb")
        return PooledFeature(product, cfg, (px, py))
    data = DenseTensor._adopt((d,), checked_real(indfft(product).values, "mcb"))
    return PooledFeature(data, cfg, (px, py))


def _spectra(pairs: Sequence[tuple[DenseTensor, hashplan.SketchPlan]]) -> np.ndarray:
    """Spectra of the count-sketches of (vector, plan) pairs, from one batched transform."""
    stack = np.stack([count_sketch(v, p).values for v, p in pairs])
    return ndfft(DenseTensor._adopt(stack.shape, stack), batched=True).array


def mct(img: DenseTensor, txt: DenseTensor, cfg: PoolingConfig) -> PooledFeature:
    """Compact tensor pooling of an order-3 tensor with a vector.

    Frequency variant (any output dims d1..d4):
    Y(t1, t2, t3) = ndfft(md_sketch(img))(t1, t2, t3)
                  * ndfft(count_sketch(txt))((t1 + t2 + t3) mod d4).
    Time variant: the inverse transform of the above, real-valued; only
    defined when d1 = d2 = d3 = d4, where the spectral product is an exact
    cyclic convolution along the (1, 1, 1) diagonal.
    """
    (feature,) = _mct_blocks(DenseTensor._adopt((1, *img.dims), img.values), txt, cfg)
    return feature


def _mct_blocks(blocks: DenseTensor, txt: DenseTensor, cfg: PoolingConfig) -> list[PooledFeature]:
    """mct of each block of a (count, C, H, W) stack against one text vector.

    All blocks share one image plan and one text plan; their sketches come
    from one batched scatter and their spectra from one transform each way.
    The residue check stays per block. Frequency-variant blocks are views of
    one read-only stack.
    """
    if blocks.order != 4 or txt.order != 1:
        raise ValueError("mct needs an order-3 tensor and a vector")
    if len(cfg.output_dims) != 4:
        raise PoolingContractError(f"mct needs four output dims, got {cfg.output_dims}")
    if cfg.pad_with_ones:
        raise PoolingContractError("mct does not support pad_with_ones")
    d1, d2, d3, d4 = cfg.output_dims
    if cfg.variant == "time" and len({d1, d2, d3, d4}) != 1:
        raise PoolingContractError(
            f"time-variant mct requires equal output dims, got {cfg.output_dims}"
        )
    p_img, p_txt = hashplan.image_text_plans(blocks.dims[1:], txt.dims[0], cfg.output_dims, cfg.seed)
    fx = ndfft(md_sketch(blocks, p_img, batched=True), batched=True).array
    fw = ndfft(count_sketch(txt, p_txt)).values
    idx = (np.arange(d1)[:, None, None] + np.arange(d2)[:, None] + np.arange(d3)) % d4
    product = ComplexTensor._adopt(fx.shape, fx * fw[idx])
    plans = (p_img, p_txt)
    if cfg.variant == "frequency":
        checked_finite(product.values, "mct")
        return [
            PooledFeature(ComplexTensor._adopt((d1, d2, d3), block), cfg, plans)
            for block in product.array
        ]
    return [
        PooledFeature(DenseTensor._adopt((d1, d2, d3), checked_real(block, "mct")), cfg, plans)
        for block in indfft(product, batched=True).array
    ]


def polynomial_sketch(x: DenseTensor, degree: int, d: int, seed: int) -> DenseTensor:
    """Sketch of the degree-p self outer product x (x) ... (x) x into d buckets.

    Multiplies the spectra of p independently planned count-sketches and
    transforms back. degree 1 reduces to a plain count-sketch. With shared
    plans, inner products of these sketches estimate inner_product(x, y)**p.
    """
    if x.order != 1:
        raise ValueError("polynomial_sketch needs an order-1 tensor")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if d < 1:
        raise ValueError(f"output size must be >= 1, got {d}")
    plans = hashplan.repeated_vector_plans(x.dims[0], d, degree, seed)
    spectrum = np.ones(d, dtype=np.complex128)
    for s in _spectra([(x, p) for p in plans]):
        spectrum = spectrum * s
    values = checked_real(indfft(ComplexTensor._adopt((d,), spectrum)).values, "polynomial_sketch")
    return DenseTensor._adopt((d,), values)


def local_mct(
    img: DenseTensor,
    txt: DenseTensor,
    block_dims: Sequence[int],
    cfg: PoolingConfig,
) -> list[tuple[tuple[int, int, int], PooledFeature]]:
    """Tile the image into blocks and pool each one against the same text vector.

    All blocks share one block-shaped image plan and one text plan (both
    derived from cfg.seed), so block outputs are directly comparable. Each
    block's feature equals mct of that block alone; all blocks are pooled in
    one batched pass. Results come in row-major grid order. Frequency-variant
    features are views of one shared read-only array, so keeping any of them
    keeps all of it; time-variant features each own their values.
    """
    blocks = stack_blocks(img, block_dims)
    grid = tuple(full // b for full, b in zip(img.dims, blocks.dims[1:]))
    return list(zip(np.ndindex(*grid), _mct_blocks(blocks, txt, cfg)))
