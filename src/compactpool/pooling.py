"""Compact pooling operators built on sketching and circular convolution.

mcb sketches the outer product of two vectors as the circular convolution of
their count-sketches; mct combines the order-3 sketch of an image tensor with
the sketch of a text vector through their spectra. Every operator runs one
pipeline: sketch each input, transform, multiply the spectra into a
(count, *dims) product stack (one block for mcb, polynomial_sketch and mct,
one per tile for local_mct), then leave through _leave. The "time" variant
(real output) inverts the stack in one batched transform and checks each
block's imaginary residue; the "frequency" variant keeps the complex product
and skips the inverse. Either variant raises ResidueError rather than return
non-finite values. mcb, mct and local_mct return PooledFeature(data, plans),
whose domain is its data's type: ComplexTensor "frequency", DenseTensor "time".

Plan seeds are derived deterministically from the config seed, so a single
(config, inputs) pair reproduces the whole pipeline. Outputs are
byte-identical for the same numpy/BLAS build and BLAS thread count: md_sketch
runs BLAS matrix products, whose sums a different thread count may order
differently (agreement is then to rounding, far inside 1e-12 relative).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hashplan
from .sketch import count_sketch, md_sketch
from .spectral import checked_finite, checked_real, indfft, ndfft
from .tensor import ComplexTensor, DenseTensor, _integer, pad_with_ones, stack_blocks

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
        dims = tuple(_integer(d, "output_dims entry") for d in self.output_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"output_dims must be positive integers, got {dims}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "output_dims", dims)
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


@dataclass(frozen=True, eq=False)
class PooledFeature:
    """A pooling result and the plans that made it; its data's type gives its domain."""

    data: DenseTensor | ComplexTensor
    plans: tuple[hashplan.SketchPlan, ...]

    @property
    def domain(self) -> str:
        """The data's domain: "frequency" for complex data, "time" otherwise."""
        return "frequency" if isinstance(self.data, ComplexTensor) else "time"


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
        x, y = pad_with_ones(x, y.dims[0]), pad_with_ones(y, x.dims[0])
    px, py = hashplan.paired_vector_plans(x.dims[0], y.dims[0], d, cfg.seed)
    (data,) = _leave(_spectra([(x, px), (y, py)]), cfg.variant, "mcb")
    return PooledFeature(data, (px, py))


def _spectra(pairs: Sequence[tuple[DenseTensor, hashplan.SketchPlan]]) -> np.ndarray:
    """Product of the spectra of the count-sketches of (vector, plan) pairs, as a (1, d) stack.

    The spectra come from one batched transform and are multiplied in order,
    as np.prod(spectra, axis=0) would, at the cost of plain multiplies (the
    reduction took about three times one multiply at d = 1024).
    """
    stack = np.stack([count_sketch(v, p).values for v, p in pairs])
    spectra = ndfft(DenseTensor._adopt(stack.shape, stack), batched=True).array
    return functools.reduce(np.multiply, spectra[1:], spectra[:1])


def _leave(product: np.ndarray, variant: str, where: str) -> list[DenseTensor | ComplexTensor]:
    """Exit of every operator: one tensor per block of a (count, *dims) spectral product.

    product is complex128 and must not be shared with a caller; it is frozen
    in place.
    Frequency: the product itself, checked finite, each block a view of the
    one read-only stack. Time: one batched inverse transform, then each
    block's real part after its own residue check. Errors name ``where``.
    """
    dims = product.shape[1:]
    stack = ComplexTensor._adopt(product.shape, product)
    if variant == "frequency":
        checked_finite(product, where)
        return [ComplexTensor._adopt(dims, block) for block in product]
    return [
        DenseTensor._adopt(dims, checked_real(block, where))
        for block in indfft(stack, batched=True).array
    ]


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
    The residue check stays per block (see _leave).
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
    plans = (p_img, p_txt)
    return [PooledFeature(data, plans) for data in _leave(fx * fw[idx], cfg.variant, "mct")]


def polynomial_sketch(x: DenseTensor, degree: int, d: int, seed: int) -> DenseTensor:
    """Sketch of the degree-p self outer product x (x) ... (x) x into d buckets.

    Multiplies the spectra of p independently planned count-sketches and
    transforms back. degree 1 reduces to a plain count-sketch. With shared
    plans, inner products of these sketches estimate inner_product(x, y)**p.
    """
    if x.order != 1:
        raise ValueError("polynomial_sketch needs an order-1 tensor")
    if _integer(degree, "degree") < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if _integer(d, "output size") < 1:
        raise ValueError(f"output size must be >= 1, got {d}")
    plans = hashplan.repeated_vector_plans(x.dims[0], d, degree, seed)
    (sketch,) = _leave(_spectra([(x, p) for p in plans]), "time", "polynomial_sketch")
    return sketch


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
