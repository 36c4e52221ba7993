"""Compact pooling operators built on sketching and circular convolution.

mcb sketches the outer product of two vectors as the circular convolution of
their count-sketches; mct combines the order-3 sketch of an image tensor with
the sketch of a text vector through their spectra. Every operator runs one
pipeline: sketch each input, convolve into a (count, *dims) product stack
(one block for mcb, polynomial_sketch and mct, one per tile for local_mct),
then leave through _leave. In the "time" variant (real output) every
operator is a batch of length-d real row convolutions through one kernel,
_convolve, which chooses by row length in one place:
- d <= _DIRECT_MAX: each further count-sketch w is one np.matmul of the rows
  against its circulant matrix w[idx]; _leave checks the real rows finite;
- longer rows: one batched row transform of the rows and the sketches and a
  product of their spectra; _leave inverts the rows and checks each block's
  imaginary residue.
Time mct shears its sketch, which turns the convolution along the (1, 1, 1)
diagonal into d*d rows, and leaves through the unshear map. The "frequency"
variant keeps the complex product (for mct, the full 3-D spectrum) and skips
the inverse. Either variant raises ResidueError rather than return
non-finite values, also when a caller's warning filter turns numpy's
floating-point warnings into errors. mcb, mct and local_mct return
PooledFeature(data, plans), whose domain is its data's type: ComplexTensor
"frequency", DenseTensor "time".

Plan seeds are derived deterministically from the config seed, so a single
(config, inputs) pair reproduces the whole pipeline. Outputs are
byte-identical for the same numpy/BLAS build and BLAS thread count: md_sketch
and the direct time kernel run BLAS matrix products, whose sums a different
thread count may order differently (agreement is then to rounding, far
inside 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hashplan
from .sketch import count_sketch, md_sketch
from .spectral import ResidueError, checked_finite, checked_real, indfft, ndfft
from .tensor import ComplexTensor, DenseTensor, _integer, stack_blocks

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

# Longest time row that _convolve convolves by GEMM against a circulant
# matrix rather than by FFT. On a 2-vCPU OpenBLAS host the GEMM won up to
# d = 160 for one row and up to d = 128, the largest measured, for d*d rows
# (README table); 64 is a conservative point inside that range.
_DIRECT_MAX = 64


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
        if not isinstance(self.output_dims, (Sequence, np.ndarray)):
            raise ValueError(f"output_dims must be a sequence, got {self.output_dims!r}")
        dims = tuple(_integer(d, "output_dims entry") for d in self.output_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"output_dims must be positive integers, got {dims}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not isinstance(self.pad_with_ones, (bool, np.bool_)):
            raise ValueError(f"pad_with_ones must be a bool, got {self.pad_with_ones!r}")
        object.__setattr__(self, "output_dims", dims)
        object.__setattr__(self, "pad_with_ones", bool(self.pad_with_ones))
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

    Time variant: the circular convolution cs(x) * cs(y), the inverse
    transform of ndfft(cs(x)) * ndfft(cs(y)), which equals the count-sketch
    of the flattened outer product under the composed plan. Frequency
    variant: the elementwise spectral product itself. With pad_with_ones, x
    gains len(y) trailing ones and y gains len(x), so the sketched product
    also carries both first-order inputs; count_sketch adds the ones as a
    tail sketch its plan keeps, so the padded vectors are never built.
    """
    if x.order != 1 or y.order != 1:
        raise ValueError("mcb needs two order-1 tensors")
    if len(cfg.output_dims) != 1:
        raise PoolingContractError(
            f"mcb needs exactly one output dim, got {cfg.output_dims}"
        )
    pad_x, pad_y = (y.dims[0], x.dims[0]) if cfg.pad_with_ones else (0, 0)
    for v in (x, y) if cfg.pad_with_ones else ():
        if not isinstance(v, DenseTensor):
            raise ValueError(f"pad_with_ones needs a DenseTensor, got {type(v).__name__}")
    px, py = hashplan.paired_vector_plans(x.dims[0] + pad_x, y.dims[0] + pad_y,
                                          cfg.output_dims[0], cfg.seed)
    sx, sy = count_sketch(x, px, ones=pad_x).values, count_sketch(y, py, ones=pad_y).values
    try:
        (data,) = _leave(_convolve(sx[None], [sy], cfg.variant), cfg.variant, "mcb")
    except RuntimeWarning as e:
        raise _non_finite("mcb", e) from e
    return PooledFeature(data, (px, py))


def _non_finite(where: str, warning: RuntimeWarning) -> ResidueError:
    """The exit check's refusal of a numpy overflow or invalid value warning raised as an error.

    Either leaves a non-finite value, which the exit check would refuse.
    """
    return ResidueError(f"{where}: result holds non-finite values ({warning})")


def _convolve(rows: np.ndarray, sketches: list[np.ndarray], variant: str) -> np.ndarray:
    """Circular convolution of each real length-d row of rows, shaped (..., d), with each sketch.

    The one place that picks the time kernel. Time rows of d <= _DIRECT_MAX:
    the real result of one np.matmul per sketch w against its circulant
    matrix w[idx]; the leading axes stay a matmul batch axis, so each
    local_mct block gets the BLAS call it would get alone. Otherwise: the
    complex spectra of the results, from one batched row transform of the
    rows and the sketches, the sketches' spectra multiplying every row's in
    order (np.prod's reduction took about three times one multiply at
    d = 1024). Shaped like rows; a new array, or rows itself when a direct
    call has no sketch.
    """
    d = rows.shape[-1]
    if variant == "time" and d <= _DIRECT_MAX:
        idx = _circulant(d)
        for w in sketches:
            rows = np.matmul(rows, w[idx])
        return rows
    flat = rows.reshape(-1, d)
    stack = np.concatenate([flat, *(w[None] for w in sketches)])
    spectra = ndfft(DenseTensor._adopt(stack.shape, stack), batched=True).array
    product = spectra[:len(flat)].reshape(rows.shape)
    for k in range(len(flat), len(stack)):
        product = product * spectra[k]
    return product


def _leave(product: np.ndarray, variant: str, where: str,
           layout: np.ndarray | None = None) -> list[DenseTensor | ComplexTensor]:
    """Exit of every operator: one tensor per block of a (count, *dims) product from _convolve.

    product must not be shared with a caller, and is frozen in place.
    Frequency: the complex product itself, checked finite, each block a view
    of the one read-only stack. Time, real product (rows convolved directly):
    checked finite as a whole, with no transform and no residue check. Time,
    complex product (spectra along the last mode): one batched inverse
    transform along that mode, then each block's real part after its own
    residue check. A time block is put into its final layout by the flat
    gather layout if one is given. Errors name ``where``.
    """
    dims = product.shape[1:]
    product.setflags(write=False)
    if variant == "frequency":
        checked_finite(product, where)
        return [ComplexTensor._adopt(dims, block) for block in product]
    if product.dtype == np.float64:
        checked_finite(product, where)
        reals = product
    else:
        rows = ComplexTensor._adopt((product.size // dims[-1], dims[-1]), product)
        blocks = indfft(rows, batched=True).array.reshape(product.shape)
        reals = (checked_real(block, where) for block in blocks)
    return [DenseTensor._adopt(dims, r if layout is None else r.ravel()[layout]) for r in reals]


# The circulant map of d takes 8 * d**2 bytes: 32 KiB at d = _DIRECT_MAX.
_circulant_memo = hashplan._Memo(lambda idx: idx.nbytes)


def _circulant(d: int) -> np.ndarray:
    """Index map idx[i, t] = (t - i) mod d, read-only and memoised per d.

    rows @ w[idx] convolves each length-d row circularly with w.
    """
    idx = _circulant_memo.get(d)
    if idx is None:
        idx = (np.arange(d) - np.arange(d)[:, None]) % d
        idx.flags.writeable = False
        _circulant_memo.put(d, idx)
    return idx


# The maps of d take 16 * d**3 bytes: within the memo's 1 MiB, d <= 32 is
# built once and a larger d per call.
_shear_memo = hashplan._Memo(lambda maps: sum(m.nbytes for m in maps))


def _shear_maps(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index maps (shear, unshear) of a d x d x d cube, read-only and memoised per d.

    X.ravel()[shear] is Z(u, v, c) = X((u + c) mod d, (v + c) mod d, c), which
    turns a circular convolution along the (1, 1, 1) diagonal into one along
    c; Z.ravel()[unshear] undoes it.
    """
    maps = _shear_memo.get(d)
    if maps is None:
        a, b, c = np.ogrid[:d, :d, :d]
        maps = ((((a + c) % d * d + (b + c) % d) * d + c).ravel(),
                (((a - c) % d * d + (b - c) % d) * d + c).ravel())
        for m in maps:
            m.flags.writeable = False
        _shear_memo.put(d, maps)
    return maps


def mct(img: DenseTensor, txt: DenseTensor, cfg: PoolingConfig) -> PooledFeature:
    """Compact tensor pooling of an order-3 tensor with a vector.

    Frequency variant (any output dims d1..d4):
    Y(t1, t2, t3) = ndfft(md_sketch(img))(t1, t2, t3)
                  * ndfft(count_sketch(txt))((t1 + t2 + t3) mod d4).
    Time variant: the inverse transform of the above, real-valued; only
    defined when d1 = d2 = d3 = d4 = d, where the spectral product is an exact
    cyclic convolution along the (1, 1, 1) diagonal. It is computed without
    the 3-D transforms: the sketch is sheared into d*d rows
    Z(u, v, c) = X((u + c) mod d, (v + c) mod d, c), each row is convolved with
    the text sketch by _convolve, and the result is unsheared,
    Y(t1, t2, t3) = Ys((t1 - t3) mod d, (t2 - t3) mod d, t3).
    """
    _require_dense("mct", img, txt)
    (feature,) = _mct_blocks(DenseTensor._adopt((1, *img.dims), img.values), txt, cfg)
    return feature


def _require_dense(where: str, img, txt) -> None:
    if not (isinstance(img, DenseTensor) and isinstance(txt, DenseTensor)):
        raise ValueError(f"{where} needs a DenseTensor image and text, got "
                         f"{type(img).__name__} and {type(txt).__name__}")


def _mct_blocks(blocks: DenseTensor, txt: DenseTensor, cfg: PoolingConfig) -> list[PooledFeature]:
    """mct of each block of a (count, C, H, W) stack against one text vector.

    All blocks share one image plan and one text plan; their sketches come
    from one batched scatter. In the time variant _convolve convolves the
    sheared rows of every block with the text sketch, the blocks a batch
    axis; _leave checks the blocks and unshears each one.
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
    plans = (p_img, p_txt)
    try:
        sketches = md_sketch(blocks, p_img)
        if cfg.variant == "frequency":
            fw = ndfft(count_sketch(txt, p_txt)).values
            idx = (np.arange(d1)[:, None, None] + np.arange(d2)[:, None] + np.arange(d3)) % d4
            product, layout = ndfft(sketches, batched=True).array * fw[idx], None
        else:
            shear, layout = _shear_maps(d4)
            rows = np.take(sketches.values.reshape(blocks.dims[0], -1), shear, axis=1)
            rows, w = rows.reshape(blocks.dims[0], -1, d4), count_sketch(txt, p_txt).values
            product = _convolve(rows, [w], "time").reshape(sketches.dims)
        data = _leave(product, cfg.variant, "mct", layout)
    except RuntimeWarning as e:
        raise _non_finite("mct", e) from e
    return [PooledFeature(block, plans) for block in data]


def polynomial_sketch(x: DenseTensor, degree: int, d: int, seed: int) -> DenseTensor:
    """Sketch of the degree-p self outer product x (x) ... (x) x into d buckets.

    The circular convolution of p independently planned count-sketches (the
    product of their spectra, transformed back). degree 1 reduces to a plain
    count-sketch. With shared plans, inner products of these sketches
    estimate inner_product(x, y)**p.
    """
    if x.order != 1:
        raise ValueError("polynomial_sketch needs an order-1 tensor")
    if _integer(degree, "degree") < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if _integer(d, "output size") < 1:
        raise ValueError(f"output size must be >= 1, got {d}")
    plans = hashplan.repeated_vector_plans(x.dims[0], d, degree, seed)
    try:
        head, *rest = (count_sketch(x, p).values for p in plans)
        (sketch,) = _leave(_convolve(head[None], rest, "time"), "time", "polynomial_sketch")
    except RuntimeWarning as e:
        raise _non_finite("polynomial_sketch", e) from e
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
    _require_dense("local_mct", img, txt)
    blocks = stack_blocks(img, block_dims)
    grid = tuple(full // b for full, b in zip(img.dims, blocks.dims[1:]))
    return list(zip(np.ndindex(*grid), _mct_blocks(blocks, txt, cfg)))
