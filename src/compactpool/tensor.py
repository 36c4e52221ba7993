"""Dense real and complex tensors with the structural operations sketching builds on.

Tensors are immutable value objects: the backing array is read-only, and
every operation returns a fresh tensor. The public constructors copy and
convert what they are given (a DenseTensor refuses complex values); arrays the
library has just allocated are adopted without a copy. A tensor has at most
as many modes as a NumPy array. Values are 64-bit (complex128 for the complex
variant), stored flat in row-major order with the last index varying fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "CapacityError",
    "ComplexTensor",
    "DenseTensor",
    "inner_product",
    "outer_product",
    "pad_with_ones",
    "stack_blocks",
]

# The one cell cap, for tensors and TSK1 headers alike (2**48 float64 cells are 2 PiB).
_MAX_CELLS = 2**48


class CapacityError(ValueError):
    """A requested tensor would exceed the addressable cell budget."""


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


_INT = {int}


def _integer(v, what: str) -> int:
    """v as an int; bools and non-integers (2.5, "3") are refused, never truncated."""
    if type(v) is int:  # the common case, checked on every plan lookup: one type test
        return v
    if not _is_integer(v):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _checked_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(dims)
    if not {*map(type, out)} <= _INT:  # the common case, plain ints, costs one type test
        out = tuple(_integer(d, "dims entry") for d in out)
    if out and min(out) < 0:
        raise ValueError(f"dims must be nonnegative, got {out}")
    if math.prod(out) > _MAX_CELLS:
        raise CapacityError(f"dims {out} address {math.prod(out)} cells, over the {_MAX_CELLS} cap")
    if len(out) > 32:  # every NumPy holds 32 modes; past that, its own refusal decides
        np.empty((0,) * len(out))
    return out


_T = TypeVar("_T", bound="_Tensor")


@dataclass(frozen=True, eq=False)
class _Tensor:
    """Shared body of the tensor classes; each subclass fixes ``_dtype``."""

    dims: tuple[int, ...]
    values: np.ndarray

    _dtype: ClassVar[type]

    def __post_init__(self) -> None:
        dims = _checked_dims(self.dims)
        values = np.array(self.values, dtype=self._dtype)
        if values.size != math.prod(dims):
            raise ValueError(
                f"got {values.size} values for dims {dims} (need {math.prod(dims)})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "__dict__", {"dims": dims, "values": values.reshape(-1)})

    @classmethod
    def _adopt(cls: type[_T], dims: tuple[int, ...], values: np.ndarray) -> _T:
        """Wrap an array the library has just allocated, without copying it.

        dims is a tuple of Python ints. The array is frozen in place, so it
        must not be shared with a caller; freeze a whole stack before adopting
        blocks sliced from it. A read-only view of immutable bytes the library
        has just read qualifies too. Only the dtype and the size are checked,
        and the fields are stored in one step, as the constructors store them.
        """
        if values.dtype != cls._dtype or values.size != math.prod(dims):
            raise ValueError(f"cannot adopt {values.dtype} array of {values.size} values as {dims}")
        values.setflags(write=False)
        t = object.__new__(cls)
        object.__setattr__(t, "__dict__", {"dims": dims, "values": values.reshape(-1)})
        return t

    @classmethod
    def from_array(cls: type[_T], arr) -> _T:
        a = np.asarray(arr)
        return cls(a.shape, a.reshape(-1))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def array(self) -> np.ndarray:
        """Shaped read-only view of the flat values."""
        return self.values.reshape(self.dims)

    def __getitem__(self, index) -> float | complex:
        return self.array[index].item()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        name = type(self).__name__
        if self.size <= 8:
            return f"{name}(dims={self.dims}, values={self.values.tolist()})"
        return f"{name}(dims={self.dims}, <{self.size} values>)"


class DenseTensor(_Tensor):
    """Real-valued tensor of arbitrary order.

    ``dims`` is the shape; ``values`` holds exactly prod(dims) float64 entries
    flattened row-major. Order 0 is a scalar: empty dims, one value.
    """

    _dtype = np.float64

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("DenseTensor holds real values; use ComplexTensor")
        super().__post_init__()

    @classmethod
    def vector(cls, values) -> "DenseTensor":
        v = np.asarray(values).reshape(-1)
        return cls((v.size,), v)


class ComplexTensor(_Tensor):
    """Complex-valued tensor, same layout conventions as DenseTensor."""

    _dtype = np.complex128


def outer_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Tensor (outer) product: result dims are a.dims ++ b.dims."""
    _checked_dims(a.dims + b.dims)
    return DenseTensor.from_array(np.multiply.outer(a.array, b.array))


def inner_product(a: DenseTensor, b: DenseTensor) -> float:
    """Sum of elementwise products; both tensors must be real and share dims exactly."""
    if not (isinstance(a, DenseTensor) and isinstance(b, DenseTensor)):
        raise ValueError(f"inner_product needs two DenseTensors, got {type(a).__name__}"
                         f" and {type(b).__name__}")
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(np.dot(a.values, b.values))


def pad_with_ones(x: DenseTensor, pad_len: int) -> DenseTensor:
    """Append pad_len ones to a vector: [x; 1, 1, ..., 1]."""
    if not isinstance(x, DenseTensor):
        raise ValueError(f"pad_with_ones needs a DenseTensor, got {type(x).__name__}")
    if x.order != 1:
        raise ValueError(f"pad_with_ones needs an order-1 tensor, got order {x.order}")
    pad_len = _integer(pad_len, "pad_len")
    if pad_len < 0:
        raise ValueError(f"pad_len must be nonnegative, got {pad_len}")
    return DenseTensor._adopt((x.size + pad_len,), np.concatenate([x.values, np.ones(pad_len)]))


def stack_blocks(t: DenseTensor, block_dims: Sequence[int]) -> DenseTensor:
    """Tile an order-3 tensor into equal blocks stacked along a new leading mode.

    Result dims are (G, b1, b2, b3) with the G blocks in row-major grid
    order. Every tensor dim and block dim must be >= 1, and every block dim
    must divide the matching tensor dim; there is no implicit padding.
    """
    if not isinstance(t, DenseTensor):
        raise ValueError(f"stack_blocks needs a DenseTensor, got {type(t).__name__}")
    if t.order != 3:
        raise ValueError(f"tiling needs an order-3 tensor, got order {t.order}")
    if t.size == 0:
        raise ValueError(f"tiling needs all sizes >= 1, got tensor dims {t.dims}")
    bdims = tuple(_integer(b, "block_dims entry") for b in block_dims)
    if len(bdims) != 3 or any(b < 1 for b in bdims):
        raise ValueError(f"block_dims must be three positive integers, got {bdims}")
    for full, block in zip(t.dims, bdims):
        if full % block != 0:
            raise ValueError(f"block dim {block} does not divide tensor dim {full}")
    g1, g2, g3 = (full // b for full, b in zip(t.dims, bdims))
    b1, b2, b3 = bdims
    arr = t.array.reshape(g1, b1, g2, b2, g3, b3).transpose(0, 2, 4, 1, 3, 5)
    return DenseTensor._adopt((g1 * g2 * g3, *bdims), np.ascontiguousarray(arr))
