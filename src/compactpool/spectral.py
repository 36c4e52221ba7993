"""N-dimensional Fourier transforms, a naive-DFT oracle, and circular convolution.

Convention: the forward transform is unnormalized and the inverse carries the
1/prod(dims) factor, matching the convolution-theorem usage in the pooling
operators. Fast paths delegate to numpy.fft; naive_ndft evaluates the defining
sum directly and is the testing oracle that pins them down. Real parts are
extracted only at documented exits, guarded by an imaginary-residue check of
at most RESIDUE_TOL of the Frobenius norm.
"""

from __future__ import annotations

import numpy as np

from .tensor import ComplexTensor, DenseTensor

__all__ = [
    "ORACLE_CAP",
    "RESIDUE_TOL",
    "OracleCapExceeded",
    "ResidueError",
    "checked_real",
    "circular_convolve",
    "diag_broadcast_convolve",
    "indfft",
    "naive_ndft",
    "ndfft",
]

RESIDUE_TOL = 1e-9
# Guard against accidental quadratic blowups in definitional oracles.
ORACLE_CAP = 65536


class OracleCapExceeded(ValueError):
    """A brute-force oracle was asked for more cells than its cap allows."""


class ResidueError(ArithmeticError):
    """A nominally real result carried too large an imaginary part."""


def checked_real(values: np.ndarray, where: str) -> np.ndarray:
    """Drop the imaginary part after asserting it is numerically negligible.

    NaN or infinite values fail too, rather than passing as a NaN norm.
    """
    total = np.linalg.norm(values)
    # The norm also overflows for finite values above about 1e154.
    if not np.isfinite(total) and not np.isfinite(values).all():
        raise ResidueError(f"{where}: result holds non-finite values")
    residue = np.linalg.norm(values.imag)
    if residue > RESIDUE_TOL * total:
        raise ResidueError(
            f"{where}: imaginary residue {residue:.3e} exceeds {RESIDUE_TOL} of norm {total:.3e}"
        )
    return np.ascontiguousarray(values.real)


def _transform_axes(t: DenseTensor | ComplexTensor, batched: bool) -> tuple[int, ...]:
    if batched and t.order < 2:
        raise ValueError(f"a batched transform needs order >= 2, got order {t.order}")
    return tuple(range(int(batched), t.order))


def ndfft(t: DenseTensor | ComplexTensor, batched: bool = False) -> ComplexTensor:
    """Unnormalized forward DFT over every mode.

    With batched, mode 0 indexes independent blocks and is not transformed:
    each block comes out as ndfft of that block alone.
    """
    axes = _transform_axes(t, batched)
    arr = np.asarray(t.array, dtype=np.complex128)
    if t.order == 0:
        return ComplexTensor((), arr.reshape(-1))
    return ComplexTensor(t.dims, np.fft.fftn(arr, axes=axes).ravel())


def indfft(f: DenseTensor | ComplexTensor, batched: bool = False) -> ComplexTensor:
    """Inverse DFT with the 1/prod(dims) normalization; inverts ndfft.

    batched leaves mode 0 untransformed, as in ndfft.
    """
    axes = _transform_axes(f, batched)
    arr = np.asarray(f.array, dtype=np.complex128)
    if f.order == 0:
        return ComplexTensor((), arr.reshape(-1))
    return ComplexTensor(f.dims, np.fft.ifftn(arr, axes=axes).ravel())


def naive_ndft(t: DenseTensor | ComplexTensor, cap: int = ORACLE_CAP) -> ComplexTensor:
    """Definitional DFT: F(f) = sum over cells a of t(a) exp(-2i pi sum f_m a_m / d_m).

    O(cells^2); refuses inputs above cap.
    """
    if t.size > cap:
        raise OracleCapExceeded(f"{t.size} cells exceeds the oracle cap of {cap}")
    arr = np.asarray(t.array, dtype=np.complex128)
    if t.order == 0:
        return ComplexTensor((), arr.reshape(-1))
    # One definitional phase matrix per mode: rows indexed by frequency.
    mats = [
        np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) for d in t.dims
    ]
    out = np.empty(t.dims, dtype=np.complex128)
    for fidx in np.ndindex(*t.dims):
        grid = mats[0][fidx[0]]
        for m in range(1, t.order):
            grid = np.multiply.outer(grid, mats[m][fidx[m]])
        out[fidx] = (arr * grid).sum()
    return ComplexTensor(t.dims, out.ravel())


def circular_convolve(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Cyclic convolution c(t) = sum_m a((t - m) mod d) b(m), via the frequency domain."""
    if a.order != 1 or b.order != 1:
        raise ValueError("circular_convolve needs two order-1 tensors")
    if a.dims != b.dims:
        raise ValueError(f"length mismatch: {a.dims[0]} vs {b.dims[0]}")
    product = ComplexTensor(a.dims, ndfft(a).values * ndfft(b).values)
    return DenseTensor(a.dims, checked_real(indfft(product).values, "circular_convolve"))


def diag_broadcast_convolve(x: DenseTensor, w: DenseTensor) -> DenseTensor:
    """Convolve an order-3 tensor with a vector along the (1, 1, 1) diagonal.

    Z(t1, t2, t3) = sum_m X((t1-m) mod d, (t2-m) mod d, (t3-m) mod d) w(m);
    computed as the inverse transform of ndfft(X)(f1, f2, f3) times
    ndfft(w)((f1+f2+f3) mod d). All four sizes must equal d.
    """
    if x.order != 3 or w.order != 1:
        raise ValueError("diag_broadcast_convolve needs an order-3 tensor and a vector")
    sizes = set(x.dims) | set(w.dims)
    if len(sizes) != 1:
        raise ValueError(f"all four sizes must be equal, got {x.dims + w.dims}")
    d = sizes.pop()
    fx = ndfft(x).array
    fw = ndfft(w).values
    idx = np.indices((d, d, d)).sum(axis=0) % d
    z = ComplexTensor(x.dims, (fx * fw[idx]).ravel())
    return DenseTensor(x.dims, checked_real(indfft(z).values, "diag_broadcast_convolve"))
