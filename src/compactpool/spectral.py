"""N-dimensional Fourier transforms, a naive-DFT oracle, and the pooling exit checks.

Convention: the forward transform is unnormalized and the inverse carries the
1/prod(dims) factor, matching the convolution-theorem usage in the pooling
operators. Fast paths delegate to numpy.fft; naive_ndft evaluates the defining
sum directly and is the testing oracle that pins them down. Real parts are
extracted only at documented exits, guarded by an imaginary-residue check of
at most RESIDUE_TOL of the Frobenius norm.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ComplexTensor, DenseTensor

__all__ = [
    "ORACLE_CAP",
    "RESIDUE_TOL",
    "OracleCapExceeded",
    "ResidueError",
    "checked_finite",
    "checked_real",
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
    """A result held non-finite values, or a nominally real one too large an imaginary part."""


def checked_finite(values: np.ndarray, where: str) -> None:
    """Fail if any value is NaN or infinite; the exit check of the frequency variants."""
    if not np.isfinite(values).all():
        raise ResidueError(f"{where}: result holds non-finite values")


def checked_real(values: np.ndarray, where: str) -> np.ndarray:
    """Drop the imaginary part after asserting it is numerically negligible.

    Compares the norm of the imaginary parts with RESIDUE_TOL of the norm of
    the values, from two sums of squares (np.vdot, which raises no
    floating-point warning). NaN or infinite values fail too, rather than
    passing as a NaN norm. Real-dtype values pass with a zero residue.
    """
    flat = values.reshape(-1)
    total, residue = np.vdot(flat, flat).real, np.vdot(flat.imag, flat.imag)
    if not math.isfinite(total):
        checked_finite(values, where)
        # The sums overflow for finite values above about 1e154: compare the
        # values scaled by their largest component instead.
        flat = flat / max(np.abs(flat.real).max(), np.abs(flat.imag).max())
        total, residue = np.vdot(flat, flat).real, np.vdot(flat.imag, flat.imag)
    total, residue = math.sqrt(total), math.sqrt(residue)
    if residue > RESIDUE_TOL * total:
        raise ResidueError(
            f"{where}: imaginary residue {residue:.3e} exceeds {RESIDUE_TOL} of norm {total:.3e}"
        )
    return np.ascontiguousarray(values.real)


def _transform(t: DenseTensor | ComplexTensor, batched: bool, fft, fftn) -> ComplexTensor:
    if not isinstance(batched, (bool, np.bool_)):
        raise ValueError(f"batched must be a bool, got {batched!r}")
    order = len(t.dims)
    if batched and order < 2:
        raise ValueError(f"a batched transform needs order >= 2, got order {order}")
    if order == 0:
        return ComplexTensor._adopt((), t.values.astype(np.complex128))
    arr = t.array
    out = fft(arr) if order - batched == 1 else fftn(arr, axes=tuple(range(int(batched), order)))
    return ComplexTensor._adopt(t.dims, out)


def ndfft(t: DenseTensor | ComplexTensor, batched: bool = False) -> ComplexTensor:
    """Unnormalized forward DFT over every mode.

    With batched (a bool), mode 0 indexes independent blocks and is not
    transformed: each block comes out as ndfft of that block alone.
    """
    return _transform(t, batched, np.fft.fft, np.fft.fftn)


def indfft(f: DenseTensor | ComplexTensor, batched: bool = False) -> ComplexTensor:
    """Inverse DFT with the 1/prod(dims) normalization; inverts ndfft.

    batched (a bool) leaves mode 0 untransformed, as in ndfft.
    """
    return _transform(f, batched, np.fft.ifft, np.fft.ifftn)


def naive_ndft(t: DenseTensor | ComplexTensor) -> ComplexTensor:
    """Definitional DFT: F(f) = sum over cells a of t(a) exp(-2i pi sum f_m a_m / d_m).

    O(cells^2); refuses inputs above ORACLE_CAP cells.
    """
    if t.size > ORACLE_CAP:
        raise OracleCapExceeded(f"{t.size} cells exceeds the oracle cap of {ORACLE_CAP}")
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
