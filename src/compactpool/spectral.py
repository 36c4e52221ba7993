"""N-dimensional Fourier transforms, a naive-DFT oracle, and the pooling exit checks.

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

    NaN or infinite values fail too, rather than passing as a NaN norm.
    """
    total = np.linalg.norm(values)
    scaled = values
    if not np.isfinite(total):
        checked_finite(values, where)
        # The norm overflows for finite values above about 1e154: compare the
        # norms of the values scaled by their largest component instead.
        scaled = values / max(np.abs(values.real).max(), np.abs(values.imag).max())
        total = np.linalg.norm(scaled)
    residue = np.linalg.norm(scaled.imag)
    if residue > RESIDUE_TOL * total:
        raise ResidueError(
            f"{where}: imaginary residue {residue:.3e} exceeds {RESIDUE_TOL} of norm {total:.3e}"
        )
    return np.ascontiguousarray(values.real)


def _transform(t: DenseTensor | ComplexTensor, batched: bool, fft) -> ComplexTensor:
    if batched and t.order < 2:
        raise ValueError(f"a batched transform needs order >= 2, got order {t.order}")
    arr = np.asarray(t.array, dtype=np.complex128)
    if t.order == 0:
        return ComplexTensor((), arr.reshape(-1))
    return ComplexTensor(t.dims, fft(arr, axes=tuple(range(int(batched), t.order))).ravel())


def ndfft(t: DenseTensor | ComplexTensor, batched: bool = False) -> ComplexTensor:
    """Unnormalized forward DFT over every mode.

    With batched, mode 0 indexes independent blocks and is not transformed:
    each block comes out as ndfft of that block alone.
    """
    return _transform(t, batched, np.fft.fftn)


def indfft(f: DenseTensor | ComplexTensor, batched: bool = False) -> ComplexTensor:
    """Inverse DFT with the 1/prod(dims) normalization; inverts ndfft.

    batched leaves mode 0 untransformed, as in ndfft.
    """
    return _transform(f, batched, np.fft.ifftn)


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
