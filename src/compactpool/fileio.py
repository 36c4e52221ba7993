"""Bit-exact tensor files and benchmark CSV emission.

Tensor file layout (all little-endian):

    bytes 0..3   magic "TSK1"
    byte  4      format version (1)
    byte  5      order (number of dims)
    byte  6      dtype: 0 = float64, 1 = complex (interleaved re, im float64)
    byte  7      reserved, must be 0
    next  8*order  dims as unsigned 64-bit integers
    rest         values, row-major, 8 bytes each (16 for complex)

No compression, no timestamps: identical inputs produce byte-identical files,
and round-trips preserve every finite value including signed zeros.
"""

from __future__ import annotations

import csv
import math
import os
import secrets
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .tensor import ComplexTensor, DenseTensor

__all__ = [
    "BadMagicError",
    "BenchRecord",
    "CSV_HEADER",
    "DimsOverflowError",
    "TensorFileError",
    "TruncatedPayloadError",
    "UnsupportedVersionError",
    "read_tensor",
    "write_csv",
    "write_tensor",
]

MAGIC = b"TSK1"
FORMAT_VERSION = 1
DTYPE_REAL = 0
DTYPE_COMPLEX = 1
_HEADER = struct.Struct("<4sBBBB")
_DIM = struct.Struct("<Q")
# Cells bound rejects absurd headers before any allocation is attempted.
_MAX_FILE_CELLS = 2**48


class TensorFileError(ValueError):
    """Base class for tensor file format violations."""


class BadMagicError(TensorFileError):
    pass


class UnsupportedVersionError(TensorFileError):
    pass


class TruncatedPayloadError(TensorFileError):
    pass


class DimsOverflowError(TensorFileError):
    pass


def write_tensor(t: Union[DenseTensor, ComplexTensor], path) -> None:
    """Serialize a tensor; read_tensor(path) restores it bit-exactly.

    Atomic: the bytes go to a temporary file next to path, which then
    replaces path in one step, so a failed write leaves any old file intact.
    """
    is_complex = isinstance(t, ComplexTensor)
    dtype = DTYPE_COMPLEX if is_complex else DTYPE_REAL
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, t.order, dtype, 0)
    dims = b"".join(_DIM.pack(d) for d in t.dims)
    # The tensor's own buffer when it is already little-endian, as on most hosts.
    payload = t.values.astype("<c16" if is_complex else "<f8", copy=False)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header + dims)
            fh.write(payload.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_tensor(path) -> Union[DenseTensor, ComplexTensor]:
    """Parse a tensor file, with a distinct error for each violation.

    For a regular file the size the header declares is checked against the
    file's size before the payload is read, so a lying header costs no
    allocation; other files (pipes) are measured by reading them.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedPayloadError(f"file has {len(head)} bytes, header needs {_HEADER.size}")
        magic, version, order, dtype, reserved = _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(f"version {version}, expected {FORMAT_VERSION}")
        if dtype not in (DTYPE_REAL, DTYPE_COMPLEX):
            raise TensorFileError(f"unknown dtype byte {dtype}")
        if reserved != 0:
            raise TensorFileError(f"reserved byte must be 0, got {reserved}")
        raw_dims = fh.read(_DIM.size * order)
        if len(raw_dims) < _DIM.size * order:
            size = _HEADER.size + len(raw_dims)
            raise TruncatedPayloadError(f"file ends inside the dims block ({size} bytes)")
        dims = struct.unpack(f"<{order}Q", raw_dims)
        cells = math.prod(dims)
        if cells > _MAX_FILE_CELLS:
            raise DimsOverflowError(f"dims {dims} declare {cells} cells, over {_MAX_FILE_CELLS}")
        itemsize = 16 if dtype == DTYPE_COMPLEX else 8
        expected = _HEADER.size + len(raw_dims) + cells * itemsize
        regular = stat.S_ISREG(st.st_mode)
        if regular and st.st_size != expected:
            raise TruncatedPayloadError(
                f"dims {dims} declare {expected} bytes, file has {st.st_size}"
            )
        # read(n) allocates n bytes up front, so n must be a checked size.
        payload = fh.read(cells * itemsize if regular else -1)
    size = _HEADER.size + len(raw_dims) + len(payload)
    if size != expected:
        raise TruncatedPayloadError(f"dims {dims} declare {expected} bytes, file has {size}")
    # The tensor adopts the bytes just read: one payload-sized buffer per
    # read, read-only because bytes are immutable. astype copies only on a
    # big-endian host, to native order.
    cls = ComplexTensor if dtype == DTYPE_COMPLEX else DenseTensor
    values = np.frombuffer(payload, dtype="<c16" if dtype == DTYPE_COMPLEX else "<f8")
    return cls._adopt(dims, values.astype(cls._dtype, copy=False))


VALID_METHODS = ("mcb", "mct", "poly")
VALID_METRICS = ("rel_err_inner", "max_abs_err", "runtime_ns", "bytes")
CSV_HEADER = ["method", "n1", "n2", "C", "H", "W", "L", "d", "trial", "seed", "metric", "value"]


@dataclass(frozen=True)
class BenchRecord:
    """One row of a benchmark sweep; size fields not used by the method stay None."""

    method: str
    d: int
    trial: int
    seed: int
    metric: str
    value: float
    n1: Optional[int] = None
    n2: Optional[int] = None
    C: Optional[int] = None
    H: Optional[int] = None
    W: Optional[int] = None
    L: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in VALID_METHODS:
            raise ValueError(f"method must be one of {VALID_METHODS}, got {self.method!r}")
        if self.metric not in VALID_METRICS:
            raise ValueError(f"metric must be one of {VALID_METRICS}, got {self.metric!r}")


def write_csv(records: Iterable[BenchRecord], path) -> None:
    """Emit records under the fixed header; reals carry 17 significant digits."""
    def cell(v) -> str:
        return "" if v is None else str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.method,
                    cell(r.n1),
                    cell(r.n2),
                    cell(r.C),
                    cell(r.H),
                    cell(r.W),
                    cell(r.L),
                    r.d,
                    r.trial,
                    r.seed,
                    r.metric,
                    f"{float(r.value):.17g}",
                ]
            )
