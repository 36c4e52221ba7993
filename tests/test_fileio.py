import csv
import errno
import math
import os
import struct
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactpool import fileio
from compactpool.fileio import (
    BadMagicError,
    BenchRecord,
    CSV_HEADER,
    DimsOverflowError,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    read_tensor,
    write_csv,
    write_tensor,
)
from compactpool.tensor import ComplexTensor, DenseTensor

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_real_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
    path = tmp_path / "t.tsk"
    write_tensor(t, path)
    back = read_tensor(path)
    assert isinstance(back, DenseTensor)
    assert back.dims == t.dims
    assert back.values.tobytes() == t.values.tobytes()


def test_signed_zero_survives(tmp_path):
    t = DenseTensor.vector([0.0, -0.0, 1.0])
    path = tmp_path / "z.tsk"
    write_tensor(t, path)
    back = read_tensor(path)
    assert not np.signbit(back.values[0])
    assert np.signbit(back.values[1])


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, sys.float_info.max, -sys.float_info.max)


@st.composite
def _finite_tensors(draw):
    dims = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=4)))
    is_complex = draw(st.booleans())
    count = math.prod(dims) * (2 if is_complex else 1)
    reals = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(draw(st.lists(reals, min_size=count, max_size=count)), dtype=float)
    if not is_complex:
        return DenseTensor(dims, values)
    pairs = np.empty(count // 2, dtype=complex)
    pairs.real, pairs.imag = values[0::2], values[1::2]  # keeps signed zeros in both parts
    return ComplexTensor(dims, pairs)


@settings(max_examples=100, deadline=None)
@given(_finite_tensors())
def test_round_trip_is_bit_exact_for_any_finite_tensor(t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsk"
        write_tensor(t, path)
        back = read_tensor(path)
    assert type(back) is type(t)
    assert back.dims == t.dims
    assert back.values.tobytes() == t.values.tobytes()


def test_complex_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    t = ComplexTensor.from_array(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    path = tmp_path / "c.tsk"
    write_tensor(t, path)
    back = read_tensor(path)
    assert isinstance(back, ComplexTensor)
    assert back.dims == t.dims
    assert back.values.tobytes() == t.values.tobytes()


def test_scalar_round_trip(tmp_path):
    t = DenseTensor.scalar(-7.25)
    path = tmp_path / "s.tsk"
    write_tensor(t, path)
    back = read_tensor(path)
    assert back.dims == ()
    assert back.values.tolist() == [-7.25]


def test_write_is_reproducible(tmp_path):
    t = DenseTensor.from_array(np.random.default_rng(2).standard_normal((4, 4)))
    p1, p2 = tmp_path / "a.tsk", tmp_path / "b.tsk"
    write_tensor(t, p1)
    write_tensor(t, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tsk"
    good = tmp_path / "good.tsk"
    write_tensor(DenseTensor.vector([1.0]), good)
    path.write_bytes(b"XXXX" + good.read_bytes()[4:])
    with pytest.raises(BadMagicError):
        read_tensor(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.tsk"
    good = tmp_path / "good.tsk"
    write_tensor(DenseTensor.vector([1.0]), good)
    raw = bytearray(good.read_bytes())
    raw[4] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        read_tensor(path)


def test_payload_shorter_than_dims_declare(tmp_path):
    # header says dims (2, 2) but only 3 values follow
    path = tmp_path / "short.tsk"
    header = struct.pack("<4sBBBB", b"TSK1", 1, 2, 0, 0)
    dims = struct.pack("<QQ", 2, 2)
    payload = struct.pack("<3d", 1.0, 2.0, 3.0)
    path.write_bytes(header + dims + payload)
    with pytest.raises(TruncatedPayloadError):
        read_tensor(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "long.tsk"
    write_tensor(DenseTensor.vector([1.0, 2.0]), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TruncatedPayloadError):
        read_tensor(path)


def test_header_too_short(tmp_path):
    path = tmp_path / "stub.tsk"
    path.write_bytes(b"TSK")
    with pytest.raises(TruncatedPayloadError):
        read_tensor(path)


def test_dims_overflow(tmp_path):
    path = tmp_path / "huge.tsk"
    header = struct.pack("<4sBBBB", b"TSK1", 1, 2, 0, 0)
    dims = struct.pack("<QQ", 2**40, 2**40)
    path.write_bytes(header + dims)
    with pytest.raises(DimsOverflowError):
        read_tensor(path)


def test_size_is_checked_before_the_payload_is_read(tmp_path):
    path = tmp_path / "huge.tsk"
    path.write_bytes(struct.pack("<4sBBBBQ", b"TSK1", 1, 1, 0, 0, 1))
    os.truncate(path, 2**30)  # sparse: one cell declared, 1 GiB on record
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError, match="declare 24 bytes"):
            read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("shape, is_complex", [((2048, 14, 14), False), ((16, 16, 16, 16), True)])
def test_one_buffer_per_payload(tmp_path, shape, is_complex):
    rng = np.random.default_rng(3)
    if is_complex:
        t = ComplexTensor.from_array(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    else:
        t = DenseTensor.from_array(rng.standard_normal(shape))
    path = tmp_path / "t.tsk"
    write_tensor(t, path)
    tracemalloc.start()
    try:
        write_tensor(t, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        back = read_tensor(path)
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    payload = t.values.nbytes
    assert read_peak <= 1.1 * payload
    assert write_peak < 0.1 * payload
    assert back == t
    link = back.values
    while isinstance(link, np.ndarray):
        assert not link.flags.writeable
        link = link.base
    assert link is None or isinstance(link, bytes)


def test_pipe_is_read_and_measured_by_reading(tmp_path):
    t = DenseTensor.vector([1.0, -2.5])
    write_tensor(t, tmp_path / "t.tsk")
    data = (tmp_path / "t.tsk").read_bytes()
    fifo = tmp_path / "fifo"
    for payload, ok in ((data, True), (data + b"x", False), (data[:-1], False)):
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(payload,))
        writer.start()
        try:
            if ok:
                assert read_tensor(fifo) == t
            else:
                with pytest.raises(TruncatedPayloadError):
                    read_tensor(fifo)
        finally:
            writer.join()
            fifo.unlink()


def test_unknown_dtype(tmp_path):
    path = tmp_path / "dt.tsk"
    header = struct.pack("<4sBBBB", b"TSK1", 1, 0, 7, 0)
    path.write_bytes(header + struct.pack("<d", 1.0))
    with pytest.raises(TensorFileError):
        read_tensor(path)


def test_csv_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    lines = path.read_text().splitlines()
    assert lines == [",".join(CSV_HEADER)]


def test_csv_single_record_parses(tmp_path):
    path = tmp_path / "one.csv"
    rec = BenchRecord(method="mcb", d=16, trial=0, seed=1, metric="rel_err_inner",
                      value=1.0 / 3.0, n1=512, n2=512)
    write_csv([rec], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "mcb"
    assert row["n1"] == "512"
    assert row["C"] == ""
    assert row["value"] == "0.33333333333333331"  # 17 significant digits
    assert float(row["value"]) == pytest.approx(1.0 / 3.0)


def test_csv_many_records_line_count(tmp_path):
    path = tmp_path / "many.csv"
    records = [
        BenchRecord(method="poly", d=8, trial=i, seed=i, metric="runtime_ns", value=float(i), n1=4)
        for i in range(1000)
    ]
    write_csv(records, path)
    assert len(path.read_text().splitlines()) == 1001


def test_bench_record_validates():
    with pytest.raises(ValueError):
        BenchRecord(method="other", d=1, trial=0, seed=0, metric="bytes", value=0)
    with pytest.raises(ValueError):
        BenchRecord(method="mcb", d=1, trial=0, seed=0, metric="speed", value=0)


class _DiskFullFile:
    """File stand-in that keeps the first few bytes it is given, then fails."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)
        self._room = 10

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        data = bytes(data)
        self._fh.write(data[: self._room])
        if len(data) > self._room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(data)
        return len(data)


def test_write_that_fails_midway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.tsk"
    write_tensor(DenseTensor.vector([1.0, 2.0, 3.0]), path)
    before = path.read_bytes()
    monkeypatch.setattr(fileio, "open", _DiskFullFile, raising=False)
    with pytest.raises(OSError) as info:
        write_tensor(DenseTensor.vector(np.arange(100.0)), path)
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.tsk"]


def test_write_that_fails_to_replace_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "t.tsk"
    write_tensor(DenseTensor.vector([1.0]), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "replace refused")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_tensor(DenseTensor.vector([2.0, 3.0]), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.tsk"]


def test_write_replaces_atomically_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "t.tsk"
    write_tensor(DenseTensor.vector([1.0]), path)
    write_tensor(ComplexTensor.from_array(np.array([1 + 2j, 3 - 4j])), path)
    assert os.listdir(tmp_path) == ["t.tsk"]
    assert read_tensor(path).values.tolist() == [1 + 2j, 3 - 4j]
