import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from compactpool import cli, fileio, pooling, selfcheck, spectral
from compactpool.cli import main, run_sweep
from compactpool.fileio import read_tensor, write_tensor
from compactpool.hashplan import derive_seed
from compactpool.selfcheck import fft_errors, mcb_error, mct_error, padding_error
from compactpool.tensor import ComplexTensor, DenseTensor

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROWS_FIXTURE = Path(__file__).parent / "data" / "run_sweep_rows.csv"


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tsk", tmp_path / "b.tsk"
    for out in (a, b):
        rc = main(["gen", "--shape", "4x4x4", "--dist", "gauss", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_zero_dim(tmp_path):
    rc = main(["gen", "--shape", "0x2", "--dist", "gauss", "--seed", "1",
               "--out", str(tmp_path / "x.tsk")])
    assert rc == 2


def test_gen_rejects_garbage_shape(tmp_path):
    rc = main(["gen", "--shape", "4xx2", "--dist", "gauss", "--seed", "1",
               "--out", str(tmp_path / "x.tsk")])
    assert rc == 2


def test_gen_unwritable_path_gives_io_error(tmp_path):
    rc = main(["gen", "--shape", "4", "--dist", "gauss", "--seed", "1",
               "--out", str(tmp_path / "missing-dir" / "x.tsk")])
    assert rc == 3


def test_gen_uniform_range(tmp_path):
    out = tmp_path / "v.tsk"
    rc = main(["gen", "--shape", "16", "--dist", "uniform", "--seed", "1", "--out", str(out)])
    assert rc == 0
    t = read_tensor(out)
    assert t.dims == (16,)
    assert np.all(t.values >= 0.0) and np.all(t.values < 1.0)


@pytest.mark.parametrize("order", [65, 256])
def test_gen_refuses_more_modes_than_a_numpy_array_holds(tmp_path, capsys, order):
    out = tmp_path / "x.tsk"
    rc = main(["gen", "--shape", "x".join(["1"] * order), "--dist", "gauss", "--seed", "1",
               "--out", str(out)])
    assert rc == 2
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()


def test_gen_over_the_cell_cap_refuses_before_it_draws(tmp_path, monkeypatch, capsys):
    # np.prod would wrap 2**32 * (2**32 + 1) cells to 2**32 and draw 32 GiB.
    class NoDraws:
        def standard_normal(self, size):
            raise AssertionError(f"drew {size}")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
    rc = main(["gen", "--shape", "4294967296x4294967297", "--dist", "gauss", "--seed", "1",
               "--out", str(tmp_path / "x.tsk")])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_gen_draws_by_shape_as_one_flat_stream(tmp_path):
    out = tmp_path / "x.tsk"
    assert main(["gen", "--shape", "3x4x5", "--dist", "uniform", "--seed", "8", "--out", str(out)]) == 0
    assert read_tensor(out).values.tolist() == np.random.default_rng(8).random(60).tolist()


def test_the_cli_methods_are_the_csv_methods():
    assert tuple(cli._METHODS) == fileio.VALID_METHODS


def _gen_inputs(tmp_path):
    img = tmp_path / "img.tsk"
    txt = tmp_path / "txt.tsk"
    main(["gen", "--shape", "4x4x4", "--dist", "gauss", "--seed", "5", "--out", str(img)])
    main(["gen", "--shape", "5", "--dist", "gauss", "--seed", "6", "--out", str(txt)])
    return img, txt


def test_pool_mct_time(tmp_path, capsys):
    img, txt = _gen_inputs(tmp_path)
    out = tmp_path / "y.tsk"
    rc = main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt),
               "--dims", "8,8,8,8", "--variant", "time", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "(8, 8, 8)" in capsys.readouterr().out
    assert read_tensor(out).dims == (8, 8, 8)


def test_pool_mct_unequal_dims_time_fails(tmp_path, capsys):
    img, txt = _gen_inputs(tmp_path)
    rc = main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt),
               "--dims", "8,8,8,4", "--variant", "time", "--seed", "3",
               "--out", str(tmp_path / "y.tsk")])
    assert rc == 2
    assert "equal output dims" in capsys.readouterr().err


def test_pool_mct_unequal_dims_freq_ok(tmp_path):
    img, txt = _gen_inputs(tmp_path)
    out = tmp_path / "y.tsk"
    rc = main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt),
               "--dims", "8,8,8,4", "--variant", "freq", "--seed", "3", "--out", str(out)])
    assert rc == 0
    t = read_tensor(out)
    assert isinstance(t, ComplexTensor)
    assert t.dims == (8, 8, 8)


def test_pool_is_deterministic(tmp_path):
    img, txt = _gen_inputs(tmp_path)
    outs = []
    for name in ("y1.tsk", "y2.tsk"):
        out = tmp_path / name
        rc = main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt),
                   "--dims", "8,8,8,8", "--variant", "time", "--seed", "3", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_pool_mcb_and_poly(tmp_path):
    vec = tmp_path / "v.tsk"
    main(["gen", "--shape", "16", "--dist", "gauss", "--seed", "9", "--out", str(vec)])
    out = tmp_path / "p.tsk"
    rc = main(["pool", "--mode", "mcb", "--a", str(vec), "--b", str(vec),
               "--dims", "8", "--variant", "time", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert read_tensor(out).dims == (8,)
    rc = main(["pool", "--mode", "poly", "--a", str(vec), "--dims", "8",
               "--degree", "2", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert read_tensor(out).dims == (8,)


def test_pool_missing_b_fails(tmp_path):
    vec = tmp_path / "v.tsk"
    main(["gen", "--shape", "8", "--dist", "gauss", "--seed", "2", "--out", str(vec)])
    rc = main(["pool", "--mode", "mcb", "--a", str(vec), "--dims", "8",
               "--seed", "1", "--out", str(tmp_path / "o.tsk")])
    assert rc == 2


def test_pool_pad_only_for_mcb(tmp_path):
    img, txt = _gen_inputs(tmp_path)
    rc = main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt), "--pad",
               "--dims", "4,4,4,4", "--seed", "1", "--out", str(tmp_path / "o.tsk")])
    assert rc == 2


@pytest.mark.parametrize("flags, message", [
    (["--mode", "poly", "--a", "{vec}", "--b", "{vec}", "--dims", "8"], "--b applies to mcb and mct"),
    (["--mode", "poly", "--a", "{vec}", "--variant", "freq", "--dims", "8"], "only --variant time"),
    (["--mode", "poly", "--a", "{vec}", "--dims", "8,8"], "one output dim"),
    (["--mode", "poly", "--a", "{vec}", "--degree", "0", "--dims", "8"], "degree must be >= 1"),
    (["--mode", "mcb", "--a", "{cplx}", "--b", "{vec}", "--dims", "8"], "holds complex values"),
    (["--mode", "mcb", "--a", "{vec}", "--b", "{vec}", "--degree", "-3", "--dims", "8"],
     "--degree applies to poly only"),
    (["--mode", "mct", "--a", "{vec}", "--b", "{vec}", "--degree", "2", "--dims", "2,2,2,2"],
     "--degree applies to poly only"),
    # Options are checked before any input is read, so a bad input cannot mask them.
    (["--mode", "mct", "--pad", "--a", "{missing}", "--b", "{vec}", "--dims", "2,2,2,2"],
     "--pad applies to mcb only"),
    (["--mode", "mcb", "--degree", "3", "--a", "{dir}", "--b", "{vec}", "--dims", "8"],
     "--degree applies to poly only"),
], ids=["poly-b", "poly-freq", "poly-two-dims", "poly-degree-0", "complex-input", "mcb-degree",
        "mct-degree", "pad-before-missing-input", "degree-before-directory-input"])
def test_pool_refuses_bad_flags_and_inputs(tmp_path, capsys, flags, message):
    files = {"vec": tmp_path / "v.tsk", "cplx": tmp_path / "c.tsk",
             "missing": tmp_path / "missing.tsk", "dir": tmp_path}
    write_tensor(DenseTensor.vector([1.0, 2.0]), files["vec"])
    write_tensor(ComplexTensor.from_array(np.array([1 + 2j, 3.0])), files["cplx"])
    out = tmp_path / "o.tsk"
    rc = main(["pool", *(arg.format(**files) for arg in flags), "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pool_missing_file_gives_io_error(tmp_path):
    rc = main(["pool", "--mode", "mcb", "--a", str(tmp_path / "nope.tsk"),
               "--b", str(tmp_path / "nope.tsk"), "--dims", "8", "--seed", "1",
               "--out", str(tmp_path / "o.tsk")])
    assert rc == 3


def test_bench_row_counts(tmp_path):
    path = tmp_path / "e.csv"
    rc = main(["bench", "--method", "mcb", "--sizes", "32", "--dims-sweep", "4,8",
               "--trials", "5", "--seed", "1", "--csv", str(path)])
    assert rc == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rel = [r for r in rows if r["metric"] == "rel_err_inner"]
    runtime = [r for r in rows if r["metric"] == "runtime_ns"]
    byte_rows = [r for r in rows if r["metric"] == "bytes"]
    abs_rows = [r for r in rows if r["metric"] == "max_abs_err"]
    assert len(rel) == 5 * 2
    assert len(runtime) == 5 * 2
    assert len(byte_rows) == 5 * 2
    # 32 * 32 fits under the oracle cap, so oracle rows exist and agree
    assert len(abs_rows) == 5 * 2
    assert all(float(r["value"]) <= 1e-9 for r in abs_rows)


def test_bench_zero_trials_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    rc = main(["bench", "--method", "mcb", "--sizes", "16", "--dims-sweep", "4",
               "--trials", "0", "--seed", "1", "--csv", str(path)])
    assert rc == 0
    assert len(path.read_text().splitlines()) == 1


def test_bench_rejects_bad_flags(tmp_path, capsys):
    rc = main(["bench", "--method", "mcb", "--sizes", "4x4", "--dims-sweep", "4",
               "--trials", "1", "--seed", "1", "--csv", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["bench", "--method", "mct", "--sizes", "8", "--dims-sweep", "4",
               "--trials", "1", "--seed", "1", "--csv", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["bench", "--method", "mcb", "--sizes", "8", "--dims-sweep", "4",
               "--trials", "-1", "--seed", "1", "--csv", str(tmp_path / "x.csv")])
    assert rc == 2
    for method, size in [("mcb", "8"), ("mct", "2x2x2x2")]:
        rc = main(["bench", "--method", method, "--sizes", size, "--dims-sweep", "4",
                   "--trials", "1", "--seed", "1", "--degree", "0", "--csv", str(tmp_path / "x.csv")])
        assert rc == 2 and "--degree applies to poly only" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(cli.UsageError, match="unknown method 'nope'"):
        run_sweep("nope", [(8,)], [4], 1, 0)


def test_bench_mct_and_poly_smoke(tmp_path):
    path = tmp_path / "m.csv"
    rc = main(["bench", "--method", "mct", "--sizes", "3x3x3x4", "--dims-sweep", "4",
               "--trials", "2", "--seed", "1", "--csv", str(path)])
    assert rc == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["C"] == "3" and r["L"] == "4" and r["n1"] == "" for r in rows)
    rc = main(["bench", "--method", "poly", "--sizes", "8", "--dims-sweep", "16",
               "--trials", "2", "--seed", "1", "--degree", "3", "--csv", str(path)])
    assert rc == 0


def test_run_sweep_rows_match_the_fixture():
    # The fixture pins rows from one size under and one over each oracle cap;
    # runtime_ns values are timings and are not compared.
    records = (
        run_sweep("mcb", [(16,), (257,)], [8, 64], trials=2, seed=5)
        + run_sweep("poly", [(8,), (300,)], [16], trials=2, seed=6, degree=3)
        + run_sweep("mct", [(2, 3, 2, 4), (4, 4, 4, 1025)], [4], trials=2, seed=7)
    )
    with open(ROWS_FIXTURE, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        value = row.pop("value")
        assert {k: "" if v is None else str(v) for k, v in vars(rec).items() if k != "value"} == row
        if rec.metric != "runtime_ns":
            assert rec.value == pytest.approx(float(value), rel=1e-12, abs=0)


@pytest.mark.parametrize("method, size, has_oracle_row", [
    ("mcb", (256,), True),
    ("mcb", (257,), False),
    ("mct", (4, 4, 4, 1024), True),
    ("mct", (4, 4, 4, 1025), False),
])
def test_run_sweep_emits_max_abs_err_exactly_under_the_oracle_cap(method, size, has_oracle_row):
    records = run_sweep(method, [size], [2], trials=1, seed=1)
    abs_rows = [r for r in records if r.metric == "max_abs_err"]
    assert len(abs_rows) == has_oracle_row
    assert all(r.value <= 1e-9 for r in abs_rows)


def test_run_sweep_errors_shrink_with_dim():
    records = run_sweep("mcb", [(64,)], [4, 256], trials=40, seed=3)
    by_dim = {}
    for r in records:
        if r.metric == "rel_err_inner":
            by_dim.setdefault(r.d, []).append(r.value)
    med4 = float(np.median(by_dim[4]))
    med256 = float(np.median(by_dim[256]))
    assert med256 < med4


def test_selfcheck_passes(capsys):
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_selfcheck_multiple_seeds():
    assert main(["selfcheck", "--seed", "99"]) == 0
    assert main(["selfcheck", "--seed", "100"]) == 0


def _nudged(t):
    return type(t)(t.dims, t.values + 1e-3)


def _corrupt_pooling(monkeypatch, name, padded_only=False):
    real = getattr(pooling, name)

    def corrupted(a, b, cfg):
        feature = real(a, b, cfg)
        if padded_only and not cfg.pad_with_ones:
            return feature
        return pooling.PooledFeature(_nudged(feature.data), feature.plans)

    monkeypatch.setattr(pooling, name, corrupted)


def _selfcheck_fails(capsys, check):
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"FAIL {check}" in out
    return out


def _vectors(*lengths):
    rng = np.random.default_rng(0)
    return [DenseTensor.vector(rng.standard_normal(n)) for n in lengths]


def test_selfcheck_corruption_is_detected(capsys, monkeypatch):
    _corrupt_pooling(monkeypatch, "mcb")
    assert mcb_error(*_vectors(8, 8), 16, 0) > 1e-9
    _selfcheck_fails(capsys, "mcb-identity")


def test_selfcheck_detects_corrupted_mct(capsys, monkeypatch):
    _corrupt_pooling(monkeypatch, "mct")
    img = DenseTensor.from_array(np.random.default_rng(0).standard_normal((3, 4, 2)))
    assert mct_error(img, *_vectors(5), 4, 0) > 1e-9
    _selfcheck_fails(capsys, "mct-identity")


def test_selfcheck_detects_corrupted_fft(capsys, monkeypatch):
    real = spectral.ndfft
    monkeypatch.setattr(spectral, "ndfft", lambda t: _nudged(real(t)))
    t = DenseTensor.from_array(np.random.default_rng(0).standard_normal((3, 4, 5)))
    assert fft_errors(t)[0] > 1e-9
    _selfcheck_fails(capsys, "fft-vs-naive")


def test_selfcheck_detects_corrupted_padding(capsys, monkeypatch):
    _corrupt_pooling(monkeypatch, "mcb", padded_only=True)
    x, y = _vectors(2, 2)
    errors = (padding_error(x, y, 256, derive_seed(0, "pad", k)) for k in range(500))
    assert next(e for e in errors if e is not None) > 1e-9
    assert "PASS mcb-identity" in _selfcheck_fails(capsys, "padding-recovery")


def test_selfcheck_detects_a_complex_round_trip_fault(capsys, monkeypatch):
    real = selfcheck.read_tensor

    def conjugating(path):
        t = real(path)
        return ComplexTensor(t.dims, t.values.conj()) if isinstance(t, ComplexTensor) else t

    monkeypatch.setattr(selfcheck, "read_tensor", conjugating)
    _selfcheck_fails(capsys, "roundtrip")


def test_selfcheck_json(capsys):
    rc = main(["selfcheck", "--json"])
    assert rc == 0
    results = json.loads(capsys.readouterr().out)
    assert set(results) == {
        "mcb-identity", "mct-identity", "fft-vs-naive", "padding-recovery", "roundtrip",
    }
    assert all(results.values())


def test_selfcheck_output_is_deterministic(capsys):
    assert main(["selfcheck", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["selfcheck", "--seed", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: compactpool" in capsys.readouterr().out


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    assert main(["selfcheck", "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")

    a, b = (tmp_path / name for name in ("a.tsk", "b.tsk"))
    x, y = _vectors(6, 6)
    write_tensor(x, a)
    write_tensor(y, b)
    out = tmp_path / "z.tsk"
    flags = ["pool", "--mode", "mcb", "--a", str(a), "--b", str(b), "--dims", "8",
             "--seed", "1", "--out", str(out)]
    assert main([*flags, "--pad"]) == 0
    assert main(flags) == 0
    unpadded = pooling.mcb(x, y, pooling.PoolingConfig((8,), "time", False, 1)).data
    assert read_tensor(out).values.tobytes() == unpadded.values.tobytes()


@pytest.mark.parametrize("variant", ["time", "freq"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pool_refuses_non_finite_input(tmp_path, capsys, variant, bad):
    img, txt = _gen_inputs(tmp_path)
    arr = read_tensor(img).array.copy()
    arr[1, 2, 3] = bad
    write_tensor(DenseTensor.from_array(arr), img)
    out = tmp_path / "y.tsk"
    rc = main(["pool", "--mode", "mct", "--a", str(img), "--b", str(txt),
               "--dims", "4,4,4,4", "--variant", variant, "--seed", "3", "--out", str(out)])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


def test_pool_refuses_non_finite_second_input(tmp_path):
    a, b = tmp_path / "a.tsk", tmp_path / "b.tsk"
    write_tensor(DenseTensor.vector([1.0, 2.0]), a)
    write_tensor(DenseTensor.vector([1.0, np.nan]), b)
    out = tmp_path / "z.tsk"
    rc = main(["pool", "--mode", "mcb", "--a", str(a), "--b", str(b), "--dims", "4",
               "--variant", "freq", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_pool_overflow_fails_the_residue_check(tmp_path, capsys):
    # Finite inputs whose spectral product overflows to a non-finite result.
    a = tmp_path / "a.tsk"
    write_tensor(DenseTensor.vector([1e308]), a)
    out = tmp_path / "z.tsk"
    with pytest.warns(RuntimeWarning):
        rc = main(["pool", "--mode", "mcb", "--a", str(a), "--b", str(a), "--dims", "1",
                   "--variant", "time", "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, a_value, dims", [
    ("mcb", [1e308], "1"),
    ("mct", [[[1e308]]], "2,2,2,3"),
])
def test_pool_frequency_overflow_fails(tmp_path, capsys, mode, a_value, dims):
    # The frequency variants skip checked_real, so they need their own exit check.
    a, b = tmp_path / "a.tsk", tmp_path / "b.tsk"
    write_tensor(DenseTensor.from_array(a_value), a)
    write_tensor(DenseTensor.vector([1e308]), b)
    out = tmp_path / "z.tsk"
    with pytest.warns(RuntimeWarning):
        rc = main(["pool", "--mode", mode, "--a", str(a), "--b", str(b), "--dims", dims,
                   "--variant", "freq", "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, a_value, dims, variant", [
    ("mcb", [1e300, 1.0, 2.0], "4", "time"),
    ("mcb", [1e300, 1.0, 2.0], "4", "freq"),
    ("mct", [[[1e300]]], "2,2,2,2", "time"),
])
def test_pool_overflow_under_warnings_as_errors_fails_the_check(tmp_path, capsys, mode, a_value,
                                                               dims, variant):
    # As under `python -W error`: numpy's overflow warning is an error, and pool still
    # reports the failed check with exit 1 rather than a traceback.
    a, b = tmp_path / "a.tsk", tmp_path / "b.tsk"
    write_tensor(DenseTensor.from_array(a_value), a)
    write_tensor(DenseTensor.vector([1e300, 3.0, 2.0]), b)
    out = tmp_path / "z.tsk"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["pool", "--mode", mode, "--a", str(a), "--b", str(b), "--dims", dims,
                   "--variant", variant, "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert "check failed" in capsys.readouterr().err
    assert not out.exists()


def test_pool_out_of_memory_is_exit_2(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(pooling, "mcb", exhausted)
    a = tmp_path / "a.tsk"
    write_tensor(DenseTensor.vector([1.0, 2.0]), a)
    out = tmp_path / "z.tsk"
    rc = main(["pool", "--mode", "mcb", "--a", str(a), "--b", str(a), "--dims", "4",
               "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "out of memory" in capsys.readouterr().err
    assert not out.exists()
