"""Tests of the benchmark itself: seeded inputs, output checks, result format.

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_library()

import checks  # noqa: E402
import workloads  # noqa: E402
from compactpool import DenseTensor, reference  # noqa: E402
from compactpool.hashplan import build_plan  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fingerprint(name, seed, workdir, count=60):
    wl = workloads.build(name, seed, workdir)
    try:
        h = hashlib.sha256()
        ops = wl.ops()
        for _ in range(count):
            op = next(ops)
            h.update(repr((op.kind.name, op.kind.seed, op.key)).encode())
            for arr in op.inputs:
                h.update(arr.tobytes())
        return h.hexdigest()
    finally:
        wl.close()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_reproduces_ops_and_inputs(name, tmp_path):
    assert fingerprint(name, 1, tmp_path) == fingerprint(name, 1, tmp_path)
    assert fingerprint(name, 1, tmp_path) != fingerprint(name, 7, tmp_path)


def test_cli_files_cleans_up(tmp_path):
    wl = workloads.build("cli_files", 1, tmp_path)
    assert any(tmp_path.iterdir())
    wl.close()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [0, 5])
def test_literal_checkers_match_reference_oracles(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(12), rng.standard_normal(9)
    px, py = build_plan([12], [16], seed), build_plan([9], [16], seed + 1)
    want = reference.mcb_oracle(DenseTensor.vector(x), DenseTensor.vector(y), 16, 0, plans=(px, py))
    got = checks.literal_pair(x, y, px.modes[0], py.modes[0], 16)
    np.testing.assert_allclose(got, want.values, rtol=0, atol=1e-12)

    img, txt = rng.standard_normal((3, 4, 2)), rng.standard_normal(5)
    p_img, p_txt = build_plan([3, 4, 2], [4, 4, 4], seed), build_plan([5], [4], seed + 1)
    want = reference.mct_oracle(DenseTensor.from_array(img), DenseTensor.vector(txt), 4, 0,
                                plans=(p_img, p_txt))
    got = checks.literal_image_text(img, txt, p_img.modes, p_txt.modes[0], 4)
    np.testing.assert_allclose(got, want.values, rtol=0, atol=1e-12)


def _one_op(kind, seed=3):
    rng = np.random.default_rng(seed)
    op = workloads.Op(kind, tuple(workloads.features(rng, s) for s in kind.input_shapes), (0,) * 2)
    res = kind.invoke(kind.prepare(op))
    return op, res, kind.extract(res)


@pytest.mark.parametrize("kind", [
    workloads.Mcb("exact", 16, 32, seed=4),
    workloads.Mcb("exact_f", 16, 32, "frequency", seed=4),
    workloads.Mcb("invariant", 512, 64, seed=4),
    workloads.Mcb("invariant_f_pad", 300, 64, "frequency", pad=True, seed=4),
    workloads.Mct("exact", (4, 4, 4), 8, 4, seed=4),
    workloads.Mct("invariant", (16, 8, 8), 64, 4, seed=4),
    workloads.Poly("exact", 8, 64, seed=4),
    workloads.Poly("invariant", 512, 64, seed=4),
    workloads.LocalMct("blocks", (8, 4, 4), 8, (4, 2, 2), 4, seed=4),
], ids=lambda k: f"{type(k).__name__}-{k.name}")
def test_checks_pass_correct_and_catch_corrupted_outputs(kind):
    op, res, values = _one_op(kind)
    kind.check(op, res, values, pin=True)
    for corrupt in ("sign", "nan"):
        bad = [v.copy() for v in values] if isinstance(values, list) else values.copy()
        target = bad[0] if isinstance(bad, list) else bad
        i = int(np.argmax(np.abs(target)))
        target[i] = np.nan if corrupt == "nan" else -target[i]
        with pytest.raises(checks.CheckFailure):
            kind.check(op, res, bad, pin=False)


def test_result_line_has_every_metric_of_the_spec():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", "sweep_trials",
             "--seed", "2", "--seconds", "0.8", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    from compactpool import pooling

    real = pooling.polynomial_sketch

    def off_by_one(x, degree, d, seed):
        out = real(x, degree, d, seed)
        return DenseTensor(out.dims, out.values + np.eye(1, d).ravel())

    monkeypatch.setattr(pooling, "polynomial_sketch", off_by_one)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    rc = run.main(["--workload", "sweep_trials", "--seed", "1", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] > 0


def test_traced_run_fails_when_a_layer_is_never_reached(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Sweep, "expected_calls", property(lambda self: {"fileio.read_tensor"}))
    rc = run.main(["--workload", "sweep_trials", "--seed", "1", "--seconds", "0.3", "--trace", "1"])
    assert rc == 3
    assert "fileio.read_tensor" in capsys.readouterr().err
    from compactpool import hashplan, pooling
    assert not hasattr(hashplan.build_plan, "__wrapped__")  # the wrappers are removed again
    assert not hasattr(pooling.count_sketch, "__wrapped__")


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream_mid", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
