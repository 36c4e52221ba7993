import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactpool import hashplan, pooling
from compactpool.hashplan import (
    build_plan,
    compose_sum,
    derive_seed,
    paired_vector_plans,
    repeated_vector_plans,
)
from compactpool.pooling import (
    PooledFeature,
    PoolingConfig,
    PoolingContractError,
    local_mct,
    mcb,
    mct,
    polynomial_sketch,
)
from compactpool.reference import mcb_oracle, mct_oracle
from compactpool.sketch import count_sketch, decode_estimate, md_sketch
from compactpool.spectral import ResidueError, checked_real, indfft, naive_ndft, ndfft
from compactpool.tensor import ComplexTensor, DenseTensor, pad_with_ones, stack_blocks

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _gauss_vec(n, seed):
    return DenseTensor.vector(np.random.default_rng(seed).standard_normal(n))


def _blocks(img, block_dims):
    """Each block of stack_blocks as a tensor of its own."""
    return [DenseTensor.from_array(b) for b in stack_blocks(img, block_dims).array]


def test_config_validation():
    with pytest.raises(ValueError):
        PoolingConfig((), "time")
    with pytest.raises(ValueError):
        PoolingConfig((4,), "spectral")
    with pytest.raises(ValueError):
        PoolingConfig((0,), "time")


@pytest.mark.parametrize("args", [
    ((8,), "time", "no"),
    ((8,), "time", 0.5),
    ((8,), "time", 1),
    ((8,), "time", 0),
    ((8,), "time", None),
    ((8,), "time", np.int64(1)),
    (16,),
    (None,),
    (iter([8]),),
    ({8},),
], ids=["pad-str", "pad-float", "pad-int-1", "pad-int-0", "pad-none", "pad-np-int",
        "dims-int", "dims-none", "dims-iterator", "dims-set"])
def test_config_refuses_a_non_bool_pad_and_non_sequence_dims(args):
    with pytest.raises(ValueError, match="must be a (bool|sequence)"):
        PoolingConfig(*args)


def test_config_takes_numpy_bools_and_dim_arrays():
    cfg = PoolingConfig(np.array([8]), "time", np.True_)
    assert cfg.output_dims == (8,) and cfg.pad_with_ones is True
    assert PoolingConfig([8], "time", np.False_).pad_with_ones is False


def test_pooled_feature_domain_follows_the_data_type():
    assert PooledFeature(DenseTensor.vector([0.0, 0.0]), ()).domain == "time"
    assert PooledFeature(ComplexTensor((2,), np.zeros(2, complex)), ()).domain == "frequency"
    x, y = _gauss_vec(4, 0), _gauss_vec(4, 1)
    for variant in ("time", "frequency"):
        assert mcb(x, y, PoolingConfig((8,), variant)).domain == variant


def test_mcb_zero_inputs_give_zero():
    zero = DenseTensor.vector(np.zeros(4))
    y = _gauss_vec(4, 0)
    for variant in ("time", "frequency"):
        cfg = PoolingConfig((8,), variant, False, 5)
        out = mcb(zero, y, cfg).data
        assert np.max(np.abs(out.values)) == 0.0
        out = mcb(y, zero, cfg).data
        assert np.max(np.abs(out.values)) == 0.0


def test_mcb_single_bucket_single_entries():
    a, b = 2.5, -3.0
    cfg = PoolingConfig((1,), "time", False, 9)
    out = mcb(DenseTensor.vector([a]), DenseTensor.vector([b]), cfg)
    px, py = out.plans
    sx = px.modes[0].sign_table[0]
    sy = py.modes[0].sign_table[0]
    assert abs(out.data.values[0] - sx * sy * a * b) <= 1e-12


def test_mcb_matches_oracle():
    x = _gauss_vec(8, 30)
    y = _gauss_vec(8, 31)
    cfg = PoolingConfig((16,), "time", False, 3)
    fast = mcb(x, y, cfg).data
    slow = mcb_oracle(x, y, 16, 3)
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-9


def test_mcb_equals_sketch_of_outer_product():
    # the time variant is the count-sketch of the flattened (padded) outer product
    rng = np.random.default_rng(14)
    for n1, n2, d in [(4, 4, 8), (8, 16, 32), (16, 3, 8)]:
        x = DenseTensor.vector(rng.standard_normal(n1))
        y = DenseTensor.vector(rng.standard_normal(n2))
        seed = int(rng.integers(0, 2**32))
        for pad in (False, True):
            fast = mcb(x, y, PoolingConfig((d,), "time", pad, seed)).data
            slow = mcb_oracle(x, y, d, seed, pad=pad)
            assert np.max(np.abs(fast.values - slow.values)) <= 1e-9


def test_mcb_frequency_matches_fft_of_time():
    x = _gauss_vec(8, 1)
    y = _gauss_vec(8, 2)
    t = mcb(x, y, PoolingConfig((16,), "time", False, 7)).data
    f = mcb(x, y, PoolingConfig((16,), "frequency", False, 7)).data
    assert isinstance(f, ComplexTensor)
    assert np.max(np.abs(ndfft(t).values - f.values)) <= 1e-9


def test_mcb_is_bilinear():
    x = _gauss_vec(6, 3)
    y = _gauss_vec(5, 4)
    cfg = PoolingConfig((8,), "time", False, 11)
    alpha = -1.75
    scaled_x = DenseTensor.vector(alpha * x.values)
    assert np.max(np.abs(mcb(scaled_x, y, cfg).data.values - alpha * mcb(x, y, cfg).data.values)) <= 1e-9
    scaled_y = DenseTensor.vector(alpha * y.values)
    assert np.max(np.abs(mcb(x, scaled_y, cfg).data.values - alpha * mcb(x, y, cfg).data.values)) <= 1e-9


def test_mcb_output_size_tracks_config_not_inputs():
    d = 16
    for n in (4, 64, 256):
        out = mcb(_gauss_vec(n, n), _gauss_vec(n, n + 1), PoolingConfig((d,), "time", False, 1))
        assert out.data.dims == (d,)


def test_mcb_rejects_multiple_dims():
    with pytest.raises(PoolingContractError):
        mcb(_gauss_vec(4, 0), _gauss_vec(4, 1), PoolingConfig((4, 4), "time", False, 0))


def test_padded_mcb_recovers_all_blocks():
    n1 = n2 = 2
    d = 256
    x = _gauss_vec(n1, 50)
    y = _gauss_vec(n2, 51)
    padded = n1 + n2
    for attempt in range(500):
        seed = derive_seed(1234, "pad-test", attempt)
        px, py = paired_vector_plans(padded, padded, d, seed)
        composed = compose_sum(px, py)
        if np.unique(composed.modes[0].hash_table).size != padded * padded:
            continue
        pooled = mcb(x, y, PoolingConfig((d,), "time", True, seed)).data
        for i in range(padded):
            for j in range(padded):
                xi = x.values[i] if i < n1 else 1.0
                yj = y.values[j] if j < n2 else 1.0
                got = decode_estimate(pooled, composed, (i * padded + j,))
                assert abs(got - xi * yj) <= 1e-9
        return
    raise AssertionError("no injective composed draw found")


def test_mct_zero_image_gives_zero():
    img = DenseTensor.from_array(np.zeros((2, 3, 4)))
    txt = _gauss_vec(5, 6)
    for variant, dims in (("time", (4, 4, 4, 4)), ("frequency", (4, 3, 2, 5))):
        out = mct(img, txt, PoolingConfig(dims, variant, False, 8)).data
        assert np.max(np.abs(out.values)) == 0.0


def test_mct_single_cell_both_variants():
    img = DenseTensor.from_array(np.full((1, 1, 1), 3.0))
    txt = DenseTensor.vector([-2.0])
    cfg_t = PoolingConfig((1, 1, 1, 1), "time", False, 4)
    cfg_f = PoolingConfig((1, 1, 1, 1), "frequency", False, 4)
    out_t = mct(img, txt, cfg_t)
    out_f = mct(img, txt, cfg_f)
    p_img, p_txt = out_t.plans
    sign = int(np.prod([m.sign_table[0] for m in p_img.modes])) * int(p_txt.modes[0].sign_table[0])
    expected = sign * 3.0 * -2.0
    assert abs(out_t.data.values[0] - expected) <= 1e-12
    assert abs(out_f.data.values[0] - expected) <= 1e-12


def test_mct_matches_oracle():
    rng = np.random.default_rng(60)
    img = DenseTensor.from_array(rng.standard_normal((4, 4, 4)))
    txt = DenseTensor.vector(rng.standard_normal(5))
    cfg = PoolingConfig((4, 4, 4, 4), "time", False, 11)
    fast = mct(img, txt, cfg).data
    slow = mct_oracle(img, txt, 4, 11)
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-9


@st.composite
def _mct_cases(draw):
    """An image of 1-2 blocks per mode (block dims up to 3), a text vector, d and a seed."""
    grid = draw(st.tuples(*[st.integers(1, 2)] * 3))
    block_dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = DenseTensor.from_array(rng.standard_normal([g * b for g, b in zip(grid, block_dims)]))
    txt = DenseTensor.vector(rng.standard_normal(draw(st.integers(1, 5))))
    return img, txt, block_dims, draw(st.integers(1, 5)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=40, deadline=None)
@given(_mct_cases())
def test_mct_and_every_local_mct_block_match_the_oracle(case):
    img, txt, block_dims, d, seed = case
    cfg = PoolingConfig((d,) * 4, "time", False, seed)
    oracle = mct_oracle(img, txt, d, seed)
    assert np.max(np.abs(mct(img, txt, cfg).data.values - oracle.values)) <= 1e-9
    for (_, feature), block in zip(local_mct(img, txt, block_dims, cfg), _blocks(img, block_dims)):
        oracle = mct_oracle(block, txt, d, seed)
        assert np.max(np.abs(feature.data.values - oracle.values)) <= 1e-9


def test_mct_and_local_mct_refuse_pad_with_ones():
    img = DenseTensor.from_array(np.ones((2, 2, 2)))
    txt = DenseTensor.vector([1.0, 2.0])
    for variant in ("time", "frequency"):
        cfg = PoolingConfig((2, 2, 2, 2), variant, True, 0)
        with pytest.raises(PoolingContractError, match="pad_with_ones"):
            mct(img, txt, cfg)
        with pytest.raises(PoolingContractError, match="pad_with_ones"):
            local_mct(img, txt, (1, 2, 2), cfg)


def test_mct_time_rejects_unequal_dims():
    img = DenseTensor.from_array(np.zeros((2, 2, 2)))
    txt = DenseTensor.vector([1.0, 2.0])
    with pytest.raises(PoolingContractError, match="equal"):
        mct(img, txt, PoolingConfig((8, 8, 8, 4), "time", False, 0))


def test_mct_frequency_allows_unequal_dims():
    rng = np.random.default_rng(61)
    img = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
    txt = DenseTensor.vector(rng.standard_normal(5))
    dims = (2, 3, 4, 5)
    out = mct(img, txt, PoolingConfig(dims, "frequency", False, 21))
    assert isinstance(out.data, ComplexTensor)
    assert out.data.dims == dims[:3]
    # literal index rule, rebuilt from naive transforms of the two sketches
    p_img, p_txt = out.plans
    fx = naive_ndft(md_sketch(img, p_img)).array
    fw = naive_ndft(count_sketch(txt, p_txt)).values
    for t1 in range(dims[0]):
        for t2 in range(dims[1]):
            for t3 in range(dims[2]):
                want = fx[t1, t2, t3] * fw[(t1 + t2 + t3) % dims[3]]
                assert abs(out.data[t1, t2, t3] - want) <= 1e-9


def test_mct_frequency_matches_fft_of_time():
    rng = np.random.default_rng(62)
    img = DenseTensor.from_array(rng.standard_normal((3, 3, 3)))
    txt = DenseTensor.vector(rng.standard_normal(4))
    t = mct(img, txt, PoolingConfig((4, 4, 4, 4), "time", False, 5)).data
    f = mct(img, txt, PoolingConfig((4, 4, 4, 4), "frequency", False, 5)).data
    assert np.max(np.abs(ndfft(t).values - f.values)) <= 1e-9


def test_mct_is_bilinear():
    rng = np.random.default_rng(63)
    img = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
    txt = DenseTensor.vector(rng.standard_normal(4))
    cfg = PoolingConfig((3, 3, 3, 3), "time", False, 9)
    alpha = 2.25
    scaled_img = DenseTensor.from_array(alpha * img.array)
    assert np.max(np.abs(mct(scaled_img, txt, cfg).data.values - alpha * mct(img, txt, cfg).data.values)) <= 1e-9
    scaled_txt = DenseTensor.vector(alpha * txt.values)
    assert np.max(np.abs(mct(img, scaled_txt, cfg).data.values - alpha * mct(img, txt, cfg).data.values)) <= 1e-9


def test_polynomial_degree_one_is_count_sketch():
    x = _gauss_vec(8, 70)
    seed = 41
    got = polynomial_sketch(x, 1, 16, seed)
    (plan,) = repeated_vector_plans(8, 16, 1, seed)
    want = count_sketch(x, plan)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_polynomial_zero_input():
    zero = DenseTensor.vector(np.zeros(8))
    for degree in (1, 2, 3):
        out = polynomial_sketch(zero, degree, 16, 0)
        assert np.max(np.abs(out.values)) <= 1e-12


def test_polynomial_rejects_bad_degree():
    with pytest.raises(ValueError):
        polynomial_sketch(_gauss_vec(4, 0), 0, 8, 0)


def test_polynomial_kernel_estimate_monte_carlo():
    rng = np.random.default_rng(5)
    x = DenseTensor.vector(rng.standard_normal(8))
    y = DenseTensor.vector(rng.standard_normal(8))
    truth = float(np.dot(x.values, y.values)) ** 2
    trials = 3000
    estimates = np.empty(trials)
    for r in range(trials):
        sx = polynomial_sketch(x, 2, 64, r)
        sy = polynomial_sketch(y, 2, 64, r)
        estimates[r] = float(np.dot(sx.values, sy.values))
    assert abs(estimates.mean() - truth) <= 4 * estimates.std(ddof=1) / np.sqrt(trials)


def test_local_mct_degenerate_tiling_equals_global():
    rng = np.random.default_rng(80)
    img = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
    txt = DenseTensor.vector(rng.standard_normal(3))
    cfg = PoolingConfig((2, 2, 2, 2), "time", False, 13)
    result = local_mct(img, txt, (2, 2, 2), cfg)
    assert len(result) == 1
    g, feature = result[0]
    assert g == (0, 0, 0)
    assert feature.data == mct(img, txt, cfg).data


def test_local_mct_zero_image():
    img = DenseTensor.from_array(np.zeros((2, 4, 4)))
    txt = _gauss_vec(3, 81)
    for _, feature in local_mct(img, txt, (2, 2, 2), PoolingConfig((2, 2, 2, 2), "time", False, 13)):
        assert np.max(np.abs(feature.data.values)) == 0.0


def test_local_mct_blocks_match_independent_calls():
    rng = np.random.default_rng(82)
    img = DenseTensor.from_array(rng.standard_normal((2, 4, 4)))
    txt = DenseTensor.vector(rng.standard_normal(3))
    cfg = PoolingConfig((2, 2, 2, 2), "time", False, 13)
    result = local_mct(img, txt, (2, 2, 2), cfg)
    assert len(result) == 4
    for (g, feature), block in zip(result, _blocks(img, (2, 2, 2))):
        independent = mct(block, txt, cfg)
        assert np.max(np.abs(feature.data.values - independent.data.values)) <= 1e-12


def test_local_mct_rejects_non_divisible():
    img = DenseTensor.from_array(np.zeros((2, 3, 4)))
    txt = DenseTensor.vector([1.0])
    with pytest.raises(ValueError, match="divide"):
        local_mct(img, txt, (2, 2, 2), PoolingConfig((2, 2, 2, 2), "time", False, 0))


def test_local_mct_refuses_a_zero_length_mode():
    img = DenseTensor.from_array(np.zeros((0, 4, 4)))
    with pytest.raises(ValueError, match=r"sizes >= 1, got tensor dims \(0, 4, 4\)"):
        local_mct(img, DenseTensor.vector([1.0]), (2, 2, 2), PoolingConfig((2, 2, 2, 2)))


@pytest.mark.parametrize(
    "img_dims, block_dims, out_dims, variant",
    [
        ((3, 4, 2), (3, 4, 2), (4, 4, 4, 4), "time"),
        ((4, 6, 2), (2, 2, 2), (3, 3, 3, 3), "time"),
        ((6, 4, 3), (3, 1, 3), (4, 4, 4, 4), "time"),
        ((4, 6, 2), (2, 3, 1), (2, 5, 3, 4), "frequency"),
    ],
)
def test_batched_local_mct_equals_per_block_mct(img_dims, block_dims, out_dims, variant):
    rng = np.random.default_rng(83)
    img = DenseTensor.from_array(rng.standard_normal(img_dims))
    txt = DenseTensor.vector(rng.standard_normal(5))
    cfg = PoolingConfig(out_dims, variant, False, 21)
    result = local_mct(img, txt, block_dims, cfg)
    assert [g for g, _ in result] == list(np.ndindex(*(f // b for f, b in zip(img_dims, block_dims))))
    for (g, feature), block in zip(result, _blocks(img, block_dims)):
        single = mct(block, txt, cfg)
        assert feature.domain == variant
        assert feature.data.dims == out_dims[:3]
        assert feature.plans == single.plans
        assert np.max(np.abs(feature.data.values - single.data.values)) <= 1e-9


def test_local_mct_blocks_match_the_oracle():
    rng = np.random.default_rng(84)
    img = DenseTensor.from_array(rng.standard_normal((4, 2, 6)))
    txt = DenseTensor.vector(rng.standard_normal(3))
    cfg = PoolingConfig((3, 3, 3, 3), "time", False, 22)
    for (g, feature), block in zip(local_mct(img, txt, (2, 2, 3), cfg), _blocks(img, (2, 2, 3))):
        oracle = mct_oracle(block, txt, 3, 22)
        assert np.max(np.abs(feature.data.values - oracle.values)) <= 1e-9


def test_local_mct_checks_the_residue_of_every_block():
    arr = np.random.default_rng(85).standard_normal((2, 4, 4))
    arr[1, 3, 2] = np.inf  # only the last block holds it
    img = DenseTensor.from_array(arr)
    txt = _gauss_vec(3, 86)
    cfg = PoolingConfig((2, 2, 2, 2), "time", False, 13)
    with pytest.raises(ResidueError, match="mct"), pytest.warns(RuntimeWarning):
        local_mct(img, txt, (2, 2, 2), cfg)
    clean = local_mct(DenseTensor.from_array(arr[:, :2]), txt, (2, 2, 2), cfg)
    assert all(np.isfinite(f.data.values).all() for _, f in clean)


@pytest.mark.parametrize("variant, dims", [("time", (4, 4, 4, 4)), ("frequency", (4, 5, 3, 6))])
def test_mct_refuses_a_non_finite_image_cell(variant, dims):
    # md_sketch's GEMM spreads the inf as NaN (0 * inf) through the sketch; the exit check holds.
    arr = np.random.default_rng(87).standard_normal((16, 3, 3))
    arr[0, 0, 0] = np.inf
    with pytest.raises(ResidueError, match="mct"), pytest.warns(RuntimeWarning, match="matmul"):
        mct(DenseTensor.from_array(arr), _gauss_vec(5, 88), PoolingConfig(dims, variant, False, 2))


_VQA_MCT = """
import sys
import numpy as np
from compactpool.pooling import PoolingConfig, mct
from compactpool.tensor import DenseTensor
rng = np.random.default_rng(7)
img = DenseTensor.from_array(rng.standard_normal((2048, 14, 14)))
txt = DenseTensor.vector(rng.standard_normal(2048))
np.save(sys.argv[1], mct(img, txt, PoolingConfig((16,) * 4, seed=3)).data.array)
"""


def test_vqa_mct_agrees_across_blas_thread_counts(tmp_path):
    # md_sketch's BLAS products may order their sums by thread count, so outputs are
    # byte-identical only at one thread count; across counts they agree to rounding.
    src = str(Path(mct.__code__.co_filename).parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        path = tmp_path / f"threads{threads}.npy"
        subprocess.run([sys.executable, "-c", _VQA_MCT, str(path)], env=env, check=True, timeout=300)
        outs.append(np.load(path))
    one, two = outs
    assert np.max(np.abs(one - two)) <= 1e-12 * np.max(np.abs(one))


def test_local_mct_rejects_bad_text():
    img = DenseTensor.from_array(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="vector"):
        local_mct(img, DenseTensor.from_array(np.zeros((2, 2))), (2, 2, 2),
                  PoolingConfig((2, 2, 2, 2), "time", False, 0))


_CFG_MCT = PoolingConfig((2, 2, 2, 2), "time", False, 3)

# The caller-wrapped inputs, and each library stage that wraps an array it allocated.
_STAGES = {
    "constructors": lambda x, y, im: [x, y, im],
    "count_sketch": lambda x, y, im: [count_sketch(x, build_plan([6], [4], 1))],
    "md_sketch": lambda x, y, im: [
        md_sketch(im, build_plan([4, 4, 2], [3, 2, 2], 1)),
        md_sketch(stack_blocks(im, (2, 2, 1)), build_plan([2, 2, 1], [3, 2, 2], 1)),
    ],
    "ndfft": lambda x, y, im: [ndfft(im), ndfft(x)],
    "indfft": lambda x, y, im: [indfft(im, batched=True), indfft(x)],
    "pad_with_ones": lambda x, y, im: [pad_with_ones(x, 3)],
    "stack_blocks": lambda x, y, im: [stack_blocks(im, (2, 2, 1)), stack_blocks(im, (4, 4, 2))],
    "mcb": lambda x, y, im: [
        mcb(x, y, PoolingConfig((8,), variant, pad, 2)).data
        for variant in ("time", "frequency") for pad in (False, True)
    ],
    "mct": lambda x, y, im: [
        mct(im, y, _CFG_MCT).data,
        mct(im, y, PoolingConfig((2, 3, 4, 5), "frequency", False, 2)).data,
    ],
    "polynomial_sketch": lambda x, y, im: [polynomial_sketch(x, deg, 8, 2) for deg in (1, 3)],
    "local_mct": lambda x, y, im: [
        f.data
        for variant in ("time", "frequency")
        for _, f in local_mct(im, y, (2, 2, 1), PoolingConfig((2, 2, 2, 2), variant, False, 3))
    ],
}


@pytest.mark.parametrize("stage", sorted(_STAGES))
def test_results_are_read_only_and_share_no_caller_memory(stage):
    rng = np.random.default_rng(91)
    raw = [rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal((4, 4, 2))]
    x, y, im = DenseTensor.vector(raw[0]), DenseTensor.vector(raw[1]), DenseTensor.from_array(raw[2])
    for t in _STAGES[stage](x, y, im):
        assert not t.values.flags.writeable
        assert t.values.base is None or not t.values.base.flags.writeable
        assert not any(np.shares_memory(t.values, a) for a in raw)


def test_mutating_a_caller_array_leaves_later_results_unchanged():
    rng = np.random.default_rng(92)
    vec, img = rng.standard_normal(4), rng.standard_normal((2, 2, 2))
    x, im = DenseTensor.vector(vec), DenseTensor.from_array(img)
    cfg = PoolingConfig((8,), "time", True, 5)
    before = mcb(x, x, cfg).data.values.copy(), mct(im, x, _CFG_MCT).data.values.copy()
    vec[:] = 7.0
    img[:] = 7.0
    assert np.array_equal(mcb(x, x, cfg).data.values, before[0])
    assert np.array_equal(mct(im, x, _CFG_MCT).data.values, before[1])


def test_stacked_forward_transforms_equal_separate_ndfft_calls():
    x, y = _gauss_vec(7, 93), _gauss_vec(9, 94)
    out = mcb(x, y, PoolingConfig((16,), "frequency", False, 4))
    px, py = out.plans
    separate = ndfft(count_sketch(x, px)).values * ndfft(count_sketch(y, py)).values
    assert np.array_equal(out.data.values, separate)
    spectrum = np.ones(16, dtype=np.complex128)
    for p in repeated_vector_plans(7, 16, 3, 4):
        spectrum = spectrum * ndfft(count_sketch(x, p)).values
    want = checked_real(indfft(ComplexTensor((16,), spectrum)).values, "polynomial_sketch")
    assert np.array_equal(polynomial_sketch(x, 3, 16, 4).values, want)


_BIG = DenseTensor.vector([1e200])  # its square overflows to inf
_BIG_IMG = DenseTensor.from_array(np.full((2, 1, 1), 1e200))
_UNIT = (1, 1, 1, 1)


@pytest.mark.parametrize("name, call", [
    ("mcb", lambda: mcb(_BIG, _BIG, PoolingConfig((1,), "time"))),
    ("mcb", lambda: mcb(_BIG, _BIG, PoolingConfig((1,), "frequency"))),
    ("polynomial_sketch", lambda: polynomial_sketch(_BIG, 2, 1, 0)),
    ("mct", lambda: mct(DenseTensor.from_array([[[1e200]]]), _BIG, PoolingConfig(_UNIT, "time"))),
    ("mct", lambda: mct(DenseTensor.from_array([[[1e200]]]), _BIG, PoolingConfig(_UNIT, "frequency"))),
    ("mct", lambda: local_mct(_BIG_IMG, _BIG, (1, 1, 1), PoolingConfig(_UNIT, "time"))),
    ("mct", lambda: local_mct(_BIG_IMG, _BIG, (1, 1, 1), PoolingConfig(_UNIT, "frequency"))),
], ids=["mcb-time", "mcb-frequency", "poly", "mct-time", "mct-frequency",
        "local_mct-time", "local_mct-frequency"])
def test_every_exit_refuses_an_overflowing_product(name, call):
    with pytest.raises(ResidueError, match=f"^{name}: "), pytest.warns(RuntimeWarning):
        call()


_OVERFLOWS = [
    ("mcb", lambda: mcb(_LARGE, _LARGE_TOO, PoolingConfig((4,), "time"))),
    ("mcb", lambda: mcb(_LARGE, _LARGE_TOO, PoolingConfig((4,), "frequency"))),
    ("polynomial_sketch", lambda: polynomial_sketch(_LARGE, 2, 4, 0)),
    ("mct", lambda: mct(DenseTensor.from_array([[[1e300]]]), _LARGE, PoolingConfig((2,) * 4, "time"))),
    ("mct", lambda: mct(DenseTensor.from_array([[[1e300]]]), _LARGE,
                        PoolingConfig((2,) * 4, "frequency"))),
    ("mct", lambda: local_mct(_BIG_IMG, _BIG, (1, 1, 1), PoolingConfig(_UNIT, "time"))),
]
_LARGE = DenseTensor.vector([1e300, 1.0, 2.0])
_LARGE_TOO = DenseTensor.vector([1e300, 3.0, 2.0])


@pytest.mark.parametrize("name, call", _OVERFLOWS,
                         ids=["mcb-time", "mcb-frequency", "poly", "mct-time", "mct-frequency",
                              "local_mct-time"])
def test_an_overflow_under_warnings_as_errors_is_a_residue_error(name, call):
    # The module's filter turns numpy's overflow and invalid value warnings into errors;
    # the call still refuses its non-finite result with the exit check's error.
    with pytest.raises(ResidueError, match=f"^{name}: result holds non-finite values"):
        call()


_PLAN = build_plan([3], [4], 0)


@pytest.mark.parametrize("call", [
    lambda: DenseTensor((2.9,), [1.0, 2.0]),
    lambda: build_plan([2.5], [4.7], 1),
    lambda: build_plan([True], [3], 1),
    lambda: build_plan([3], [4], 2.7),
    lambda: repeated_vector_plans(4, 8, True, 0),
    lambda: PoolingConfig((16.9,), "time"),
    lambda: PoolingConfig((16,), "time", False, 2.7),
    lambda: stack_blocks(DenseTensor.from_array(np.zeros((4, 4, 4))), (2.5, 2, 2)),
    lambda: pad_with_ones(DenseTensor.vector([1.0]), 1.5),
    lambda: pad_with_ones(DenseTensor.vector([1.0]), True),
    lambda: polynomial_sketch(DenseTensor.vector([1.0]), 2.0, 4, 0),
    lambda: polynomial_sketch(DenseTensor.vector([1.0]), 2, 4.0, 0),
    lambda: decode_estimate(DenseTensor.vector(np.zeros(4)), _PLAN, (1.7,)),
], ids=["tensor-dims", "plan-sizes", "plan-bool", "plan-seed", "plan-count", "config-dims",
        "config-seed", "stack_blocks", "pad-float", "pad-bool", "poly-degree", "poly-d", "decode-index"])
def test_sizes_indices_and_seeds_are_never_truncated(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integers_are_accepted_as_sizes_and_seeds():
    assert build_plan([np.int32(3)], [np.int64(4)], np.uint64(5)) is build_plan([3], [4], 5)
    cfg = PoolingConfig((np.int64(8),), "time", False, np.int16(2))
    assert cfg.output_dims == (8,) and type(cfg.output_dims[0]) is int and cfg.seed == 2
    assert DenseTensor((np.int64(2),), [1.0, 2.0]).dims == (2,)


def _mct_3d(img, txt, plans, d):
    """Time mct by the 3-D formula: checked_real(indfft(ndfft(X) * ndfft(w)[idx]))."""
    p_img, p_txt = plans
    fx = ndfft(md_sketch(img, p_img)).array
    fw = ndfft(count_sketch(txt, p_txt)).values
    idx = (np.arange(d)[:, None, None] + np.arange(d)[:, None] + np.arange(d)) % d
    return checked_real(indfft(ComplexTensor.from_array(fx * fw[idx])).array, "mct")


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("count", [1, 4])
def test_sheared_time_mct_equals_the_3d_formula(d, count):
    rng = np.random.default_rng(100 + d)
    block_dims = (3, 4, 5)
    img = DenseTensor.from_array(rng.standard_normal((3, 4 * count, 5)))
    txt = DenseTensor.vector(rng.standard_normal(6))
    cfg = PoolingConfig((d,) * 4, "time", False, d)
    features = [f for _, f in local_mct(img, txt, block_dims, cfg)]
    if count == 1:
        features.append(mct(img, txt, cfg))
    for feature, block in zip(features, _blocks(img, block_dims) * 2):
        want = _mct_3d(block, txt, feature.plans, d)
        assert np.max(np.abs(feature.data.array - want)) <= 1e-12 * np.max(np.abs(want))


def test_sheared_time_mct_equals_the_3d_formula_at_vqa_scale():
    rng = np.random.default_rng(110)
    img = DenseTensor.from_array(rng.standard_normal((2048, 14, 14)))
    txt = DenseTensor.vector(rng.standard_normal(2048))
    out = mct(img, txt, PoolingConfig((16,) * 4, "time", False, 3))
    want = _mct_3d(img, txt, out.plans, 16)
    assert np.max(np.abs(out.data.array - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 3, 5])
def test_sheared_time_mct_matches_the_oracle(d):
    rng = np.random.default_rng(120 + d)
    img = DenseTensor.from_array(rng.standard_normal((3, 4, 5)))
    txt = DenseTensor.vector(rng.standard_normal(6))
    out = mct(img, txt, PoolingConfig((d,) * 4, "time", False, 40 + d))
    assert np.max(np.abs(out.data.values - mct_oracle(img, txt, d, 40 + d).values)) <= 1e-9


@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (2, 3, 4, 5)])
def test_frequency_mct_is_the_bitwise_3d_spectral_product(dims):
    rng = np.random.default_rng(130)
    img = DenseTensor.from_array(rng.standard_normal((3, 4, 5)))
    txt = DenseTensor.vector(rng.standard_normal(6))
    out = mct(img, txt, PoolingConfig(dims, "frequency", False, 9))
    p_img, p_txt = out.plans
    d1, d2, d3, d4 = dims
    idx = (np.arange(d1)[:, None, None] + np.arange(d2)[:, None] + np.arange(d3)) % d4
    want = ndfft(md_sketch(img, p_img)).array * ndfft(count_sketch(txt, p_txt)).values[idx]
    assert np.array_equal(out.data.array, want)


@pytest.fixture
def shear_memo():
    pooling._shear_memo.clear()
    yield pooling._shear_memo
    pooling._shear_memo.clear()


def test_shear_maps_undo_each_other_and_are_read_only(shear_memo):
    for d in (1, 2, 5, 8):
        shear, unshear = pooling._shear_maps(d)
        assert not shear.flags.writeable and not unshear.flags.writeable
        assert np.array_equal(shear[unshear], np.arange(d**3))
        u, v, c = np.unravel_index(np.arange(d**3), (d, d, d))
        assert np.array_equal(shear, np.ravel_multi_index(((u + c) % d, (v + c) % d, c), (d, d, d)))
        assert pooling._shear_maps(d) is shear_memo.get(d)


def test_shear_memo_stays_within_its_bound(shear_memo):
    # The maps of d = 1..32 together take 4.4 MiB, over the 1 MiB bound.
    for d in range(1, 33):
        maps = pooling._shear_maps(d)
        assert shear_memo.nbytes <= hashplan._MEMO_BYTES
        assert shear_memo.get(d) is maps
    assert shear_memo.get(1) is None


def test_shear_memo_keeps_its_byte_count_under_concurrent_calls(shear_memo):
    errors = []

    def worker(w):
        try:
            for i in range(30):
                d = 20 + (w * 5 + i) % 13  # d = 20..32 evicts: 2.3 MiB of maps in all
                shear, _ = pooling._shear_maps(d)
                assert shear.size == d**3
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    held = [shear_memo.get(d) for d in range(20, 33)]
    assert shear_memo.nbytes == sum(m.nbytes for maps in held if maps for m in maps)
    assert shear_memo.nbytes <= hashplan._MEMO_BYTES


def test_shear_memo_skips_maps_over_its_bound(shear_memo):
    shear, unshear = pooling._shear_maps(64)  # 2 * 64**3 * 8 bytes = 4 MiB
    assert shear.nbytes + unshear.nbytes > hashplan._MEMO_BYTES
    assert not shear.flags.writeable and not unshear.flags.writeable
    assert len(shear_memo) == 0 and shear_memo.nbytes == 0


def _local_features(variant):
    rng = np.random.default_rng(140)
    img = DenseTensor.from_array(rng.standard_normal((4, 4, 6)))
    cfg = PoolingConfig((3, 3, 3, 3), variant, False, 5)
    return [f.data for _, f in local_mct(img, _gauss_vec(4, 141), (2, 2, 3), cfg)]


def _owner(values):
    return values if values.base is None else values.base


def test_time_local_mct_blocks_each_own_their_values():
    # Disjoint rows of one stack would share no bytes yet keep the whole stack alive.
    blocks = _local_features("time")
    owners = [_owner(b.values) for b in blocks]
    assert len(blocks) == 8
    assert len({id(o) for o in owners}) == 8
    assert all(o.size == b.size for o, b in zip(owners, blocks))


def test_frequency_local_mct_blocks_are_views_of_one_read_only_stack():
    blocks = _local_features("frequency")
    stack = _owner(blocks[0].values)
    assert stack.shape == (8, 3, 3, 3) and not stack.flags.writeable
    for i, block in enumerate(blocks):
        assert _owner(block.values) is stack
        assert np.shares_memory(block.values, stack[i])


_EXIT_CHECKS = {"indfft", "checked_real", "checked_finite"}


def test_only_leave_calls_the_inverse_transform_and_the_exit_checks():
    tree = ast.parse(Path(pooling.__file__).read_text())
    callers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", f"{where}.<lambda>"))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _EXIT_CHECKS:
                    callers.add((where, name))
            visit(child, where)

    visit(tree, "<module>")
    assert callers == {("_leave", name) for name in _EXIT_CHECKS}


_TRANSFORM_CALLS = {
    # Every time path is one batched row transform each way; frequency mct
    # transforms the image and the text sketches and inverts nothing.
    "mcb-time": (lambda im, x: mcb(x, x, PoolingConfig((8,))), 1, 1),
    "poly-3": (lambda im, x: polynomial_sketch(x, 3, 8, 1), 1, 1),
    "mct-time": (lambda im, x: mct(im, x, PoolingConfig((4, 4, 4, 4))), 1, 1),
    "local-mct-time": (lambda im, x: local_mct(im, x, (2, 2, 2), PoolingConfig((4, 4, 4, 4))), 1, 1),
    "mct-frequency": (lambda im, x: mct(im, x, PoolingConfig((2, 3, 4, 5), "frequency")), 2, 0),
}


@pytest.mark.parametrize("case", list(_TRANSFORM_CALLS))
def test_each_time_path_is_one_row_transform_each_way(monkeypatch, case):
    call, forward, inverse = _TRANSFORM_CALLS[case]
    counts = {"ndfft": 0, "indfft": 0}

    def counted(name, transform):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pooling, "ndfft", counted("ndfft", pooling.ndfft))
    monkeypatch.setattr(pooling, "indfft", counted("indfft", pooling.indfft))
    rng = np.random.default_rng(150)
    call(DenseTensor.from_array(rng.standard_normal((4, 4, 2))), _gauss_vec(5, 151))
    assert counts == {"ndfft": forward, "indfft": inverse}


def test_a_held_config_repeats_without_hashing_or_drawing(monkeypatch):
    # The second call of a held config finds its child seeds and its plans memoised:
    # no SHA-256 digest and no per-mode generator.
    counts = {"sha256": 0, "_mode_rng": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hashplan.hashlib, "sha256", counted("sha256", hashplan.hashlib.sha256))
    monkeypatch.setattr(hashplan, "_mode_rng", counted("_mode_rng", hashplan._mode_rng))
    img, x = DenseTensor.from_array(np.ones((4, 4, 4))), _gauss_vec(9, 160)
    # Seeds no other test uses, so each first call must hash and draw.
    seed = 2**63 + 160
    calls = [
        lambda: mcb(x, x, PoolingConfig((8,), "time", False, seed)),
        lambda: mcb(x, x, PoolingConfig((8,), "frequency", True, seed + 1)),
        lambda: mct(img, x, PoolingConfig((4,) * 4, "time", False, seed + 2)),
        lambda: polynomial_sketch(x, 3, 8, seed + 3),
    ]
    for call in calls:
        first = call()
        assert counts["sha256"] > 0 and counts["_mode_rng"] > 0
        counts.update(sha256=0, _mode_rng=0)
        again = call()
        assert counts == {"sha256": 0, "_mode_rng": 0}
        data = [getattr(r, "data", r) for r in (first, again)]
        assert data[0] == data[1]
