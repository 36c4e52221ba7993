import numpy as np
import pytest

from compactpool.hashplan import ModeHash, SketchPlan, build_plan
from compactpool.sketch import (
    aggregate_estimates,
    count_sketch,
    decode_estimate,
    md_sketch,
)
from compactpool.tensor import DenseTensor, outer_product


def _single(hashes, signs, d, seed=0):
    return SketchPlan((ModeHash(len(hashes), d, hashes, signs),), seed)


def _injective_plan(input_dims, output_dims, start_seed=0):
    """First seed whose tables are collision free in every mode."""
    for seed in range(start_seed, start_seed + 1000):
        p = build_plan(input_dims, output_dims, seed)
        if all(np.unique(m.hash_table).size == m.input_size for m in p.modes):
            return p
    raise AssertionError("no injective draw found")


def test_count_sketch_hand_example():
    p = _single([0, 1, 0], [1, -1, 1], 2)
    out = count_sketch(DenseTensor.vector([1, 2, 3]), p)
    assert out.values.tolist() == [4.0, -2.0]


def test_count_sketch_zero_vector():
    p = build_plan([8], [4], 3)
    out = count_sketch(DenseTensor.vector(np.zeros(8)), p)
    assert not out.values.any()


def test_count_sketch_basis_vector():
    p = build_plan([8], [4], 3)
    mode = p.modes[0]
    for i in range(8):
        e = np.zeros(8)
        e[i] = 1.0
        out = count_sketch(DenseTensor.vector(e), p).values
        assert np.count_nonzero(out) == 1
        assert out[mode.hash_table[i]] == mode.sign_table[i]


def test_count_sketch_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        count_sketch(DenseTensor.vector([1, 2]), build_plan([3], [2], 0))


def test_md_sketch_single_nonzero_cell():
    p = SketchPlan(
        (
            ModeHash(2, 2, [1, 0], [1, -1]),
            ModeHash(2, 2, [1, 0], [1, 1]),
            ModeHash(2, 2, [0, 1], [1, 1]),
        ),
        0,
    )
    arr = np.zeros((2, 2, 2))
    arr[1, 0, 1] = 2.0
    out = md_sketch(DenseTensor.from_array(arr), p)
    # lands at (h1(1), h2(0), h3(1)) = (0, 1, 1) with sign -1*1*1
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -2.0
    assert np.array_equal(out.array, expected)


def test_md_sketch_reduces_to_count_sketch():
    p = build_plan([16], [4], 9)
    v = DenseTensor.vector(np.random.default_rng(9).standard_normal(16))
    assert np.array_equal(md_sketch(v, p).values, count_sketch(v, p).values)


def test_md_sketch_separates_rank_one_tensors():
    rng = np.random.default_rng(21)
    a = DenseTensor.vector(rng.standard_normal(3))
    b = DenseTensor.vector(rng.standard_normal(4))
    c = DenseTensor.vector(rng.standard_normal(5))
    t = outer_product(outer_product(a, b), c)
    plan = build_plan([3, 4, 5], [2, 3, 4], 31)
    got = md_sketch(t, plan)

    subs = [SketchPlan((m,), 0) for m in plan.modes]
    sa = count_sketch(a, subs[0])
    sb = count_sketch(b, subs[1])
    sc = count_sketch(c, subs[2])
    via_outer = outer_product(outer_product(sa, sb), sc)
    assert np.max(np.abs(got.values - via_outer.values)) <= 1e-12

    # definitional triple-loop scatter
    expected = np.zeros((2, 3, 4))
    (m1, m2, m3) = plan.modes
    for i in range(3):
        for j in range(4):
            for k in range(5):
                sign = m1.sign_table[i] * m2.sign_table[j] * m3.sign_table[k]
                expected[m1.hash_table[i], m2.hash_table[j], m3.hash_table[k]] += (
                    sign * t[i, j, k]
                )
    assert np.max(np.abs(got.array - expected)) <= 1e-12


def test_md_sketch_rejects_mismatches():
    p = build_plan([2, 2], [2, 2], 0)
    with pytest.raises(ValueError, match="order"):
        md_sketch(DenseTensor.vector([1, 2]), p)
    with pytest.raises(ValueError, match="size"):
        md_sketch(DenseTensor.from_array(np.ones((2, 3))), p)


def test_injective_hashes_embed_exactly():
    rng = np.random.default_rng(4)
    t = DenseTensor.from_array(rng.standard_normal((3, 4)))
    p = _injective_plan([3, 4], [8, 8])
    out = md_sketch(t, p)
    # multiset of absolute nonzero values is preserved
    got = np.sort(np.abs(out.values[out.values != 0]))
    want = np.sort(np.abs(t.values))
    assert np.array_equal(got, want)
    # and decoding recovers every element exactly
    for idx in np.ndindex(3, 4):
        assert decode_estimate(out, p, idx) == t[idx]


def test_decode_hand_example():
    p = _single([0, 1, 0], [1, -1, 1], 2)
    out = count_sketch(DenseTensor.vector([1, 2, 3]), p)
    assert decode_estimate(out, p, (1,)) == 2.0


def test_decode_index_out_of_range():
    p = build_plan([4], [2], 0)
    out = count_sketch(DenseTensor.vector([1, 2, 3, 4]), p)
    with pytest.raises(IndexError):
        decode_estimate(out, p, (4,))
    with pytest.raises(IndexError):
        decode_estimate(out, p, (0, 0))


def test_decode_is_unbiased_monte_carlo():
    rng = np.random.default_rng(42)
    v = DenseTensor.vector(rng.standard_normal(32))
    trials = 4000
    index = 13
    estimates = np.empty(trials)
    for r in range(trials):
        p = build_plan([32], [8], r)
        estimates[r] = decode_estimate(count_sketch(v, p), p, (index,))
    err = abs(estimates.mean() - v.values[index])
    assert err <= 4 * estimates.std(ddof=1) / np.sqrt(trials)


def test_inner_products_preserved_monte_carlo():
    rng = np.random.default_rng(43)
    x = DenseTensor.vector(rng.standard_normal(32))
    y = DenseTensor.vector(rng.standard_normal(32))
    trials = 4000
    estimates = np.empty(trials)
    for r in range(trials):
        p = build_plan([32], [8], r)
        sx = count_sketch(x, p).values
        sy = count_sketch(y, p).values
        estimates[r] = float(np.dot(sx, sy))
    truth = float(np.dot(x.values, y.values))
    assert abs(estimates.mean() - truth) <= 4 * estimates.std(ddof=1) / np.sqrt(trials)


def test_md_sketch_is_linear():
    rng = np.random.default_rng(6)
    p = build_plan([3, 3, 3], [2, 2, 2], 77)
    a = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal((3, 3, 3))
    alpha, beta = 0.7, -2.5
    combo = md_sketch(DenseTensor.from_array(alpha * a + beta * b), p).values
    separate = alpha * md_sketch(DenseTensor.from_array(a), p).values + beta * md_sketch(
        DenseTensor.from_array(b), p
    ).values
    assert np.max(np.abs(combo - separate)) <= 1e-12


def test_decode_rejects_a_sketch_of_another_shape():
    p = build_plan([4], [2], 0)
    with pytest.raises(ValueError, match="do not match plan output"):
        decode_estimate(DenseTensor.vector([1, 2, 3]), p, (0,))


def test_sketches_are_returned_as_dense_tensors():
    v = count_sketch(DenseTensor.vector([1, 2, 3]), build_plan([3], [2], 0))
    t = md_sketch(DenseTensor.from_array(np.ones((2, 3))), build_plan([2, 3], [4, 5], 0))
    assert type(v) is DenseTensor and v.dims == (2,)
    assert type(t) is DenseTensor and t.dims == (4, 5)


def test_aggregate_estimates():
    assert aggregate_estimates([1, 2, 3], "mean") == 2.0
    assert aggregate_estimates([1, 2, 100], "median") == 2.0
    assert aggregate_estimates([5], "mean") == 5.0
    assert aggregate_estimates([5], "median") == 5.0
    # lower median on even length
    assert aggregate_estimates([1, 2, 3, 100], "median") == 2.0
    with pytest.raises(ValueError):
        aggregate_estimates([], "mean")
    with pytest.raises(ValueError):
        aggregate_estimates([1.0], "mode")
