import contextlib
import inspect
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactpool import hashplan, sketch
from compactpool.hashplan import ModeHash, SketchPlan, build_plan
from compactpool.reference import mcb_oracle, mct_oracle
from compactpool.sketch import (
    aggregate_estimates,
    count_sketch,
    decode_estimate,
    md_sketch,
)
from compactpool.tensor import DenseTensor, outer_product

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


def test_count_sketch_with_ones_is_the_sketch_of_the_padded_vector():
    # ones=k stands for k trailing ones: the head scatter plus the memoised ones tail.
    v = DenseTensor.vector(np.random.default_rng(40).standard_normal(5))
    for k in (0, 1, 3):
        p = build_plan([5 + k], [4], 40 + k)
        padded = DenseTensor.vector(np.concatenate([v.values, np.ones(k)]))
        got, want = count_sketch(v, p, ones=k).values, count_sketch(padded, p).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.abs(padded.values).sum()
        if k:
            entry = sketch._ones_tails.get((id(p), 5))
            assert entry[0] is p and not entry[1].flags.writeable
    for k in (-1, 2, 4):
        with pytest.raises(ValueError, match="mismatch"):
            count_sketch(v, build_plan([8], [4], 40), ones=k)
    with pytest.raises(ValueError, match="ones must be an integer"):
        count_sketch(v, build_plan([8], [4], 40), ones=3.0)


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
    # A median sorts NaN last, so [nan, 1, 2] would otherwise give 2.0.
    for bad in (np.nan, np.inf, -np.inf):
        for strategy in ("mean", "median"):
            with pytest.raises(ValueError, match="non-finite"):
                aggregate_estimates([bad, 1.0, 2.0], strategy)


@st.composite
def _sketch_cases(draw):
    """A random plan of order 1-4 (every dim up to 8) and two random inputs for it."""
    order = draw(st.integers(1, 4))
    in_dims = draw(st.lists(st.integers(1, 8), min_size=order, max_size=order))
    out_dims = draw(st.lists(st.integers(1, 8), min_size=order, max_size=order))
    plan = build_plan(in_dims, out_dims, draw(st.integers(0, 2**64 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    u, v = (scale * rng.standard_normal(in_dims) for _ in range(2))
    return plan, u, v


def _sketch(arr, plan):
    if plan.order == 1:
        return count_sketch(DenseTensor.vector(arr), plan).values
    return md_sketch(DenseTensor.from_array(arr), plan).values


def _literal_scatter(arr, plan):
    out = np.zeros(plan.output_dims)
    for idx in np.ndindex(*arr.shape):
        cell = tuple(int(m.hash_table[i]) for m, i in zip(plan.modes, idx))
        out[cell] += math.prod(int(m.sign_table[i]) for m, i in zip(plan.modes, idx)) * arr[idx]
    return out.ravel()


def _close_to_literal(got, u, plan):
    # md_sketch sums mode by mode, not cell by cell as the loop does, so the sums
    # agree to rounding: 1e-12 of the input's l1 norm, which bounds every bucket.
    return np.max(np.abs(got - _literal_scatter(u, plan))) <= 1e-12 * np.abs(u).sum()


@settings(max_examples=60, deadline=None)
@given(_sketch_cases())
def test_sketches_equal_a_literal_per_cell_scatter(case):
    plan, u, _ = case
    assert _close_to_literal(md_sketch(DenseTensor.from_array(u), plan).values, u, plan)
    if plan.order == 1:
        # count_sketch adds cells in index order, as the loop does, so the sums agree exactly.
        want = _literal_scatter(u, plan)
        assert np.array_equal(count_sketch(DenseTensor.vector(u), plan).values, want)


# The kernel md_sketch takes for each mode: "g" for the one-hot GEMM (d <= 64 and
# d at most the cells outside the mode), "s" for the bincount scatter.
_KERNEL_CASES = {
    "d over 64": ((200, 120), (100, 3), "sg"),
    "thin mode": ((4096, 4), (64, 4), "sg"),
    "scatter between GEMMs": ((3, 200, 5), (2, 100, 4), "gsg"),
    "scatter only": ((150, 100), (80, 70), "ss"),
    "order 1": ((4096,), (1024,), "s"),
    "order 1, one bucket": ((50,), (1,), "g"),
    "channel-last image": ((6, 5, 300), (16, 16, 16), "ggg"),
}


@pytest.mark.parametrize("in_dims, out_dims, kernels", _KERNEL_CASES.values(), ids=_KERNEL_CASES)
def test_md_sketch_kernels_match_the_literal_scatter(in_dims, out_dims, kernels):
    plan = build_plan(in_dims, out_dims, 5)
    u = np.random.default_rng(5).standard_normal(in_dims)
    got = md_sketch(DenseTensor.from_array(u), plan).values
    if "g" in kernels:
        assert _close_to_literal(got, u, plan)
    else:
        # Scatter modes share one bincount, which adds cells in row-major order as the loop does.
        assert np.array_equal(got, _literal_scatter(u, plan))
    blocks = np.random.default_rng(6).standard_normal((3, *in_dims))
    stack = md_sketch(DenseTensor.from_array(blocks), plan).array
    for block, sketch in zip(blocks, stack):
        assert np.array_equal(sketch, md_sketch(DenseTensor.from_array(block), plan).array)
    # A non-finite cell gives a non-finite sketch. A scatter adds it into one bucket of
    # its mode; a GEMM adds 0 * inf = NaN into every other bucket, which numpy reports.
    u.flat[0] = np.inf
    spread = math.prod(d for d, k in zip(out_dims, kernels) if k == "g")
    with pytest.warns(RuntimeWarning, match="invalid") if spread > 1 else contextlib.nullcontext():
        out = md_sketch(DenseTensor.from_array(u), plan).values
    assert np.count_nonzero(~np.isfinite(out)) == spread


def test_md_sketch_of_zero_blocks_is_empty():
    for in_dims, out_dims in [([2, 2, 2], [3, 2, 2]), ([4], [8])]:  # GEMM and scatter kernels
        plan = build_plan(in_dims, out_dims, 0)
        out = md_sketch(DenseTensor.from_array(np.zeros((0, *in_dims))), plan)
        assert type(out) is DenseTensor and out.dims == (0, *out_dims) and out.values.size == 0


def test_md_sketch_signature_reads_the_block_axis_from_the_orders():
    assert list(inspect.signature(md_sketch).parameters) == ["t", "p"]


def _every_mode(n, d):
    """Every ModeHash from n to d: d**n hash tables times 2**n sign tables, each once."""
    return [ModeHash(n, d, h, s) for h in itertools.product(range(d), repeat=n)
            for s in itertools.product((1, -1), repeat=n)]


def _pair_moment(n, d):
    """E[K(i, j) K(k, l)] over every mode from n to d, where K(i, j) = s(i) s(j) [h(i) = h(j)].

    Signs cancel unless the indices pair up: 1 when i = j and k = l, and the
    collision chance 1/d when i != j and {k, l} = {i, j}.
    """
    eye = np.eye(n)
    crossed = np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    return np.einsum("ij,kl->ijkl", eye, eye) + (1 - eye)[:, :, None, None] * crossed / d


def test_md_sketch_inner_product_has_the_exact_mean_and_variance():
    # All 16,384 plans of a (2, 3, 2) -> (2, 2, 2) MD sketch, through the public md_sketch:
    # the moments of <X(A), X(B)> over them are exact, so no tolerance covers sampling.
    in_dims, d = (2, 3, 2), 2
    rng = np.random.default_rng(11)
    a = rng.standard_normal(in_dims)
    b = a + 0.5 * rng.standard_normal(in_dims)
    pair = DenseTensor.from_array(np.stack([a, b]))  # a stack: one call sketches both
    estimates = []
    for modes in itertools.product(*(_every_mode(n, d) for n in in_dims)):
        x, y = md_sketch(pair, SketchPlan(modes, 0)).values.reshape(2, -1)
        estimates.append(x @ y)
    estimates = np.array(estimates)
    assert estimates.size == 16384
    exact = float(np.sum(a * b))
    assert abs(estimates.mean() - exact) <= 1e-12 * abs(exact)
    # Modes hash independently, so the second moment factors over them.
    second = np.einsum("abc,def,ghi,jkl,adgj,behk,cfil->", a, b, a, b,
                       *(_pair_moment(n, d) for n in in_dims))
    assert abs(estimates.var() - (second - exact**2)) <= 1e-12 * estimates.var()


def _correlated_pair(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    return a, a + 0.5 * rng.standard_normal(shape)


def test_count_sketch_inner_product_has_the_exact_mean_and_variance():
    # All 64 plans of a 3 -> 2 count sketch.
    n, d = 3, 2
    a, b = _correlated_pair(n, 12)
    u, v = DenseTensor.vector(a), DenseTensor.vector(b)
    estimates = np.array([count_sketch(u, p).values @ count_sketch(v, p).values
                          for p in (SketchPlan((m,), 0) for m in _every_mode(n, d))])
    assert estimates.size == 64
    exact = float(a @ b)
    assert abs(estimates.mean() - exact) <= 1e-12 * abs(exact)
    # One mode: Var = (1/d) * sum over i != j of (a_i^2 b_j^2 + a_i b_i a_j b_j).
    off = 1 - np.eye(n)
    closed = (np.outer(a * a, b * b) + np.outer(a * b, a * b))[off == 1].sum() / d
    assert abs(estimates.var() - closed) <= 1e-12 * closed


def test_mcb_oracle_inner_product_has_the_exact_mean():
    # All 256 pairs of 2 -> 2 plans: E<mcb(x, y), mcb(u, v)> = <x, u><y, v>.
    x, u = (DenseTensor.vector(w) for w in _correlated_pair(2, 13))
    y, v = (DenseTensor.vector(w) for w in _correlated_pair(2, 14))
    plans = [SketchPlan((m,), 0) for m in _every_mode(2, 2)]
    estimates = np.array([mcb_oracle(x, y, 2, 0, plans=pair).values
                          @ mcb_oracle(u, v, 2, 0, plans=pair).values
                          for pair in itertools.product(plans, plans)])
    assert estimates.size == 256
    exact = float(x.values @ u.values) * float(y.values @ v.values)
    assert abs(estimates.mean() - exact) <= 1e-12 * abs(exact)


def test_mct_oracle_inner_product_has_the_exact_mean():
    # All 4,096 plan pairs of a (2, 1, 1) image and a length-2 text onto d = 2:
    # E<mct(A, t), mct(B, u)> = <A, B><t, u>.
    img_dims, n, d = (2, 1, 1), 2, 2
    a, b = (DenseTensor.from_array(w) for w in _correlated_pair(img_dims, 15))
    t, u = (DenseTensor.vector(w) for w in _correlated_pair(n, 16))
    img_plans = [SketchPlan(modes, 0)
                 for modes in itertools.product(*(_every_mode(m, d) for m in img_dims))]
    txt_plans = [SketchPlan((m,), 0) for m in _every_mode(n, d)]
    estimates = np.array([mct_oracle(a, t, d, 0, plans=pair).values
                          @ mct_oracle(b, u, d, 0, plans=pair).values
                          for pair in itertools.product(img_plans, txt_plans)])
    assert estimates.size == 4096
    exact = float(a.values @ b.values) * float(t.values @ u.values)
    assert abs(estimates.mean() - exact) <= 1e-12 * abs(exact)


def test_md_sketch_kernels_are_read_only_equal_their_tables_and_counted(monkeypatch):
    monkeypatch.setattr(sketch, "_kernels", hashplan._Memo(sketch._kernels._size))
    plan = build_plan([3, 4, 5], [2, 3, 70], 21)  # GEMM, GEMM, scatter
    md_sketch(DenseTensor.from_array(np.ones((3, 4, 5))), plan)
    ((kept_plan, runs),) = sketch._kernels._values.values()
    assert kept_plan is plan and [r[0] is None for r in runs] == [False, False, True]
    for onehot, (mode,), *_ in runs[:2]:
        assert not onehot.flags.writeable
        want = np.zeros((mode.input_size, mode.output_size))
        want[np.arange(mode.input_size), mode.hash_table] = mode.sign_table
        assert np.array_equal(onehot, want)
    assert sketch._kernels.nbytes == hashplan._plan_bytes(plan) + 8 * (3 * 2 + 4 * 3)


@pytest.mark.parametrize("d, kept", [(16, True), (32, True), (64, False)])
def test_vqa_image_plans_stay_memoised_and_keep_kernels_within_the_bound(monkeypatch, d, kept):
    # The one-hot matrix of the 2048-channel mode takes 2048 * d * 8 bytes: 1 MiB at d = 64,
    # the memo's bound, so that kernel is built per call. The plan memo holds no kernel.
    monkeypatch.setattr(sketch, "_kernels", hashplan._Memo(sketch._kernels._size))
    plan = build_plan([2048, 14, 14], [d] * 3, 22)
    assert build_plan([2048, 14, 14], [d] * 3, 22) is plan
    runs = sketch._kernel(plan)
    assert runs[0][0].shape == (2048, d)
    assert (sketch._kernel(plan) is runs) is kept
    assert len(sketch._kernels) == kept


def test_md_sketch_kernel_memo_fills_alike_under_concurrent_calls(monkeypatch):
    monkeypatch.setattr(sketch, "_kernels", hashplan._Memo(sketch._kernels._size))
    plans = [build_plan([6, 5, 4], [3, 3, 3], seed) for seed in range(8)]
    blocks = DenseTensor.from_array(np.random.default_rng(23).standard_normal((2, 6, 5, 4)))
    want = [md_sketch(blocks, p).values.tobytes() for p in plans]
    sketch._kernels.clear()
    got, errors = [], []

    def worker():
        try:
            for _ in range(20):
                got.append([md_sketch(blocks, p).values.tobytes() for p in plans])
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(got) == 80 and all(g == want for g in got)
    assert len(sketch._kernels) == len(plans)


@settings(max_examples=60, deadline=None)
@given(_sketch_cases(), st.floats(-10, 10), st.floats(-10, 10))
def test_sketches_are_linear(case, a, b):
    plan, u, v = case
    combo = _sketch(a * u + b * v, plan)
    parts = a * _sketch(u, plan) + b * _sketch(v, plan)
    assert np.max(np.abs(combo - parts)) <= 1e-9 * max(np.linalg.norm(parts), 1.0)


@st.composite
def _block_stacks(draw):
    """A stack of 1-4 blocks of order 1-3 (every dim up to 5) and a plan for one block."""
    count = draw(st.integers(1, 4))
    order = draw(st.integers(1, 3))
    in_dims = draw(st.lists(st.integers(1, 5), min_size=order, max_size=order))
    out_dims = draw(st.lists(st.integers(1, 5), min_size=order, max_size=order))
    plan = build_plan(in_dims, out_dims, draw(st.integers(0, 2**64 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return plan, rng.standard_normal((count, *in_dims))


@settings(max_examples=60, deadline=None)
@given(_block_stacks())
def test_batched_md_sketch_equals_one_call_per_block(case):
    plan, stack = case
    got = md_sketch(DenseTensor.from_array(stack), plan)
    want = np.stack([md_sketch(DenseTensor.from_array(block), plan).array for block in stack])
    assert got.dims == want.shape
    assert np.array_equal(got.array, want)
    # The orders alone say what a tensor is: one mode more than the plan is a stack.
    with pytest.raises(ValueError, match="order mismatch"):
        md_sketch(DenseTensor.from_array(stack[None]), plan)
    with pytest.raises(ValueError, match="order mismatch"):
        md_sketch(DenseTensor.from_array(stack[0, 0]), plan)
    wider = np.zeros((*stack.shape[:-1], stack.shape[-1] + 1))
    with pytest.raises(ValueError, match="size mismatch"):
        md_sketch(DenseTensor.from_array(wider), plan)
