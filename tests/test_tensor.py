import numpy as np
import pytest

from compactpool.tensor import (
    CapacityError,
    ComplexTensor,
    DenseTensor,
    inner_product,
    outer_product,
    pad_with_ones,
    reassemble,
    stack_blocks,
    subdivide,
)


def test_outer_product_vector_pairs():
    a = DenseTensor.vector([1, 2])
    b = DenseTensor.vector([3])
    out = outer_product(a, b)
    assert out.dims == (2, 1)
    assert out.values.tolist() == [3.0, 6.0]


def test_outer_product_zero_annihilates():
    out = outer_product(DenseTensor.vector([0, 0]), DenseTensor.vector([5, 7]))
    assert out.dims == (2, 2)
    assert not out.values.any()


def test_outer_product_flatten():
    out = outer_product(DenseTensor.vector([1, 2]), DenseTensor.vector([3, 4]))
    assert out.flattened().values.tolist() == [3.0, 4.0, 6.0, 8.0]


def test_outer_product_concatenates_dims():
    a = DenseTensor.from_array(np.arange(6.0).reshape(2, 3))
    b = DenseTensor.from_array(np.arange(4.0).reshape(4))
    out = outer_product(a, b)
    assert out.dims == (2, 3, 4)
    assert out[1, 2, 3] == a[1, 2] * b[3]


def test_outer_product_with_scalar():
    s = DenseTensor.scalar(2.5)
    v = DenseTensor.vector([1, 2])
    assert outer_product(s, v).values.tolist() == [2.5, 5.0]
    assert outer_product(s, v).dims == (2,)


def test_outer_product_bilinear():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = DenseTensor.vector(rng.standard_normal(4))
        a2 = DenseTensor.vector(rng.standard_normal(4))
        b = DenseTensor.vector(rng.standard_normal(3))
        alpha, beta = rng.standard_normal(2)
        combo = DenseTensor.vector(alpha * a.values + beta * a2.values)
        left = outer_product(combo, b).values
        right = alpha * outer_product(a, b).values + beta * outer_product(a2, b).values
        assert np.max(np.abs(left - right)) <= 1e-12


def test_inner_product_basic():
    v = DenseTensor.vector([1, 2, 3])
    assert inner_product(v, v) == 14.0
    e1 = DenseTensor.vector([1, 0])
    e2 = DenseTensor.vector([0, 1])
    assert inner_product(e1, e2) == 0.0


def test_inner_product_matches_scalar_loop():
    rng = np.random.default_rng(42)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    expected = 0.0
    for i in range(8):
        expected += a[i] * b[i]
    got = inner_product(DenseTensor.vector(a), DenseTensor.vector(b))
    assert abs(got - expected) <= 1e-12


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(DenseTensor.vector([1, 2]), DenseTensor.vector([1, 2, 3]))


def test_inner_of_outers_factorizes():
    rng = np.random.default_rng(5)
    for n, m in [(3, 4), (16, 2), (8, 8)]:
        a, c = (DenseTensor.vector(rng.standard_normal(n)) for _ in range(2))
        b, d = (DenseTensor.vector(rng.standard_normal(m)) for _ in range(2))
        lhs = inner_product(outer_product(a, b), outer_product(c, d))
        rhs = inner_product(a, c) * inner_product(b, d)
        assert abs(lhs - rhs) <= 1e-9


def test_pad_with_ones_carries_first_order_terms():
    x = pad_with_ones(DenseTensor.vector([2]), 1)
    y = pad_with_ones(DenseTensor.vector([3]), 1)
    assert x.values.tolist() == [2.0, 1.0]
    out = outer_product(x, y)
    # contains the product, both inputs, and the constant one
    assert out.array.tolist() == [[6.0, 2.0], [3.0, 1.0]]


def test_pad_with_ones_empty_input():
    out = pad_with_ones(DenseTensor.vector([]), 3)
    assert out.values.tolist() == [1.0, 1.0, 1.0]


def test_pad_with_ones_longer():
    out = pad_with_ones(DenseTensor.vector([5, -1]), 2)
    assert out.values.tolist() == [5.0, -1.0, 1.0, 1.0]


def test_pad_rejects_matrices():
    with pytest.raises(ValueError):
        pad_with_ones(DenseTensor.from_array(np.ones((2, 2))), 1)


def test_subdivide_identity_block():
    t = DenseTensor.from_array(np.arange(8.0).reshape(2, 2, 2))
    blocks = subdivide(t, (2, 2, 2))
    assert len(blocks) == 1
    assert blocks[0][0] == (0, 0, 0)
    assert blocks[0][1] == t


def test_subdivide_and_reassemble_round_trip():
    rng = np.random.default_rng(8)
    t = DenseTensor.from_array(rng.standard_normal((2, 4, 4)))
    blocks = subdivide(t, (2, 2, 2))
    assert len(blocks) == 4
    assert [g for g, _ in blocks] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    back = reassemble(blocks, t.dims)
    assert back.dims == t.dims
    assert back.values.tobytes() == t.values.tobytes()


def test_subdivide_blocks_match_slices():
    t = DenseTensor.from_array(np.arange(32.0).reshape(2, 4, 4))
    blocks = dict(subdivide(t, (2, 2, 2)))
    assert blocks[(0, 1, 1)].array.tolist() == t.array[0:2, 2:4, 2:4].tolist()


def test_subdivide_rejects_non_divisible():
    t = DenseTensor.from_array(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="divide"):
        subdivide(t, (2, 2, 2))


def test_row_major_linearization():
    values = np.arange(6.0)
    t = DenseTensor((2, 3), values)
    for i in range(2):
        for j in range(3):
            assert t[i, j] == values[3 * i + j]
    # and the reverse: shaped writes land at 3i + j
    arr = np.zeros((2, 3))
    arr[1, 2] = 7.0
    assert DenseTensor.from_array(arr).values[3 * 1 + 2] == 7.0


def test_order_zero_scalar():
    s = DenseTensor.scalar(5.0)
    assert s.order == 0
    assert s.dims == ()
    assert s.size == 1


def test_value_count_must_match_dims():
    with pytest.raises(ValueError):
        DenseTensor((2, 2), [1.0, 2.0, 3.0])


def test_negative_dims_rejected():
    with pytest.raises(ValueError):
        DenseTensor((-1,), [])


def test_capacity_guard():
    with pytest.raises(CapacityError):
        DenseTensor((2**30, 2**30), [])


def test_tensors_are_immutable():
    t = DenseTensor.vector([1, 2, 3])
    with pytest.raises(ValueError):
        t.values[0] = 9.0


def test_constructor_copies_input():
    src = np.ones(3)
    t = DenseTensor.vector(src)
    src[0] = 5.0
    assert t.values[0] == 1.0


def test_complex_tensor_round_shape():
    c = ComplexTensor.from_array(np.array([[1 + 2j, 0], [0, 1 - 2j]]))
    assert c.dims == (2, 2)
    assert c[0, 0] == 1 + 2j
    assert c == ComplexTensor((2, 2), c.values)


def test_dense_rejects_complex_values():
    with pytest.raises(ValueError):
        DenseTensor((2,), np.array([1 + 1j, 2 + 0j]))


@pytest.mark.parametrize("cls, dtype", [(DenseTensor, np.float64), (ComplexTensor, np.complex128)])
def test_both_tensor_classes_copy_freeze_and_convert(cls, dtype):
    src = np.arange(6, dtype=dtype).reshape(2, 3)
    t = cls.from_array(src)  # already the right dtype, so only the constructor can copy
    src[0, 0] = 9.0
    assert type(t) is cls and t.dims == (2, 3)
    assert cls.from_array([[1, 2]]).values.dtype == dtype
    assert t[0, 0] == 0.0 and t.order == 2 and t.size == 6
    with pytest.raises(ValueError):
        t.values[0] = 1.0
    assert t == cls((2, 3), np.arange(6.0))
    assert repr(t) == f"{cls.__name__}(dims=(2, 3), values={t.values.tolist()})"
    assert repr(cls.from_array(np.zeros(9))) == f"{cls.__name__}(dims=(9,), <9 values>)"


def test_dense_and_complex_tensors_never_compare_equal():
    dense = DenseTensor.vector([1.0, 2.0])
    same_numbers = ComplexTensor((2,), [1.0, 2.0])
    assert dense != same_numbers
    assert same_numbers != dense
    assert dense.values.tolist() == same_numbers.values.tolist()


def test_stack_blocks_orders_blocks_row_major():
    t = DenseTensor.from_array(np.arange(4 * 6 * 2, dtype=float).reshape(4, 6, 2))
    stacked = stack_blocks(t, (2, 3, 1))
    assert stacked.dims == (8, 2, 3, 1)
    for i, (g, block) in enumerate(subdivide(t, (2, 3, 1))):
        assert np.array_equal(stacked.array[i], block.array)
        sl = tuple(slice(gi * b, (gi + 1) * b) for gi, b in zip(g, (2, 3, 1)))
        assert np.array_equal(block.array, t.array[sl])
    with pytest.raises(ValueError, match="divide"):
        stack_blocks(t, (3, 3, 1))
    with pytest.raises(ValueError, match="order-3"):
        stack_blocks(DenseTensor.vector([1.0]), (1, 1, 1))
