import re

import numpy as np
import pytest

from compactpool.tensor import (
    CapacityError,
    ComplexTensor,
    DenseTensor,
    inner_product,
    outer_product,
    pad_with_ones,
    stack_blocks,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    assert out.values.tolist() == [3.0, 4.0, 6.0, 8.0]


def test_outer_product_concatenates_dims():
    a = DenseTensor.from_array(np.arange(6.0).reshape(2, 3))
    b = DenseTensor.from_array(np.arange(4.0).reshape(4))
    out = outer_product(a, b)
    assert out.dims == (2, 3, 4)
    assert out[1, 2, 3] == a[1, 2] * b[3]


def test_outer_product_with_scalar():
    s = DenseTensor((), [2.5])
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
    s = DenseTensor((), [5.0])
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
    # from_array and vector leave the conversion to the constructor: converting
    # first would drop the imaginary part with only a ComplexWarning.
    for make in (DenseTensor.from_array, DenseTensor.vector):
        for value in (1 + 1j, 1 + 0j):
            with pytest.raises(ValueError, match="real values"):
                make(np.array([value]))


def test_a_tensor_has_no_more_modes_than_a_numpy_array():
    assert DenseTensor((1,) * 32, [1.0]).array.ndim == 32  # every supported NumPy holds 32
    for order in (65, 256):
        with pytest.raises(ValueError, match="dimension"):
            DenseTensor((1,) * order, [1.0])


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
    # The second case is one block covering the whole tensor: the stack is the tensor itself.
    for shape, block_dims in [((4, 6, 2), (2, 3, 1)), ((2, 2, 2), (2, 2, 2))]:
        t = DenseTensor.from_array(np.arange(np.prod(shape), dtype=float).reshape(shape))
        stacked = stack_blocks(t, block_dims)
        grid = tuple(f // b for f, b in zip(shape, block_dims))
        assert stacked.dims == (np.prod(grid), *block_dims)
        for i, g in enumerate(np.ndindex(*grid)):
            sl = tuple(slice(gi * b, (gi + 1) * b) for gi, b in zip(g, block_dims))
            assert np.array_equal(stacked.array[i], t.array[sl])
    assert stacked.dims == (1, 2, 2, 2) and stacked.values.tobytes() == t.values.tobytes()
    with pytest.raises(ValueError, match="divide"):
        stack_blocks(t, (3, 3, 1))
    with pytest.raises(ValueError, match="order-3"):
        stack_blocks(DenseTensor.vector([1.0]), (1, 1, 1))


def test_stack_blocks_refuses_a_zero_size_tensor():
    for shape in [(0, 4, 4), (2, 0, 2), (2, 2, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"sizes >= 1, got tensor dims {shape}")):
            stack_blocks(DenseTensor.from_array(np.zeros(shape)), (2, 2, 2))


def test_adopt_freezes_without_copying_and_refuses_a_wrong_array():
    arr = np.arange(6.0).reshape(2, 3)
    t = DenseTensor._adopt((3, 2), arr)
    assert np.shares_memory(t.values, arr) and not arr.flags.writeable
    assert t.dims == (3, 2) and t.values.shape == (6,)
    with pytest.raises(ValueError, match="cannot adopt"):
        DenseTensor._adopt((3,), np.zeros(3, dtype=np.complex128))
    with pytest.raises(ValueError, match="cannot adopt"):
        ComplexTensor._adopt((3,), np.zeros(3))
    with pytest.raises(ValueError, match="cannot adopt"):
        DenseTensor._adopt((2, 2), np.zeros(3))


def test_pad_with_ones_gives_plain_int_dims():
    padded = pad_with_ones(DenseTensor.vector([1.0, 2.0]), np.int64(2))
    assert padded.dims == (4,) and all(type(n) is int for n in padded.dims)
    assert repr(padded).count("int64") == 0
