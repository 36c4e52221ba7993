import numpy as np
import pytest

from compactpool.hashplan import compose_sum, paired_vector_plans
from compactpool.reference import kernel_oracle, mcb_oracle, mct_oracle
from compactpool.spectral import OracleCapExceeded
from compactpool.tensor import DenseTensor

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_kernel_oracle_power_zero():
    x = DenseTensor.vector([1, 2, 3])
    assert kernel_oracle(x, x, 0) == 1.0


def test_kernel_oracle_basis():
    e1 = DenseTensor.vector([1, 0, 0])
    for p in (1, 2, 5):
        assert kernel_oracle(e1, e1, p) == 1.0


def test_kernel_oracle_square():
    x = DenseTensor.vector([1, 2])
    y = DenseTensor.vector([3, 4])
    assert kernel_oracle(x, y, 2) == 121.0


def test_kernel_oracle_validates():
    with pytest.raises(ValueError):
        kernel_oracle(DenseTensor.vector([1]), DenseTensor.vector([1, 2]), 1)
    with pytest.raises(ValueError):
        kernel_oracle(DenseTensor.vector([1]), DenseTensor.vector([1]), -1)


def test_mcb_oracle_single_entries():
    a, b = 1.5, -4.0
    d = 1
    seed = 17
    out = mcb_oracle(DenseTensor.vector([a]), DenseTensor.vector([b]), d, seed)
    composed = compose_sum(*paired_vector_plans(1, 1, d, seed))
    sign = composed.modes[0].sign_table[0]
    assert out.values.tolist() == [sign * a * b]


def test_mcb_oracle_zero_input():
    out = mcb_oracle(DenseTensor.vector(np.zeros(4)), DenseTensor.vector(np.ones(4)), 8, 0)
    assert not out.values.any()


def test_mcb_oracle_deterministic():
    x = DenseTensor.vector(np.random.default_rng(1).standard_normal(6))
    y = DenseTensor.vector(np.random.default_rng(2).standard_normal(6))
    a = mcb_oracle(x, y, 8, 5)
    b = mcb_oracle(x, y, 8, 5)
    assert a == b


def test_mcb_oracle_cap():
    x = DenseTensor.vector(np.zeros(300))
    with pytest.raises(OracleCapExceeded):
        mcb_oracle(x, x, 8, 0)


def test_mct_oracle_zero_image():
    img = DenseTensor.from_array(np.zeros((2, 2, 2)))
    txt = DenseTensor.vector([1.0, -1.0])
    out = mct_oracle(img, txt, 2, 3)
    assert out.dims == (2, 2, 2)
    assert not out.values.any()


def test_mct_oracle_single_cell():
    img = DenseTensor.from_array(np.full((1, 1, 1), 2.0))
    txt = DenseTensor.vector([3.0])
    d = 2
    seed = 9
    out = mct_oracle(img, txt, d, seed)
    nonzero = out.values[out.values != 0]
    assert nonzero.size == 1
    assert abs(nonzero[0]) == 6.0


def test_mct_oracle_deterministic():
    rng = np.random.default_rng(4)
    img = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
    txt = DenseTensor.vector(rng.standard_normal(3))
    assert mct_oracle(img, txt, 4, 7) == mct_oracle(img, txt, 4, 7)


def test_mct_oracle_cap():
    img = DenseTensor.from_array(np.zeros((32, 32, 32)))
    txt = DenseTensor.vector(np.zeros(3))
    with pytest.raises(OracleCapExceeded):
        mct_oracle(img, txt, 4, 0)
