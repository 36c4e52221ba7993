import numpy as np
import pytest

from compactpool.spectral import (
    ORACLE_CAP,
    OracleCapExceeded,
    ResidueError,
    checked_finite,
    checked_real,
    indfft,
    naive_ndft,
    ndfft,
)
from compactpool.tensor import ComplexTensor, DenseTensor

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_delta_transforms_to_ones():
    arr = np.zeros((2, 3, 4))
    arr[0, 0, 0] = 1.0
    out = ndfft(DenseTensor.from_array(arr))
    assert np.max(np.abs(out.values - 1.0)) <= 1e-12


def test_constant_concentrates_at_zero_frequency():
    c = 2.5
    dims = (3, 4)
    out = ndfft(DenseTensor.from_array(np.full(dims, c))).array
    assert abs(out[0, 0] - c * 12) <= 1e-9
    rest = out.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-9


def test_fft_matches_naive_oracle():
    t = DenseTensor.from_array(np.random.default_rng(9).standard_normal((4, 6, 8)))
    fast = ndfft(t)
    slow = naive_ndft(t)
    assert _rel_err(fast.values, slow.values) <= 1e-9


def test_fft_matches_naive_on_complex_input():
    rng = np.random.default_rng(12)
    c = ComplexTensor.from_array(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    assert _rel_err(ndfft(c).values, naive_ndft(c).values) <= 1e-9


def test_inverse_round_trip_vector():
    t = DenseTensor.vector(np.random.default_rng(1).standard_normal(8))
    back = indfft(ndfft(t))
    assert np.max(np.abs(back.values - t.values)) <= 1e-9


def test_inverse_of_ones_is_delta():
    out = indfft(ComplexTensor((4,), np.ones(4, dtype=complex)))
    assert np.max(np.abs(out.values - np.array([1, 0, 0, 0]))) <= 1e-12


def test_inverse_round_trip_cube():
    t = DenseTensor.from_array(np.random.default_rng(2).standard_normal((4, 4, 4)))
    back = indfft(ndfft(t))
    assert _rel_err(back.values, t.values.astype(complex)) <= 1e-9


def test_naive_small_cases():
    assert naive_ndft(DenseTensor.vector([3.5])).values.tolist() == [3.5 + 0j]
    out = naive_ndft(DenseTensor.vector([2.0, 5.0])).values
    assert np.max(np.abs(out - np.array([7.0, -3.0]))) <= 1e-12
    out = naive_ndft(DenseTensor.vector([1, 0, 0, 0])).values
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_naive_cap_guard():
    with pytest.raises(OracleCapExceeded):
        naive_ndft(DenseTensor.vector(np.zeros(ORACLE_CAP + 1)))


def test_parseval():
    t = DenseTensor.from_array(np.random.default_rng(3).standard_normal((4, 5)))
    f = ndfft(t)
    lhs = np.sum(t.values**2)
    rhs = np.sum(np.abs(f.values) ** 2) / t.size
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_ndfft_is_linear():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    combo = ndfft(DenseTensor.from_array(2.0 * a - 0.5 * b)).values
    parts = 2.0 * ndfft(DenseTensor.from_array(a)).values - 0.5 * ndfft(
        DenseTensor.from_array(b)
    ).values
    assert np.max(np.abs(combo - parts)) <= 1e-9 * max(np.linalg.norm(parts), 1.0)


def test_checked_real_flags_large_residue():
    with pytest.raises(ResidueError):
        checked_real(np.array([1.0 + 0.5j]), "test")
    out = checked_real(np.array([1.0 + 0j, 2.0 + 0j]), "test")
    assert out.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checked_real_refuses_non_finite_values(bad):
    values = np.array([1.0 + 0j, bad, 2.0])
    with pytest.raises(ResidueError, match="non-finite"):
        checked_real(values, "here")


def test_checked_finite_refuses_only_non_finite_values():
    checked_finite(np.array([1e308 + 1e308j, 0.0]), "here")
    with pytest.raises(ResidueError, match="here: result holds non-finite"):
        checked_finite(np.array([1.0, complex(np.inf, 0.0)]), "here")


def test_checked_real_passes_finite_values_whose_norm_overflows():
    values = np.array([1e200 + 0j, -1e200])
    assert checked_real(values, "here").tolist() == [1e200, -1e200]


def test_checked_real_sees_a_residue_when_the_norm_overflows():
    with pytest.raises(ResidueError, match="imaginary residue"):
        checked_real(np.array([1e200 + 1e200j, 1.0]), "here")
    with pytest.raises(ResidueError, match="imaginary residue"):
        checked_real(np.array([1e308 + 1e308j, 1e308]), "here")


def test_batched_transforms_act_on_each_block_alone():
    arr = np.random.default_rng(40).standard_normal((3, 2, 4, 5))
    stacked = DenseTensor.from_array(arr)
    forward = ndfft(stacked, batched=True)
    back = indfft(forward, batched=True)
    for g in range(3):
        block = DenseTensor.from_array(arr[g])
        assert np.array_equal(forward.array[g], ndfft(block).array)
        assert np.array_equal(back.array[g], indfft(ndfft(block)).array)
    with pytest.raises(ValueError, match="order"):
        ndfft(DenseTensor.vector([1.0, 2.0]), batched=True)


def test_checked_real_keeps_norm_overflow_warnings_to_itself():
    # Runs under the module's error::RuntimeWarning filter.
    assert checked_real(np.array([1e200, -1e200]), "x").tolist() == [1e200, -1e200]
    with pytest.raises(ResidueError, match="imaginary residue"):
        checked_real(np.array([1e200 + 1e200j, 1.0]), "x")

