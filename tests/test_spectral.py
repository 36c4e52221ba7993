import numpy as np
import pytest

from compactpool.spectral import (
    OracleCapExceeded,
    ResidueError,
    checked_real,
    circular_convolve,
    diag_broadcast_convolve,
    indfft,
    naive_ndft,
    ndfft,
)
from compactpool.tensor import ComplexTensor, DenseTensor


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
        naive_ndft(DenseTensor.vector(np.zeros(100)), cap=64)


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


def test_convolve_delta_is_identity():
    b = DenseTensor.vector([2.0, -1.0, 4.0])
    out = circular_convolve(DenseTensor.vector([1, 0, 0]), b)
    assert np.max(np.abs(out.values - b.values)) <= 1e-9


def test_convolve_shift():
    out = circular_convolve(DenseTensor.vector([0, 1]), DenseTensor.vector([3, 4]))
    assert np.max(np.abs(out.values - np.array([4.0, 3.0]))) <= 1e-9


def test_convolve_matches_double_loop():
    rng = np.random.default_rng(16)
    d = 16
    a = rng.standard_normal(d)
    b = rng.standard_normal(d)
    expected = np.zeros(d)
    for t in range(d):
        for m in range(d):
            expected[t] += a[(t - m) % d] * b[m]
    got = circular_convolve(DenseTensor.vector(a), DenseTensor.vector(b)).values
    assert np.max(np.abs(got - expected)) <= 1e-9


def test_convolve_is_commutative():
    rng = np.random.default_rng(5)
    a = DenseTensor.vector(rng.standard_normal(8))
    b = DenseTensor.vector(rng.standard_normal(8))
    ab = circular_convolve(a, b).values
    ba = circular_convolve(b, a).values
    assert np.max(np.abs(ab - ba)) <= 1e-9


def test_convolve_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        circular_convolve(DenseTensor.vector([1, 2]), DenseTensor.vector([1, 2, 3]))


def test_diag_convolve_delta_is_identity():
    rng = np.random.default_rng(6)
    x = DenseTensor.from_array(rng.standard_normal((3, 3, 3)))
    w = DenseTensor.vector([1, 0, 0])
    out = diag_broadcast_convolve(x, w)
    assert np.max(np.abs(out.values - x.values)) <= 1e-9


def test_diag_convolve_shifts_along_diagonal():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 2, 2))
    out = diag_broadcast_convolve(DenseTensor.from_array(x), DenseTensor.vector([0, 1]))
    expected = np.roll(x, shift=(1, 1, 1), axis=(0, 1, 2))
    assert np.max(np.abs(out.array - expected)) <= 1e-9


def test_diag_convolve_matches_quadruple_loop():
    rng = np.random.default_rng(8)
    d = 4
    x = rng.standard_normal((d, d, d))
    w = rng.standard_normal(d)
    expected = np.zeros((d, d, d))
    for t1 in range(d):
        for t2 in range(d):
            for t3 in range(d):
                for m in range(d):
                    expected[t1, t2, t3] += x[(t1 - m) % d, (t2 - m) % d, (t3 - m) % d] * w[m]
    got = diag_broadcast_convolve(DenseTensor.from_array(x), DenseTensor.vector(w))
    assert np.max(np.abs(got.array - expected)) <= 1e-9


def test_diag_convolve_rejects_unequal_sizes():
    with pytest.raises(ValueError, match="equal"):
        diag_broadcast_convolve(
            DenseTensor.from_array(np.zeros((2, 2, 2))), DenseTensor.vector([1, 0, 0])
        )


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


def test_checked_real_passes_finite_values_whose_norm_overflows():
    values = np.array([1e200 + 0j, -1e200])
    assert checked_real(values, "here").tolist() == [1e200, -1e200]


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
