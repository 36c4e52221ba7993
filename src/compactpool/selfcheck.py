"""Built-in oracle-equivalence checks, runnable from the CLI.

Each check compares a fast path against its definitional counterpart at small
sizes and reports a boolean. Output is deterministic for a fixed seed: no
timings, no paths. The error functions behind the checks are public, so the
acceptance suite measures each identity with the same code.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import hashplan, pooling, reference, spectral
from .fileio import read_tensor, write_tensor
from .hashplan import build_plan, compose_sum, derive_seed
from .sketch import decode_estimate
from .tensor import ComplexTensor, DenseTensor

__all__ = ["fft_errors", "mcb_error", "mct_error", "padding_error", "run_checks"]

_TOL = 1e-9


def _rel_norm(a, b) -> float:
    scale = max(np.linalg.norm(b.values), np.finfo(float).tiny)
    return float(np.linalg.norm(a.values - b.values) / scale)


def mcb_error(x: DenseTensor, y: DenseTensor, d: int, seed: int) -> float:
    """Max abs difference between time-variant ``mcb`` and the literal outer-product sketch."""
    fast = pooling.mcb(x, y, pooling.PoolingConfig((d,), "time", False, seed)).data
    return float(np.max(np.abs(fast.values - reference.mcb_oracle(x, y, d, seed).values)))


def mct_error(img: DenseTensor, txt: DenseTensor, d: int, seed: int) -> float:
    """Max abs difference between time-variant ``mct`` and the literal order-4 sketch."""
    fast = pooling.mct(img, txt, pooling.PoolingConfig((d, d, d, d), "time", False, seed)).data
    return float(np.max(np.abs(fast.values - reference.mct_oracle(img, txt, d, seed).values)))


def fft_errors(t: DenseTensor) -> tuple[float, float]:
    """Relative norm errors of ``ndfft`` against the naive DFT and of ``indfft`` round-tripping."""
    fast = spectral.ndfft(t)
    return _rel_norm(fast, spectral.naive_ndft(t)), _rel_norm(spectral.indfft(fast), t)


def padding_error(x: DenseTensor, y: DenseTensor, d: int, seed: int) -> float | None:
    """Worst error decoding every cell of the padded outer product from padded ``mcb``.

    None when the composed plan at this seed is not injective on the padded
    cells, so exact recovery is not expected and callers try another seed.
    """
    n1, n2 = x.dims[0], y.dims[0]
    padded = n1 + n2
    composed = compose_sum(*hashplan.paired_vector_plans(padded, padded, d, seed))
    if np.unique(composed.modes[0].hash_table).size != padded * padded:
        return None
    pooled = pooling.mcb(x, y, pooling.PoolingConfig((d,), "time", True, seed)).data
    worst = 0.0
    for i in range(padded):
        for j in range(padded):
            xi = x.values[i] if i < n1 else 1.0
            yj = y.values[j] if j < n2 else 1.0
            worst = max(worst, abs(decode_estimate(pooled, composed, (i * padded + j,)) - xi * yj))
    return float(worst)


def _check_mcb_identity(seed: int) -> bool:
    for case_seed in (seed, seed + 1):
        for n1, n2, d in ((8, 8, 16), (4, 16, 8)):
            rng = np.random.default_rng(derive_seed(case_seed, "selfcheck-mcb", n1, n2, d))
            x = DenseTensor.vector(rng.standard_normal(n1))
            y = DenseTensor.vector(rng.standard_normal(n2))
            if mcb_error(x, y, d, case_seed) > _TOL:
                return False
    return True


def _check_mct_identity(seed: int) -> bool:
    for case_seed in (seed, seed + 3):
        for dims, length, d in (((3, 4, 2), 5, 4), ((2, 2, 2), 3, 2)):
            rng = np.random.default_rng(derive_seed(case_seed, "selfcheck-mct", *dims, length, d))
            img = DenseTensor.from_array(rng.standard_normal(dims))
            txt = DenseTensor.vector(rng.standard_normal(length))
            if mct_error(img, txt, d, case_seed) > _TOL:
                return False
    return True


def _check_fft_vs_naive(seed: int) -> bool:
    for shape in ((8,), (4, 6), (3, 4, 5)):
        rng = np.random.default_rng(derive_seed(seed, "selfcheck-fft", *shape))
        if max(fft_errors(DenseTensor.from_array(rng.standard_normal(shape)))) > _TOL:
            return False
    return True


def _check_padding_recovery(seed: int) -> bool:
    rng = np.random.default_rng(derive_seed(seed, "selfcheck-pad"))
    x = DenseTensor.vector(rng.standard_normal(2))
    y = DenseTensor.vector(rng.standard_normal(2))
    for attempt in range(500):
        worst = padding_error(x, y, 256, derive_seed(seed, "selfcheck-pad", attempt))
        if worst is not None:
            return worst <= _TOL
    return False


def _check_roundtrip(seed: int) -> bool:
    rng = np.random.default_rng(derive_seed(seed, "selfcheck-roundtrip"))
    real = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
    # pool --variant freq writes complex tensors.
    cplx = ComplexTensor.from_array(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.tsk"
        for t in (real, cplx):
            write_tensor(t, path)
            back = read_tensor(path)
            if type(back) is not type(t) or back.dims != t.dims:
                return False
            if back.values.tobytes() != t.values.tobytes():
                return False
    plan = build_plan([5, 7], [3, 4], derive_seed(seed, "selfcheck-plan"))
    return hashplan.load_plan(hashplan.save_plan(plan)) == plan


_CHECKS = {
    "mcb-identity": _check_mcb_identity,
    "mct-identity": _check_mct_identity,
    "fft-vs-naive": _check_fft_vs_naive,
    "padding-recovery": _check_padding_recovery,
    "roundtrip": _check_roundtrip,
}


def run_checks(seed: int = 0) -> dict[str, bool]:
    """Run every check at this seed; each maps to True when it passes."""
    return {name: check(seed) for name, check in _CHECKS.items()}
