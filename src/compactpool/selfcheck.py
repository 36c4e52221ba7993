"""Built-in oracle-equivalence checks, runnable from the CLI.

Each check compares a fast path against its definitional counterpart at small
sizes and reports a boolean. Output is deterministic for a fixed seed: no
timings, no paths.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import hashplan, pooling, reference, spectral
from .fileio import read_tensor, write_tensor
from .hashplan import ModeHash, SketchPlan, build_plan, compose_sum, derive_seed
from .sketch import decode_estimate
from .tensor import DenseTensor

__all__ = ["CHECK_NAMES", "run_checks"]

CHECK_NAMES = (
    "mcb-identity",
    "mct-identity",
    "fft-vs-naive",
    "padding-recovery",
    "roundtrip",
)

_TOL = 1e-9


def _flip_first_sign(plan: SketchPlan) -> SketchPlan:
    mode = plan.modes[0]
    signs = mode.sign_table.copy()
    signs[0] = -signs[0]
    return SketchPlan(
        (ModeHash(mode.input_size, mode.output_size, mode.hash_table, signs),),
        plan.seed,
    )


def _check_mcb_identity(seed: int, corrupt: bool) -> bool:
    for case_seed in (seed, seed + 1):
        for n1, n2, d in ((8, 8, 16), (4, 16, 8)):
            rng = np.random.default_rng(derive_seed(case_seed, "selfcheck-mcb", n1, n2, d))
            x = DenseTensor.vector(rng.standard_normal(n1))
            y = DenseTensor.vector(rng.standard_normal(n2))
            cfg = pooling.PoolingConfig((d,), "time", False, case_seed)
            fast = pooling.mcb(x, y, cfg).data
            plans = hashplan.paired_vector_plans(n1, n2, d, case_seed)
            if corrupt:
                plans = (_flip_first_sign(plans[0]), plans[1])
            slow = reference.mcb_oracle(x, y, d, case_seed, plans=plans)
            if np.max(np.abs(fast.values - slow.values)) > _TOL:
                return False
    return True


def _check_mct_identity(seed: int) -> bool:
    for case_seed in (seed, seed + 3):
        for dims, length, d in (((3, 4, 2), 5, 4), ((2, 2, 2), 3, 2)):
            rng = np.random.default_rng(derive_seed(case_seed, "selfcheck-mct", *dims, length, d))
            img = DenseTensor.from_array(rng.standard_normal(dims))
            txt = DenseTensor.vector(rng.standard_normal(length))
            cfg = pooling.PoolingConfig((d, d, d, d), "time", False, case_seed)
            fast = pooling.mct(img, txt, cfg).data
            slow = reference.mct_oracle(img, txt, d, case_seed)
            if np.max(np.abs(fast.values - slow.values)) > _TOL:
                return False
    return True


def _check_fft_vs_naive(seed: int) -> bool:
    for shape in ((8,), (4, 6), (3, 4, 5)):
        rng = np.random.default_rng(derive_seed(seed, "selfcheck-fft", *shape))
        t = DenseTensor.from_array(rng.standard_normal(shape))
        fast = spectral.ndfft(t)
        slow = spectral.naive_ndft(t)
        if np.linalg.norm(fast.values - slow.values) > _TOL * np.linalg.norm(slow.values):
            return False
        back = spectral.indfft(fast)
        if np.linalg.norm(back.values - t.values) > _TOL * np.linalg.norm(t.values):
            return False
    return True


def _check_padding_recovery(seed: int) -> bool:
    n1 = n2 = 2
    d = 256
    rng = np.random.default_rng(derive_seed(seed, "selfcheck-pad"))
    x = DenseTensor.vector(rng.standard_normal(n1))
    y = DenseTensor.vector(rng.standard_normal(n2))
    padded = n1 + n2
    for attempt in range(500):
        case_seed = derive_seed(seed, "selfcheck-pad", attempt)
        px, py = hashplan.paired_vector_plans(padded, padded, d, case_seed)
        composed = compose_sum(px, py)
        if np.unique(composed.modes[0].hash_table).size != padded * padded:
            continue
        cfg = pooling.PoolingConfig((d,), "time", True, case_seed)
        pooled = pooling.mcb(x, y, cfg).data
        for i in range(padded):
            for j in range(padded):
                xi = x.values[i] if i < n1 else 1.0
                yj = y.values[j] if j < n2 else 1.0
                got = decode_estimate(pooled, composed, (i * padded + j,))
                if abs(got - xi * yj) > _TOL:
                    return False
        return True
    return False


def _check_roundtrip(seed: int) -> bool:
    rng = np.random.default_rng(derive_seed(seed, "selfcheck-roundtrip"))
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.tsk"
        write_tensor(t, path)
        back = read_tensor(path)
        if back.dims != t.dims or back.values.tobytes() != t.values.tobytes():
            return False
    plan = build_plan([5, 7], [3, 4], derive_seed(seed, "selfcheck-plan"))
    return hashplan.load_plan(hashplan.save_plan(plan)) == plan


def run_checks(seed: int = 0, corrupt_mcb_signs: bool = False) -> dict[str, bool]:
    """Run every check; the corrupt flag is a negative-control hook for tests."""
    return {
        "mcb-identity": _check_mcb_identity(seed, corrupt_mcb_signs),
        "mct-identity": _check_mct_identity(seed),
        "fft-vs-naive": _check_fft_vs_naive(seed),
        "padding-recovery": _check_padding_recovery(seed),
        "roundtrip": _check_roundtrip(seed),
    }
