"""Refusals of bad input across the library, one row per rule.

Each row calls one public entry point with input its contract forbids and
names the error it must raise, so each of these refusal branches is reached.
"""

import json
import struct

import numpy as np
import pytest

from compactpool.fileio import TensorFileError, TruncatedPayloadError, read_tensor
from compactpool.hashplan import (
    ModeHash,
    PlanFormatError,
    SketchPlan,
    build_plan,
    compose_sum,
    image_text_plans,
    load_plan,
    repeated_vector_plans,
    save_plan,
)
from compactpool.pooling import PoolingConfig, PoolingContractError, mcb, mct, polynomial_sketch
from compactpool.reference import mcb_oracle, mct_oracle
from compactpool.sketch import count_sketch
from compactpool.spectral import naive_ndft, ndfft
from compactpool.tensor import ComplexTensor, DenseTensor, pad_with_ones, stack_blocks

_VEC = DenseTensor.vector([1.0, 2.0])
_MAT = DenseTensor.from_array(np.ones((2, 2)))
_IMG = DenseTensor.from_array(np.ones((2, 2, 2)))


def _tsk1(tmp_path, order, reserved, dims):
    """Read a crafted file: a TSK1 header, the given dims and one float64 value."""
    path = tmp_path / "crafted.tsk"
    path.write_bytes(struct.pack("<4sBBBB", b"TSK1", 1, order, 0, reserved)
                     + struct.pack(f"<{len(dims)}Q", *dims) + struct.pack("<d", 1.0))
    return read_tensor(path)


def _plan_without(field):
    doc = json.loads(save_plan(build_plan([3], [2], 0)))
    del doc["modes"][0][field]
    return load_plan(json.dumps(doc))


REFUSALS = {
    "tsk1-reserved-byte": (lambda tmp: _tsk1(tmp, 1, 7, (1,)), TensorFileError, "reserved byte"),
    # Three declared dims, but the file ends 8 bytes short of them.
    "tsk1-ends-in-dims": (lambda tmp: _tsk1(tmp, 3, 0, (1,)), TruncatedPayloadError, "dims block"),
    "tsk1-too-many-modes": (lambda tmp: _tsk1(tmp, 65, 0, (1,) * 65), TensorFileError, "order 65"),
    "mode-hash-size-0": (lambda tmp: ModeHash(0, 2, [], []), ValueError, "positive"),
    "load-plan-array": (lambda tmp: load_plan("[1, 2]"), PlanFormatError, "must be an object"),
    "load-plan-missing-field": (lambda tmp: _plan_without("sign_table"), PlanFormatError,
                                "missing field 'sign_table'"),
    "sketch-plan-no-modes": (lambda tmp: SketchPlan((), 0), ValueError, "at least one mode"),
    "compose-sum-order-2": (lambda tmp: compose_sum(build_plan([2, 2], [4, 4], 0),
                                                    build_plan([2], [4], 0)),
                            ValueError, "two order-1 plans"),
    "image-text-plans-3-dims": (lambda tmp: image_text_plans((2, 2, 2), 3, (4, 4, 4), 0),
                                ValueError, "four output dims"),
    "repeated-plans-count-0": (lambda tmp: repeated_vector_plans(3, 4, 0, 0), ValueError,
                               "count must be >= 1"),
    "mcb-non-vector": (lambda tmp: mcb(_MAT, _VEC, PoolingConfig((4,))), ValueError, "order-1"),
    "mct-3-output-dims": (lambda tmp: mct(_IMG, _VEC, PoolingConfig((4, 4, 4), "frequency")),
                          PoolingContractError, "four output dims"),
    "poly-order-2": (lambda tmp: polynomial_sketch(_MAT, 2, 4, 0), ValueError, "order-1"),
    "poly-d-0": (lambda tmp: polynomial_sketch(_VEC, 2, 0, 0), ValueError, "output size"),
    "count-sketch-order-2-tensor": (lambda tmp: count_sketch(_MAT, build_plan([2], [4], 0)),
                                    ValueError, "order-1 tensor"),
    "count-sketch-order-2-plan": (lambda tmp: count_sketch(_VEC, build_plan([2, 2], [4, 4], 0)),
                                  ValueError, "order-1 plan"),
    "mcb-oracle-order-2": (lambda tmp: mcb_oracle(_MAT, _VEC, 4, 0), ValueError, "two order-1"),
    "mct-oracle-order-2": (lambda tmp: mct_oracle(_MAT, _VEC, 4, 0), ValueError, "order-3 tensor"),
    "pad-negative": (lambda tmp: pad_with_ones(_VEC, -1), ValueError, "nonnegative"),
    "stack-blocks-2-dims": (lambda tmp: stack_blocks(_IMG, (2, 2)), ValueError,
                            "three positive integers"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_bad_input_is_refused(tmp_path, case):
    call, error, match = REFUSALS[case]
    with pytest.raises(error, match=match):
        call(tmp_path)


@pytest.mark.parametrize("transform", [ndfft, naive_ndft])
def test_an_order_zero_transform_is_the_value_itself(transform):
    out = transform(DenseTensor((), [2.5]))
    assert type(out) is ComplexTensor and out.dims == () and out.values.tolist() == [2.5 + 0j]
