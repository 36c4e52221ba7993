import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactpool import hashplan
from compactpool.hashplan import (
    ModeHash,
    PlanFormatError,
    SketchPlan,
    build_plan,
    compose_sum,
    derive_seed,
    load_plan,
    save_plan,
)
from compactpool.sketch import count_sketch
from compactpool.tensor import DenseTensor

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _single(hashes, signs, d, seed=0):
    return SketchPlan((ModeHash(len(hashes), d, hashes, signs),), seed)


def test_build_plan_is_deterministic():
    a = build_plan([4], [4], 7)
    b = build_plan([4], [4], 7)
    assert a == b


def test_single_bucket_hashes_to_zero():
    p = build_plan([4], [1], 123)
    assert p.modes[0].hash_table.tolist() == [0, 0, 0, 0]


def test_bucket_histogram_is_uniform():
    n, d = 100_000, 16
    p = build_plan([n], [d], 2024)
    counts = np.bincount(p.modes[0].hash_table, minlength=d)
    expected = n / d
    assert np.all(np.abs(counts - expected) <= 0.05 * expected)


def test_sign_balance():
    p = build_plan([100_000], [8], 99)
    signs = p.modes[0].sign_table
    assert set(np.unique(signs)) == {-1, 1}
    assert abs(signs.mean()) < 0.02


def test_different_seeds_differ():
    a = build_plan([64], [16], 1)
    b = build_plan([64], [16], 2)
    assert not np.array_equal(a.modes[0].hash_table, b.modes[0].hash_table) or not np.array_equal(
        a.modes[0].sign_table, b.modes[0].sign_table
    )


def test_modes_use_independent_streams():
    # adding a trailing mode must not perturb earlier tables
    short = build_plan([10, 10], [4, 4], 5)
    longer = build_plan([10, 10, 10], [4, 4, 4], 5)
    for m in range(2):
        assert np.array_equal(short.modes[m].hash_table, longer.modes[m].hash_table)
        assert np.array_equal(short.modes[m].sign_table, longer.modes[m].sign_table)


def test_build_plan_rejects_bad_dims():
    with pytest.raises(ValueError):
        build_plan([4, 4], [4], 0)
    with pytest.raises(ValueError):
        build_plan([0], [4], 0)
    with pytest.raises(ValueError):
        build_plan([], [], 0)


def test_pairwise_collision_rate():
    n, d = 4096, 16
    p = build_plan([n], [d], 77)
    h = p.modes[0].hash_table
    rng = np.random.default_rng(7)
    m = 20_000
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    keep = i != j
    rate = float(np.mean(h[i[keep]] == h[j[keep]]))
    target = 1.0 / d
    se = np.sqrt(target * (1 - target) / keep.sum())
    assert abs(rate - target) <= 3 * se


def test_compose_sum_single_entries():
    px = _single([0], [1], 2)
    py = _single([0], [-1], 2)
    comp = compose_sum(px, py)
    assert comp.modes[0].hash_table.tolist() == [0]
    assert comp.modes[0].sign_table.tolist() == [-1]


def test_compose_sum_wraps_modulo():
    comp = compose_sum(_single([1], [1], 2), _single([1], [1], 2))
    assert comp.modes[0].hash_table.tolist() == [0]


def test_compose_sum_matches_double_loop():
    px = build_plan([2], [4], 31)
    py = build_plan([2], [4], 32)
    comp = compose_sum(px, py).modes[0]
    hx, sx = px.modes[0].hash_table, px.modes[0].sign_table
    hy, sy = py.modes[0].hash_table, py.modes[0].sign_table
    for i in range(2):
        for j in range(2):
            t = i * 2 + j
            assert comp.hash_table[t] == (hx[i] + hy[j]) % 4
            assert comp.sign_table[t] == sx[i] * sy[j]


def test_compose_sum_rejects_mismatched_outputs():
    with pytest.raises(ValueError, match="mismatch"):
        compose_sum(build_plan([2], [4], 0), build_plan([2], [8], 0))


def test_compose_signs_multiply_exhaustively():
    px = build_plan([3], [4], 8)
    py = build_plan([3], [4], 9)
    comp = compose_sum(px, py).modes[0]
    sx, sy = px.modes[0].sign_table, py.modes[0].sign_table
    for i in range(3):
        for j in range(3):
            assert comp.sign_table[i * 3 + j] == sx[i] * sy[j]


def test_save_load_round_trip():
    p = build_plan([5, 7], [3, 4], 7)
    assert load_plan(save_plan(p)) == p


def test_loaded_plan_sketches_identically():
    p = build_plan([16], [8], 7)
    q = load_plan(save_plan(p))
    v = DenseTensor.vector(np.random.default_rng(0).standard_normal(16))
    assert np.array_equal(count_sketch(v, p).values, count_sketch(v, q).values)


def test_load_rejects_truncated_text():
    text = save_plan(build_plan([4], [4], 1))
    with pytest.raises(PlanFormatError, match="line"):
        load_plan(text[: len(text) // 2])


def test_load_rejects_bad_schema():
    with pytest.raises(PlanFormatError, match="version"):
        load_plan('{"version": 9, "seed": 0, "modes": []}')
    with pytest.raises(PlanFormatError, match="modes"):
        load_plan('{"version": 1, "seed": 0, "modes": []}')
    with pytest.raises(PlanFormatError, match="sign"):
        load_plan(
            '{"version": 1, "seed": 0, "modes": [{"input_size": 1, "output_size": 2,'
            ' "hash_table": [0], "sign_table": [2]}]}'
        )


def test_mode_hash_validates_tables():
    with pytest.raises(ValueError):
        ModeHash(2, 2, [0, 2], [1, 1])
    with pytest.raises(ValueError):
        ModeHash(2, 2, [0, 1], [1, 0])
    with pytest.raises(ValueError):
        ModeHash(2, 2, [0], [1])


def test_build_plan_tables_equal_the_validated_construction():
    for m in build_plan([7, 300, 1], [5, 64, 1], 3).modes:
        checked = ModeHash(m.input_size, m.output_size, m.hash_table.copy(), m.sign_table.copy())
        assert (type(m.input_size), type(m.output_size)) == (int, int)
        for table, want in ((m.hash_table, checked.hash_table), (m.sign_table, checked.sign_table)):
            assert table.dtype == np.int64 and table.shape == (m.input_size,)
            assert not table.flags.writeable
            assert table.tobytes() == want.tobytes()


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")
    assert derive_seed(-1, "x") == derive_seed(2**64 - 1, "x")


@pytest.fixture
def memo():
    hashplan._memo.clear()
    yield hashplan._memo
    hashplan._memo.clear()


def test_memo_returns_the_same_plan_for_the_same_key(memo):
    p = build_plan([5, 6], [3, 4], 11)
    assert build_plan((5, 6), (3, 4), 11) is p
    assert build_plan(np.array([5, 6]), [np.int64(3), 4], 11) is p
    assert len(memo) == 1


def test_memo_keys_on_the_normalised_seed(memo):
    p = build_plan([5], [3], 11)
    assert build_plan([5], [3], 11 + 2**64) is p
    assert build_plan([5], [3], -1) is build_plan([5], [3], 2**64 - 1)
    assert len(memo) == 2


def test_memo_separates_dims_and_seeds(memo):
    p = build_plan([5], [3], 11)
    others = [build_plan([5], [3], 12), build_plan([6], [3], 11), build_plan([5], [4], 11),
              build_plan([5, 1], [3, 1], 11)]
    assert all(q is not p and q != p for q in others)
    assert len(memo) == 5


def test_memo_validates_before_lookup(memo):
    build_plan([5], [3], 11)
    with pytest.raises(ValueError):
        build_plan([5], [0], 11)
    with pytest.raises(ValueError):
        build_plan([5], [3, 3], 11)


def test_memo_plans_are_read_only(memo):
    p = build_plan([5], [3], 11)
    with pytest.raises(ValueError):
        p.modes[0].hash_table[0] = 0
    with pytest.raises(ValueError):
        p.modes[0].sign_table[0] = 1
    with pytest.raises(AttributeError):
        p.modes[0].hash_table = np.zeros(5, dtype=np.int64)
    assert build_plan([5], [3], 11) == load_plan(save_plan(p))


def _third_of_budget():
    """Input size of a one-mode plan that takes a little under a third of the memo."""
    return (hashplan._MEMO_BYTES // 3 - hashplan._MODE_OVERHEAD) // 16


def test_memo_stays_within_its_budget(memo):
    n = _third_of_budget()
    first = build_plan([n], [8], 0)
    for seed in range(1, 10):
        build_plan([n], [8], seed)
        assert memo.nbytes <= hashplan._MEMO_BYTES
    assert len(memo) == 3
    again = build_plan([n], [8], 0)
    assert again is not first and again == first


def test_memo_evicts_the_least_recently_used(memo):
    n = _third_of_budget()
    p0, p1, _ = (build_plan([n], [8], seed) for seed in range(3))
    assert build_plan([n], [8], 0) is p0
    build_plan([n], [8], 3)
    assert build_plan([n], [8], 0) is p0
    assert build_plan([n], [8], 1) is not p1


def test_memo_skips_a_plan_larger_than_its_budget(memo):
    small = build_plan([5], [3], 11)
    n = hashplan._MEMO_BYTES // 16
    big = build_plan([n], [2], 1)
    assert build_plan([n], [2], 1) is not big
    assert len(memo) == 1 and build_plan([5], [3], 11) is small


def test_memo_keeps_its_byte_count_under_concurrent_builds(memo):
    n = (hashplan._MEMO_BYTES // 8 - hashplan._MODE_OVERHEAD) // 16
    built = {}
    errors = []

    def worker(w):
        try:
            for i in range(40):
                seed = (w * 7 + i) % 12
                built[(w, i)] = (seed, build_plan([n], [4], seed))
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(built) == 4 * 40
    assert memo.nbytes == len(memo) * (n * 16 + hashplan._MODE_OVERHEAD) <= hashplan._MEMO_BYTES
    for seed, plan in built.values():
        assert plan == build_plan([n], [4], seed)


def test_derive_seed_renders_tokens_with_str():
    assert derive_seed(3, "x", 1) == derive_seed(3, "x", "1")


def _plan_doc():
    return json.loads(save_plan(build_plan([3, 2], [4, 5], 9)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("hash_table", [0.9, 2.5, 1]),
        ("hash_table", [0, 1.0, 1]),
        ("hash_table", [0, True, 1]),
        ("hash_table", [0, 2**70, 1]),
        ("hash_table", [0, "1", 1]),
        ("sign_table", [True, True, True]),
        ("sign_table", [1, -1.0, 1]),
        ("input_size", True),
        ("input_size", 3.0),
        ("output_size", 4.5),
    ],
)
def test_load_plan_refuses_non_integer_fields(field, value):
    doc = _plan_doc()
    doc["modes"][0][field] = value
    with pytest.raises(PlanFormatError, match="integer|int64"):
        load_plan(json.dumps(doc))


@pytest.mark.parametrize("field, value", [("seed", True), ("seed", 9.0), ("version", True)])
def test_load_plan_refuses_non_integer_header(field, value):
    doc = _plan_doc()
    doc[field] = value
    with pytest.raises(PlanFormatError):
        load_plan(json.dumps(doc))


def test_mode_hash_refuses_non_integer_arrays():
    with pytest.raises(ValueError, match="integer"):
        ModeHash(2, 2, np.array([0.0, 1.0]), [1, 1])
    with pytest.raises(ValueError, match="integer"):
        ModeHash(2, 2, [0, 1], np.array([True, True]))
    with pytest.raises(ValueError, match="integer"):
        ModeHash(2.0, 2, [0, 1], [1, 1])
    mode = ModeHash(np.int64(2), 2, np.array([0, 1], dtype=np.uint8), (1, -1))
    assert mode.hash_table.dtype == np.int64 and mode.input_size == 2


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)


def _doc_paths(doc):
    paths = [("version",), ("seed",), ("modes",)]
    for m, mode in enumerate(doc["modes"]):
        paths.append(("modes", m))
        for field in ("input_size", "output_size", "hash_table", "sign_table"):
            paths.append(("modes", m, field))
        for field in ("hash_table", "sign_table"):
            paths += [("modes", m, field, i) for i in range(len(mode[field]))]
    return paths


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_plan_fuzz_never_loads_a_changed_plan(data):
    doc = _plan_doc()
    *parents, last = data.draw(st.sampled_from(_doc_paths(doc)))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = data.draw(_json_values)
    text = json.dumps(doc)
    try:
        plan = load_plan(text)
    except PlanFormatError:
        return
    assert save_plan(plan) == text
