"""Random hash/sign families that parameterize every sketch.

Tables are fully materialized arrays, one (hash, sign) pair per tensor mode.
Mode m of a plan draws from its own PCG64 stream seeded with
``SeedSequence(seed, spawn_key=(m,))``, so adding modes never perturbs the
tables of earlier modes and the same (seed, dims) always rebuilds the same
plan. The PRNG choice is part of this library's compatibility contract;
reproducibility across other implementations goes through save_plan()/
load_plan(), not PRNG equality.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import _INT, _checked_dims, _integer, _is_integer

__all__ = [
    "ModeHash",
    "PlanFormatError",
    "SketchPlan",
    "build_plan",
    "compose_sum",
    "derive_seed",
    "image_text_plans",
    "load_plan",
    "paired_vector_plans",
    "repeated_vector_plans",
    "save_plan",
]

PLAN_FORMAT_VERSION = 1
# The plan memo's bound (see _Memo). A plan counts 24 bytes per input entry
# (hash, sign and float sign tables), _MODE_OVERHEAD per mode for the objects
# around them, and its kept tables. One warm round of the stream_mid,
# cli_files and stream_vqa workloads keeps 614, 748 and 1,078 KiB.
_MEMO_BYTES = 2**21
# The most a plan with its kept tables may take; also pooling's memo bound.
_KEEP_BYTES = 2**20
_MODE_OVERHEAD = 1024


class PlanFormatError(ValueError):
    """Serialized plan text is malformed or violates the schema."""


def _norm_seed(seed: int) -> int:
    return _integer(seed, "seed") % 2**64


def derive_seed(seed: int, *tokens) -> int:
    """Derive a child seed from a base seed and a token path.

    Stable across runs and platforms (SHA-256 over the rendered tokens), so
    one top-level seed reproduces a whole pipeline of sub-plans. Tokens are
    rendered with ``str``, so ``derive_seed(s, "x", 1) == derive_seed(s, "x", "1")``:
    a token scheme must not give two paths that render alike different
    meanings. Changing the rendering would change every derived plan.
    """
    material = "\x1f".join([str(_norm_seed(seed)), *map(str, tokens)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _int_table(values, what: str) -> np.ndarray:
    """Flat int64 copy of a table; bools and non-integers are refused, never truncated."""
    if isinstance(values, np.ndarray):
        ok = values.dtype.kind in "iu"
    else:
        ok = all(map(_is_integer, np.asarray(values, dtype=object).reshape(-1)))
    if not ok:
        raise ValueError(f"{what} entries must be integers")
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValueError(f"{what} entries must fit in int64") from None


@dataclass(frozen=True, eq=False)
class ModeHash:
    """Hash and sign tables for one tensor mode: [input_size] -> [output_size].

    It also keeps the signs as a read-only float64 table, ``_signs``, so a
    sketch multiplies its input by them without converting the int64 table
    on every call.
    """

    input_size: int
    output_size: int
    hash_table: np.ndarray
    sign_table: np.ndarray

    def __post_init__(self) -> None:
        n = _integer(self.input_size, "input_size")
        d = _integer(self.output_size, "output_size")
        if n < 1 or d < 1:
            raise ValueError(f"sizes must be positive, got {n} -> {d}")
        h = _int_table(self.hash_table, "hash")
        s = _int_table(self.sign_table, "sign")
        if h.size != n or s.size != n:
            raise ValueError(f"tables must have length {n}, got {h.size} and {s.size}")
        if h.size and (h.min() < 0 or h.max() >= d):
            raise ValueError(f"hash entries must lie in [0, {d})")
        if not np.all(np.abs(s) == 1):
            raise ValueError("sign entries must be +1 or -1")
        self._store(n, d, h, s)

    @classmethod
    def _adopt(cls, n: int, d: int, hash_table: np.ndarray, sign_table: np.ndarray) -> "ModeHash":
        """Wrap tables build_plan has just drawn, without copying or re-validating them.

        They are flat int64 of length n, hashes in [0, d) and signs +-1 by
        construction; they are frozen in place, so they must not be shared.
        """
        m = object.__new__(cls)
        m._store(n, d, hash_table, sign_table)
        return m

    def _store(self, n: int, d: int, hash_table: np.ndarray, sign_table: np.ndarray) -> None:
        """Freeze the checked tables and set every field, the float signs too, in one step."""
        signs = sign_table.astype(np.float64)
        for table in (hash_table, sign_table, signs):
            table.setflags(write=False)
        object.__setattr__(self, "__dict__", {"input_size": n, "output_size": d, "_signs": signs,
                                              "hash_table": hash_table, "sign_table": sign_table})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeHash):
            return NotImplemented
        return (
            self.input_size == other.input_size
            and self.output_size == other.output_size
            and np.array_equal(self.hash_table, other.hash_table)
            and np.array_equal(self.sign_table, other.sign_table)
        )


@dataclass(frozen=True, eq=False)
class SketchPlan:
    """One ModeHash per tensor mode plus the seed the tables were drawn from.

    Its order and dims are derived once, its output cells within the tensor cap.
    """

    modes: tuple[ModeHash, ...]
    seed: int

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("a plan needs at least one mode")
        if not all(isinstance(m, ModeHash) for m in modes):
            raise ValueError(f"SketchPlan modes must be ModeHash objects, got "
                             f"{[type(m).__name__ for m in modes]}")
        object.__setattr__(self, "__dict__", {
            "modes": modes, "seed": _integer(self.seed, "seed"), "order": len(modes),
            "input_dims": tuple([m.input_size for m in modes]),
            "output_dims": _checked_dims([m.output_size for m in modes]), "_tables": {}})

    def _table(self, key, build, *args):
        """The read-only table under key that sketches derive from this plan.

        Built by build(*args) -> (table, nbytes) on first use, and kept while
        the plan with its tables fits in _KEEP_BYTES. Kept under the plan
        memo's lock, which counts the table when the memo holds this plan.
        """
        entry = self._tables.get(key)
        if entry is None:
            entry = build(*args)
            with _memo._lock:
                if key not in self._tables and _plan_bytes(self) + entry[1] <= _KEEP_BYTES:
                    self._tables[key] = entry
                    if _memo._values.get((self.input_dims, self.output_dims, self.seed)) is self:
                        _memo._grow(entry[1])
        return entry[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SketchPlan):
            return NotImplemented
        return self.seed == other.seed and self.modes == other.modes


def _mode_rng(seed: int, mode: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(mode,))))


def _plan_bytes(plan: SketchPlan) -> int:
    return (sum([24 * m.input_size + _MODE_OVERHEAD for m in plan.modes])
            + sum([nbytes for _, nbytes in plan._tables.values()]))


class _Memo:
    """Values by key, least recently used first, each counted as size(value) bytes.

    Holds at most bound bytes; a value larger than that is not kept. Sharing
    is safe because the values are immutable: build_plan keeps frozen plans
    with read-only tables, pooling its read-only shear and circulant maps.
    """

    def __init__(self, size, bound: int = _KEEP_BYTES) -> None:
        self._size = size
        self._bound = bound
        self._values: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key):
        with self._lock:
            value = self._values.get(key)
            if value is not None:
                self._values.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        size = self._size(value)
        if size > self._bound:
            return
        with self._lock:
            if key in self._values:
                return
            self._values[key] = value
            self._grow(size)

    def _grow(self, size: int) -> None:
        """Count size more bytes and evict down to the bound; the caller holds the lock."""
        self.nbytes += size
        while self.nbytes > self._bound:
            _, old = self._values.popitem(last=False)
            self.nbytes -= self._size(old)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self.nbytes = 0


_memo = _Memo(_plan_bytes, _MEMO_BYTES)


def build_plan(input_dims: Sequence[int], output_dims: Sequence[int], seed: int) -> SketchPlan:
    """Draw uniform hash and sign tables for every mode.

    Entirely determined by (seed, input_dims, output_dims); distinct modes use
    independent streams. Repeated calls with the same key return the same
    (immutable) plan object from a bounded memo instead of redrawing it. The
    memo keeps only keys that passed every check below, so a key of plain
    ints is looked up first, and only a miss runs the checks.
    """
    ins, outs = tuple(input_dims), tuple(output_dims)
    if {type(seed), *map(type, ins), *map(type, outs)} <= _INT:
        plan = _memo.get((ins, outs, seed))
        if plan is not None:
            return plan
    ins = tuple(_integer(n, "input dim") for n in ins)
    outs = tuple(_integer(d, "output dim") for d in outs)
    if len(ins) != len(outs):
        raise ValueError(f"input/output dim count mismatch: {len(ins)} vs {len(outs)}")
    if not ins:
        raise ValueError("need at least one mode")
    if any(n < 1 for n in ins) or any(d < 1 for d in outs):
        raise ValueError(f"all sizes must be >= 1, got {ins} -> {outs}")
    seed = _norm_seed(seed)
    key = (ins, outs, seed)
    plan = _memo.get(key)
    if plan is None:
        _checked_dims(outs)
        modes = []
        for m, (n, d) in enumerate(zip(ins, outs)):
            rng = _mode_rng(seed, m)
            hash_table = rng.integers(0, d, size=n, dtype=np.int64)
            sign_table = rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
            modes.append(ModeHash._adopt(n, d, hash_table, sign_table))
        plan = SketchPlan(tuple(modes), seed)
        _memo.put(key, plan)
    return plan


def compose_sum(px: SketchPlan, py: SketchPlan) -> SketchPlan:
    """Plan for the flattened outer product of two sketched vectors.

    For flat index t = i * n2 + j the composed tables are
    hash(t) = (hx(i) + hy(j)) mod d and sign(t) = sx(i) * sy(j).
    """
    if px.order != 1 or py.order != 1:
        raise ValueError("compose_sum needs two order-1 plans")
    d = px.modes[0].output_size
    if py.modes[0].output_size != d:
        raise ValueError(
            f"output-size mismatch: {d} vs {py.modes[0].output_size}"
        )
    hx, sx = px.modes[0].hash_table, px.modes[0].sign_table
    hy, sy = py.modes[0].hash_table, py.modes[0].sign_table
    hashes = ((hx[:, None] + hy[None, :]) % d).ravel()
    signs = (sx[:, None] * sy[None, :]).ravel()
    mode = ModeHash(hx.size * hy.size, d, hashes, signs)
    return SketchPlan((mode,), derive_seed(px.seed, "compose_sum", py.seed))


def save_plan(p: SketchPlan) -> str:
    """Render a plan as a JSON document; see load_plan for the inverse."""
    doc = {
        "version": PLAN_FORMAT_VERSION,
        "seed": p.seed,
        "modes": [
            {
                "input_size": m.input_size,
                "output_size": m.output_size,
                "hash_table": m.hash_table.tolist(),
                "sign_table": m.sign_table.tolist(),
            }
            for m in p.modes
        ],
    }
    return json.dumps(doc)


def load_plan(text: str) -> SketchPlan:
    """Parse save_plan output back into an identical SketchPlan."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PlanFormatError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise PlanFormatError("top-level value must be an object")
    version = doc.get("version")
    if not _is_integer(version) or version != PLAN_FORMAT_VERSION:
        raise PlanFormatError(f"unsupported plan version {version!r}")
    if not _is_integer(doc.get("seed")):
        raise PlanFormatError("seed must be an integer")
    raw_modes = doc.get("modes")
    if not isinstance(raw_modes, list) or not raw_modes:
        raise PlanFormatError("modes must be a nonempty list")
    modes = []
    for i, raw in enumerate(raw_modes):
        if not isinstance(raw, dict):
            raise PlanFormatError(f"mode {i} must be an object")
        try:
            modes.append(
                ModeHash(
                    raw["input_size"],
                    raw["output_size"],
                    raw["hash_table"],
                    raw["sign_table"],
                )
            )
        except KeyError as e:
            raise PlanFormatError(f"mode {i} is missing field {e.args[0]!r}") from e
        except ValueError as e:
            raise PlanFormatError(f"mode {i}: {e}") from e
    return SketchPlan(tuple(modes), doc["seed"])


# Seed-token conventions shared by the pooling operators and their oracles.
# Deriving plans here (and only here) keeps fast paths and oracles on
# identical tables without sharing any computation.


@functools.lru_cache(maxsize=1024, typed=True)
def _child_seed(seed: int, *tokens) -> int:
    """derive_seed of an int seed, memoised: a held config derives each child seed once."""
    return derive_seed(seed, *tokens)


def paired_vector_plans(nx: int, ny: int, d: int, seed: int) -> tuple[SketchPlan, SketchPlan]:
    """Independent per-input plans for a bilinear pair, from one seed."""
    seed = _integer(seed, "seed")
    return (
        build_plan([nx], [d], _child_seed(seed, "x")),
        build_plan([ny], [d], _child_seed(seed, "y")),
    )


def image_text_plans(
    image_dims: Sequence[int], text_len: int, output_dims: Sequence[int], seed: int
) -> tuple[SketchPlan, SketchPlan]:
    """Order-3 image plan onto (d1, d2, d3) plus text vector plan onto d4."""
    out = list(output_dims)
    if len(out) != 4:
        raise ValueError(f"need four output dims, got {out}")
    seed = _integer(seed, "seed")
    return (
        build_plan(image_dims, out[:3], _child_seed(seed, "img")),
        build_plan([text_len], [out[3]], _child_seed(seed, "txt")),
    )


def repeated_vector_plans(n: int, d: int, count: int, seed: int) -> tuple[SketchPlan, ...]:
    """Independent plans for repeated sketching of one vector (factor r = 1..count)."""
    if _integer(count, "count") < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    seed = _integer(seed, "seed")
    return tuple(build_plan([n], [d], _child_seed(seed, "x", r)) for r in range(1, count + 1))
