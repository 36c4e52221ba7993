"""The benchmark's workloads: seeded inputs, op sequences and the op kinds they run.

An op kind knows how to wrap raw numpy inputs into library tensors
(``prepare``), make the library call (``invoke``), take the result's values
(``extract``), check the output (``check``) and compare the output's
squared norm, the sketched inner product of the input with itself, with the
exact one (``estimate``). A workload turns a seed into an endless,
reproducible sequence of ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from compactpool import cli, fileio, hashplan, pooling, reference
from compactpool.spectral import ORACLE_CAP
from compactpool.tensor import DenseTensor

import checks
from checks import CheckFailure

WORKLOADS = ("stream_vqa", "stream_mid", "sweep_trials", "cli_files")

# A pool holds at most this many float64 cells per input shape (about 24 MB),
# and between 4 and 32 distinct inputs.
POOL_CELLS = 3_000_000


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def features(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal features, as `compactpool gen --dist gauss` writes them.

    Zero-mean inputs keep the sketch error of one op independent of the
    next, even under one held plan, so a median over ops is stable.
    """
    return rng.standard_normal(tuple(shape))


@dataclass(frozen=True, eq=False)
class Op:
    kind: object
    inputs: tuple  # raw float64 arrays, in the order of kind.input_shapes
    key: tuple  # pool index of each input; names the inputs for memoised checks


_SPECTRAL_TIME = {"spectral.ndfft", "spectral.indfft", "spectral.checked_real"}


class Mcb:
    """pooling.mcb on two vectors of length n into d buckets."""

    wraps = True

    def __init__(self, name, n, d, variant="time", pad=False, seed=0, weight=1):
        self.name, self.weight = name, weight
        self.cfg = pooling.PoolingConfig((d,), variant, pad, seed)
        self.d, self.seed = d, seed
        self.freq = variant == "frequency"
        self.input_shapes = ((n,), (n,))
        self.cells = (2 * n if pad else n) ** 2
        self.calls = {"pooling.mcb", "hashplan.build_plan", "sketch.count_sketch", "spectral.ndfft"}
        if not self.freq:
            self.calls |= _SPECTRAL_TIME
        self.cli_args = ["--mode", "mcb", "--dims", str(d),
                         "--variant", "freq" if self.freq else "time"] + (["--pad"] if pad else [])

    def _padded(self, op):
        x, y = op.inputs
        if not self.cfg.pad_with_ones:
            return x, y
        return np.concatenate([x, np.ones(y.size)]), np.concatenate([y, np.ones(x.size)])

    def prepare(self, op):
        x, y = op.inputs
        return DenseTensor.vector(x), DenseTensor.vector(y)

    def invoke(self, args):
        return pooling.mcb(*args, self.cfg)

    def extract(self, res):
        return res.data.values

    def check(self, op, res, values, pin):
        checks.require_output(values, self.d, self.freq, self.name)
        x, y = self._padded(op)
        mx, my = (p.modes[0] for p in res.plans)
        if self.cells <= ORACLE_CAP:
            want = checks.literal_pair(x, y, mx, my, self.d)
            checks.require_close(values, np.fft.fft(want) if self.freq else want, self.name)
            if pin:
                a, b = self.prepare(op)
                oracle = reference.mcb_oracle(a, b, self.d, self.seed, pad=self.cfg.pad_with_ones)
                checks.require_close(want, oracle.values, f"{self.name} literal vs reference.mcb_oracle")
        else:
            want, scale = checks.pair_invariant(x, y, mx, my)
            checks.require_invariant(values[0] if self.freq else values.sum(), want, scale, self.name)
            if self.freq:
                checks.require_hermitian(values, scale, self.name)
        return values

    def estimate(self, op, values):
        x, y = self._padded(op)
        est = np.vdot(values, values).real / self.d if self.freq else float(np.dot(values, values))
        return est, float(np.dot(x, x)) * float(np.dot(y, y))


class Mct:
    """Time-variant pooling.mct of an order-3 image with a text vector onto (d,) * 4."""

    wraps = True

    def __init__(self, name, img_shape, txt_len, d, seed=0, weight=1):
        self.name, self.weight = name, weight
        self.cfg = pooling.PoolingConfig((d,) * 4, "time", False, seed)
        self.d, self.seed = d, seed
        self.input_shapes = (tuple(img_shape), (txt_len,))
        self.cells = math.prod(img_shape) * txt_len
        self.calls = {"pooling.mct", "hashplan.build_plan", "sketch.md_sketch",
                      "sketch.count_sketch"} | _SPECTRAL_TIME
        self.cli_args = ["--mode", "mct", "--dims", ",".join([str(d)] * 4), "--variant", "time"]

    def prepare(self, op):
        img, txt = op.inputs
        return DenseTensor.from_array(img), DenseTensor.vector(txt)

    def invoke(self, args):
        return pooling.mct(*args, self.cfg)

    def extract(self, res):
        return res.data.values

    def check(self, op, res, values, pin):
        return self.check_one(*op.inputs, res, values, pin)

    def check_one(self, img, txt, res, values, pin):
        checks.require_output(values, self.d**3, False, self.name)
        p_img, p_txt = res.plans
        if self.cells <= ORACLE_CAP:
            want = checks.literal_image_text(img, txt, p_img.modes, p_txt.modes[0], self.d)
            checks.require_close(values, want, self.name)
            if pin:
                oracle = reference.mct_oracle(DenseTensor.from_array(img), DenseTensor.vector(txt),
                                              self.d, self.seed)
                checks.require_close(want, oracle.values, f"{self.name} literal vs reference.mct_oracle")
        else:
            want, scale = checks.image_text_invariant(img, txt, p_img.modes, p_txt.modes[0])
            checks.require_invariant(values.sum(), want, scale, self.name)
        return values

    def estimate(self, op, values):
        img, txt = op.inputs
        return float(np.dot(values, values)), float(np.vdot(img, img)) * float(np.dot(txt, txt))


class LocalMct:
    """pooling.local_mct: every block of the image pooled against one text vector."""

    wraps = True

    def __init__(self, name, img_shape, txt_len, block_dims, d, seed=0, weight=1):
        self.name, self.weight = name, weight
        self.block_dims = tuple(block_dims)
        self.grid = tuple(full // b for full, b in zip(img_shape, block_dims))
        self.block = Mct(name, block_dims, txt_len, d, seed)
        self.seed = seed
        self.input_shapes = (tuple(img_shape), (txt_len,))
        self.calls = self.block.calls | {"pooling.local_mct"}

    def prepare(self, op):
        return self.block.prepare(op)

    def invoke(self, args):
        return pooling.local_mct(*args, self.block_dims, self.block.cfg)

    def extract(self, res):
        return [feature.data.values for _, feature in res]

    def check(self, op, res, values, pin):
        img, txt = op.inputs
        coords = [g for g, _ in res]
        if coords != list(np.ndindex(*self.grid)):
            raise CheckFailure(f"{self.name}: block grid {coords[:3]}... is not {self.grid} row-major")
        for (g, feature), block_values in zip(res, values):
            sl = tuple(slice(gi * b, (gi + 1) * b) for gi, b in zip(g, self.block_dims))
            self.block.check_one(img[sl], txt, feature, block_values, pin and g == (0, 0, 0))
        return np.concatenate(values)

    def estimate(self, op, values):
        return self.block.estimate(op, values)


class Poly:
    """Degree-2 pooling.polynomial_sketch of a length-n vector into d buckets."""

    wraps = True
    degree = 2

    def __init__(self, name, n, d, seed=0, weight=1):
        self.name, self.weight = name, weight
        self.n, self.d, self.seed = n, d, seed
        self.input_shapes = ((n,),)
        self.cells = n**self.degree
        self.calls = {"pooling.polynomial_sketch", "hashplan.build_plan",
                      "sketch.count_sketch"} | _SPECTRAL_TIME
        self.cli_args = ["--mode", "poly", "--dims", str(d), "--degree", str(self.degree)]

    def prepare(self, op):
        return (DenseTensor.vector(op.inputs[0]),)

    def invoke(self, args):
        return pooling.polynomial_sketch(args[0], self.degree, self.d, self.seed)

    def extract(self, res):
        return res.values

    def check(self, op, res, values, pin):
        checks.require_output(values, self.d, False, self.name)
        (x,) = op.inputs
        plans = hashplan.repeated_vector_plans(self.n, self.d, self.degree, self.seed)
        m1, m2 = (p.modes[0] for p in plans)
        if self.cells <= ORACLE_CAP:
            want = checks.literal_pair(x, x, m1, m2, self.d)
            checks.require_close(values, want, self.name)
            if pin:
                (a,) = self.prepare(op)
                oracle = reference.mcb_oracle(a, a, self.d, self.seed, plans=plans)
                checks.require_close(want, oracle.values, f"{self.name} literal vs reference.mcb_oracle")
        else:
            want, scale = checks.product_invariant(x, (m1, m2))
            checks.require_invariant(values.sum(), want, scale, self.name)
        return values

    def estimate(self, op, values):
        return float(np.dot(values, values)), float(np.dot(op.inputs[0], op.inputs[0])) ** self.degree


def _digest(values: np.ndarray) -> bytes:
    return hashlib.sha256(repr((values.dtype.str, values.shape)).encode() + values.tobytes()).digest()


class Cli:
    """`compactpool pool` run in-process on TSK1 files holding an inner kind's inputs."""

    wraps = False

    def __init__(self, inner, files, out: Path, weight=1):
        self.inner, self.files, self.out = inner, files, str(out)
        self.name, self.weight, self.seed = "cli_" + inner.name, weight, inner.seed
        self.input_shapes = inner.input_shapes
        self.calls = inner.calls | {"cli.main", "fileio.read_tensor", "fileio.write_tensor"}
        self._verified: dict[tuple, bytes] = {}  # input key -> digest of the checked library output

    def prepare(self, op):
        paths = [self.files[shape][i] for shape, i in zip(self.input_shapes, op.key)]
        argv = ["pool", *self.inner.cli_args, "--a", paths[0]]
        if len(paths) > 1:
            argv += ["--b", paths[1]]
        return argv + ["--seed", str(self.inner.seed), "--out", self.out]

    def invoke(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def extract(self, rc):
        return rc

    def check(self, op, rc, _, pin):
        if rc != 0:
            raise CheckFailure(f"{self.name}: exit code {rc}")
        values = fileio.read_tensor(self.out).values
        want = self._verified.get(op.key)
        if want is None:
            res = self.inner.invoke(self.inner.prepare(op))
            want = _digest(self.inner.check(op, res, self.inner.extract(res), pin))
            self._verified[op.key] = want
        if _digest(values) != want:
            raise CheckFailure(f"{self.name}: file output differs from the library result")
        return values

    def estimate(self, op, values):
        return self.inner.estimate(op, values)


class Workload:
    """Base: a named, seeded op sequence over a fixed set of op kinds."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed

    @property
    def expected_calls(self) -> set[str]:
        """Traced functions (and the benchmark's own tensor wrapping) the ops reach."""
        out = set()
        for kind in self.kinds:
            out |= kind.calls | ({"tensor.wrap"} if kind.wraps else set())
        return out

    def warm_up(self) -> None:
        """Run one op of every kind, so first-call costs land in set-up."""
        for op in self.warm_up_ops():
            op.kind.extract(op.kind.invoke(op.kind.prepare(op)))

    def close(self) -> None:
        pass


class Stream(Workload):
    """A fixed config seed for the whole run; inputs drawn from seeded pools.

    The op order comes in blocks that hold each kind exactly ``weight``
    times, shuffled by the seed, so the op mix is the same in every run.
    """

    def __init__(self, name, seed, make_kinds):
        super().__init__(name, seed)
        cfg_seed = int(np.random.SeedSequence([seed, 3]).generate_state(1, np.uint64)[0])
        self.kinds = make_kinds(cfg_seed)
        shapes = sorted({s for k in self.kinds for s in k.input_shapes})
        rng = _rng(seed, 0)
        self.pools = {
            s: features(rng, (min(32, max(4, POOL_CELLS // math.prod(s))),) + s) for s in shapes
        }

    def _draw(self, kind, rng) -> Op:
        key = tuple(int(rng.integers(len(self.pools[s]))) for s in kind.input_shapes)
        return Op(kind, tuple(self.pools[s][i] for s, i in zip(kind.input_shapes, key)), key)

    def ops(self) -> Iterator[Op]:
        rng = _rng(self.seed, 1)
        block = [k for k in self.kinds for _ in range(k.weight)]
        while True:
            for i in rng.permutation(len(block)):
                yield self._draw(block[i], rng)

    def warm_up_ops(self):
        rng = _rng(self.seed, 2)
        return [self._draw(k, rng) for k in self.kinds]


class CliFiles(Stream):
    """A Stream whose pools are also written as TSK1 files in a private temp dir."""

    def __init__(self, name, seed, make_kinds, workdir: Path):
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=workdir))
        files: dict[tuple, list[str]] = {}  # input shape -> one file per pool entry
        try:
            super().__init__(name, seed, lambda s: [
                Cli(k, files, self.dir / f"out_{k.name}.tsk", k.weight) for k in make_kinds(s)
            ])
            for shape, pool in self.pools.items():
                files[shape] = [str(self.dir / f"in_{'x'.join(map(str, shape))}_{i}.tsk")
                                for i in range(len(pool))]
                for arr, path in zip(pool, files[shape]):
                    fileio.write_tensor(DenseTensor.from_array(arr), path)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Sweep(Workload):
    """Monte-Carlo accuracy sweep: every trial draws fresh plans and inputs.

    Trial r uses plan seed derive_seed(seed, "trial", r), as `compactpool
    bench` does, and sketches two input pairs with that trial's plans, so
    no plan key repeats across trials.
    """

    N, DIMS = 128, (16, 64, 256, 1024)

    def __init__(self, name, seed):
        super().__init__(name, seed)
        self.kinds = self._trial_kinds(0)

    def _trial_kinds(self, tseed):
        return ([Mcb(f"mcb_d{d}", self.N, d, seed=tseed) for d in self.DIMS]
                + [Poly("poly", 8, 64, seed=tseed), Mct("mct", (4, 4, 4), 8, 4, seed=tseed)])

    def _trial(self, tseed, rng) -> list[Op]:
        kinds = self._trial_kinds(tseed)
        mcbs, others = kinds[:len(self.DIMS)], kinds[len(self.DIMS):]
        # The mcb kinds share their two input pairs across the d sweep, as in
        # `compactpool bench`.
        pairs = [tuple(features(rng, (self.N,)) for _ in range(2)) for _ in range(2)]
        ops = [Op(kind, pairs[p], (p,)) for kind in mcbs for p in (0, 1)]
        for kind in others:
            ops += [Op(kind, tuple(features(rng, s) for s in kind.input_shapes), (p,)) for p in (0, 1)]
        return ops

    def ops(self) -> Iterator[Op]:
        r = 0
        while True:
            yield from self._trial(hashplan.derive_seed(self.seed, "trial", r), _rng(self.seed, 1, r))
            r += 1

    def warm_up_ops(self):
        return self._trial(hashplan.derive_seed(self.seed, "warm-up"), _rng(self.seed, 2))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The named workload for one seed; ``workdir`` hosts cli_files' temp dir."""
    if name == "stream_vqa":
        return Stream(name, seed, lambda s: [
            Mcb("mcb_t", 2048, 16000, "time", seed=s, weight=4),
            Mcb("mcb_f", 2048, 16000, "frequency", seed=s, weight=4),
            Mct("mct_16", (2048, 14, 14), 2048, 16, seed=s, weight=2),
            Mct("mct_32", (2048, 14, 14), 2048, 32, seed=s, weight=1),
        ])
    if name == "stream_mid":
        return Stream(name, seed, lambda s: [
            Mcb("mcb_t", 4096, 1024, "time", seed=s, weight=100),
            Mcb("mcb_f", 4096, 1024, "frequency", seed=s, weight=100),
            Mcb("mcb_pad", 4096, 1024, "time", pad=True, seed=s, weight=100),
            Poly("poly", 64, 256, seed=s, weight=100),
            Mct("mct", (8, 8, 8), 16, 8, seed=s, weight=100),
            LocalMct("local_mct", (32, 16, 16), 64, (8, 4, 4), 8, seed=s, weight=1),
        ])
    if name == "sweep_trials":
        return Sweep(name, seed)
    if name == "cli_files":
        return CliFiles(name, seed, lambda s: [
            Mct("mct", (2048, 14, 14), 2048, 16, seed=s, weight=1),
            Mcb("mcb_f", 4096, 1024, "frequency", seed=s, weight=20),
            Poly("poly", 4096, 1024, seed=s, weight=20),
        ], workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
