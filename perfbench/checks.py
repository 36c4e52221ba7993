"""Output checks the benchmark applies to every op.

Two kinds of check, chosen by the size of the materialized product an op
sketches:

- at most ``spectral.ORACLE_CAP`` cells: the exact expected output, the
  literal scatter of the outer product under the op's own plan tables,
  compared at ``TOL``. The first op of each kind in a run is also compared
  against the ``reference`` oracle, which derives its plans from the seed
  on its own, so the literal checker stays pinned to the spec;
- larger products: an exact invariant of the sketch. The time-domain output
  sums to the product of the signed input sums. A frequency-domain output's
  DC bin equals that same product, and the output is Hermitian, being the
  spectrum of a real sketch.

Every check also rejects non-finite values and a wrong shape or dtype.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9


class CheckFailure(Exception):
    """An op's output disagreed with its check."""


def require_output(values: np.ndarray, size: int, complex_: bool, what: str) -> None:
    if values.size != size:
        raise CheckFailure(f"{what}: {values.size} values, expected {size}")
    if np.iscomplexobj(values) != complex_:
        raise CheckFailure(f"{what}: dtype {values.dtype}, expected {'complex' if complex_ else 'real'}")
    if not np.all(np.isfinite(values)):
        raise CheckFailure(f"{what}: {int(np.size(values) - np.isfinite(values).sum())} non-finite values")


def require_close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Exact check: every entry within TOL of the expected output."""
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= TOL:
        raise CheckFailure(f"{what}: max abs error {err:.3e} over {TOL}")


def require_invariant(got: complex, want: float, scale: float, what: str) -> None:
    """Invariant check: a sum (or DC bin) within TOL of the scale of its terms."""
    err = abs(got - want)
    if not err <= TOL * max(1.0, scale):
        raise CheckFailure(f"{what}: sum {got!r} against {want!r} (error {err:.3e}, scale {scale:.3e})")


def require_hermitian(values: np.ndarray, scale: float, what: str) -> None:
    """Spectrum of a real signal: Z[k] = conj(Z[-k mod d]) within TOL of the scale."""
    err = float(np.max(np.abs(values - np.conj(np.roll(values[::-1], 1)))))
    if not err <= TOL * max(1.0, scale):
        raise CheckFailure(f"{what}: spectrum is not Hermitian (error {err:.3e}, scale {scale:.3e})")


def signed(values: np.ndarray, modes) -> np.ndarray:
    """Multiply each cell of an order-N array by the product of its mode signs."""
    out = np.asarray(values, dtype=np.float64)
    for m, mode in enumerate(modes):
        shape = [1] * out.ndim
        shape[m] = mode.input_size
        out = out * mode.sign_table.reshape(shape)
    return out


def literal_pair(x: np.ndarray, y: np.ndarray, mx, my, d: int) -> np.ndarray:
    """Sketch of the flattened x (x) y: cell (i, j) lands at (hx(i) + hy(j)) mod d."""
    target = (mx.hash_table[:, None] + my.hash_table[None, :]) % d
    weight = signed(x, [mx])[:, None] * signed(y, [my])[None, :]
    return np.bincount(target.ravel(), weights=weight.ravel(), minlength=d)


def literal_image_text(img: np.ndarray, txt: np.ndarray, img_modes, txt_mode, d: int) -> np.ndarray:
    """Order-4 sketch of img (x) txt onto (d, d, d), flattened row-major.

    Cell (i, j, k, l) lands at ((h1(i)+h4(l)) mod d, (h2(j)+h4(l)) mod d,
    (h3(k)+h4(l)) mod d) with sign s1 s2 s3 s4.
    """
    h4 = txt_mode.hash_table
    flat = np.zeros(img.shape + h4.shape, dtype=np.int64)
    for m, mode in enumerate(img_modes):
        shape = [1, 1, 1, 1]
        shape[m] = mode.input_size
        flat = flat * d + (mode.hash_table.reshape(shape) + h4.reshape(1, 1, 1, -1)) % d
    weight = signed(img, img_modes)[..., None] * signed(txt, [txt_mode])
    return np.bincount(flat.ravel(), weights=weight.ravel(), minlength=d**3)


def pair_invariant(x: np.ndarray, y: np.ndarray, mx, my) -> tuple[float, float]:
    """(Σ sx x)(Σ sy y) and the scale (Σ|x|)(Σ|y|) it is compared at."""
    want = float(signed(x, [mx]).sum()) * float(signed(y, [my]).sum())
    return want, float(np.abs(x).sum()) * float(np.abs(y).sum())


def image_text_invariant(img: np.ndarray, txt: np.ndarray, img_modes, txt_mode) -> tuple[float, float]:
    """(Σ s1 s2 s3 img)(Σ s4 txt) and its scale."""
    want = float(signed(img, img_modes).sum()) * float(signed(txt, [txt_mode]).sum())
    return want, float(np.abs(img).sum()) * float(np.abs(txt).sum())


def product_invariant(x: np.ndarray, modes) -> tuple[float, float]:
    """Π_r (Σ s_r x) for a polynomial sketch and its scale (Σ|x|)^p."""
    want = math.prod(float(signed(x, [m]).sum()) for m in modes)
    return want, float(np.abs(x).sum()) ** len(modes)


def rel_err(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / max(abs(exact), np.finfo(float).tiny)
