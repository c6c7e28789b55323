"""Dense linear algebra primitives and seeded randomness.

All numeric arrays are float64 and row-major (C order).  Random streams
use numpy's PCG64 generator: the same seed replays the same draw
sequence bit-identically on every platform.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class ParameterError(ValueError):
    """A scalar argument is outside its allowed range."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def check_finite(m: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"{what} contains non-finite values")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return check_finite(a @ b, "matmul")


def relu(m) -> np.ndarray:
    return np.maximum(as_matrix(m), 0.0)


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    m = as_matrix(m)
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logsumexp_rows(m, keepdims: bool = False) -> np.ndarray:
    """Row-wise log(sum(exp(m))) of a matrix with at least one column,
    bit-identical to scipy.special.logsumexp(m, axis=1).

    Same algorithm as scipy 1.17: with row maximum a and its tie count c,
    the maxima are split out of the sum, s = sum(exp(m_j - a) for m_j < a) / c
    and the result is log1p(s) + log(c) + a.  Rows where that is not finite
    (a +-inf or nan entry) fall back to the direct log(sum(exp(m))), so an
    all -inf row gives -inf.
    """
    m = as_matrix(m)
    top = m.max(axis=1, keepdims=True)
    is_top = m == top
    count = is_top.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_top, -np.inf, m) - top).sum(axis=1, keepdims=True)
        out = np.log1p(s / count) + np.log(count) + top
        bad = ~np.isfinite(out[:, 0])
        if bad.any():
            out[bad] = np.log(np.exp(m[bad]).sum(axis=1, keepdims=True))
    return out if keepdims else out[:, 0]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream.  Single-owner: do not draw concurrently."""
    return np.random.Generator(np.random.PCG64(seed))


def rademacher_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of n values in {-1, +1}, each sign equally likely."""
    if n < 1:
        raise ParameterError("rademacher_draw requires n >= 1")
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
