"""Array checks, stable row softmax/logsumexp, and seeded randomness.

exp_logsumexp_rows is the one row logsumexp: a single exp pass gives both
the softmax numerator and scipy's split-max logsumexp of a logit matrix.

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


def check_count(value, name: str) -> None:
    """Raise ParameterError unless value is an int >= 1 (numpy ints pass, bool fails)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    m = as_matrix(m)
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def exp_logsumexp_rows(m):
    """(exp(m - row max), (n, 1) row logsumexp) of a matrix with >= 1 column.

    The first over its row sums is softmax_rows(m) bit for bit.  The second
    is scipy.special.logsumexp(m, axis=1, keepdims=True) bit for bit, by
    scipy 1.17's algorithm: with row maximum a and its tie count c,
    s = sum(exp(m_j - a) for m_j < a) / c and the result is
    log1p(s) + log(c) + a.  Rows where that is not finite (a +-inf or nan
    entry) fall back to log(sum(exp(m))), so an all -inf row gives -inf.
    """
    m = as_matrix(m)
    top = m.max(axis=1, keepdims=True)
    is_top = m == top
    count = is_top.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(m - top)
        s = np.where(is_top, 0.0, e).sum(axis=1, keepdims=True)
        lse = np.log1p(s / count) + np.log(count) + top
        bad = ~np.isfinite(lse[:, 0])
        if bad.any():
            lse[bad] = np.log(np.exp(m[bad]).sum(axis=1, keepdims=True))
    return e, lse


def logsumexp_rows(m, keepdims: bool = False) -> np.ndarray:
    """Row-wise log(sum(exp(m))), as scipy's; see exp_logsumexp_rows."""
    lse = exp_logsumexp_rows(m)[1]
    return lse if keepdims else lse[:, 0]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream.  Single-owner: do not draw concurrently."""
    return np.random.Generator(np.random.PCG64(seed))

