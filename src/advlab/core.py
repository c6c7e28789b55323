"""Array checks, stable row softmax/logsumexp, and seeded randomness.

The rules the other modules share live here, each once: check_labels, check_count,
check_real, check_shape, check_unique, unpack_at and body_at (binary file layouts),
exp_logsumexp_rows (the only row logsumexp), row_blocks, and the stack convention below.

All numeric arrays are float64 and row-major (C order).  Random streams
use numpy's PCG64 generator: the same seed replays the same draw
sequence bit-identically on every platform.

Stacks: the training path also takes arrays with a leading stack axis, one
slice per seed of a sweep (S x n x m inputs and logits, S x n labels, S x
out x in weights), so one numpy call serves S trajectories.  A matrix is a
stack of one read without that axis: the same code runs on both, and every
row reduction runs along the last axis, so each slice gets the bits of its
own 2-D call.  stack_of builds a stack from per-seed parts, seeds_of splits
one, per_seed maps a per-seed scalar rule over it, and draw_per_seed draws
from one generator per seed.
"""

from __future__ import annotations

import functools
import numbers
import struct

import numpy as np

_BLOCK = 2**17  # float64 entries of one seed's slice of a row block: 1 MiB


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


def as_stack(a) -> np.ndarray:
    """Coerce a matrix (n x m) or a stack of matrices (S x n x m) to float64 C order."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    return m


def stack_of(parts):
    """The stack of per-seed parts: a stack of one is its one part, arrays stack
    along a new leading axis and anything else (generators) stays a list."""
    if len(parts) == 1:
        return parts[0]
    return np.stack(parts) if isinstance(parts[0], np.ndarray) else list(parts)


def seeds_of(a: np.ndarray, ndim: int = 2) -> list:
    """The per-seed parts of a stack whose parts have `ndim` axes; [a] if a has no stack axis."""
    return list(a) if a.ndim > ndim else [a]


def per_seed(rule, *arrays):
    """rule(*rows) on (n,) arrays, or on each seed's rows of (S, n) arrays, giving
    an array with one value per seed."""
    if arrays[0].ndim == 1:
        return rule(*arrays)
    return np.array([rule(*rows) for rows in zip(*arrays)])


class NonFiniteError(FloatingPointError):
    """An array holds inf or nan; `part` is the index of its first such per-seed part."""


def check_finite(m, what: str = "result", ndim: int = 2):
    """m, unless it holds inf or nan; the error's part indexes seeds_of(m, ndim)."""
    if not np.all(np.isfinite(m)):
        err = NonFiniteError(f"{what} contains non-finite values")
        err.part = next(i for i, a in enumerate(seeds_of(np.asarray(m), ndim))
                        if not np.all(np.isfinite(a)))
        raise err
    return m


def check_count(value, name: str, least: int = 1) -> None:
    """Raise ParameterError unless value is an int >= least (numpy ints pass, bool fails)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


@functools.cache
def _interval(interval: str) -> tuple:
    """(lo, hi, lo excluded, hi excluded) of an interval written like "[0, 1)"."""
    lo, hi = map(float, interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def check_real(value, name: str, interval: str) -> None:
    """ParameterError unless value is a finite real, not a bool, in `interval`, e.g. "[0, 1)"."""
    lo, hi, lo_open, hi_open = _interval(interval)
    # a float (np.float64 included) or a plain int skips the bool test and numbers.Real's
    # ABC lookup
    if ((type(value) is not int and not isinstance(value, float)
         and (isinstance(value, bool) or not isinstance(value, numbers.Real)))
            or not (abs(value) < np.inf and lo <= value <= hi)
            or (lo_open and value == lo) or (hi_open and value == hi)):
        raise ParameterError(f"{name} must be a finite real number in {interval}, got {value!r}")


def check_shape(a, shape: tuple, what: str):
    """a, unless np.shape(a) is not the tuple `shape` (ShapeError naming `what`)."""
    if np.shape(a) != shape:
        raise ShapeError(f"{what} must have shape {shape}, got {np.shape(a)}")
    return a


def check_unique(values, what: str) -> None:
    """ParameterError naming the first of `values` that repeats an earlier one."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ParameterError(f"{what} {value!r} is repeated")


def check_labels(labels, *shape) -> np.ndarray:
    """labels as int64 ids in {0..k-1} for the rows of a (..., n, k) array: a vector of
    n >= 1 entries for a matrix (shape n, k), one such row per seed for a stack (S, n, k).
    Integer arrays pass as they are, float arrays if every entry is a whole number.  Else
    ShapeError, or ParameterError (booleans and non-integral values included)."""
    *rows, k = shape
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":  # the entries that are not class ids
        bad = (labels[~np.isfinite(labels) | (labels != np.trunc(labels))]
               if labels.dtype.kind == "f" else labels.ravel())
        if bad.size:
            raise ParameterError(f"labels must be integer class ids, got {bad[0].item()!r}")
    labels = check_shape(labels.astype(np.int64, copy=False), tuple(rows), "labels")
    if labels.size == 0 or labels.min() < 0 or labels.max() >= k:
        raise ParameterError(f"need at least one label, each in {{0..{k - 1}}}")
    return labels


class FormatError(ValueError):
    """A file does not conform to its declared binary format."""


def _layout_error(raw: bytes, offset: int, size: int, part: str) -> FormatError:
    return FormatError(f"{part}: expected {size} bytes at byte {offset}, found {len(raw) - offset}")


def unpack_at(raw: bytes, offset: int, fmt: str, part: str) -> tuple:
    """struct.unpack_from(fmt, raw, offset); FormatError naming `part` if raw ends first."""
    size = struct.calcsize(fmt)
    if len(raw) < offset + size:
        raise _layout_error(raw, offset, size, part)
    return struct.unpack_from(fmt, raw, offset)


def body_at(raw: bytes, offset: int, dtype, count: int, part: str) -> np.ndarray:
    """The `count` entries of `dtype` at `offset`, a read-only view of raw that callers copy
    as they need.  With unpack_at for headers, the one layout rule of the binary files (IDX,
    logit dump, checkpoint): each part is where its header says and the body ends the file,
    else FormatError naming the part and its expected and found byte counts."""
    dtype = np.dtype(dtype)
    if len(raw) != offset + dtype.itemsize * count:
        raise _layout_error(raw, offset, dtype.itemsize * count, part)
    return np.frombuffer(raw, dtype, count, offset)


def label_index(labels: np.ndarray) -> tuple:
    """Index of every row's label entry in a (..., n, k) array viewed as its (-1, k) rows."""
    return np.arange(labels.size), labels.reshape(-1)


def label_entries(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """a[..., i, labels[..., i]]: the label entry of every row of a (..., n, k) array."""
    return a.reshape(-1, a.shape[-1])[label_index(labels)].reshape(labels.shape)


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax of a matrix or a stack, with per-row max subtraction for stability."""
    m = as_stack(m)
    z = m - m.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def exp_logsumexp_rows(m):
    """(exp(m - row max), (..., n, 1) row logsumexp) of a matrix or a stack, >= 1 column.

    The first over its row sums is softmax_rows(m) bit for bit.  The second
    is scipy.special.logsumexp(m, axis=1, keepdims=True) bit for bit, by
    scipy 1.17's algorithm: with row maximum a and its tie count c,
    s = sum(exp(m_j - a) for m_j < a) / c and the result is
    log1p(s) + log(c) + a.  Rows where that is not finite (a +-inf or nan
    entry) fall back to log(sum(exp(m))), so an all -inf row gives -inf.
    """
    m = as_stack(m)
    top = m.max(axis=-1, keepdims=True)
    is_top = m == top
    count = is_top.sum(axis=-1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(m - top)
        s = np.where(is_top, 0.0, e).sum(axis=-1, keepdims=True)
        lse = np.log1p(s / count) + np.log(count) + top
        bad = ~np.isfinite(lse[..., 0])
        if bad.any():
            lse[bad] = np.log(np.exp(m[bad]).sum(axis=-1, keepdims=True))
    return e, lse


def row_blocks(a) -> list:
    """Row slices (axis -2) of a's blocks: as few near-equal runs of rows as hold at
    most _BLOCK entries of one seed's slice each, or single rows where a row holds more.

    The one row-block rule, of attacks.pgd and trainer.evaluate.  It counts entries per
    seed, so a stack is cut as each seed's batch is, and a batch of at most 2^17 entries
    per seed (a 128 x 784 training batch, a sweep stack) is one block.  A block's gemm
    rows equal the whole batch's only outside OpenBLAS's small-matrix path (0.3.31:
    M*N <= 1200, M rows, N outputs).  So at 10 classes the blocks of 256 x 784 (128
    rows) and 2000 x 784 (166-167) keep the whole batch's bits, but at 4 or 2 classes a
    784-d split's last-layer gemm takes that path (4,000 and about 3,980 of a 4000 x 784
    split's logit rows differ); other multi-block bits are fixed by the batch shape."""
    n = a.shape[-2]
    count = -(-n // max(1, _BLOCK // a.shape[-1]))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def draw_per_seed(rng, draw, seeds: int | None = None):
    """draw(rng) of one generator, or draw(g) of each generator g of a list, one per seed,
    stacked in seed order; given `seeds`, a ParameterError unless rng is a list of that many."""
    one = isinstance(rng, np.random.Generator)
    if seeds is not None and (one or len(rng) != seeds):
        raise ParameterError(f"a stack of {seeds} needs one generator per seed")
    return draw(rng) if one else np.stack([draw(r) for r in rng])


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 stream.  Single-owner: do not draw concurrently."""
    return np.random.Generator(np.random.PCG64(seed))

