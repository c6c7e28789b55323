"""Fisher-Rao norm machinery and Rademacher-complexity estimates.

For an L-layer bias-free ReLU MLP under cross-entropy, the squared
Fisher-Rao norm equals L^2 times the second moment of the per-sample
integrand  u = <softmax(f), f> - f_y,  so the FR-ball radius is
sqrt(mean(u^2)).  The empirical radius estimators replace u by the
per-sample maximal logit gap  max_{k != y} |f_k - f_y|  averaged over
all / correctly classified / misclassified samples; the relative gap
Gamma = (gamma_C - gamma_M) / gamma_M drives the closed-form complexity
bounds below.

All radius estimators are meant to be fed training-split logits.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, as_matrix, check_count, check_labels, label_index, softmax_rows
from .data import LabeledBatch
from .mlp import forward
from .objectives import correct_mask


class UndefinedMetricError(ValueError):
    """A metric's defining denominator is absent or zero."""


@dataclass(frozen=True)
class RadiusEstimates:
    gamma_hat: float
    gamma_hat_c: float | None
    gamma_hat_m: float | None
    n: int
    n_correct: int
    n_wrong: int


@dataclass(frozen=True)
class BoundInputs:
    n: int
    n_correct: int
    n_wrong: int
    num_classes: int
    gamma_hat_m: float
    gamma_ce: float

    def __post_init__(self):
        if self.n_correct < 1 or self.n_wrong < 1:
            raise ParameterError("both n_correct and n_wrong must be >= 1")
        if self.n != self.n_correct + self.n_wrong:
            raise ParameterError("n must equal n_correct + n_wrong")
        if self.num_classes < 2:
            raise ParameterError("num_classes must be >= 2")


def _finite_rows(m: np.ndarray, what: str) -> np.ndarray:
    """m, or ParameterError naming the first row of m that holds a non-finite entry."""
    finite = np.isfinite(m)
    if not finite.all():
        raise ParameterError(f"{what} row {finite.all(axis=1).argmin()} (counting from 0) "
                             "is not finite")
    return m


def fr_integrand(logits, labels) -> np.ndarray:
    """Per-sample <softmax(f), f> - f_y; ParameterError for a non-finite logit, naming its row."""
    logits = _finite_rows(as_matrix(logits), "logits")
    labels = check_labels(labels, *logits.shape)
    probs = softmax_rows(logits)
    return (probs * logits).sum(axis=1) - logits[label_index(labels)]


def fr_norm_ce(weights: list, batch: LabeledBatch):
    """Fisher-Rao norm of the weights under CE and the implied ball radius.

    Returns (norm, radius) with norm = L * sqrt(mean(u^2)) and
    radius = mean(|u|).  The radius uses the first absolute moment, not
    norm/L: per sample |u| <= max_{k != y} |f_k - f_y|, so this radius is
    bounded by gamma_hat, whereas the second-moment version is not.
    """
    u = fr_integrand(forward(weights, batch.inputs).logits, batch.labels)
    L = len(weights)
    norm = L * float(np.sqrt(np.mean(u**2)))
    radius = float(np.mean(np.abs(u)))
    return norm, radius


def max_logit_gap(logits, labels) -> np.ndarray:
    """Per-sample max_{k != y} |f_k - f_y|; ParameterError for K < 2, where it is empty,
    or for a non-finite logit, naming its row."""
    logits = as_matrix(logits)
    if logits.shape[1] < 2:
        raise ParameterError(f"the logit gap needs K >= 2 classes, got K={logits.shape[1]}")
    _finite_rows(logits, "logits")
    labels = check_labels(labels, *logits.shape)
    gaps = np.abs(logits - logits[label_index(labels)][:, None])
    gaps[label_index(labels)] = -np.inf
    return gaps.max(axis=1)


def radius_estimates_from_logits(logits, labels) -> RadiusEstimates:
    gaps = max_logit_gap(logits, labels)
    mask = correct_mask(logits, labels)
    n = len(gaps)
    n_correct = int(mask.sum())
    n_wrong = n - n_correct
    return RadiusEstimates(
        gamma_hat=float(gaps.mean()),
        gamma_hat_c=float(gaps[mask].mean()) if n_correct else None,
        gamma_hat_m=float(gaps[~mask].mean()) if n_wrong else None,
        n=n,
        n_correct=n_correct,
        n_wrong=n_wrong,
    )


def radius_estimates(weights: list, batch: LabeledBatch) -> RadiusEstimates:
    return radius_estimates_from_logits(forward(weights, batch.inputs).logits, batch.labels)


def gamma_ce(est: RadiusEstimates) -> float:
    """Relative radius gap (gamma_C - gamma_M) / gamma_M.

    Raises UndefinedMetricError when the misclassified-subset radius is
    absent or zero; callers must carry the undefined state explicitly
    (e.g. an empty CSV field), never a silent 0.
    """
    if est.gamma_hat_m is None or est.gamma_hat_m == 0.0:
        raise UndefinedMetricError("gamma_hat_m absent or zero")
    if est.gamma_hat_c is None:
        raise UndefinedMetricError("gamma_hat_c absent")
    return (est.gamma_hat_c - est.gamma_hat_m) / est.gamma_hat_m


def complexity_bounds(b: BoundInputs):
    """Closed-form lower/upper estimates of the CE Rademacher complexity.

    With C_C = n/n_correct, C_M = n/n_wrong, C_MC = (sqrt(n_wrong) +
    sqrt(n_correct))/n:

        lower = C_MC ln K - gamma_M * C_C^-0.5 * (C_C^-1 Gamma + 1) / sqrt(n)
        upper = C_MC ln K + gamma_M * C_M^-0.5 * (C_C^-1 Gamma + 1) / sqrt(n)
    """
    c_c = b.n / b.n_correct
    c_m = b.n / b.n_wrong
    c_mc = (np.sqrt(b.n_wrong) + np.sqrt(b.n_correct)) / b.n
    center = c_mc * np.log(b.num_classes)
    common = b.gamma_hat_m * (b.gamma_ce / c_c + 1.0) / np.sqrt(b.n)
    lower = center - common / np.sqrt(c_c)
    upper = center + common / np.sqrt(c_m)
    return float(lower), float(upper)


def bounds_of(est: RadiusEstimates, num_classes: int):
    """(gamma_ce, bound_lower, bound_upper) of the estimates; all None if undefined."""
    try:
        g = gamma_ce(est)
        return (g, *complexity_bounds(BoundInputs(est.n, est.n_correct, est.n_wrong,
                                                  num_classes, est.gamma_hat_m, g)))
    except (UndefinedMetricError, ParameterError):
        return None, None, None


def _loss_table(loss_table) -> np.ndarray:
    """loss_table as a matrix; ParameterError if it is empty or has a non-finite row."""
    table = as_matrix(loss_table)
    if table.shape[0] < 1 or table.shape[1] < 1:
        raise ParameterError("loss_table must be nonempty")
    return _finite_rows(table, "loss_table")


_RAW_BLOCK = 2**17  # 64-bit outputs per random_raw call: 1 MiB, two words each


def _uint32_words(rng: np.random.Generator, count: int):
    """Yield uint32 arrays whose concatenation is, with the generator's state
    afterwards, that of rng.integers(0, 2**32, size=count, dtype=np.uint32).

    numpy's 32-bit draw from PCG64, PCG64DXSM, Philox or SFC64 is the low
    half of one 64-bit output, then its high half, which waits in the state
    as uinteger with has_uint32 set.  So on a little-endian host one
    random_raw output viewed as two uint32 words is two such draws, at half
    the cost.  random_raw leaves has_uint32 and uinteger alone, so a pending
    half at the start and the last one or two words go through integers,
    which sets both as the all-integers draw does.  Any other generator
    draws through integers in blocks.
    """
    bitgen = rng.bit_generator
    # named here, not at import: np.random is imported lazily, and only when used
    split_64 = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
    if type(bitgen) not in split_64 or sys.byteorder != "little":
        for start in range(0, count, 2 * _RAW_BLOCK):
            yield rng.integers(0, 2**32, size=min(2 * _RAW_BLOCK, count - start),
                               dtype=np.uint32)
        return
    head = min(count, bitgen.state["has_uint32"])
    pairs = max(0, count - head - 1) // 2
    yield rng.integers(0, 2**32, size=head, dtype=np.uint32)
    for start in range(0, pairs, _RAW_BLOCK):
        yield bitgen.random_raw(min(_RAW_BLOCK, pairs - start)).view(np.uint32)
    yield rng.integers(0, 2**32, size=count - head - 2 * pairs, dtype=np.uint32)


def empirical_rademacher(loss_table, rng: np.random.Generator, draws: int):
    """Monte-Carlo Rademacher complexity of a finite hypothesis set.

    loss_table is h x n: per-hypothesis, per-sample losses.  Each draw
    samples signs xi in {-1,+1}^n and takes max over hypotheses of
    (1/n) sum_i xi_i * loss[h, i].  Returns (estimate, stderr of mean).

    Evaluating the sup over a finite snapshot set only gives a lower
    estimate of the sup over the full hypothesis ball.

    The draws go in chunks of min(4096, 2^24 // n) rows.  The signs are
    read off the words of _uint32_words, one word per sign: numpy's
    integers(0, 2) is the top bit of one 32-bit output, so copysign(1, word
    as int32) writes -xi in one pass into one reused float64 sign buffer,
    and a gemm against -loss_table gives products equal to xi * loss bit
    for bit.  So the signs and the generator state afterwards are those of
    integers(0, 2) draws, and consecutive draws continue one generator
    stream, so neither depends on how the rows are cut.  For 2 <= h < 32
    each chunk of c rows is cut into max(1, c // b) near-equal row blocks,
    b = max(17, ceil(2^20 / (h * n))), and the buffer holds one block, so
    it stays in cache.  A block's gemm rows keep the bits of the whole
    chunk's: with OpenBLAS 0.3.31 (SkylakeX kernels, 1 to 8 threads) a
    row's bits were measured to change only at up to 10^6 products, where a
    small-matrix kernel runs, at up to 16 rows on more than one thread,
    where the gemm runs on one thread, whose bits can differ from the
    threaded driver's, and for h >= 32, where blocks of 17 to 74 rows
    changed at 2 to 8 threads.  So h >= 32 keeps whole chunks, and so does
    h = 1: there the product is a matrix-vector product, whose bits depend
    on its row count.
    """
    table = _loss_table(loss_table)
    check_count(draws, "draws")
    h, n = table.shape
    rows = min(4096, max(1, 2**24 // n), draws)
    least = max(17, -(-2**20 // (h * n))) if 2 <= h < 32 else rows  # the fewest rows of a block
    tail = (draws - 1) % rows + 1  # the rows of the last chunk
    buf = np.empty((max(-(-c // max(1, c // least)) for c in (rows, tail)), n))
    neg = -table
    values = np.empty(draws)
    for done in range(0, draws, rows):
        c = min(rows, draws - done)
        m = max(1, c // least)  # near-equal blocks of this chunk
        for start, stop in itertools.pairwise(done + c * i // m for i in range(m + 1)):
            block = buf[: stop - start]
            signs = block.reshape(-1)
            at = 0
            for words in _uint32_words(rng, signs.size):
                # a word with its top bit set is xi = +1 and a negative int32
                np.copysign(1.0, words.view(np.int32), out=signs[at : at + words.size])
                at += words.size
            values[start:stop] = (block @ neg.T).max(axis=1) / n
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(draws)) if draws > 1 else float("inf")
    return estimate, stderr


def exhaustive_rademacher(loss_table) -> float:
    """Exact Rademacher complexity by enumerating all 2^n sign vectors (n <= 20).

    Sign vector number b has xi_i = +1 where bit i of b is set.  The
    vectors go through np.matmul in chunks, one matrix-vector product
    each as in `table @ xi`, and the values are summed in enumeration
    order, so the result equals the one-vector-at-a-time loop bit for bit.
    """
    table = _loss_table(loss_table)
    n = table.shape[1]
    if n > 20:
        raise ParameterError("exhaustive enumeration limited to n <= 20")
    count = 2**n
    values = np.zeros(count + 1)  # values[0] = 0.0 starts the running sum
    bit_of = np.arange(n)
    for start in range(0, count, 2**14):
        bits = np.arange(start, min(start + 2**14, count))
        signs = ((bits[:, None] >> bit_of) & 1) * 2.0 - 1.0
        sums = np.matmul(table, signs[..., None])[..., 0]  # (chunk, h)
        values[start + 1 : start + 1 + len(bits)] = sums.max(axis=1) / n
    return float(np.cumsum(values)[-1]) / count
