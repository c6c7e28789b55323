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

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, as_matrix, softmax_rows
from .data import LabeledBatch
from .mlp import forward
from .objectives import _check_labels, correct_mask


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


def fr_integrand(logits, labels) -> np.ndarray:
    """Per-sample <softmax(f), f> - f_y."""
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    probs = softmax_rows(logits)
    return (probs * logits).sum(axis=1) - logits[np.arange(len(labels)), labels]


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
    """Per-sample max_{k != y} |f_k - f_y|."""
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    gaps = np.abs(logits - logits[np.arange(len(labels)), labels][:, None])
    gaps[np.arange(len(labels)), labels] = -np.inf
    return gaps.max(axis=1)


def radius_estimates_from_logits(logits, labels) -> RadiusEstimates:
    logits = as_matrix(logits)
    if logits.shape[0] == 0:
        raise ParameterError("empty batch")
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


def bound_slope_ratio(b: BoundInputs) -> float:
    """(d upper / d Gamma) / (-d lower / d Gamma) = sqrt(n_wrong / n_correct)."""
    return float(np.sqrt(b.n_wrong / b.n_correct))


def empirical_rademacher(loss_table, rng: np.random.Generator, draws: int):
    """Monte-Carlo Rademacher complexity of a finite hypothesis set.

    loss_table is h x n: per-hypothesis, per-sample losses.  Each draw
    samples signs xi in {-1,+1}^n and takes max over hypotheses of
    (1/n) sum_i xi_i * loss[h, i].  Returns (estimate, stderr of mean).

    Evaluating the sup over a finite snapshot set only gives a lower
    estimate of the sup over the full hypothesis ball.
    """
    table = as_matrix(loss_table)
    if table.shape[0] < 1 or table.shape[1] < 1:
        raise ParameterError("loss_table must be nonempty")
    if draws < 1:
        raise ParameterError("draws must be >= 1")
    n = table.shape[1]
    values = np.empty(draws)
    done = 0
    while done < draws:  # chunked so 10^5 draws stay vectorized but bounded in memory
        chunk = min(4096, draws - done)
        # int32 draws take the same 32-bit path as int64 ones for this
        # range, so the signs are the same at half the memory
        xi = rng.integers(0, 2, size=(chunk, n), dtype=np.int32).astype(np.float64)
        xi *= 2.0
        xi -= 1.0
        values[done : done + chunk] = (xi @ table.T).max(axis=1) / n
        done += chunk
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
    table = as_matrix(loss_table)
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
