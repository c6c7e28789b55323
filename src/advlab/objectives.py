"""Losses, risk accounting, and the cross-algorithm generalization gap.

Cross-entropy is computed as logsumexp(logits) - logits[y] with max
subtraction, so it is exact under arbitrary logit shifts.  The row
logsumexp is core.logsumexp_rows: scipy's algorithm (split out the row
maximum a and its tie count c, then log1p(s / c) + log(c) + a), run
in-package so each call skips scipy's per-call dispatch.  Accuracy uses
argmax with lowest-index tie-breaking (numpy's argmax convention), which
also fixes the correct/misclassified split used by the radius metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ParameterError, ShapeError, as_matrix, logsumexp_rows,
                   softmax_rows, split_max_logsumexp)
from .data import LabeledBatch
from .mlp import forward


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "mixture"  # "standard" | "mixture" | "trades"
    lam: float = 1.0       # mixture weight on the adversarial branch
    beta: float = 6.0      # TRADES trade-off factor

    def __post_init__(self):
        if self.kind not in ("standard", "mixture", "trades"):
            raise ParameterError("kind must be standard, mixture, or trades")
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterError("lam must lie in [0, 1]")
        if self.beta <= 0.0:
            raise ParameterError("beta must be > 0")

    @property
    def needs_attack(self) -> bool:
        return self.kind == "trades" or (self.kind == "mixture" and self.lam > 0.0)


@dataclass(frozen=True)
class RiskReport:
    mean_loss: float
    accuracy: float
    n: int
    correct_mask: np.ndarray


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError("labels must be a vector matching logits rows")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ParameterError("label out of range for K classes")
    return labels


def ce_loss(logits, labels):
    """Per-sample and mean cross-entropy from raw logits."""
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    per_sample = logsumexp_rows(logits) - logits[np.arange(len(labels)), labels]
    return per_sample, float(per_sample.mean())


def ce_logit_grad(logits, labels) -> np.ndarray:
    """Gradient of each sample's CE with respect to its logits: softmax - onehot."""
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    grad = softmax_rows(logits)
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad


def ce_loss_and_grad(logits, labels):
    """Per-sample CE and its logit gradient (softmax - onehot) in one pass.

    One label check, one row max and one exp(logits - top): that array is
    the softmax numerator, and with the entries equal to the row maximum
    zeroed its row sums are logsumexp_rows' split-out sums.  So the pair
    is bit-identical to (ce_loss(...)[0], ce_logit_grad(...)).
    """
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    rows = np.arange(len(labels))
    top = logits.max(axis=1, keepdims=True)
    is_top = logits == top
    e = np.exp(logits - top)
    rest = np.where(is_top, 0.0, e).sum(axis=1, keepdims=True)
    per_sample = split_max_logsumexp(logits, top, is_top, rest)[:, 0] - logits[rows, labels]
    grad = e / e.sum(axis=1, keepdims=True)
    grad[rows, labels] -= 1.0
    return per_sample, grad


def correct_mask(logits, labels) -> np.ndarray:
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    return logits.argmax(axis=1) == labels


def risk_from_logits(logits, labels) -> RiskReport:
    """Empirical CE risk and accuracy from precomputed logits."""
    _, mean = ce_loss(logits, labels)
    mask = correct_mask(logits, labels)
    return RiskReport(mean_loss=mean, accuracy=float(mask.mean()), n=len(mask), correct_mask=mask)


def risk(weights: list, batch: LabeledBatch) -> RiskReport:
    """Empirical CE risk and accuracy of a model on a batch."""
    return risk_from_logits(forward(weights, batch.inputs).logits, batch.labels)


def mixture_from_logits(clean_logits, adv_logits, labels, lam: float):
    """Mixture objective evaluated on precomputed logits.

    Returns (loss, clean_logit_grad, adv_logit_grad); gradient matrices
    are for the scalar mean loss (weighting and 1/n included).  When
    adv_logits is clean_logits (no attack ran) one CE pass serves both.
    """
    if not 0.0 <= lam <= 1.0:
        raise ParameterError("lam must lie in [0, 1]")
    clean_ce, clean_g = ce_loss_and_grad(clean_logits, labels)
    if adv_logits is clean_logits:
        adv_ce, adv_g = clean_ce, clean_g
    else:
        adv_ce, adv_g = ce_loss_and_grad(adv_logits, labels)
    loss = (1.0 - lam) * float(clean_ce.mean()) + lam * float(adv_ce.mean())
    n = clean_g.shape[0]
    return loss, (1.0 - lam) / n * clean_g, lam / n * adv_g


def mixture_objective(weights: list, batch: LabeledBatch, lam: float, adv_inputs):
    """Weighted clean/adversarial CE: (1-lam)*CE(x) + lam*CE(x').

    lam=0 is standard training, lam=1 is PGD-AT.
    """
    clean = forward(weights, batch.inputs)
    adv = forward(weights, adv_inputs)
    return mixture_from_logits(clean.logits, adv.logits, batch.labels, lam)


def kl_rows(p_logits, q_logits) -> np.ndarray:
    """Row-wise KL(softmax(p) || softmax(q)) in stable log domain."""
    p_logits = as_matrix(p_logits)
    q_logits = as_matrix(q_logits)
    log_p = p_logits - logsumexp_rows(p_logits, keepdims=True)
    log_q = q_logits - logsumexp_rows(q_logits, keepdims=True)
    return (np.exp(log_p) * (log_p - log_q)).sum(axis=1)


def trades_from_logits(clean_logits, adv_logits, labels, beta: float):
    """TRADES objective on precomputed logits: CE(clean) + beta*KL(adv||clean)."""
    if beta <= 0.0:
        raise ParameterError("beta must be > 0")
    clean_logits = as_matrix(clean_logits)
    adv_logits = as_matrix(adv_logits)
    clean_ce, clean_ce_grad = ce_loss_and_grad(clean_logits, labels)
    kl = kl_rows(adv_logits, clean_logits)
    loss = float(clean_ce.mean()) + beta * float(kl.mean())
    n = clean_logits.shape[0]
    p = softmax_rows(adv_logits)
    q = softmax_rows(clean_logits)
    # d KL / d clean logits = q - p; d KL / d adv logits through softmax(p)
    clean_grad = (clean_ce_grad + beta * (q - p)) / n
    log_p = adv_logits - logsumexp_rows(adv_logits, keepdims=True)
    log_q = clean_logits - logsumexp_rows(clean_logits, keepdims=True)
    r = log_p - log_q
    adv_grad = beta / n * p * (r - (r * p).sum(axis=1, keepdims=True))
    return loss, clean_grad, adv_grad


def trades_objective(weights: list, batch: LabeledBatch, beta: float, adv_inputs):
    """CE(clean) + beta * mean KL(softmax(adv) || softmax(clean)).

    Returns (loss, clean_logit_grad, adv_logit_grad) for the mean loss.
    """
    clean = forward(weights, batch.inputs)
    adv = forward(weights, adv_inputs)
    return trades_from_logits(clean.logits, adv.logits, batch.labels, beta)


def generalization_gap(family_a_risks, family_b_risks) -> float:
    """min over family a of test risk minus min over family b (signed)."""
    if len(family_a_risks) == 0 or len(family_b_risks) == 0:
        raise ParameterError("both families need at least one trained model")
    return float(min(family_a_risks) - min(family_b_risks))


def generalization_bound(emp_risk: float, B: float, rademacher: float, delta: float, n: int) -> float:
    """High-probability population-risk bound for a loss bounded in [0, B].

    emp_risk + 2B*rademacher + 3B*sqrt(ln(2/delta)/(2n)).  Only valid for
    bounded losses; never applied to (unbounded) CE in this package.
    """
    if B <= 0:
        raise ParameterError("B must be > 0")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    if n < 1:
        raise ParameterError("n must be >= 1")
    return emp_risk + 2.0 * B * rademacher + 3.0 * B * np.sqrt(np.log(2.0 / delta) / (2.0 * n))
