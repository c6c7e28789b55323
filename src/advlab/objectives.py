"""Losses, risk accounting, and the cross-algorithm generalization gap.

Cross-entropy is computed as logsumexp(logits) - logits[y] with max
subtraction, so it is exact under arbitrary logit shifts.  Each softmax,
log-softmax and logsumexp comes from one core.exp_logsumexp_rows call per
logit matrix (scipy's algorithm, without scipy's per-call dispatch).
Accuracy uses argmax with lowest-index tie-breaking (numpy's argmax
convention), which also fixes the correct/misclassified split used by the
radius metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# softmax_rows is unused but stays bound: perfbench counts softmax passes by it.
from .core import (ParameterError, ShapeError, as_matrix,  # noqa: F401
                   exp_logsumexp_rows, logsumexp_rows, softmax_rows)
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


def _ce_terms(logits, labels, lse, probs):
    """Per-sample CE lse - logits[y] and its logit gradient probs - onehot,
    written into `probs`, from the softmax and (n, 1) logsumexp of logits."""
    rows = np.arange(len(labels))
    probs[rows, labels] -= 1.0
    return lse[:, 0] - logits[rows, labels], probs


def ce_loss_and_grad(logits, labels):
    """Per-sample CE and its logit gradient (softmax - onehot) in one pass,
    bit-identical to ce_loss(...)[0] and softmax_rows(logits) - onehot."""
    logits = as_matrix(logits)
    labels = _check_labels(logits, labels)
    e, lse = exp_logsumexp_rows(logits)
    return _ce_terms(logits, labels, lse, e / e.sum(axis=1, keepdims=True))


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
    """Weighted clean/adversarial CE (1-lam)*CE(x) + lam*CE(x') on logits.

    lam=0 is standard training, lam=1 is PGD-AT.  Returns (loss,
    clean_logit_grad, adv_logit_grad); gradient matrices are for the
    scalar mean loss (weighting and 1/n included).  When adv_logits is
    clean_logits (no attack ran) one CE pass serves both.
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


def trades_from_logits(clean_logits, adv_logits, labels, beta: float):
    """TRADES objective on precomputed logits: CE(clean) + beta*KL(adv||clean).

    Returns (loss, clean_logit_grad, adv_logit_grad) for the mean loss, all
    read from one exp_logsumexp_rows call per logit matrix.
    """
    if beta <= 0.0:
        raise ParameterError("beta must be > 0")
    clean_logits = as_matrix(clean_logits)
    adv_logits = as_matrix(adv_logits)
    labels = _check_labels(clean_logits, labels)
    e_q, lse_q = exp_logsumexp_rows(clean_logits)
    e_p, lse_p = exp_logsumexp_rows(adv_logits)
    q = e_q / e_q.sum(axis=1, keepdims=True)
    p = e_p / e_p.sum(axis=1, keepdims=True)
    log_p = adv_logits - lse_p
    r = log_p - (clean_logits - lse_q)
    clean_ce, clean_ce_grad = _ce_terms(clean_logits, labels, lse_q, q.copy())
    # exp(log_p), not p: the KL keeps the bits of its log-domain definition
    kl = (np.exp(log_p) * r).sum(axis=1)
    loss = float(clean_ce.mean()) + beta * float(kl.mean())
    n = clean_logits.shape[0]
    # d KL / d clean logits = q - p; d KL / d adv logits through softmax(p)
    clean_grad = (clean_ce_grad + beta * (q - p)) / n
    adv_grad = beta / n * p * (r - (r * p).sum(axis=1, keepdims=True))
    return loss, clean_grad, adv_grad


def generalization_gap(family_a_risks, family_b_risks) -> float:
    """min over family a of test risk minus min over family b (signed)."""
    if len(family_a_risks) == 0 or len(family_b_risks) == 0:
        raise ParameterError("both families need at least one trained model")
    return float(min(family_a_risks) - min(family_b_risks))
