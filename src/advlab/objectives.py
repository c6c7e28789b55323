"""Losses, risk accounting, and the cross-algorithm generalization gap.

Cross-entropy is computed as logsumexp(logits) - logits[y] with max
subtraction, so it is exact under arbitrary logit shifts.  Each softmax,
log-softmax and logsumexp comes from one core.exp_logsumexp_rows call per
logit matrix (scipy's algorithm, without scipy's per-call dispatch).
correct_mask is the one correct/misclassified split.  Standard training
is the mixture at lambda=0.
The losses, gradients and masks also take a stack (see core); a loss then
has one value per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# softmax_rows is unused but stays bound: perfbench counts softmax passes by it.
from .core import (ParameterError, as_matrix, as_stack, check_labels,  # noqa: F401
                   check_real, check_shape, exp_logsumexp_rows, label_entries, label_index,
                   per_seed, softmax_rows)
from .data import LabeledBatch
from .mlp import forward


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "mixture"  # "standard" | "mixture" | "trades"
    lam: float = 1.0       # mixture weight on the adversarial branch; 0 for standard
    beta: float = 6.0      # TRADES trade-off factor

    def __post_init__(self):
        if self.kind not in ("standard", "mixture", "trades"):
            raise ParameterError("kind must be standard, mixture, or trades")
        check_real(self.lam, "lam", "[0, 1]")
        check_real(self.beta, "beta", "(0, inf)")
        if self.kind == "standard":  # the mixture at lambda=0
            object.__setattr__(self, "lam", 0.0)

    @property
    def needs_attack(self) -> bool:
        return self.kind == "trades" or self.lam > 0.0


@dataclass(frozen=True)
class RiskReport:
    mean_loss: float
    accuracy: float
    n: int


def ce_loss(logits, labels):
    """Per-sample and mean cross-entropy from raw logits (means per seed for a stack)."""
    logits = as_stack(logits)
    labels = check_labels(labels, *logits.shape)
    per_sample = exp_logsumexp_rows(logits)[1][..., 0] - label_entries(logits, labels)
    return per_sample, per_seed(lambda row: float(row.mean()), per_sample)


def _ce_terms(logits, labels, lse, probs):
    """Per-sample CE lse - logits[y] and its logit gradient probs - onehot,
    written into `probs`, from the softmax and (..., n, 1) logsumexp of logits."""
    probs.reshape(-1, probs.shape[-1])[label_index(labels)] -= 1.0
    return lse[..., 0] - label_entries(logits, labels), probs


def checked_ce_loss_and_grad(logits, labels):
    """ce_loss_and_grad for float64 logits and labels that core.check_labels has passed
    against them: an attack checks its labels once, not once per iterate."""
    e, lse = exp_logsumexp_rows(logits)
    return _ce_terms(logits, labels, lse, e / e.sum(axis=-1, keepdims=True))


def ce_loss_and_grad(logits, labels):
    """Per-sample CE and its logit gradient (softmax - onehot) in one pass,
    bit-identical to ce_loss(...)[0] and softmax_rows(logits) - onehot."""
    logits = as_stack(logits)
    return checked_ce_loss_and_grad(logits, check_labels(labels, *logits.shape))


def correct_mask(logits, labels) -> np.ndarray:
    """True where the argmax of a row is its label (lowest index on ties)."""
    logits = as_stack(logits)
    return logits.argmax(axis=-1) == check_labels(labels, *logits.shape)


def risk_from_logits(logits, labels) -> RiskReport:
    """Empirical CE risk and accuracy from precomputed logits of one model."""
    logits = as_matrix(logits)
    _, mean = ce_loss(logits, labels)
    mask = correct_mask(logits, labels)
    return RiskReport(mean_loss=mean, accuracy=float(mask.mean()), n=len(mask))


def risk(weights: list, batch: LabeledBatch) -> RiskReport:
    """Empirical CE risk and accuracy of a model on a batch."""
    return risk_from_logits(forward(weights, batch.inputs).logits, batch.labels)


def mixture_from_logits(clean_logits, adv_logits, labels, lam: float):
    """Weighted clean/adversarial CE (1-lam)*CE(x) + lam*CE(x') on logits.

    lam=0 is standard training, lam=1 is PGD-AT.  Returns (loss,
    clean_logit_grad, adv_logit_grad); gradient matrices are for the
    mean loss (weighting and 1/n included), one per seed for a stack.
    adv_logits None means no attack ran: the clean CE pass serves both branches.
    """
    check_real(lam, "lam", "[0, 1]")
    clean_ce, clean_g = ce_loss_and_grad(clean_logits, labels)
    if adv_logits is None:
        adv_ce, adv_g = clean_ce, clean_g
    else:
        adv_ce, adv_g = ce_loss_and_grad(check_shape(adv_logits, clean_g.shape, "adv_logits"),
                                         labels)
    loss = per_seed(lambda c, a: (1.0 - lam) * float(c.mean()) + lam * float(a.mean()),
                    clean_ce, adv_ce)
    n = clean_g.shape[-2]
    return loss, (1.0 - lam) / n * clean_g, lam / n * adv_g


def trades_from_logits(clean_logits, adv_logits, labels, beta: float):
    """TRADES objective on precomputed logits: CE(clean) + beta*KL(adv||clean).

    Returns (loss, clean_logit_grad, adv_logit_grad) for the mean loss, all
    read from one exp_logsumexp_rows call per logit matrix.
    """
    check_real(beta, "beta", "(0, inf)")
    clean_logits = as_stack(clean_logits)
    adv_logits = as_stack(check_shape(adv_logits, clean_logits.shape, "adv_logits"))
    labels = check_labels(labels, *clean_logits.shape)
    e_q, lse_q = exp_logsumexp_rows(clean_logits)
    e_p, lse_p = exp_logsumexp_rows(adv_logits)
    q = e_q / e_q.sum(axis=-1, keepdims=True)
    p = e_p / e_p.sum(axis=-1, keepdims=True)
    log_p = adv_logits - lse_p
    r = log_p - (clean_logits - lse_q)
    clean_ce, clean_ce_grad = _ce_terms(clean_logits, labels, lse_q, q.copy())
    # exp(log_p), not p: the KL keeps the bits of its log-domain definition
    kl = (np.exp(log_p) * r).sum(axis=-1)
    loss = per_seed(lambda c, k: float(c.mean()) + beta * float(k.mean()), clean_ce, kl)
    n = clean_logits.shape[-2]
    # d KL / d clean logits = q - p; d KL / d adv logits through softmax(p)
    clean_grad = (clean_ce_grad + beta * (q - p)) / n
    adv_grad = beta / n * p * (r - (r * p).sum(axis=-1, keepdims=True))
    return loss, clean_grad, adv_grad


def generalization_gap(family_a_risks, family_b_risks) -> float:
    """min over family a of test risk minus min over family b (signed)."""
    if len(family_a_risks) == 0 or len(family_b_risks) == 0:
        raise ParameterError("both families need at least one trained model")
    return float(min(family_a_risks) - min(family_b_risks))
