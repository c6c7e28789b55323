"""Logit-oriented regularization (SLORE / LORE) and its epoch schedule.

All penalties consume softmax outputs, never raw logits.  Writing m_i for
the mean of the non-label probabilities of sample i and s for softmax
rows:

  P_C      = mean over correct i of (1/(K-1)) sum_{k != y} (s_k - s_y)^2
  P_C_low  = same with s_y replaced by m_i            (always <= P_C)
  P_M      = mean over wrong i of (1/(K-1)) sum_{k != y} (s_k - s_y)^2
  jensen   = mean over wrong i of (m_i - s_y)^2       (always <= P_M)
  P_M_low  = mean over wrong i of (1/(K-1)) sum_{k != y} (s_k - m_i)^2
  AP_C/M   = mean over correct/wrong i of ||s_clean,i - s_adv,i||_2^2

The scheduled loss adds tau*(P_C_low - P_M_low) in early epochs
(epoch <= E1), the negated difference in late epochs (epoch >= E2), and
nothing in between; the LORE variant additionally adds gamma*AP_M early
and gamma*AP_C late.  A penalty whose sample subset is empty contributes
zero for that batch.  `loat` computes these applied terms and their
logit gradients in one pass; P_C, P_M and the Jensen term are diagnostics
with standalone functions, used by the inequality tests.  Both take each
(1/(K-1)) sum_{k != y} (s_k - c_i)^2 from one helper (c_i = s_y or m_i).

Correct/wrong masks come from clean logits and are treated as
stop-gradient constants (argmax has no useful derivative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ShapeError, as_matrix, softmax_rows


class EmptySubsetError(ValueError):
    """The masked sample subset for a penalty is empty."""


@dataclass(frozen=True)
class LoatSchedule:
    e1: int = 1
    e2: int = 100
    tau: float = 1.0
    gamma: float = 0.05
    variant: str = "OFF"  # "SLORE" | "LORE" | "OFF"

    def __post_init__(self):
        if self.variant not in ("SLORE", "LORE", "OFF"):
            raise ParameterError("variant must be SLORE, LORE, or OFF")
        if self.e1 > self.e2:
            raise ParameterError("require e1 <= e2")
        if self.tau < 0 or self.gamma < 0:
            raise ParameterError("tau and gamma must be >= 0")


def _nonlabel_mean(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    k = probs.shape[1]
    label_p = probs[np.arange(len(labels)), labels]
    return (probs.sum(axis=1) - label_p) / (k - 1)


def _sq_dev(probs, labels, center):
    """Deviations probs - center (zeroed at the label) and the per-sample
    (1/(K-1)) sum_{k != y} of their squares; center has one value per row."""
    dev = probs - center[:, None]
    dev[np.arange(len(labels)), labels] = 0.0
    return dev, (dev ** 2).sum(axis=1) / (probs.shape[1] - 1)


def _validate(probs, labels, mask):
    probs = as_matrix(probs)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if labels.shape[0] != probs.shape[0] or mask.shape[0] != probs.shape[0]:
        raise ShapeError("labels/mask must match probs rows")
    return probs, labels, mask


def _subset_penalties(probs, labels, mask, wrong: bool, what: str):
    """(P, P_lower) over the correct (or wrong) subset; raises if it is empty."""
    probs, labels, mask = _validate(probs, labels, mask)
    subset = ~mask if wrong else mask
    if not subset.any():
        raise EmptySubsetError(f"no {what} samples in batch")
    centers = (probs[np.arange(len(labels)), labels], _nonlabel_mean(probs, labels))
    return tuple(float(_sq_dev(probs, labels, c)[1][subset].mean()) for c in centers)


def penalty_correct(probs, labels, mask):
    """(P_C, P_C_lower) over the correct subset; raises if it is empty."""
    return _subset_penalties(probs, labels, mask, False, "correctly classified")


def penalty_wrong(probs, labels, mask):
    """(P_M, P_M_lower) over the misclassified subset; raises if it is empty."""
    return _subset_penalties(probs, labels, mask, True, "misclassified")


def jensen_middle_wrong(probs, labels, mask) -> float:
    """Jensen intermediate term: mean over wrong i of (m_i - s_y)^2."""
    probs, labels, mask = _validate(probs, labels, mask)
    wrong = ~mask
    if not wrong.any():
        raise EmptySubsetError("no misclassified samples in batch")
    m = _nonlabel_mean(probs, labels)
    label_p = probs[np.arange(len(labels)), labels]
    return float(((m - label_p) ** 2)[wrong].mean())


def adversarial_pairing(clean_probs, adv_probs, mask) -> float:
    """Mean squared l2 distance between clean and adversarial softmax rows."""
    clean_probs = as_matrix(clean_probs)
    adv_probs = as_matrix(adv_probs)
    if clean_probs.shape != adv_probs.shape:
        raise ShapeError("clean/adv probability shapes differ")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptySubsetError("empty pairing subset")
    return float(((clean_probs - adv_probs) ** 2).sum(axis=1)[mask].mean())


def _phase(epoch: int, sched: LoatSchedule) -> str:
    if sched.variant == "OFF":
        return "off"
    if epoch <= sched.e1:
        return "early"
    if epoch >= sched.e2:
        return "late"
    return "off"


def _softmax_chain(probs: np.ndarray, d_sigma: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to logits."""
    return probs * (d_sigma - (d_sigma * probs).sum(axis=1, keepdims=True))


def loat(clean_logits, labels, mask, epoch: int, sched: LoatSchedule, adv_logits=None):
    """The scheduled penalty of one batch and its exact logit gradients.

    Returns (penalty_loss, clean_logit_grad, adv_logit_grad).  Only the
    applied terms are computed, from one softmax per logit matrix:
    tau*(P_C_low - P_M_low) early, its negation late, and for LORE with
    adv logits supplied gamma*AP_M early or gamma*AP_C late.  Outside
    both phases the loss is 0 and the gradients are zero matrices, and
    the adversarial gradient is zero unless the pairing term applies.
    Masks are constants: no gradient flows through the correctness
    indicators.
    """
    clean_logits, labels, mask = _validate(clean_logits, labels, mask)
    adv_grad = np.zeros_like(clean_logits)
    phase = _phase(epoch, sched)
    if phase == "off":
        return 0.0, np.zeros_like(clean_logits), adv_grad

    probs = softmax_rows(clean_logits)
    k = probs.shape[1]
    dev, sq_dev = _sq_dev(probs, labels, _nonlabel_mean(probs, labels))
    n_c = int(mask.sum())
    n_m = len(mask) - n_c
    p_c = float(sq_dev[mask].mean()) if n_c else 0.0
    p_m = float(sq_dev[~mask].mean()) if n_m else 0.0
    penalty = sched.tau * (p_c - p_m) if phase == "early" else sched.tau * (p_m - p_c)
    # d/d sigma of P_C_low - P_M_low: rows of each subset over that subset's size
    scaled = (2.0 / (k - 1)) * dev
    sign = 1.0 if phase == "early" else -1.0
    d_sigma = sign * sched.tau * np.where(mask[:, None], scaled / max(n_c, 1),
                                          0.0 - scaled / max(n_m, 1))

    if sched.variant == "LORE" and adv_logits is not None:
        adv_probs = softmax_rows(as_matrix(adv_logits))
        subset = ~mask if phase == "early" else mask
        count = int(subset.sum())
        diff = probs - adv_probs
        if count:
            penalty += sched.gamma * float((diff ** 2).sum(axis=1)[subset].mean())
        pair_grad = 2.0 * diff / max(count, 1)
        d_sigma = d_sigma + sched.gamma * np.where(subset[:, None], pair_grad, 0.0)
        adv_grad = _softmax_chain(
            adv_probs, sched.gamma * np.where(subset[:, None], -pair_grad, 0.0))

    return penalty, _softmax_chain(probs, d_sigma), adv_grad
