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
nothing in between (LoatSchedule.phase); the LORE variant additionally
adds gamma*AP_M early and gamma*AP_C late.  A penalty whose sample subset
is empty contributes zero for that batch.  `loat` is the penalty: it
computes only these applied terms and their logit gradients, in one pass.
P_C, P_M and the Jensen term are never applied; the tests hold standalone
forms of all six definitions and check `loat` against them.

Correct/wrong masks come from clean logits (objectives.correct_mask), one
entry per row, and are treated as stop-gradient constants (argmax has no
useful derivative).  Labels follow core.check_labels.  `loat` also takes a
stack of logit matrices with one label and mask row per seed; each seed's
subset means stay boolean selections of its own row, in one pass over
the seeds, since a zero-filled sum would regroup numpy's pairwise sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ParameterError, as_stack, check_count, check_labels, check_real,
                   check_shape, label_entries, label_index, per_seed, softmax_rows)


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
        check_count(self.e1, "e1", least=0)
        check_count(self.e2, "e2", least=self.e1)
        check_real(self.tau, "tau", "[0, inf)")
        check_real(self.gamma, "gamma", "[0, inf)")

    def phase(self, epoch: int) -> str:
        """"early" (epoch <= e1), "late" (epoch >= e2) or "off"; always "off" for OFF."""
        if self.variant == "OFF" or self.e1 < epoch < self.e2:
            return "off"
        return "early" if epoch <= self.e1 else "late"


def _nonlabel_mean(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    k = probs.shape[-1]
    return (probs.sum(axis=-1) - label_entries(probs, labels)) / (k - 1)


def _sq_dev(probs, labels, center):
    """Deviations probs - center (zeroed at the label) and the per-sample
    (1/(K-1)) sum_{k != y} of their squares; center has one value per row."""
    k = probs.shape[-1]
    dev = probs - center[..., None]
    dev.reshape(-1, k)[label_index(labels)] = 0.0
    return dev, (dev ** 2).sum(axis=-1) / (k - 1)


def _validate(probs, labels, mask):
    probs = as_stack(probs)
    return (probs, check_labels(labels, *probs.shape),
            check_shape(np.asarray(mask, dtype=bool), probs.shape[:-1], "mask"))


def _softmax_chain(probs: np.ndarray, d_sigma: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to logits."""
    return probs * (d_sigma - (d_sigma * probs).sum(axis=-1, keepdims=True))


def _subset_means(*pairs) -> np.ndarray:
    """(..., pairs): per seed, values[subset].mean() of each (values, subset) pair, 0 if empty."""
    return np.asarray(per_seed(lambda *rows: [c.mean() if c.size else 0.0 for c in (
        v[s] for v, s in zip(rows[::2], rows[1::2]))], *pairs))


def loat(clean_logits, labels, mask, epoch: int, sched: LoatSchedule, adv_logits=None):
    """The scheduled penalty of one batch and its exact logit gradients.

    Returns (penalty_loss, clean_logit_grad, adv_logit_grad), the loss one
    value per seed for a stack.  Only the applied terms are computed, from
    one softmax per logit matrix (or stack):
    tau*(P_C_low - P_M_low) early, its negation late, and for LORE with
    adv logits supplied gamma*AP_M early or gamma*AP_C late.  Outside
    both phases the loss is 0 and the gradients are zero matrices, and
    the adversarial gradient is zero unless the pairing term applies.
    Masks are constants: no gradient flows through the correctness
    indicators.  adv_logits, if given, must have the shape of clean_logits.
    """
    clean_logits, labels, mask = _validate(clean_logits, labels, mask)
    if adv_logits is not None:
        check_shape(adv_logits, clean_logits.shape, "adv_logits")
    adv_grad = np.zeros_like(clean_logits)
    phase = sched.phase(epoch)
    if phase == "off":
        return 0.0, np.zeros_like(clean_logits), adv_grad

    probs = softmax_rows(clean_logits)
    k = probs.shape[-1]
    dev, sq_dev = _sq_dev(probs, labels, _nonlabel_mean(probs, labels))
    scale = (1.0 if phase == "early" else -1.0) * sched.tau
    # rows in each seed's correct and misclassified subsets
    n_c = mask.sum(axis=-1)[..., None, None]
    n_m = mask.shape[-1] - n_c
    # d/d sigma of P_C_low - P_M_low: rows of each subset over that subset's size
    scaled = (2.0 / (k - 1)) * dev
    d_sigma = scale * np.where(mask[..., None], scaled / np.maximum(n_c, 1),
                               0.0 - scaled / np.maximum(n_m, 1))
    pairing = ()

    if sched.variant == "LORE" and adv_logits is not None:
        adv_probs = softmax_rows(adv_logits)
        subset, count = (~mask, n_m) if phase == "early" else (mask, n_c)
        diff = probs - adv_probs
        pairing = ((diff ** 2).sum(axis=-1), subset)
        pair_grad = 2.0 * diff / np.maximum(count, 1)
        d_sigma = d_sigma + sched.gamma * np.where(subset[..., None], pair_grad, 0.0)
        adv_grad = _softmax_chain(
            adv_probs, sched.gamma * np.where(subset[..., None], -pair_grad, 0.0))

    # one pass over the seeds gives the subset means of P_C_low, P_M_low and the pairing
    # term; an empty pairing subset adds nothing, so a -0.0 penalty keeps its sign
    means = _subset_means(sq_dev, mask, sq_dev, ~mask, *pairing)
    penalty = scale * (means[..., 0] - means[..., 1])
    if pairing:
        penalty = np.where(subset.any(axis=-1), penalty + sched.gamma * means[..., 2], penalty)
    return (penalty if penalty.ndim else float(penalty)), _softmax_chain(probs, d_sigma), adv_grad
