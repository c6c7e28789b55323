"""Reference formulas the fused library code is compared against.

Each formula is the earlier, separate-pass form of one that the library
now computes from one core.exp_logsumexp_rows call per logit matrix.  They
use only numpy and core.softmax_rows, so a change to the fused path
cannot change them too.

_batch_step is the training step as it read before the label rule, the
LOAT phase, the no-attack marker and the correct/misclassified split each
got one definition, kept verbatim.  It calls the library's forward, pgd,
objectives and loat, so it pins how the step composes them, and takes its
weight gradients from full_backward.

full_backward is the reverse chain as it read when backward returned the
input gradient too, kept verbatim with the library helpers written out in
numpy: (weight_grads, input_grad) of one network or a stack.
"""

import numpy as np

from advlab.attacks import pgd
from advlab.core import ShapeError, softmax_rows
from advlab.data import LabeledBatch
from advlab.loat import loat
from advlab.mlp import forward
from advlab.objectives import mixture_from_logits, trades_from_logits
from advlab.trainer import DivergenceError, TrainConfig


def logsumexp_split_max(m, keepdims=False):
    """scipy's split-max row logsumexp, with the maxima masked to -inf
    before the exp (the order the library used before fusing)."""
    m = np.asarray(m, dtype=np.float64)
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


def ce_logit_grad(logits, labels):
    """Gradient of each sample's CE with respect to its logits: softmax - onehot."""
    grad = softmax_rows(logits)
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad


def kl_rows(p_logits, q_logits):
    """Row-wise KL(softmax(p) || softmax(q)) in the log domain."""
    log_p = p_logits - logsumexp_split_max(p_logits, keepdims=True)
    log_q = q_logits - logsumexp_split_max(q_logits, keepdims=True)
    return (np.exp(log_p) * (log_p - log_q)).sum(axis=1)


def trades_four_lse(clean_logits, adv_logits, labels, beta):
    """TRADES loss and logit gradients with four logsumexp passes and two
    softmax passes: (loss, clean_logit_grad, adv_logit_grad)."""
    clean_logits = np.asarray(clean_logits, dtype=np.float64)
    adv_logits = np.asarray(adv_logits, dtype=np.float64)
    labels = np.asarray(labels)
    clean_ce = (logsumexp_split_max(clean_logits)
                - clean_logits[np.arange(len(labels)), labels])
    kl = kl_rows(adv_logits, clean_logits)
    loss = float(clean_ce.mean()) + beta * float(kl.mean())
    n = clean_logits.shape[0]
    p = softmax_rows(adv_logits)
    q = softmax_rows(clean_logits)
    clean_grad = (ce_logit_grad(clean_logits, labels) + beta * (q - p)) / n
    log_p = adv_logits - logsumexp_split_max(adv_logits, keepdims=True)
    log_q = clean_logits - logsumexp_split_max(clean_logits, keepdims=True)
    r = log_p - log_q
    adv_grad = beta / n * p * (r - (r * p).sum(axis=1, keepdims=True))
    return loss, clean_grad, adv_grad


def _deltas(weights: list, trace, logit_grad):
    """The reverse chain: the gradient at the output of W_L, ..., W_1, then the inputs."""
    delta = np.ascontiguousarray(logit_grad, dtype=np.float64)
    if delta.shape != trace.logits.shape:
        raise ShapeError(f"logit_grad shape {delta.shape} != logits shape {trace.logits.shape}")
    yield delta
    for w, h in zip(reversed(weights[1:]), reversed(trace.hidden)):
        delta = (delta @ w) * (h > 0.0)
        yield delta
    yield delta @ weights[0]


def full_backward(weights: list, trace, logit_grad):
    """(weight_grads, input_grad) for the scalar whose logit gradient is logit_grad."""
    chain = _deltas(weights, trace, logit_grad)
    # layer l's input is [inputs, *hidden][l]; the chain runs from the last layer
    weight_grads = [next(chain).swapaxes(-1, -2) @ h
                    for h in reversed([trace.inputs, *trace.hidden])]
    return weight_grads[::-1], next(chain)


def _batch_step(weights, batch: LabeledBatch, cfg: TrainConfig, epoch: int,
                attack_rng) -> tuple:
    """One gradient computation; returns (loss, weight_grads)."""
    obj = cfg.objective
    clean_trace = forward(weights, batch.inputs)
    if obj.needs_attack:
        adv_inputs = pgd(weights, batch, cfg.attack, attack_rng, clean_trace=clean_trace)
        adv_trace = forward(weights, adv_inputs)
    else:
        adv_trace = clean_trace

    if obj.kind == "trades":
        loss, clean_grad, adv_grad = trades_from_logits(
            clean_trace.logits, adv_trace.logits, batch.labels, obj.beta)
    else:
        lam = 0.0 if obj.kind == "standard" else obj.lam
        loss, clean_grad, adv_grad = mixture_from_logits(
            clean_trace.logits, adv_trace.logits, batch.labels, lam)

    sched = cfg.schedule
    if sched.variant != "OFF" and (epoch <= sched.e1 or epoch >= sched.e2):
        mask = clean_trace.logits.argmax(axis=1) == batch.labels
        adv_logits = adv_trace.logits if obj.needs_attack else None
        penalty, pen_clean, pen_adv = loat(
            clean_trace.logits, batch.labels, mask, epoch, sched, adv_logits)
        loss = loss + penalty
        clean_grad = clean_grad + pen_clean
        adv_grad = adv_grad + pen_adv

    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss} at epoch {epoch}")

    weight_grads, _ = full_backward(weights, clean_trace, clean_grad)
    if adv_trace is not clean_trace:
        adv_wgrads, _ = full_backward(weights, adv_trace, adv_grad)
        weight_grads = [a + b for a, b in zip(weight_grads, adv_wgrads)]
    return loss, weight_grads
