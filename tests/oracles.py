"""Reference formulas the fused library code is compared against.

Each is the earlier, separate-pass form of a formula that the library now
computes from one core.exp_logsumexp_rows call per logit matrix.  They
use only numpy and core.softmax_rows, so a change to the fused path
cannot change them too.
"""

import numpy as np

from advlab.core import softmax_rows


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
