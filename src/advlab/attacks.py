"""k-step PGD under l-inf / l2 balls with [0,1] clipping.

PGD performs fixed-size gradient-ascent steps on the mean CE loss, each
followed by projection onto the epsilon-ball around the clean input and
a clamp into [0,1]^d.  With track_best the per-sample iterate with
maximal CE is returned, and the clean start is always a candidate, so
CE(output) >= CE(clean) holds per sample by construction.

The attack is one loop over iterates 0..k, the start (clean or random)
and each step's output.  Each iterate is forwarded once, and its one CE
pass gives both its track-best candidate update and the input gradient
of the next step; without track_best the last iterate is not forwarded.
Gradients use mlp.input_grad, the input-only backward, which skips the
weight gradients an attack would throw away.  A caller that has already
forwarded the clean batch (the trainer does) passes that trace as
`clean_trace`; it supplies the clean CE and the first gradient.  The
outputs are bit-identical to forwarding every iterate twice.

Every row of an attack is independent (the CE gradient is per sample), so
the whole attack runs once per row block of core.row_blocks (at most 2^17
entries of one seed's slice), random start included: an l-inf one is
uniform in [-eps, eps] per entry, an l2 one the first d of d + 2 standard
normals scaled to norm eps, which is uniform in the eps-ball (Voelker,
Gosmann & Stewart 2017).  Both fill the stream row by row, so pgd on a
batch equals pgd on each of its blocks in turn with one generator.  Only
the output, a copy of the input that each block's iterate updates in
place, is batch-sized: on 2000 x 784 through [784, 256, 10] PGD peaks at
about 1.6 batch-sized arrays, with or without a random start.  A block's
gemm rows equal the whole batch's only outside OpenBLAS's small-matrix
path (0.3.31: M*N <= 1200, so blocks of at most 120 rows at 10 classes).
A batch of at most 2^17 entries per seed (a 128 x 784 training batch, a
sweep stack) is one block and equals the unblocked attack, as do 256 x
784 and 2000 x 784 (blocks of 128 and 166-167 rows); the bits of any other
multi-block attack are fixed by the batch shape.  A stack is cut as
each seed's batch is, so pgd_stack equals each seed's pgd.

pgd attacks one network; pgd_stack attacks a stacked batch (see core)
through a stack of networks, every seed's attack in the same numpy calls.
Its generators are a list, one per seed: each block draws every seed's
random start from that seed's own generator, in seed order.  The labels
are checked once per attack, not once per iterate.

FGSM is PGD with p="inf", alpha=eps, k=1: with track_best=False the
output is clip(x + eps*sign(grad), 0, 1) bit for bit (for eps=0 any
alpha > 0 gives x).

Defaults follow the common l-inf setting eps=8/255, alpha=2/255, k=10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ParameterError, as_stack, check_count, check_labels, check_real, check_shape,
                   draw_per_seed, row_blocks)
from .data import LabeledBatch
from .mlp import ForwardTrace, forward, forward_stack, input_grad
from .objectives import ce_loss, checked_ce_loss_and_grad


@dataclass(frozen=True)
class AttackSpec:
    p: str = "inf"  # "inf" | "two"
    eps: float = 8.0 / 255.0
    alpha: float = 2.0 / 255.0
    k: int = 10
    random_start: bool = False
    track_best: bool = True

    def __post_init__(self):
        if self.p not in ("inf", "two"):
            raise ParameterError("p must be 'inf' or 'two'")
        check_real(self.eps, "eps", "[0, inf)")
        check_real(self.alpha, "alpha", "(0, inf)")
        check_count(self.k, "k")


def eval_attack_pair(spec: AttackSpec) -> tuple:
    """TrainConfig.eval_attacks of a run trained under `spec`: track-best
    FGSM (alpha=eps, any alpha at eps=0) and spec's PGD without a random start."""
    return (("fgsm", AttackSpec(p="inf", eps=spec.eps, alpha=spec.eps or spec.alpha, k=1)),
            ("pgd", AttackSpec(p=spec.p, eps=spec.eps, alpha=spec.alpha, k=spec.k)))


def project(x0, x, p: str, eps: float) -> np.ndarray:
    """Project x onto the eps-ball around x0, then clamp into [0,1]."""
    check_real(eps, "eps", "[0, inf)")
    x0 = as_stack(x0)
    x = as_stack(check_shape(x, x0.shape, "x"))
    if p == "inf":
        x = np.clip(x, x0 - eps, x0 + eps)
    elif p == "two":
        delta = x - x0
        norms = np.linalg.norm(delta, axis=-1, keepdims=True)
        scale = np.where(norms > eps, eps / np.maximum(norms, 1e-300), 1.0)
        x = x0 + delta * scale
    else:
        raise ParameterError("p must be 'inf' or 'two'")
    return np.clip(x, 0.0, 1.0, out=x)  # x is this call's own array in both branches


def pgd(weights: list, batch: LabeledBatch, spec: AttackSpec,
        rng: np.random.Generator | None = None,
        clean_trace: ForwardTrace | None = None) -> np.ndarray:
    """k-step projected gradient ascent on CE inside the eps-ball.

    `clean_trace`, if given, must be forward(weights, batch.inputs).
    """
    return _pgd(weights, batch, spec, rng, clean_trace, forward)


def pgd_stack(weights: list, batch: LabeledBatch, spec: AttackSpec,
              rngs: list | None = None,
              clean_trace: ForwardTrace | None = None) -> np.ndarray:
    """pgd of a stack of networks on a stacked batch, with one generator per seed.

    `clean_trace`, if given, must be forward_stack(weights, batch.inputs).
    """
    return _pgd(weights, batch, spec, rngs, clean_trace, forward_stack)


def _step(x, x0, grad, lo, hi, spec) -> None:
    """One PGD step on the iterate x in place; lo and hi are the l-inf clip bounds."""
    if spec.p == "inf":
        moved = np.sign(grad)  # numpy's in-place sign is several times slower
        moved *= spec.alpha
        x += moved
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)
    else:
        norms = np.linalg.norm(grad, axis=-1, keepdims=True)
        x[...] = project(x0, x + spec.alpha * grad / np.maximum(norms, 1e-300), "two", spec.eps)


def _pgd(weights, batch, spec, rng, clean_trace, forward):
    """The attack of pgd and pgd_stack; `forward` is the forward pass of the caller."""
    x0 = batch.inputs
    if spec.eps == 0.0:
        return x0.copy()
    labels = check_labels(batch.labels, *x0.shape[:-1], weights[-1].shape[-2])
    if clean_trace is not None:
        check_shape(clean_trace.logits, (*labels.shape, weights[-1].shape[-2]), "clean logits")
    if spec.random_start and rng is None:
        raise ParameterError("random_start requires an rng")
    seeds = x0.shape[0] if x0.ndim == 3 else None
    x = x0.copy()  # the iterate, which random starts and steps update in place

    for rows in row_blocks(x0):
        x0_b, x_b, labels_b = x0[..., rows, :], x[..., rows, :], labels[..., rows]
        lo = hi = None
        if spec.p == "inf":
            # The l-inf projection acts per coordinate and is monotone, so it equals
            # one clip between the projections of the box corners 0 and 1.  Each step
            # clips in place, a maximum with lo then a minimum with hi: neither the step
            # nor lo or hi is ever -0.0, so the ties np.clip breaks otherwise keep bits.
            lo, hi = (project(x0_b, np.full_like(x0_b, corner), "inf", spec.eps)
                      for corner in (0.0, 1.0))
            if spec.random_start:
                x_b += draw_per_seed(rng, lambda r: r.uniform(-spec.eps, spec.eps,
                                                              x_b.shape[-2:]), seeds)
                np.clip(x_b, lo, hi, out=x_b)
        elif spec.random_start:
            # d of d + 2 coordinates uniform on the eps-sphere are uniform in the ball
            start = draw_per_seed(rng, lambda r: r.standard_normal(
                (x_b.shape[-2], x_b.shape[-1] + 2)), seeds)
            start *= spec.eps / np.linalg.norm(start, axis=-1, keepdims=True)
            x_b[...] = project(x0_b, x0_b + start[..., :-2], "two", spec.eps)

        # The clean point is always a candidate: with a random start its CE is
        # the baseline, and without one it is iterate 0 over a -inf baseline.
        clean = None if clean_trace is None else ForwardTrace(
            clean_trace.inputs[..., rows, :], [h[..., rows, :] for h in clean_trace.hidden],
            clean_trace.logits[..., rows, :])
        if clean is None and (spec.track_best or not spec.random_start):
            clean = forward(weights, x0_b)
        trace = forward(weights, x_b) if spec.random_start else clean
        if spec.track_best:
            best_x = x0_b.copy()
            best_loss = ce_loss(clean.logits, labels_b)[0] if spec.random_start else -np.inf

        for step in range(spec.k + 1):
            if step:
                _step(x_b, x0_b, input_grad(weights, trace, logit_grad), lo, hi, spec)
                if step == spec.k and not spec.track_best:
                    break
                trace = forward(weights, x_b)
            loss, logit_grad = checked_ce_loss_and_grad(trace.logits, labels_b)
            if spec.track_best:
                improved = loss > best_loss
                np.copyto(best_x, x_b, where=improved[..., None])
                best_loss = np.maximum(best_loss, loss)
        if spec.track_best:
            x_b[...] = best_x

    return x
