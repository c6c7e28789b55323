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

Batch-sized arrays held throughout: the iterate (a copy of the input,
updated in place), best_x under track_best, and the l-inf clip bounds lo
and hi, made before the iterate.  A step adds the input gradient, and the
previous trace is dropped before the next forward.  The step itself, the
l-inf bounds and the l2 random start's projection run one row block at a
time: runs of rows (axis -2) of at most _BLOCK = 2^17 entries (1 MiB), or
single rows where a row holds more.  So no step temporary is batch-sized,
and a batch of at most 2^17 entries (a training batch of 128 x 784, a
sweep stack) is one block, whose l-inf step is the same five numpy calls
as an unblocked one.  Every operation of a step acts per row, so the
blocks change no bit.  An l-inf track-best attack through widths
[784, 256, 10] peaks at about 5.7 batch-sized arrays (the four above, the
gradient, and the hidden activations and their delta while input_grad
forms it), an l2 attack with a random start at about 3.7.

pgd attacks one network; pgd_stack attacks a stacked batch (see core)
through a stack of networks, every seed's attack in the same numpy calls.
Its generators are a list, one per seed, and each seed's random start is
drawn from its own, in seed order.  The labels are checked once per
attack, not once per iterate.

FGSM is PGD with p="inf", alpha=eps, k=1: with track_best=False the
output is clip(x + eps*sign(grad), 0, 1) bit for bit (for eps=0 any
alpha > 0 gives x).

Defaults follow the common l-inf setting eps=8/255, alpha=2/255, k=10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ParameterError, as_stack, check_count, check_labels, check_real, check_shape,
                   draw_per_seed)
from .data import LabeledBatch
from .mlp import ForwardTrace, forward, forward_stack, input_grad
from .objectives import ce_loss, checked_ce_loss_and_grad

_BLOCK = 2**17  # float64 entries per row block of a PGD step, bound or random start: 1 MiB


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


def _row_blocks(a) -> list:
    """Index tuples of a's row blocks: runs of rows (axis -2) of at most _BLOCK entries in
    all, and of one row where a row holds more."""
    rows = max(1, _BLOCK // (a.size // a.shape[-2]))
    return [np.s_[..., start:start + rows, :] for start in range(0, a.shape[-2], rows)]


def _corner_projection(x0, corner: float, eps: float, blocks: list) -> np.ndarray:
    """project(x0, the box corner of all-`corner` entries, "inf", eps), one row block at a
    time.  The blocks are joined once all are made: writing them into an output made
    first measured twice as slow at one block (128 x 784) and slowed small-batch sweeps."""
    return np.concatenate([project(x0[b], np.full_like(x0[b], corner), "inf", eps)
                           for b in blocks], axis=-2)


def _step(x, x0, grad, lo, hi, spec, blocks) -> None:
    """One PGD step on the iterate x in place, one row block at a time; lo and hi are
    the l-inf clip bounds."""
    for b in blocks:
        xb, gb = x[b], grad[b]
        if spec.p == "inf":
            moved = np.sign(gb)  # numpy's in-place sign is several times slower
            moved *= spec.alpha
            xb += moved
            np.maximum(xb, lo[b], out=xb)
            np.minimum(xb, hi[b], out=xb)
        else:
            norms = np.linalg.norm(gb, axis=-1, keepdims=True)
            xb[...] = project(x0[b], xb + spec.alpha * gb / np.maximum(norms, 1e-300),
                              "two", spec.eps)


def _pgd(weights, batch, spec, rng, clean_trace, forward):
    """The attack of pgd and pgd_stack; `forward` is the forward pass of the caller."""
    x0 = batch.inputs
    if spec.eps == 0.0:
        return x0.copy()
    blocks = _row_blocks(x0)
    lo = hi = None
    if spec.p == "inf":
        # The l-inf projection acts per coordinate and is monotone, so it
        # equals one clip between the projections of the box corners 0 and 1.
        # Each step does that clip in place as a maximum with lo, then a
        # minimum with hi: neither the step nor lo or hi is ever -0.0, so
        # the ties np.clip breaks the other way hold equal bits.
        lo = _corner_projection(x0, 0.0, spec.eps, blocks)
        hi = _corner_projection(x0, 1.0, spec.eps, blocks)
    x = x0.copy()  # the iterate, which random starts and steps update in place
    if spec.random_start:
        if rng is None:
            raise ParameterError("random_start requires an rng")
        seeds = x0.shape[0] if x0.ndim == 3 else None
        if spec.p == "inf":
            x += draw_per_seed(rng, lambda r: r.uniform(-spec.eps, spec.eps, x0.shape[-2:]), seeds)
            np.clip(x, lo, hi, out=x)
        else:
            # each generator draws its direction, then its radius
            direction = draw_per_seed(rng, lambda r: r.standard_normal(x0.shape[-2:]), seeds)
            radius = spec.eps * draw_per_seed(rng, lambda r: r.uniform(
                0.0, 1.0, size=(x0.shape[-2], 1)), seeds) ** (1.0 / x0.shape[-1])
            for b in blocks:
                unit = direction[b]
                unit /= np.maximum(np.linalg.norm(unit, axis=-1, keepdims=True), 1e-300)
                x[b] = project(x0[b], x[b] + radius[b] * unit, "two", spec.eps)
            del direction, unit  # unit is a view, which would keep direction alive

    # The clean point is always a candidate: with a random start its CE is
    # the baseline, and without one it is iterate 0 over a -inf baseline.
    if clean_trace is None and (spec.track_best or not spec.random_start):
        clean_trace = forward(weights, x0)
    trace = forward(weights, x) if spec.random_start else clean_trace
    labels = check_labels(batch.labels, *trace.logits.shape)
    if spec.track_best:
        best_x = x0.copy()
        best_loss = ce_loss(clean_trace.logits, labels)[0] if spec.random_start else -np.inf
    del clean_trace  # so that the loop's `del trace` frees iterate 0's trace

    for step in range(spec.k + 1):
        if step:
            _step(x, x0, input_grad(weights, trace, logit_grad), lo, hi, spec, blocks)
            if step == spec.k and not spec.track_best:
                break
            del trace
            trace = forward(weights, x)
        loss, logit_grad = checked_ce_loss_and_grad(trace.logits, labels)
        if spec.track_best:
            improved = loss > best_loss
            np.copyto(best_x, x, where=improved[..., None])
            best_loss = np.maximum(best_loss, loss)

    return best_x if spec.track_best else x
