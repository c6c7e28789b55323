"""Bias-free ReLU multi-layer perceptrons with exact reverse-mode gradients.

A network is a list of weight matrices W_1..W_L, layer l shaped
H_l x H_{l-1}; logits(x) = W_L relu(... relu(W_1 x)).  There are no bias
vectors, so scaling every W_l by c > 0 scales logits by c^L (positive
homogeneity).  The ReLU subgradient at exactly 0 is taken as 0.
backward (weight gradients) and input_grad read one reverse chain:
backward forms no input product delta @ W_1, and input_grad no weight
gradient.  A ForwardTrace keeps each activation once (inputs, hidden,
logits): a hidden activation relu(z) is also its mask.  The ReLU
overwrites its pre-activation z, so a forward holds one n x H_l array per
hidden layer.
forward_stack and backward_stack are forward and backward for a stack (see core).

Checkpoint format (little-endian): magic "AMLP" | u8 version=1 |
u32 L+1 | (L+1) x u32 widths | per layer row-major float64 entries,
read through core.unpack_at and core.body_at.

Note on figure conventions elsewhere in this project: a "1-layer MLP"
means one hidden layer, i.e. widths [d, H, K].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (FormatError, ParameterError, ShapeError, as_matrix, as_stack, body_at,
                   check_count, check_finite, check_real, check_shape, make_rng, unpack_at)

CHECKPOINT_MAGIC = b"AMLP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MlpConfig:
    layer_widths: list  # [H_0=d, H_1, ..., H_L=K]
    seed: int = 0
    init_scale: float | None = None  # None -> He scaling sqrt(2/fan_in)

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ParameterError("layer_widths needs length >= 2")
        for w in self.layer_widths:
            check_count(w, "layer_widths entry")
        check_count(self.seed, "seed", least=0)
        if self.init_scale is not None:
            check_real(self.init_scale, "init_scale", "[0, inf)")


@dataclass(frozen=True)
class ForwardTrace:
    inputs: np.ndarray
    hidden: list  # length L-1: relu(W_l h_{l-1}), layer l's output
    logits: np.ndarray


def init_weights(cfg: MlpConfig) -> list:
    """Gaussian init, std sqrt(2/fan_in) (He) or a fixed scale."""
    rng = make_rng(cfg.seed)
    widths = cfg.layer_widths
    layers = []
    for l in range(1, len(widths)):
        scale = np.sqrt(2.0 / widths[l - 1]) if cfg.init_scale is None else cfg.init_scale
        layers.append(scale * rng.standard_normal((widths[l], widths[l - 1])))
    return layers


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _one(weights: list) -> list:
    """weights, if they are one network's matrices; else ShapeError."""
    if weights[0].ndim != 2:
        raise ShapeError(f"expected one network's weight matrices, got ndim={weights[0].ndim}"
                         " (a stack runs through forward_stack and backward_stack)")
    return weights


def forward(weights: list, inputs) -> ForwardTrace:
    """Forward pass of one network keeping every intermediate needed for backprop."""
    return _forward(_one(weights), as_matrix(inputs))


def forward_stack(weights: list, inputs) -> ForwardTrace:
    """forward of a stack of networks on a stacked batch (S x n x d) or a shared one (n x d)."""
    return _forward(weights, as_stack(inputs))


def _forward(weights: list, inputs: np.ndarray) -> ForwardTrace:
    if inputs.shape[-1] != weights[0].shape[-1]:
        raise ShapeError(
            f"input dim {inputs.shape[-1]} != first layer fan-in {weights[0].shape[-1]}"
        )
    hidden = []
    h = inputs
    for w in weights[:-1]:
        h = h @ _t(w)
        np.maximum(h, 0.0, out=h)
        hidden.append(h)
    logits = check_finite(h @ _t(weights[-1]), "logits")
    return ForwardTrace(inputs=inputs, hidden=hidden, logits=logits)


def _deltas(weights: list, trace: ForwardTrace, logit_grad):
    """The reverse chain: the gradient at the output of W_L, ..., W_1."""
    delta = as_stack(check_shape(logit_grad, trace.logits.shape, "logit_grad"))
    yield delta
    for w, h in zip(reversed(weights[1:]), reversed(trace.hidden)):
        delta = (delta @ w) * (h > 0.0)
        yield delta


def backward(weights: list, trace: ForwardTrace, logit_grad) -> list:
    """Exact reverse-mode weight gradients [dW_1, ..., dW_L] of one network for
    the scalar whose gradient with respect to the logits is `logit_grad` (n x K)."""
    return _backward(_one(weights), trace, logit_grad)


def backward_stack(weights: list, trace: ForwardTrace, logit_grad) -> list:
    """backward of a stack of networks: logit_grad is S x n x K, and each
    weight gradient has one slice per seed."""
    return _backward(weights, trace, logit_grad)


def _backward(weights: list, trace: ForwardTrace, logit_grad) -> list:
    # layer l's input is [inputs, *hidden][l]; the chain runs from the last layer
    layer_inputs = reversed([trace.inputs, *trace.hidden])
    return [_t(d) @ h for d, h in zip(_deltas(weights, trace, logit_grad), layer_inputs)][::-1]


def input_grad(weights: list, trace: ForwardTrace, logit_grad) -> np.ndarray:
    """Exact input gradient of one network or a stack: backward's chain, then delta @ W_1."""
    for delta in _deltas(weights, trace, logit_grad):
        pass
    return delta @ weights[0]


def save_checkpoint(weights: list, path) -> None:
    widths = [weights[0].shape[1]] + [w.shape[0] for w in weights]
    header = struct.pack(f"<4sBI{len(widths)}I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         len(widths), *widths)
    Path(path).write_bytes(b"".join([header, *(np.ascontiguousarray(w, "<f8") for w in weights)]))


def load_checkpoint(path) -> list:
    """Read a checkpoint; FormatError unless the file is exactly one whole checkpoint."""
    raw = Path(path).read_bytes()
    magic, version, nw = unpack_at(raw, 0, "<4sBI", "checkpoint header")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if nw < 2:
        raise FormatError(f"checkpoint lists {nw} widths, need at least 2")
    widths = unpack_at(raw, 9, f"<{nw}I", "checkpoint width table")
    if min(widths) < 1:
        raise FormatError(f"checkpoint widths {list(widths)} must all be >= 1")
    counts = [h * w for h, w in zip(widths[1:], widths)]
    body = body_at(raw, 9 + 4 * nw, "<f8", sum(counts), "checkpoint body")
    return [part.reshape(h, w).copy()
            for part, h, w in zip(np.split(body, np.cumsum(counts)[:-1]), widths[1:], widths)]
