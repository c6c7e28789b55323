"""Bias-free ReLU multi-layer perceptrons with exact reverse-mode gradients.

A network is a list of weight matrices W_1..W_L, layer l shaped
H_l x H_{l-1}; logits(x) = W_L relu(... relu(W_1 x)).  There are no bias
vectors, so scaling every W_l by c > 0 scales logits by c^L (positive
homogeneity).  The ReLU subgradient at exactly 0 is taken as 0.
backward (weight gradients) and input_grad read one reverse chain:
backward forms no input product delta @ W_1, and input_grad no weight
gradient.  A ForwardTrace keeps each activation once (inputs, hidden,
logits): a hidden activation relu(z) is also its mask.
forward and backward take one network.  forward_stack and backward_stack
run a stack of networks (weights S x H_l x H_{l-1}) on a stack of batches,
or on one batch shared by the stack, and input_grad takes either; each
slice gets the bits of its own 2-D call (see core).

Checkpoint format (little-endian): magic "AMLP" | u8 version=1 |
u32 L+1 | (L+1) x u32 widths | per layer row-major float64 entries.
A file that is shorter or longer than its widths imply is rejected.

Note on figure conventions elsewhere in this project: a "1-layer MLP"
means one hidden layer, i.e. widths [d, H, K].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (ParameterError, ShapeError, as_matrix, as_stack, check_count, check_finite,
                   make_rng)

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


def widths_of(weights: list) -> list:
    return [weights[0].shape[1]] + [w.shape[0] for w in weights]


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
        h = np.maximum(h @ _t(w), 0.0)
        hidden.append(h)
    logits = check_finite(h @ _t(weights[-1]), "logits")
    return ForwardTrace(inputs=inputs, hidden=hidden, logits=logits)


def _deltas(weights: list, trace: ForwardTrace, logit_grad):
    """The reverse chain: the gradient at the output of W_L, ..., W_1."""
    delta = as_stack(logit_grad)
    if delta.shape != trace.logits.shape:
        raise ShapeError(f"logit_grad shape {delta.shape} != logits shape {trace.logits.shape}")
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
    widths = widths_of(weights)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(widths)))
        fh.write(struct.pack(f"<{len(widths)}I", *widths))
        for w in weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_checkpoint(path) -> list:
    """Read a checkpoint; ValueError unless the file is exactly one whole checkpoint."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {raw[:4]!r}")
    _check_length(raw, 9, "header")
    version = raw[4]
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (nw,) = struct.unpack("<I", raw[5:9])
    if nw < 2:
        raise ValueError(f"checkpoint lists {nw} widths, need at least 2")
    offset = 9 + 4 * nw
    _check_length(raw, offset, "width table")
    widths = struct.unpack(f"<{nw}I", raw[9:offset])
    counts = [widths[l] * widths[l - 1] for l in range(1, nw)]
    expected = offset + 8 * sum(counts)
    if len(raw) != expected:
        raise ValueError(f"checkpoint for widths {list(widths)} is {expected} bytes, "
                         f"file has {len(raw)}")
    weights = []
    for l, count in enumerate(counts, start=1):
        w = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        weights.append(w.reshape(widths[l], widths[l - 1]).copy())
        offset += 8 * count
    return weights


def _check_length(raw: bytes, needed: int, part: str) -> None:
    if len(raw) < needed:
        raise ValueError(f"checkpoint {part} needs {needed} bytes, file has {len(raw)}")
