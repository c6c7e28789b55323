"""Dataset ingestion and batching.

Inputs are always matrices with entries in [0, 1]; labels follow
core.check_labels.  A batch of a seed stack (see core) holds one matrix
and one label row per seed; `batches` gathers one with a generator per
seed.  MNIST-style IDX files are read bit-exactly per the canonical
format (big-endian magic + dimension sizes + raw bytes).

dump_array/load_array round-trip a matrix (batch inputs, or logits for
`advlab bounds`) with its labels: little-endian ``magic "ALB1" | u32 d |
u32 n | u32 K``, then n*d float64 entries (row-major) and n int32 labels.
Both formats, like mlp's checkpoints, are read through core's one layout
rule (unpack_at, body_at): a file that ends early or runs on past its body
raises FormatError, naming the part and its expected and found byte counts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (FormatError, ParameterError, as_matrix, as_stack, body_at, check_count,
                   check_labels, check_real, draw_per_seed, make_rng, unpack_at)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
DUMP_MAGIC = b"ALB1"


@dataclass(frozen=True)
class LabeledBatch:
    inputs: np.ndarray  # n x d (S x n x d for a stack), entries in [0, 1]
    labels: np.ndarray  # n (S x n) int64 values in {0..K-1}
    num_classes: int

    def __post_init__(self):
        inputs = as_stack(self.inputs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels",
                           check_labels(self.labels, *inputs.shape[:-1], self.num_classes))
        if not (inputs.min() >= 0.0 and inputs.max() <= 1.0):  # NaN fails both
            raise ParameterError("inputs must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.inputs.shape[-2]

    @property
    def dim(self) -> int:
        return self.inputs.shape[-1]


@dataclass(frozen=True)
class DatasetHandle:
    train: LabeledBatch
    test: LabeledBatch
    name: str
    source: str  # "idx-files" | "synthetic"

    def __post_init__(self):
        if self.train.dim != self.test.dim or self.train.num_classes != self.test.num_classes:
            raise ParameterError("train and test must share d and K")


def _read_idx(path, expected_magic: int, what: str):
    raw = Path(path).read_bytes()
    (magic,) = unpack_at(raw, 0, ">I", f"{what} magic in {path}")
    if magic != expected_magic:
        raise FormatError(f"{what}: bad magic 0x{magic:08x} in {path}, "
                          f"expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    dims = unpack_at(raw, 4, f">{ndim}I", f"{what} dimensions in {path}")
    body = body_at(raw, 4 + 4 * ndim, np.uint8, math.prod(dims), f"{what} body in {path}")
    return body.reshape(dims)


def load_idx(images_path, labels_path, limit: int | None = None) -> LabeledBatch:
    """Load an MNIST-style IDX image/label pair, scaled into [0, 1].

    Pixels are divided by 255 exactly; no mean-centering.  When `limit`
    is given the first `limit` samples are kept (no class rebalancing).
    Files holding different sample counts raise FormatError naming both.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "images")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"{images_path} holds {images.shape[0]} images but "
                          f"{labels_path} holds {labels.shape[0]} labels")
    if limit is not None:
        check_count(limit, "limit")
        images = images[:limit]
        labels = labels[:limit]
    n = images.shape[0]
    inputs = images.reshape(n, -1).astype(np.float64) / 255.0
    return LabeledBatch(inputs, labels.astype(np.int64), num_classes=10)


def _blobs(rng: np.random.Generator, sizes, d: int, K: int, spread: float) -> list:
    """One batch per size, sampled around one shared draw of K centers."""
    if K < 2 or min(sizes) < K or d < 1:
        raise ParameterError("require n >= K >= 2 for every split, d >= 1")
    check_real(spread, "spread", "(0, inf)")
    centers = rng.uniform(0.0, 1.0, size=(K, d))
    out = []
    for n in sizes:
        labels = np.arange(n) % K
        labels = labels[rng.permutation(n)]
        inputs = centers[labels] + spread * rng.standard_normal((n, d))
        np.clip(inputs, 0.0, 1.0, out=inputs)
        out.append(LabeledBatch(inputs, labels, num_classes=K))
    return out


def blob_dataset(seed: int = 0, n_train: int = 1000, n_test: int = 500, d: int = 16, K: int = 4,
                 spread: float = 0.08) -> DatasetHandle:
    """Train/test splits sampled around one shared set of cluster centers."""
    check_count(seed, "seed", least=0)
    train, test = _blobs(make_rng(seed), [n_train, n_test], d, K, spread)
    return DatasetHandle(train, test, name=f"blobs-{d}d-{K}k", source="synthetic")


def idx_dataset(train_images: str, train_labels: str, test_images: str, test_labels: str,
                train_limit: int | None = None, test_limit: int | None = None,
                name: str = "idx") -> DatasetHandle:
    """Train/test splits from two MNIST-style IDX image/label pairs (see load_idx)."""
    return DatasetHandle(load_idx(train_images, train_labels, train_limit),
                         load_idx(test_images, test_labels, test_limit),
                         name=name, source="idx-files")


def batches(b: LabeledBatch, batch_size: int, rng):
    """Seeded shuffle split into consecutive chunks; last may be smaller.

    `rng` is one generator, or a list of generators, one per seed of a
    stack: each draws its own order of b's rows, and every chunk is then
    the stacked gather of those orders.
    """
    check_count(batch_size, "batch_size")
    order = draw_per_seed(rng, lambda r: r.permutation(b.n))
    for start in range(0, b.n, batch_size):
        idx = order[..., start : start + batch_size]
        yield LabeledBatch(b.inputs[idx], b.labels[idx], b.num_classes)


def dump_array(matrix: np.ndarray, labels: np.ndarray, num_classes: int, path) -> None:
    """Write {d, n, K} header + float64 matrix + int32 labels (little-endian); K must fit
    the u32 header field and the labels pass check_labels, each below 2^31 to fit int32,
    before anything is written."""
    check_count(num_classes, "num_classes")
    if num_classes >= 2**32:
        raise ParameterError(f"num_classes must be below 2^32, got {num_classes}")
    matrix = as_matrix(matrix)
    labels = check_labels(labels, matrix.shape[0], min(num_classes, 2**31))
    header = struct.pack("<4sIII", DUMP_MAGIC, matrix.shape[1], matrix.shape[0], num_classes)
    Path(path).write_bytes(b"".join([header, matrix.astype("<f8", copy=False),
                                     labels.astype("<i4")]))


def load_array(path):
    """Inverse of dump_array -> (matrix, labels, num_classes)."""
    raw = Path(path).read_bytes()
    magic, d, n, k = unpack_at(raw, 0, "<4sIII", "dump header")
    if magic != DUMP_MAGIC:
        raise FormatError(f"bad dump magic at byte 0: {magic!r}")
    body = body_at(raw, 16, np.uint8, 8 * n * d + 4 * n, "dump body")
    labels = body[8 * n * d:].view("<i4").astype(np.int64)
    return body[:8 * n * d].view("<f8").reshape(n, d).copy(), labels, k
