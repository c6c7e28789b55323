"""Dataset ingestion and batching.

Inputs are always matrices with entries in [0, 1]; labels follow
core.check_labels.  A batch of a seed stack (see core) holds one matrix
and one label row per seed; `batches` gathers one with a generator per
seed.  MNIST-style IDX files are read bit-exactly per the canonical
format (big-endian magic + dimension sizes + raw bytes).

dump_array/load_array round-trip a matrix (batch inputs, or logits for
`advlab bounds`) with its labels: little-endian ``magic "ALB1" | u32 d |
u32 n | u32 K``, then n*d float64 entries (row-major) and n int32 labels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (ParameterError, as_matrix, as_stack, check_count, check_labels, check_real,
                   draw_per_seed, make_rng)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
DUMP_MAGIC = b"ALB1"


class FormatError(ValueError):
    """A file does not conform to its declared binary format."""


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
    if len(raw) < 4:
        raise FormatError(f"{what}: truncated header in {path}")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise FormatError(
            f"{what}: bad magic 0x{magic:08x} in {path}, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise FormatError(f"{what}: truncated dimension header in {path}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    count = math.prod(dims)
    body = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    if body.size != count:
        raise FormatError(f"{what}: expected {count} bytes of data, found {body.size} in {path}")
    return body.reshape(dims)


def load_idx(images_path, labels_path, limit: int | None = None) -> LabeledBatch:
    """Load an MNIST-style IDX image/label pair, scaled into [0, 1].

    Pixels are divided by 255 exactly; no mean-centering.  When `limit`
    is given the first `limit` samples are kept (no class rebalancing).
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "images")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
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


def synth_blobs(rng: np.random.Generator, n: int, d: int, K: int, spread: float) -> LabeledBatch:
    """Seeded Gaussian clusters with centers in [0,1]^d, clipped to [0,1]^d.

    Labels are near-balanced: class counts differ by at most one.
    """
    return _blobs(rng, [n], d, K, spread)[0]


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
    """Write {d, n, K} header + float64 matrix + int32 labels (little-endian)."""
    matrix = as_matrix(matrix)
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(struct.pack("<III", matrix.shape[1], matrix.shape[0], num_classes))
        fh.write(matrix.tobytes())
        fh.write(labels.astype("<i4").tobytes())


def load_array(path):
    """Inverse of dump_array -> (matrix, labels, num_classes)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FormatError(f"dump too short at byte {len(raw)}")
    if raw[:4] != DUMP_MAGIC:
        raise FormatError(f"bad dump magic at byte 0: {raw[:4]!r}")
    d, n, k = struct.unpack("<III", raw[4:16])
    need = 16 + 8 * n * d + 4 * n
    if len(raw) != need:
        raise FormatError(f"dump length {len(raw)} != expected {need} (error near byte 16)")
    matrix = np.frombuffer(raw, dtype="<f8", count=n * d, offset=16).reshape(n, d)
    labels = np.frombuffer(raw, dtype="<i4", offset=16 + 8 * n * d).astype(np.int64)
    return matrix.copy(), labels, k

