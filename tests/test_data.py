import struct

import numpy as np
import pytest

from advlab.core import ParameterError, make_rng
from advlab.data import (FormatError, LabeledBatch, batches, dump_array,
                         load_array, load_idx, synth_blobs)


def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        fh.write(labels.tobytes())


@pytest.fixture
def idx_pair(tmp_path):
    rng = make_rng(0)
    images = rng.integers(0, 256, size=(12, 4, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, size=12).astype(np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


class TestLoadIdx:
    def test_roundtrip_and_scaling(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        batch = load_idx(img_path, lab_path)
        assert batch.inputs.shape == (12, 16)
        assert np.array_equal(batch.inputs, images.reshape(12, 16) / 255.0)
        assert np.array_equal(batch.labels, labels)

    def test_limit(self, idx_pair):
        img_path, lab_path, *_ = idx_pair
        batch = load_idx(img_path, lab_path, limit=5)
        assert batch.n == 5

    def test_limit_zero_rejected(self, idx_pair):
        img_path, lab_path, *_ = idx_pair
        with pytest.raises(ParameterError):
            load_idx(img_path, lab_path, limit=0)

    def test_bad_magic(self, idx_pair):
        img_path, lab_path, *_ = idx_pair
        # image file offered as labels: wrong magic
        with pytest.raises(FormatError):
            load_idx(img_path, img_path)

    def test_truncated_file(self, tmp_path, idx_pair):
        img_path, lab_path, *_ = idx_pair
        broken = tmp_path / "broken.idx"
        broken.write_bytes(img_path.read_bytes()[:-7])
        with pytest.raises(FormatError, match="expected 192 bytes of data, found 185"):
            load_idx(broken, lab_path)

    @pytest.mark.parametrize("keep", [2, 6])  # inside the magic, inside the dims
    def test_truncated_header(self, tmp_path, idx_pair, keep):
        img_path, lab_path, *_ = idx_pair
        broken = tmp_path / "broken.idx"
        broken.write_bytes(img_path.read_bytes()[:keep])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(broken, lab_path)

    def test_padded_body(self, tmp_path, idx_pair):
        img_path, lab_path, *_ = idx_pair
        padded = tmp_path / "padded.idx"
        padded.write_bytes(lab_path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="expected 12 bytes of data, found 13"):
            load_idx(img_path, padded)

    def test_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, labels = idx_pair
        short = tmp_path / "short.idx"
        write_idx_labels(short, labels[:7])
        with pytest.raises(ValueError):
            load_idx(img_path, short)


class TestSynthBlobs:
    def test_determinism(self):
        a = synth_blobs(make_rng(4), 60, 5, 3, 0.1)
        b = synth_blobs(make_rng(4), 60, 5, 3, 0.1)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_balance_and_range(self):
        batch = synth_blobs(make_rng(1), 101, 8, 4, 0.2)
        counts = np.bincount(batch.labels, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert batch.inputs.min() >= 0.0 and batch.inputs.max() <= 1.0

    def test_param_errors(self):
        with pytest.raises(ParameterError):
            synth_blobs(make_rng(0), 1, 4, 2, 0.1)
        with pytest.raises(ParameterError):
            synth_blobs(make_rng(0), 10, 4, 1, 0.1)
        with pytest.raises(ParameterError):
            synth_blobs(make_rng(0), 10, 4, 2, 0.0)

    def test_tight_blobs_linearly_separable(self):
        # near-zero spread: a linear model fits the training set perfectly
        from advlab.mlp import MlpConfig
        from advlab.objectives import ObjectiveSpec, risk
        from advlab.trainer import TrainConfig, train

        batch = synth_blobs(make_rng(2), 100, 6, 2, 1e-4)
        from advlab.data import DatasetHandle
        data = DatasetHandle(batch, batch, "tiny", "synthetic")
        cfg = TrainConfig(model=MlpConfig([6, 2], seed=0),
                          objective=ObjectiveSpec(kind="standard"),
                          epochs=50, batch_size=25, lr=0.5, seed=0,
                          metrics_every=50)
        weights, _ = train(cfg, data)
        assert risk(weights, batch).accuracy == 1.0


class TestBatches:
    def test_chunk_sizes(self):
        batch = synth_blobs(make_rng(3), 10, 3, 2, 0.1)
        sizes = [b.n for b in batches(batch, 3, make_rng(0))]
        assert sizes == [3, 3, 3, 1]

    def test_single_chunk_is_permutation(self):
        batch = synth_blobs(make_rng(3), 10, 3, 2, 0.1)
        chunks = list(batches(batch, 100, make_rng(0)))
        assert len(chunks) == 1
        assert sorted(chunks[0].labels) == sorted(batch.labels)

    def test_partition_property(self):
        batch = synth_blobs(make_rng(5), 23, 3, 4, 0.1)
        all_labels = np.concatenate(
            [b.labels for b in batches(batch, 4, make_rng(1))])
        assert np.array_equal(np.sort(all_labels), np.sort(batch.labels))


class TestDumpFormat:
    def test_bit_exact_roundtrip(self, tmp_path):
        batch = synth_blobs(make_rng(6), 17, 5, 3, 0.2)
        path = tmp_path / "batch.bin"
        dump_array(batch.inputs, batch.labels, batch.num_classes, path)
        inputs, labels, num_classes = load_array(path)
        assert np.array_equal(inputs, batch.inputs)
        assert np.array_equal(labels, batch.labels)
        assert num_classes == batch.num_classes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(FormatError):
            load_array(path)


class TestLabeledBatch:
    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ParameterError):
            LabeledBatch(np.array([[1.5]]), np.array([0]), 2)

    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            LabeledBatch(np.array([[0.5]]), np.array([2]), 2)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            LabeledBatch(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
