import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab.core import ParameterError, make_rng
from advlab.data import (DatasetHandle, FormatError, LabeledBatch, batches, blob_dataset,
                         dump_array, load_array, load_idx)
from advlab.mlp import MlpConfig, init_weights, load_checkpoint, save_checkpoint

from oracles import synth_blobs


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

    @pytest.mark.parametrize("limit", [0, "5", 2.5, True])
    def test_limit_zero_rejected(self, idx_pair, limit):
        # "5" and 2.5 raised a bare TypeError, and True kept one sample
        img_path, lab_path, *_ = idx_pair
        with pytest.raises(ParameterError, match="limit"):
            load_idx(img_path, lab_path, limit=limit)

    def test_bad_magic(self, idx_pair):
        img_path, lab_path, *_ = idx_pair
        # image file offered as labels: wrong magic
        with pytest.raises(FormatError):
            load_idx(img_path, img_path)

    def test_truncated_file(self, tmp_path, idx_pair):
        img_path, lab_path, *_ = idx_pair
        broken = tmp_path / "broken.idx"
        broken.write_bytes(img_path.read_bytes()[:-7])
        with pytest.raises(FormatError,
                           match="images body in .*: expected 192 bytes at byte 16, found 185$"):
            load_idx(broken, lab_path)

    @pytest.mark.parametrize("keep, message", [
        (2, "images magic in .*: expected 4 bytes at byte 0, found 2$"),
        (6, "images dimensions in .*: expected 12 bytes at byte 4, found 2$"),
    ], ids=["2", "6"])  # inside the magic, inside the dims
    def test_truncated_header(self, tmp_path, idx_pair, keep, message):
        img_path, lab_path, *_ = idx_pair
        broken = tmp_path / "broken.idx"
        broken.write_bytes(img_path.read_bytes()[:keep])
        with pytest.raises(FormatError, match=message):
            load_idx(broken, lab_path)

    def test_dims_whose_product_wraps_int64(self, tmp_path, idx_pair):
        # 2^31 * 2^31 * 4 = 2^64 wrapped to 0 in int64, so an empty body passed
        _, lab_path, *_ = idx_pair
        huge = tmp_path / "huge.idx"
        huge.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 2**31, 4))
        with pytest.raises(FormatError,
                           match=f"images body in .*: expected {2**64} bytes at byte 16, found 0$"):
            load_idx(huge, lab_path)

    def test_padded_body(self, tmp_path, idx_pair):
        img_path, lab_path, *_ = idx_pair
        padded = tmp_path / "padded.idx"
        padded.write_bytes(lab_path.read_bytes() + b"\0")
        with pytest.raises(FormatError,
                           match="labels body in .*: expected 12 bytes at byte 8, found 13$"):
            load_idx(img_path, padded)

    def test_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, labels = idx_pair
        short = tmp_path / "short.idx"
        write_idx_labels(short, labels[:7])
        with pytest.raises(FormatError, match=r"images\.idx holds 12 images but "
                                              r".*short\.idx holds 7 labels$"):
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

    @pytest.mark.parametrize("bad", [10.5, 2.0, True])
    @pytest.mark.parametrize("name", ["n_train", "n_test", "d", "K"])
    def test_counts_must_be_integers(self, name, bad):
        # n_train=10.5 raised numpy's AxisError and d=2.0 a TypeError, naming nothing
        with pytest.raises(ParameterError, match=f"^{name} must be an integer >= 1, got {bad!r}$"):
            blob_dataset(**{name: bad})

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
        assert all(a.flags.c_contiguous and a.flags.writeable for a in (inputs, labels))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(FormatError, match="bad dump magic at byte 0: b'XXXX'"):
            load_array(path)

    def test_little_endian_bytes(self, tmp_path):
        # a big-endian matrix is written as the format's little-endian float64
        matrix = np.array([[0.25, -0.0], [np.inf, 3.5]], dtype=">f8")
        path = tmp_path / "batch.bin"
        dump_array(matrix, [1, 0], 2, path)
        assert path.read_bytes() == (struct.pack("<4sIII", b"ALB1", 2, 2, 2)
                                     + matrix.astype("<f8").tobytes()
                                     + np.array([1, 0], "<i4").tobytes())

    @pytest.mark.parametrize("labels, k", [([0, 3], 3), ([0, -1], 3), ([0, 2**31], 2**32 - 1)],
                             ids=["K", "negative", "int32"])
    def test_bad_labels_write_nothing(self, tmp_path, labels, k):
        # 2**31 was cast to int32 unchecked and written as -2147483648
        path = tmp_path / "batch.bin"
        with pytest.raises(ParameterError, match=r"each in \{0\.\.(2|2147483647)\}"):
            dump_array(np.zeros((2, 3)), labels, k, path)
        assert not path.exists()

    @pytest.mark.parametrize("k", [2**32, 0, 3.0])
    def test_bad_num_classes_write_nothing(self, tmp_path, k):
        # 2**32 raised struct.error from the u32 header's pack
        path = tmp_path / "batch.bin"
        with pytest.raises(ParameterError, match="^num_classes must be"):
            dump_array(np.zeros((1, 1)), [0], k, path)
        assert not path.exists()


def _write_dump(path, rng, n, d, k):
    dump_array(rng.uniform(size=(n, d)), rng.integers(0, k, size=n), k, path)


def _write_checkpoint(path, rng, n, d, k):
    save_checkpoint(init_weights(MlpConfig([d, n, k], seed=int(rng.integers(100)))), path)


def _beside(path):
    return path.with_name("other.idx")


def _write_idx_pair(images_path, labels_path, rng, n, d, k):
    write_idx_images(images_path, rng.integers(0, 256, size=(n, d, k)))
    write_idx_labels(labels_path, rng.integers(0, 10, size=n))


def _write_idx_images(path, *args):
    _write_idx_pair(path, _beside(path), *args)


def _write_idx_labels(path, *args):
    _write_idx_pair(_beside(path), path, *args)


class TestPartialFilesRejected:
    """A binary reader accepts one whole file, and no prefix or zero-padded extension of it."""

    @pytest.mark.parametrize("write, load", [
        (_write_dump, load_array), (_write_checkpoint, load_checkpoint),
        (_write_idx_images, lambda path: load_idx(path, _beside(path))),
        (_write_idx_labels, lambda path: load_idx(_beside(path), path)),
    ], ids=["dump", "checkpoint", "idx-images", "idx-labels"])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 4), d=st.integers(1, 3),
           k=st.integers(2, 4), pads=st.lists(st.integers(1, 64), min_size=1, max_size=4))
    def test_every_strict_prefix_and_padding(self, write, load, seed, n, d, k, pads):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.bin"
            write(path, make_rng(seed), n, d, k)
            raw = path.read_bytes()
            load(path)  # the whole file loads
            for variant in [raw[:cut] for cut in range(len(raw))] + [raw + b"\0" * p for p in pads]:
                path.write_bytes(variant)
                with pytest.raises(FormatError):
                    load(path)


class TestDatasetHandle:
    @pytest.mark.parametrize("d, k", [(3, 2), (2, 3)], ids=["d", "K"])
    def test_splits_must_share_d_and_k(self, d, k):
        train = LabeledBatch(np.full((4, 2), 0.5), np.array([0, 1, 0, 1]), 2)
        test = LabeledBatch(np.full((4, d), 0.5), np.array([0, 1, 0, 1]), k)
        with pytest.raises(ParameterError, match="share d and K"):
            DatasetHandle(train, test, name="t", source="synthetic")


class TestLabeledBatch:
    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ParameterError):
            LabeledBatch(np.array([[1.5]]), np.array([0]), 2)

    @pytest.mark.parametrize("inputs", [np.full((2, 3), np.nan), [[0.5, np.nan, 0.5], [0.0] * 3],
                                        np.full((2, 2, 3), np.nan)],
                             ids=["all-nan", "one-nan", "stack"])
    def test_rejects_nan_inputs(self, inputs):
        # NaN < 0 and NaN > 1 are both False, so the range check must fail on NaN
        labels = [[0, 1], [1, 0]] if np.ndim(inputs) == 3 else [0, 1]
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            LabeledBatch(inputs, labels, 2)

    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            LabeledBatch(np.array([[0.5]]), np.array([2]), 2)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            LabeledBatch(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
