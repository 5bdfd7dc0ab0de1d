"""Data pipeline: binary format fidelity, normalisation, augmentation
statistics, synthetic fixtures, and the batch iterator."""

import os
import tracemalloc

import numpy as np
import pytest

from semnet import data as data_mod
from semnet.data import (
    CIFAR10_RECORD_BYTES,
    CIFAR100_RECORD_BYTES,
    CIFAR10_TEST_FILES,
    CIFAR10_TRAIN_FILES,
    AugmentConfig,
    DatasetRecord,
    augment_batch,
    batch_iterator,
    compute_channel_stats,
    decode_records,
    encode_record,
    load_cifar,
    normalize_images,
    synthetic_dataset,
)
from semnet.errors import IngestionError
from semnet.rng import RngState

import oracles
from conftest import write_cifar10_style


class TestBinaryFormat:
    def test_record_strides(self):
        assert CIFAR10_RECORD_BYTES == 3073
        assert CIFAR100_RECORD_BYTES == 3074

    def test_decode_encode_roundtrip_cifar10(self):
        gen = np.random.default_rng(0)
        raw = gen.integers(0, 256, size=(5, 3073), dtype=np.uint8)
        raw[:, 0] = [0, 3, 9, 5, 1]
        buf = raw.tobytes()
        records = decode_records(buf, 10)
        assert [r.label for r in records] == [0, 3, 9, 5, 1]
        assert all(r.pixels.shape == (3, 32, 32) and r.pixels.dtype == np.uint8
                   for r in records)
        again = b"".join(encode_record(r, 10) for r in records)
        assert again == buf

    def test_decode_encode_roundtrip_cifar100(self):
        gen = np.random.default_rng(1)
        raw = gen.integers(0, 256, size=(4, 3074), dtype=np.uint8)
        raw[:, 0] = [0, 19, 7, 2]
        raw[:, 1] = [0, 99, 42, 17]
        buf = raw.tobytes()
        records = decode_records(buf, 100)
        assert [r.coarse_label for r in records] == [0, 19, 7, 2]
        assert [r.label for r in records] == [0, 99, 42, 17]
        again = b"".join(encode_record(r, 100) for r in records)
        assert again == buf

    def test_truncated_buffer_names_offset(self):
        with pytest.raises(IngestionError, match="byte offset 3073"):
            decode_records(bytes(3073 + 100), 10, source="x.bin")

    def test_label_out_of_range_names_offset(self):
        raw = bytearray(3073 * 2)
        raw[3073] = 10  # second record's label byte
        with pytest.raises(IngestionError, match="byte offset 3073"):
            decode_records(bytes(raw), 10, source="x.bin")

    def test_coarse_label_out_of_range(self):
        raw = bytearray(3074)
        raw[0] = 20
        with pytest.raises(IngestionError, match="coarse label"):
            decode_records(bytes(raw), 100, source="y.bin")

    def test_cifar100_file_fed_to_cifar10_loader(self, tmp_path):
        # 100 records in the 3,074-byte layout are not a multiple of 3,073.
        root = str(tmp_path)
        gen = np.random.default_rng(2)
        block = gen.integers(0, 256, size=(100, 3074), dtype=np.uint8)
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            open(os.path.join(root, name), "wb").write(block.tobytes())
        with pytest.raises(IngestionError):
            load_cifar(root, 10)


class TestLoader:
    def test_cifar10_counts_and_file_sizes(self, cifar10_dir):
        for i in range(1, 6):
            size = os.path.getsize(os.path.join(cifar10_dir, f"data_batch_{i}.bin"))
            assert size == 30_730_000  # 10,000 records x 3,073 bytes
        train, test = load_cifar(cifar10_dir, 10)
        assert len(train) == 50_000 and len(test) == 10_000
        assert all(0 <= r.label < 10 for r in test[:100])

    def test_cifar100_counts(self, cifar100_dir):
        train, test = load_cifar(cifar100_dir, 100)
        assert len(train) == 50_000 and len(test) == 10_000
        assert train[0].coarse_label is not None

    def test_loader_roundtrip_bit_identical(self, cifar10_dir):
        path = os.path.join(cifar10_dir, "data_batch_1.bin")
        buf = open(path, "rb").read()
        head = decode_records(buf[: 3073 * 64], 10, source=path)
        assert b"".join(encode_record(r, 10) for r in head) == buf[: 3073 * 64]

    def test_count_mismatch_rejected(self, tmp_path):
        root = write_cifar10_style(str(tmp_path), train_records=49_995,
                                   test_records=10_000)
        with pytest.raises(IngestionError, match="expected 50000"):
            load_cifar(root, 10)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="missing"):
            load_cifar(str(tmp_path), 10)


def cifar_layout_bytes(variant, n, seed):
    stride = CIFAR10_RECORD_BYTES if variant == 10 else CIFAR100_RECORD_BYTES
    raw = np.random.default_rng(seed).integers(0, 256, size=(n, stride), dtype=np.uint8)
    raw[:, 0] %= 10 if variant == 10 else 20
    if variant == 100:
        raw[:, 1] %= 100
    return raw.tobytes()


@pytest.mark.parametrize("variant", [10, 100])
class TestUint8Storage:
    """Decoded records keep the file's uint8 bytes; every value computed
    from them matches the float32-at-decode oracle byte for byte."""

    N = 300

    def decoded(self, variant):
        buf = cifar_layout_bytes(variant, self.N, seed=variant)
        return buf, decode_records(buf, variant), oracles.float32_decode(buf, variant)

    def test_records_store_file_bytes(self, variant):
        # The encode round trip is TestBinaryFormat's; the scaling is
        # checked by test_batches.
        buf, records, (_, labels) = self.decoded(variant)
        raw = np.frombuffer(buf, dtype=np.uint8).reshape(self.N, -1)
        assert [r.label for r in records] == labels
        for record, row in zip(records, raw):
            assert record.pixels.dtype == np.uint8
            assert record.pixels.tobytes() == row[-3 * 32 * 32 :].tobytes()

    def test_channel_stats(self, variant):
        _, records, (images, _) = self.decoded(variant)
        for got, want in zip(compute_channel_stats(records),
                             oracles.per_record_channel_stats(images)):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("augment", [True, False])
    @pytest.mark.parametrize("normalise", [True, False])
    def test_batches(self, variant, dtype, augment, normalise):
        _, records, (images, labels) = self.decoded(variant)
        mean, std = oracles.per_record_channel_stats(images) if normalise else (None, None)
        seed, epoch = 3, 2
        order = RngState(seed, data_mod._SHUFFLE_STREAM + epoch).generator().permutation(self.N)
        aug_rng = (RngState(seed, data_mod._AUGMENT_STREAM + epoch).generator()
                   if augment else None)
        want = list(oracles.float32_batches(images, 128, order, aug_rng,
                                            mean=mean, std=std, dtype=dtype))
        got = list(batch_iterator(records, 128, seed, epoch,
                                  augment_cfg=AugmentConfig(enabled=augment),
                                  channel_mean=mean, channel_std=std, dtype=dtype))
        assert len(got) == len(want) == 3
        for (x, _), w in zip(got, want):
            assert x.data.dtype == dtype and x.data.tobytes() == w.tobytes()
        assert [v for _, y in got for v in y.tolist()] == [labels[i] for i in order]

    def test_float_pixels_rejected(self, variant):
        # A float record would otherwise be scaled by 1/255 a second time.
        _, records, (images, labels) = self.decoded(variant)
        mixed = records[:10] + [DatasetRecord(images[10], labels[10])]
        with pytest.raises(ValueError, match="uint8, got float32"):
            next(batch_iterator(mixed, 11, 0, 0, shuffle=False))
        with pytest.raises(ValueError, match="uint8, got float32"):
            compute_channel_stats(mixed)


class TestDataMemory:
    def test_load_cifar_holds_only_the_file_bytes(self, cifar10_dir):
        # The pixels are views into the files' bytes: no float copy is held,
        # only about 250 bytes of Python objects per record besides them.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train, test = load_cifar(cifar10_dir, 10)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        file_bytes = sum(os.path.getsize(os.path.join(cifar10_dir, name))
                         for name in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES)
        assert held <= file_bytes + 1024 * (len(train) + len(test))
        roots = {}
        for record in train + test:
            assert record.pixels.dtype == np.uint8
            array = record.pixels
            while isinstance(array.base, np.ndarray):
                array = array.base
            roots[id(array)] = array
        assert sum(a.nbytes for a in roots.values()) <= file_bytes


def stacked(records):
    return np.stack([r.pixels for r in records])


def ramp_images(n):
    """n copies of an image whose pixel (y, x) encodes its position."""
    img = (np.arange(32)[:, None] * 32 + np.arange(32)[None, :] + 1.0) / 2048.0
    return np.broadcast_to(img.astype(np.float32), (n, 3, 32, 32)).copy()


class TestNormalize:
    def test_identity_and_constant(self):
        images = np.full((2, 3, 32, 32), 0.25, dtype=np.float32)
        out = normalize_images(images, np.zeros(3), np.ones(3))
        assert np.array_equal(out, images)
        zeroed = normalize_images(images, np.full(3, 0.25), np.ones(3))
        assert not zeroed.any()

    def test_zero_std_rejected(self):
        images = np.zeros((1, 3, 32, 32), dtype=np.float32)
        with pytest.raises(ValueError):
            normalize_images(images, np.zeros(3), np.array([1.0, 0.0, 1.0]))

    def test_recomputed_statistics_standardised(self):
        records = synthetic_dataset(400, 10, seed=5)
        mean, std = compute_channel_stats(records)
        (x, _), = batch_iterator(records, len(records), 0, 0, shuffle=False,
                                 channel_mean=mean, channel_std=std, dtype=np.float64)
        mean2 = x.data.mean(axis=(0, 2, 3))
        std2 = x.data.std(axis=(0, 2, 3))
        assert np.max(np.abs(mean2)) <= 1e-3
        assert np.max(np.abs(std2 - 1.0)) <= 1e-3


class TestAugment:
    def test_disabled_is_identity(self):
        images = stacked(synthetic_dataset(2, 2, seed=0))
        out = augment_batch(images, AugmentConfig(enabled=False), RngState(0).generator())
        assert out is images

    def test_forced_flip_is_involution(self):
        images = stacked(synthetic_dataset(4, 2, seed=1))
        cfg = AugmentConfig(crop_pad=0, flip_prob=1.0)
        gen = RngState(1).generator()
        once = augment_batch(images, cfg, gen)
        twice = augment_batch(once, cfg, gen)
        assert np.array_equal(twice, images)
        assert not np.array_equal(once, images)

    def test_shape_and_label_preserved(self):
        records = synthetic_dataset(20, 4, seed=2)
        plain = list(batch_iterator(records, 8, 2, 0))
        augmented = list(batch_iterator(records, 8, 2, 0, augment_cfg=AugmentConfig()))
        for (x, labels), (x_aug, labels_aug) in zip(plain, augmented):
            assert x_aug.shape == x.shape and x_aug.dtype == x.dtype
            assert np.array_equal(labels_aug, labels)
        assert any(not np.array_equal(x.data, x_aug.data)
                   for (x, _), (x_aug, _) in zip(plain, augmented))

    def test_crop_offsets_uniform_chi_square(self):
        # Encode the crop offset in the pixel the crop maps to (4, 4):
        # out[i, c, 4, 4] == image[c, dy, dx] for pad 4.
        pad = 4
        images = ramp_images(1_000)
        cfg = AugmentConfig(crop_pad=pad, flip_prob=0.0)
        gen = RngState(77).generator()
        counts = np.zeros((2 * pad + 1, 2 * pad + 1))
        n = 10_000
        for _ in range(n // len(images)):
            out = augment_batch(images, cfg, gen)
            codes = np.round(out[:, 0, pad, pad] * 2048.0).astype(int) - 1
            dy, dx = np.divmod(codes, 32)
            np.add.at(counts, (dy, dx), 1)
        assert counts.sum() == n
        stat = oracles.chi_square_stat(counts.reshape(-1),
                                       np.full(81, n / 81.0))
        assert stat < oracles.CHI2_CRIT_DF80, stat

    def test_flip_probability(self):
        images = ramp_images(1_000)
        cfg = AugmentConfig(crop_pad=0, flip_prob=0.5)
        gen = RngState(78).generator()
        n = 10_000
        flips = 0
        for _ in range(n // len(images)):
            out = augment_batch(images, cfg, gen)
            flips += int((out != images).any(axis=(1, 2, 3)).sum())
        assert abs(flips / n - 0.5) < 0.02

    def test_flip_prob_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(flip_prob=1.5)


class TestSynthetic:
    def test_deterministic_bytes(self):
        a = synthetic_dataset(32, 5, seed=9)
        b = synthetic_dataset(32, 5, seed=9)
        assert all(x.pixels.tobytes() == y.pixels.tobytes() for x, y in zip(a, b))

    def test_balanced_round_robin(self):
        records = synthetic_dataset(33, 5, seed=10)
        counts = np.bincount([r.label for r in records], minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_linear_probe_reaches_full_accuracy(self):
        records = synthetic_dataset(200, 10, seed=11)
        acc = oracles.least_squares_probe_accuracy(
            [r.pixels for r in records], [r.label for r in records], 10)
        assert acc == 1.0

    def test_pixel_range(self):
        # 8-bit pixels; the 0.45 base with |noise| <= 0.1 never wraps below.
        records = synthetic_dataset(16, 4, seed=12)
        for r in records:
            assert r.pixels.dtype == np.uint8 and r.pixels.min() >= round(0.35 * 255)

    @pytest.mark.parametrize("variant", [10, 100])
    def test_encode_decode_keeps_pixels(self, variant):
        records = synthetic_dataset(2 * variant, variant, seed=18)
        buf = b"".join(encode_record(r, variant) for r in records)
        for record, decoded in zip(records, decode_records(buf, variant)):
            assert decoded.pixels.tobytes() == record.pixels.tobytes()
            assert decoded.label == record.label

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_dataset(3, 5, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset(300, 200, seed=0)


class TestBatchIterator:
    def test_single_batch_contains_everything(self):
        records = synthetic_dataset(24, 4, seed=13)
        batches = list(batch_iterator(records, 24, shuffle_seed=1, epoch=0))
        assert len(batches) == 1
        assert sorted(batches[0][1].tolist()) == sorted(r.label for r in records)

    def test_same_seed_epoch_identical(self):
        records = synthetic_dataset(30, 3, seed=14)
        a = [x.data.tobytes() for x, _ in batch_iterator(records, 8, 5, 2)]
        b = [x.data.tobytes() for x, _ in batch_iterator(records, 8, 5, 2)]
        assert a == b

    def test_epochs_reshuffle(self):
        records = synthetic_dataset(30, 3, seed=15)
        a = [l.tolist() for _, l in batch_iterator(records, 30, 5, 0)]
        b = [l.tolist() for _, l in batch_iterator(records, 30, 5, 1)]
        assert a != b

    def test_multiset_coverage_with_partial_batch(self):
        records = synthetic_dataset(25, 5, seed=16)
        sizes, labels = [], []
        for x, l in batch_iterator(records, 8, 6, 0):
            sizes.append(x.shape[0])
            labels.extend(l.tolist())
        assert sizes == [8, 8, 8, 1]
        assert sorted(labels) == sorted(r.label for r in records)

    def test_augmented_iteration_deterministic(self):
        records = synthetic_dataset(20, 4, seed=17)
        cfg = AugmentConfig()
        a = [x.data.tobytes() for x, _ in batch_iterator(
            records, 10, 7, 3, augment_cfg=cfg)]
        b = [x.data.tobytes() for x, _ in batch_iterator(
            records, 10, 7, 3, augment_cfg=cfg)]
        assert a == b

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            next(batch_iterator([], 0, 0, 0))
