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
    CIFAR10_TRAIN_FILES,
    CIFAR100_TRAIN_FILES,
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
from conftest import with_own_test_file, write_cifar10_style


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
        root = write_cifar10_style(str(tmp_path / "10"), train_records=49_995,
                                   test_records=10_000)
        with pytest.raises(IngestionError) as exc:
            load_cifar(root, 10)
        assert str(exc.value) == (
            f"{root}: expected 50000 records in {CIFAR10_TRAIN_FILES}, got 49995")
        (tmp_path / "100").mkdir()
        root = write_files(tmp_path / "100", 100, {"train.bin": 10})
        with pytest.raises(IngestionError) as exc:
            load_cifar(root, 100)
        assert str(exc.value) == (
            f"{root}: expected 50000 records in {CIFAR100_TRAIN_FILES}, got 10")

    def test_missing_file_rejected(self, tmp_path):
        # The first CIFAR-10 file is there and opened before the second is missed.
        root = write_files(tmp_path, 10, {"data_batch_1.bin": 10})
        with pytest.raises(IngestionError) as exc:
            load_cifar(root, 10)
        assert str(exc.value) == f"missing dataset file {os.path.join(root, 'data_batch_2.bin')}"
        with pytest.raises(IngestionError) as exc:
            load_cifar(root, 100)
        assert str(exc.value) == f"missing dataset file {os.path.join(root, 'train.bin')}"


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

    def file_pixels(self, buf):
        raw = np.frombuffer(buf, dtype=np.uint8).reshape(self.N, -1)
        return raw[:, -3 * 32 * 32 :].reshape(self.N, 3, 32, 32)

    def test_channel_stats(self, variant):
        buf, records, _ = self.decoded(variant)
        for got, want in zip(compute_channel_stats(records),
                             oracles.exact_channel_stats(self.file_pixels(buf))):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("augment", [True, False])
    @pytest.mark.parametrize("normalise", [True, False])
    def test_batches(self, variant, dtype, augment, normalise):
        buf, records, (images, labels) = self.decoded(variant)
        mean, std = (oracles.exact_channel_stats(self.file_pixels(buf)) if normalise
                     else (None, None))
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


def uint8_records(images):
    return [DatasetRecord(np.ascontiguousarray(img, dtype=np.uint8), 0) for img in images]


class TestChannelStats:
    """The statistics are the correctly rounded values of the exact pixel
    sums: bit for bit the exact oracle's, in any record order."""

    @staticmethod
    def check_exact(records):
        got = compute_channel_stats(records)
        want = oracles.exact_channel_stats([r.pixels for r in records])
        for a, b in zip(got, want):
            assert a.dtype == np.float64 and a.shape == (3,) and a.tobytes() == b.tobytes()
        return got

    def test_synthetic_records(self):
        self.check_exact(synthetic_dataset(300, 10, seed=4))

    def test_one_record_split(self):
        image = np.random.default_rng(5).integers(0, 256, size=(1, 3, 32, 32))
        self.check_exact(uint8_records(image))

    @pytest.mark.parametrize("dark", [1, 200])
    def test_extreme_pixels(self, dark):
        # All-255 images fill every 256-pixel run to 256 * 255**2, the
        # largest sum float32 must hold exactly; chunks of 128 records are
        # crossed twice.
        images = np.full((300, 3, 32, 32), 255, dtype=np.uint8)
        images[:dark] = 0
        mean, std = self.check_exact(uint8_records(images))
        assert np.all(mean == (300 - dark) / 300)

    def test_independent_of_record_order(self):
        records = decode_records(cifar_layout_bytes(10, 300, seed=6), 10)
        shuffled = [records[i] for i in np.random.default_rng(7).permutation(300)]
        for a, b in zip(self.check_exact(records), self.check_exact(shuffled)):
            assert a.tobytes() == b.tobytes()

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty split"):
            compute_channel_stats([])

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_constant_channel_is_a_data_error(self, channel):
        # Its std would be 0, and every batch's normalisation would fail.
        images = np.random.default_rng(8).integers(0, 256, size=(130, 3, 32, 32))
        images[:, channel] = 77
        with pytest.raises(IngestionError, match=f"channel {channel} is constant"):
            compute_channel_stats(uint8_records(images))


class TestDataMemory:
    def test_load_and_stats_hold_no_copy_of_the_split(self, cifar10_dir):
        # A split keeps each record's label byte and reads pixels on
        # demand: loading all 60,000 records and taking the train split's
        # statistics peak far below the 176 MiB of the files.
        tracemalloc.start()
        try:
            train, test = load_cifar(cifar10_dir, 10)
            compute_channel_stats(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train) + len(test) == 60_000
        assert peak < 16 * 2**20, peak


def file_records(root, names, variant):
    """Every record of the files, decoded from their whole bytes."""
    records = []
    for name in names:
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            records += decode_records(fh.read(), variant, source=path)
    return records


def same_records(got, want):
    return ([(r.pixels.dtype, r.pixels.tobytes(), r.label, r.coarse_label) for r in got]
            == [(r.pixels.dtype, r.pixels.tobytes(), r.label, r.coarse_label) for r in want])


@pytest.mark.parametrize("variant", [10, 100])
class TestSplitReads:
    """A split reads, on demand, exactly the records that decoding the
    files' whole bytes gives."""

    @staticmethod
    def load(request, variant):
        # Not a fixture: pytest keeps a test's fixture values until after
        # no_file_left_open has looked for open files.
        root = request.getfixturevalue(f"cifar{variant}_dir")
        train, test = load_cifar(root, variant)
        names = CIFAR10_TRAIN_FILES if variant == 10 else CIFAR100_TRAIN_FILES
        return train, test, file_records(root, names, variant)

    def test_index_slice_and_iteration(self, request, variant):
        train, _, want = self.load(request, variant)
        for i in [0, 1, 9_999, 10_000, 12_345, 49_999, -1, -50_000]:
            assert same_records([train[i]], [want[i]]), i
            assert same_records([train[np.int64(i)]], [want[i]]), i
        for key in [slice(9_990, 10_010), slice(0, 3), slice(49_990, None),
                    slice(100, 90), slice(5, 40_000, 3_999), slice(None, None, -7_001)]:
            assert same_records(train[key], want[key]), key
        assert same_records(train, want)
        for i in [50_000, -50_001]:
            with pytest.raises(IndexError):
                train[i]

    def test_short_reads_are_resumed(self, request, variant, monkeypatch):
        # A read may return fewer bytes than asked for before the end of the
        # file (after a signal, or on a network file system).
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv",
                            lambda fd, bufs, offset: preadv(fd, [bufs[0][:4_099]], offset))
        train, test, want = self.load(request, variant)
        assert len(train) == 50_000 and len(test) == 10_000
        for key in [0, 9_999, -1, slice(9_990, 10_010), slice(100, 400)]:
            got = train[key] if isinstance(key, slice) else [train[key]]
            assert same_records(got, want[key] if isinstance(key, slice) else [want[key]]), key

    def test_take_is_a_view_in_the_given_order(self, request, variant):
        train, _, want = self.load(request, variant)
        kept = np.random.default_rng(11).permutation(50_000)[:300]
        view = train.take(kept)
        assert len(view) == 300
        assert same_records(view, [want[i] for i in kept])
        assert same_records(view[10:20], [want[i] for i in kept[10:20]])
        assert same_records(view.take([5, 2]), [want[kept[5]], want[kept[2]]])
        del train  # the view keeps the files open
        assert same_records([view[-1]], [want[kept[-1]]])

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_batches_match_the_decoded_list(self, request, variant, shuffle):
        train, _, want = self.load(request, variant)
        kept = np.random.default_rng(12).permutation(50_000)[:700]
        got_records, want_records = train.take(kept), [want[i] for i in kept]
        mean, std = compute_channel_stats(want_records)
        for split, records in [(train, want), (got_records, want_records)]:
            batches = [batch_iterator(r, 128, 3, 2, shuffle=shuffle,
                                      augment_cfg=AugmentConfig(enabled=True),
                                      channel_mean=mean, channel_std=std)
                       for r in (split, records)]
            for n, ((x, y), (wx, wy)) in enumerate(zip(*batches)):
                assert x.data.tobytes() == wx.data.tobytes() and y.tolist() == wy.tolist()
                if n == 5:
                    break

    def test_stats_match_the_decoded_list(self, request, variant):
        train, test, _ = self.load(request, variant)
        got = compute_channel_stats(test)
        want = compute_channel_stats(list(test))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def write_files(root, variant, counts, *, edit=None, extra=0):
    """Write ``counts[name]`` records per file in the CIFAR layout; ``edit``
    maps a file name to (record, column, value) to plant, and ``extra``
    bytes trail the first file."""
    stride = CIFAR10_RECORD_BYTES if variant == 10 else CIFAR100_RECORD_BYTES
    for k, (name, n) in enumerate(counts.items()):
        raw = bytearray(cifar_layout_bytes(variant, n, seed=k))
        if edit and name in edit:
            record, column, value = edit[name]
            raw[record * stride + column] = value
        with open(os.path.join(root, name), "wb") as fh:
            fh.write(bytes(raw) + bytes(extra if k == 0 else 0))
    return str(root)


class TestLoadErrors:
    """Every check fires at load with the eager loader's message, byte
    offsets counted from the start of the file, also past the first block
    of records a split reads at once."""

    BAD = 1_500  # a record in the second 1,024-record block

    @pytest.mark.parametrize("variant,stride", [(10, 3073), (100, 3074)])
    def test_truncated_file(self, tmp_path, variant, stride):
        name = "data_batch_1.bin" if variant == 10 else "train.bin"
        root = write_files(tmp_path, variant, {name: self.BAD}, extra=100)
        with pytest.raises(IngestionError) as exc:
            load_cifar(root, variant)
        assert str(exc.value) == (
            f"{os.path.join(root, name)}: truncated file, partial record starts at byte "
            f"offset {self.BAD * stride} (size {self.BAD * stride + 100} not a multiple "
            f"of {stride})")

    @pytest.mark.parametrize("variant,column,value,message", [
        (10, 0, 10, "label 10 >= 10 at byte offset {}"),
        (100, 1, 100, "label 100 >= 100 at byte offset {}"),
        (100, 0, 20, "coarse label 20 out of range at byte offset {}")])
    def test_label_out_of_range(self, tmp_path, variant, column, value, message):
        stride = CIFAR10_RECORD_BYTES if variant == 10 else CIFAR100_RECORD_BYTES
        names = (["data_batch_1.bin", "data_batch_2.bin"] if variant == 10
                 else ["train.bin"])
        root = write_files(tmp_path, variant, {n: 2 * self.BAD for n in names},
                           edit={names[-1]: (self.BAD, column, value)})
        with pytest.raises(IngestionError) as exc:
            load_cifar(root, variant)
        offset = self.BAD * stride + column
        assert str(exc.value) == f"{os.path.join(root, names[-1])}: {message.format(offset)}"


class TestFileChangedAfterLoad:
    def test_truncated_test_file_fails_the_next_read(self, cifar10_dir, tmp_path):
        root = with_own_test_file(cifar10_dir, str(tmp_path))
        path = os.path.join(root, "test_batch.bin")
        _, test = load_cifar(root, 10)
        want = test[4_999]
        os.truncate(path, 5_000 * CIFAR10_RECORD_BYTES + 100)
        message = (f"{path}: changed since it was loaded: the record at byte offset "
                   f"{5_000 * CIFAR10_RECORD_BYTES} is cut short or relabelled")
        assert same_records([test[4_999]], [want])
        for read in (lambda: test[5_000], lambda: test[4_990:5_010], lambda: test[-1],
                     lambda: list(batch_iterator(test, 256, 0, 0, shuffle=False))):
            with pytest.raises(IngestionError) as exc:
                read()
            assert str(exc.value).startswith(f"{path}: changed since it was loaded")
        with pytest.raises(IngestionError) as exc:
            test[5_000:5_001]
        assert str(exc.value) == message

    def test_relabelled_record_fails_its_read(self, cifar10_dir, tmp_path):
        root = with_own_test_file(cifar10_dir, str(tmp_path))
        path = os.path.join(root, "test_batch.bin")
        _, test = load_cifar(root, 10)
        offset = 7 * CIFAR10_RECORD_BYTES
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(bytes([(test[7].label + 1) % 10]))
        with pytest.raises(IngestionError) as exc:
            test[0:10]
        assert str(exc.value) == (f"{path}: changed since it was loaded: the record at "
                                  f"byte offset {offset} is cut short or relabelled")
        assert test[6].label == test[0:7][6].label  # the records around it still read


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
