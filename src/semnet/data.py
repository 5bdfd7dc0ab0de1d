"""CIFAR-10/100 ingestion, augmentation, synthetic fixtures, batching.

The binary formats are read exactly as published: CIFAR-10 records are
3,073 bytes (label byte + 1,024 R + 1,024 G + 1,024 B row-major pixels);
CIFAR-100 records are 3,074 bytes (coarse label, fine label, pixels).
Every record holds uint8 pixels: decoded records keep views of the bytes
read from their file, and synthetic images are quantised to the same 8
bits. Batches scale them to [0, 1] float32.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
import operator
import os
import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import IngestionError
from .rng import RngState
from .tensor import Tensor

IMAGE_SHAPE = (3, 32, 32)
PIXELS_PER_IMAGE = 3 * 32 * 32
CIFAR10_RECORD_BYTES = 1 + PIXELS_PER_IMAGE        # 3,073
CIFAR100_RECORD_BYTES = 2 + PIXELS_PER_IMAGE       # 3,074
CIFAR_TRAIN_COUNT = 50_000
CIFAR_TEST_COUNT = 10_000

CIFAR10_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR10_TEST_FILES = ("test_batch.bin",)
CIFAR100_TRAIN_FILES = ("train.bin",)
CIFAR100_TEST_FILES = ("test.bin",)
_CANONICAL_SUBDIRS = {10: "cifar-10-batches-bin", 100: "cifar-100-binary"}
_BLOCK_RECORDS = 1024  # records a split reads at once while it validates a file: 3 MiB

# Independent RNG stream namespaces under one seed, so shuffling and
# augmentation draws never interleave.
_SHUFFLE_STREAM = 1 << 32
_AUGMENT_STREAM = 2 << 32


@dataclass
class DatasetRecord:
    """One labelled (C, H, W) image as uint8 pixels, the CIFAR byte format."""

    pixels: np.ndarray
    label: int
    coarse_label: int | None = None


def _unit_float(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels scaled to float32 in [0, 1]."""
    return pixels.astype(np.float32) / np.float32(255.0)


@dataclass
class AugmentConfig:
    crop_pad: int = 4
    flip_prob: float = 0.5
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        if self.crop_pad < 0:
            raise ValueError("crop_pad must be non-negative")


# ---------------------------------------------------------------------------
# Binary decoding
# ---------------------------------------------------------------------------

def decode_records(buf: bytes, variant: int, *, source: str = "<bytes>") -> list[DatasetRecord]:
    """Decode a block of binary records, validating stride and label range.

    Errors name the byte offset in ``buf`` of the first offending byte.
    """
    labels, coarse, pixels = _parse(buf, variant, source, 0)
    coarse = [None] * len(labels) if coarse is None else coarse.tolist()
    return list(map(DatasetRecord, pixels, labels.tolist(), coarse))


def _parse(buf, variant: int, source: str, offset: int):
    """``decode_records``' checks, byte offsets counted from ``offset``:
    where ``buf`` starts in its file. Returns the block's labels, coarse
    labels (None for CIFAR-10) and (N, C, H, W) pixels, all views of ``buf``."""
    stride = _record_stride(variant)
    if len(buf) % stride != 0:
        raise IngestionError(
            f"{source}: truncated file, partial record starts at byte offset "
            f"{offset + len(buf) - len(buf) % stride} "
            f"(size {offset + len(buf)} not a multiple of {stride})")
    n = len(buf) // stride
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(n, stride)
    label_col = 0 if variant == 10 else 1
    labels = raw[:, label_col]
    coarse = None if variant == 10 else raw[:, 0]
    if coarse is not None and coarse.size and coarse.max() >= 20:
        bad = int(np.argmax(coarse >= 20))
        raise IngestionError(
            f"{source}: coarse label {coarse[bad]} out of range at byte offset "
            f"{offset + bad * stride}")
    if labels.size and labels.max() >= variant:
        bad = int(np.argmax(labels >= variant))
        raise IngestionError(
            f"{source}: label {labels[bad]} >= {variant} at byte offset "
            f"{offset + bad * stride + label_col}")
    return labels, coarse, raw[:, stride - PIXELS_PER_IMAGE :].reshape(n, *IMAGE_SHAPE)


def encode_record(record: DatasetRecord, variant: int) -> bytes:
    """Inverse of decoding: the record in the published byte layout."""
    if variant == 10:
        head = bytes([record.label])
    else:
        coarse = 0 if record.coarse_label is None else record.coarse_label
        head = bytes([coarse, record.label])
    return head + record.pixels.tobytes()


def _record_stride(variant: int) -> int:
    if variant == 10:
        return CIFAR10_RECORD_BYTES
    if variant == 100:
        return CIFAR100_RECORD_BYTES
    raise ValueError(f"variant must be 10 or 100, got {variant}")


def load_cifar(path, variant: int) -> tuple[CifarSplit, CifarSplit]:
    """The train and test splits in the canonical binary files, each read
    from its open files on demand (see ``CifarSplit``).

    Exactly 50,000 train and 10,000 test records are required.
    """
    _record_stride(variant)  # rejects an unknown variant
    root = _dataset_root(path, variant)
    train_files = CIFAR10_TRAIN_FILES if variant == 10 else CIFAR100_TRAIN_FILES
    test_files = CIFAR10_TEST_FILES if variant == 10 else CIFAR100_TEST_FILES
    train = CifarSplit(root, train_files, variant, CIFAR_TRAIN_COUNT)
    return train, CifarSplit(root, test_files, variant, CIFAR_TEST_COUNT)


def _pread_into(fd: int, buf: memoryview, offset: int) -> memoryview:
    """``buf`` filled from byte ``offset`` of ``fd``, cut where the file ends.
    A read that returns less is repeated, so only the end of the file leaves
    ``buf`` short."""
    n = 0
    while n < len(buf) and (got := os.preadv(fd, [buf[n:]], offset + n)):
        n += got
    return buf[:n]


def _close_all(fds: list[int]) -> None:
    for fd in fds:
        os.close(fd)


class CifarSplit(Sequence):
    """The records of one split, read from its open files when indexed.

    At load each file is streamed once through one buffer of
    ``_BLOCK_RECORDS`` records and validated by ``decode_records``' checks;
    the split keeps only each record's label bytes and its place in the
    files, and no pixels. An index reads its record with one ``os.pread``; a
    slice reads each run of consecutive records in one file as one block,
    decoded by ``decode_records``. The block reader ``_cast_pixels`` gives
    the pixels alone, for ``compute_channel_stats``: it reads the records in
    file order through one reused buffer of ``_BLOCK_RECORDS`` records and
    decodes none. Every read is checked against the label bytes kept at
    load, so one that no longer finds the loaded records, because a file
    was cut short or rewritten, raises ``IngestionError``. ``take`` gives a
    view over some of the records. The files are closed once the split and
    its views are collected.
    """

    def __init__(self, root: str, names, variant: int, expected: int):
        self._variant, self._paths, self._fds = variant, [], []
        self._close = weakref.finalize(self, _close_all, self._fds)
        self._owner = None  # the split a view reads through, kept alive
        stride = _record_stride(variant)
        buf = memoryview(bytearray(_BLOCK_RECORDS * stride))
        heads, counts = [], []
        try:
            for name in names:
                full = os.path.join(root, name)
                if not os.path.exists(full):
                    raise IngestionError(f"missing dataset file {full}")
                self._fds.append(os.open(full, os.O_RDONLY))
                self._paths.append(full)
                offset = 0
                while block := _pread_into(self._fds[-1], buf, offset):
                    _parse(block, variant, full, offset)
                    heads.append(np.frombuffer(block, np.uint8).reshape(-1, stride)
                                 [:, : stride - PIXELS_PER_IMAGE].tobytes())
                    offset += len(block)
                counts.append(offset // stride)
            if sum(counts) != expected:
                raise IngestionError(
                    f"{root}: expected {expected} records in {names}, got {sum(counts)}")
        except BaseException:
            self._close()
            raise
        self._heads = b"".join(heads)  # each record's label byte(s), in record order
        self._first = list(itertools.accumulate(counts, initial=0))  # each file's first record
        self._numbers = np.arange(expected)  # the records this split holds, in order

    def __len__(self) -> int:
        return len(self._numbers)

    def __getitem__(self, key):
        if isinstance(key, slice):
            numbers = self._numbers[key]
            runs = np.split(numbers, np.flatnonzero(np.diff(numbers) != 1) + 1)
            return [r for run in runs if len(run) for r in self._block(int(run[0]), len(run))]
        return self._block(int(self._numbers[operator.index(key)]), 1)[0]

    def take(self, indices) -> CifarSplit:
        """A view of the records at ``indices``, in that order, read from the
        same files: no pixels are copied."""
        view = copy.copy(self)
        view._owner, view._numbers = self, self._numbers[np.asarray(indices)]
        return view

    def _block(self, first: int, count: int) -> list[DatasetRecord]:
        """Records ``first`` to ``first + count`` of the files, one read per file."""
        f = bisect.bisect_right(self._first, first) - 1
        here = min(count, self._first[f + 1] - first)
        buf = memoryview(bytearray(here * _record_stride(self._variant)))
        records = decode_records(self._read(f, first, here, buf).toreadonly(), self._variant)
        return records if here == count else records + self._block(first + here, count - here)

    def _cast_pixels(self, out: np.ndarray):
        """Yield the pixels of the split's records in file order, cast into
        ``out`` at most ``len(out)`` records at a time; a record the split
        holds twice is yielded twice. Each read fills one reused buffer of
        ``_BLOCK_RECORDS`` records, from the first record still to yield to
        the last one of the split that fits, within one file. A sparse view
        so reads the records between the ones it holds as well, and fails on
        a change to any of them."""
        stride = _record_stride(self._variant)
        buf = memoryview(bytearray(_BLOCK_RECORDS * stride))
        numbers = np.sort(self._numbers)
        i = 0
        while i < len(numbers):
            first = int(numbers[i])
            f = bisect.bisect_right(self._first, first) - 1
            j = int(np.searchsorted(numbers, min(first + _BLOCK_RECORDS, self._first[f + 1])))
            block = self._read(f, first, int(numbers[j - 1]) + 1 - first, buf)
            pixels = (np.frombuffer(block, np.uint8).reshape(-1, stride)
                      [:, stride - PIXELS_PER_IMAGE :].reshape(-1, *IMAGE_SHAPE))
            rows = numbers[i:j] - first
            for start in range(0, len(rows), len(out)):
                run = rows[start : start + len(out)]
                out[: len(run)] = pixels[run]
                yield out[: len(run)]
            i = j

    def _read(self, f: int, first: int, count: int, buf: memoryview) -> memoryview:
        """Records ``first`` to ``first + count`` of the files, all in file
        ``f``, read into the start of ``buf`` and checked against the label
        bytes kept at load."""
        stride = _record_stride(self._variant)
        h = stride - PIXELS_PER_IMAGE
        offset = (first - self._first[f]) * stride
        got = _pread_into(self._fds[f], buf[: count * stride], offset)
        heads = self._heads[first * h : (first + count) * h]
        if len(got) < count * stride or any(got[j::stride] != heads[j::h] for j in range(h)):
            bad = next(i for i in range(count) if len(got) < (i + 1) * stride
                       or got[i * stride : i * stride + h] != heads[i * h : (i + 1) * h])
            raise IngestionError(
                f"{self._paths[f]}: changed since it was loaded: the record at byte offset "
                f"{offset + bad * stride} is cut short or relabelled")
        return got


def _dataset_root(path, variant: int) -> str:
    sub = os.path.join(path, _CANONICAL_SUBDIRS[variant])
    return sub if os.path.isdir(sub) else path


# ---------------------------------------------------------------------------
# Normalisation and augmentation
# ---------------------------------------------------------------------------

def compute_channel_stats(records: Sequence[DatasetRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std over a split in float64, correctly
    rounded from exact integer pixel sums, so independent of record order.
    Chunks of at most 128 records are cast into one float32 scratch and
    summed in runs of at most 256 pixels, which float32 sums exactly
    (256 * 255**2 < 2**24). A ``CifarSplit`` or a view of one fills the
    scratch with its block reader, in file order, from blocks of
    ``_BLOCK_RECORDS`` records read through one reused buffer, decoding no
    record; a list of records is stacked 128 at a time."""
    if not records:
        raise ValueError("cannot compute statistics of an empty split")
    split = isinstance(records, CifarSplit)
    c, h, w = IMAGE_SHAPE if split else records[0].pixels.shape
    scratch = np.empty((128, c, h, w), dtype=np.float32)
    chunks = records._cast_pixels(scratch) if split else (
        _stack_pixels(records[start : start + len(scratch)], out=scratch[: len(records) - start])
        for start in range(0, len(records), len(scratch)))
    ones = np.ones(math.gcd(h * w, 256), dtype=np.float32)
    sums = np.zeros((2, c), dtype=np.int64)  # pixels, squared pixels
    for x in chunks:
        runs = x.reshape(len(x), c, -1, len(ones))
        parts = np.stack([runs @ ones, np.einsum("...i,...i", runs, runs)])
        sums += parts.sum(axis=(1, 3), dtype=np.float64).astype(np.int64)
    n = len(records) * h * w
    (s, s2), scale = sums.tolist(), (255 * n) ** 2
    var = [n * q - p * p for p, q in zip(s, s2)]  # scale times the variance
    if 0 in var:  # exactly when a channel is constant
        raise IngestionError(f"channel {var.index(0)} is constant over the split: std 0")
    return np.array([p / (255 * n) for p in s]), np.sqrt([v / scale for v in var])


def normalize_images(images: np.ndarray, mean, std) -> np.ndarray:
    """Per-channel (pixel - mean) / std over a (B, 3, H, W) batch."""
    mean = np.asarray(mean, dtype=images.dtype).reshape(1, 3, 1, 1)
    std = np.asarray(std, dtype=images.dtype).reshape(1, 3, 1, 1)
    if np.any(std <= 0):
        raise ValueError("std must be strictly positive per channel")
    return (images - mean) / std


def augment_batch(images: np.ndarray, cfg: AugmentConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Zero-pad, random crop back to (H, W), then horizontal mirror with
    flip_prob, drawn per image: all crop offsets first, then all flips.

    Disabled configs return the batch unchanged (identity, same object).
    """
    if not cfg.enabled:
        return images
    b, _, h, w = images.shape
    pad = cfg.crop_pad
    out = images
    if pad:
        padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        offsets = rng.integers(0, 2 * pad + 1, size=(b, 2))
        out = np.empty_like(images)
        for i in range(b):
            dy, dx = offsets[i]
            out[i] = padded[i, :, dy : dy + h, dx : dx + w]
    flips = rng.random(b) < cfg.flip_prob
    if flips.any():
        out = out.copy() if out is images else out
        out[flips] = out[flips, :, :, ::-1]
    return out


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

def synthetic_dataset(n: int, classes: int, seed: int) -> list[DatasetRecord]:
    """Deterministic, linearly separable class-conditional blob images.

    Each class owns a cell of a ceil(sqrt(classes)) grid (rows over the
    full height, columns over the left half) and gets a mirror-symmetric
    pair of bright Gaussian bumps there (amplitude 0.45 over a 0.45
    base) plus clipped pixel noise (|noise| <= 0.1). The bump-centre
    pixels separate the classes by construction, and the patterns are
    horizontally symmetric so flip augmentation never changes the label
    evidence. Each image is quantised to 8 bits, as in CIFAR. Labels are
    assigned round-robin.
    """
    if classes < 2 or classes > 100:
        raise ValueError("classes must be in [2, 100]")
    if n < classes:
        raise ValueError(f"need n >= classes, got n={n}, classes={classes}")
    gen = RngState(seed).generator()
    grid = math.ceil(math.sqrt(classes))
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    bumps = np.empty((classes, 32, 32), dtype=np.float32)
    for k in range(classes):
        cy = ((k // grid) + 0.5) * (32.0 / grid)
        cx = ((k % grid) + 0.5) * (16.0 / grid)
        d2 = (yy - cy) ** 2 + np.minimum((xx - cx) ** 2, (xx - (31.0 - cx)) ** 2)
        bumps[k] = (0.45 * np.exp(-d2 / (2.0 * 1.1**2))).astype(np.float32)
    records = []
    for i in range(n):
        label = i % classes
        noise = np.clip(gen.normal(0.0, 0.04, size=IMAGE_SHAPE), -0.1, 0.1)
        img = np.clip(0.45 + noise + bumps[label], 0.0, 1.0).astype(np.float32)
        records.append(DatasetRecord(np.round(img * 255.0).astype(np.uint8), label))
    return records


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

def batch_iterator(records: Sequence[DatasetRecord], batch_size: int,
                   shuffle_seed: int, epoch: int, *,
                   shuffle: bool = True,
                   augment_cfg: AugmentConfig | None = None,
                   channel_mean=None, channel_std=None,
                   dtype=np.float32):
    """Yield (Tensor (B, 3, 32, 32), labels int64) batches for one epoch.

    The visit order is a deterministic permutation keyed by (shuffle_seed,
    epoch); augmentation draws come from a separate stream under the same
    key so the sample sequence is reproducible. The final partial batch is
    kept.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(records))
    if shuffle:
        gen = RngState(shuffle_seed, _SHUFFLE_STREAM + epoch).generator()
        order = gen.permutation(len(records))
    aug_gen = None
    if augment_cfg is not None and augment_cfg.enabled:
        aug_gen = RngState(shuffle_seed, _AUGMENT_STREAM + epoch).generator()
    for start in range(0, len(records), batch_size):
        idx = order[start : start + batch_size]
        # In order, a batch is one slice: one block read of a CifarSplit.
        batch = [records[i] for i in idx] if shuffle else records[start : start + batch_size]
        images = _stack_pixels(batch)
        labels = np.array([r.label for r in batch], dtype=np.int64)
        if aug_gen is not None:
            images = augment_batch(images, augment_cfg, aug_gen)
        # Scaling is elementwise, so it commutes with the pad/crop/flip.
        images = _unit_float(images).astype(dtype, copy=False)
        if channel_mean is not None:
            images = normalize_images(images, channel_mean, channel_std)
        yield Tensor(np.ascontiguousarray(images, dtype=dtype)), labels


def _stack_pixels(batch: list[DatasetRecord], out=None) -> np.ndarray:
    """The batch as one (B, C, H, W) array of its uint8 pixels, cast into
    ``out`` if given."""
    for r in batch:
        if r.pixels.dtype != np.uint8:
            raise ValueError(f"record pixels must be uint8, got {r.pixels.dtype}")
    return np.stack([r.pixels for r in batch], out=out)
