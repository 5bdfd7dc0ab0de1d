"""CIFAR-10/100 ingestion, augmentation, synthetic fixtures, batching.

The binary formats are read exactly as published: CIFAR-10 records are
3,073 bytes (label byte + 1,024 R + 1,024 G + 1,024 B row-major pixels);
CIFAR-100 records are 3,074 bytes (coarse label, fine label, pixels).
Every record holds uint8 pixels: decoded records keep views of the file's
bytes and synthetic images are quantised to the same 8 bits. Batches scale
them to [0, 1] float32.
"""

from __future__ import annotations

import math
import os
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


_UNIT_FLOAT64 = _unit_float(np.arange(256, dtype=np.uint8)).astype(np.float64)


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
    stride = _record_stride(variant)
    if len(buf) % stride != 0:
        raise IngestionError(
            f"{source}: truncated file, partial record starts at byte offset "
            f"{len(buf) - len(buf) % stride} "
            f"(size {len(buf)} not a multiple of {stride})")
    n = len(buf) // stride
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(n, stride)
    label_col = 0 if variant == 10 else 1
    labels = raw[:, label_col]
    coarse = None if variant == 10 else raw[:, 0]
    if coarse is not None and coarse.size and coarse.max() >= 20:
        bad = int(np.argmax(coarse >= 20))
        raise IngestionError(
            f"{source}: coarse label {coarse[bad]} out of range at byte offset "
            f"{bad * stride}")
    if labels.size and labels.max() >= variant:
        bad = int(np.argmax(labels >= variant))
        raise IngestionError(
            f"{source}: label {labels[bad]} >= {variant} at byte offset "
            f"{bad * stride + label_col}")
    pixels = raw[:, stride - PIXELS_PER_IMAGE :].reshape(n, *IMAGE_SHAPE)
    return [
        DatasetRecord(pixels[i], int(labels[i]),
                      None if coarse is None else int(coarse[i]))
        for i in range(n)
    ]


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


def load_cifar(path, variant: int) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Load the train and test splits from the canonical binary files.

    Exactly 50,000 train and 10,000 test records are required.
    """
    _record_stride(variant)  # rejects an unknown variant
    root = _dataset_root(path, variant)
    train_files = CIFAR10_TRAIN_FILES if variant == 10 else CIFAR100_TRAIN_FILES
    test_files = CIFAR10_TEST_FILES if variant == 10 else CIFAR100_TEST_FILES

    def read_split(names, expected):
        records = []
        for name in names:
            full = os.path.join(root, name)
            if not os.path.exists(full):
                raise IngestionError(f"missing dataset file {full}")
            with open(full, "rb") as fh:
                buf = fh.read()
            records.extend(decode_records(buf, variant, source=full))
        if len(records) != expected:
            raise IngestionError(
                f"{root}: expected {expected} records in {names}, got {len(records)}")
        return records

    return read_split(train_files, CIFAR_TRAIN_COUNT), read_split(test_files, CIFAR_TEST_COUNT)


def _dataset_root(path, variant: int) -> str:
    sub = os.path.join(path, _CANONICAL_SUBDIRS[variant])
    return sub if os.path.isdir(sub) else path


# ---------------------------------------------------------------------------
# Normalisation and augmentation
# ---------------------------------------------------------------------------

def compute_channel_stats(records: list[DatasetRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std over a split, in float64. Per-image
    sums are added in split order; 16-image chunks keep ``x`` in cache."""
    if not records:
        raise ValueError("cannot compute statistics of an empty split")
    sums = np.empty((len(records), 2, 3))
    for start in range(0, len(records), 16):
        block = _stack_pixels(records[start : start + 16])
        x = np.take(_UNIT_FLOAT64, block)
        sums[start : start + len(x), 0] = x.sum(axis=(2, 3))
        x *= x
        sums[start : start + len(x), 1] = x.sum(axis=(2, 3))
    acc, acc_sq = np.cumsum(sums, axis=0)[-1]
    n = len(records) * block.shape[2] * block.shape[3]
    mean = acc / n
    var = acc_sq / n - mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0))


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

def batch_iterator(records: list[DatasetRecord], batch_size: int,
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
        order = RngState(shuffle_seed, _SHUFFLE_STREAM + epoch).generator().permutation(len(records))
    aug_gen = None
    if augment_cfg is not None and augment_cfg.enabled:
        aug_gen = RngState(shuffle_seed, _AUGMENT_STREAM + epoch).generator()
    for start in range(0, len(records), batch_size):
        idx = order[start : start + batch_size]
        batch = [records[i] for i in idx]
        images = _stack_pixels(batch)
        labels = np.array([r.label for r in batch], dtype=np.int64)
        if aug_gen is not None:
            images = augment_batch(images, augment_cfg, aug_gen)
        # Scaling is elementwise, so it commutes with the pad/crop/flip.
        images = _unit_float(images).astype(dtype, copy=False)
        if channel_mean is not None:
            images = normalize_images(images, channel_mean, channel_std)
        yield Tensor(np.ascontiguousarray(images, dtype=dtype)), labels


def _stack_pixels(batch: list[DatasetRecord]) -> np.ndarray:
    """The batch as one (B, C, H, W) array of uint8 pixels."""
    for r in batch:
        if r.pixels.dtype != np.uint8:
            raise ValueError(f"record pixels must be uint8, got {r.pixels.dtype}")
    return np.stack([r.pixels for r in batch])
