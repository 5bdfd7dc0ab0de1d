import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from semnet.data import (  # noqa: E402
    CIFAR10_RECORD_BYTES,
    CIFAR100_RECORD_BYTES,
    CIFAR10_TRAIN_FILES,
)


def write_cifar10_style(root, *, train_records=50_000, test_records=10_000,
                        seed=1234) -> str:
    """Synthesise files in the exact CIFAR-10 binary layout."""
    gen = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    per_file = train_records // len(CIFAR10_TRAIN_FILES)
    for name in CIFAR10_TRAIN_FILES:
        _write_records(os.path.join(root, name), per_file, 10, gen)
    _write_records(os.path.join(root, "test_batch.bin"), test_records, 10, gen)
    return root


def write_cifar100_style(root, *, train_records=50_000, test_records=10_000,
                         seed=4321) -> str:
    gen = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    _write_records(os.path.join(root, "train.bin"), train_records, 100, gen)
    _write_records(os.path.join(root, "test.bin"), test_records, 100, gen)
    return root


def _write_records(path, n, variant, gen):
    stride = CIFAR10_RECORD_BYTES if variant == 10 else CIFAR100_RECORD_BYTES
    block = gen.integers(0, 256, size=(n, stride), dtype=np.uint8)
    if variant == 10:
        block[:, 0] = gen.integers(0, 10, size=n, dtype=np.uint8)
    else:
        block[:, 0] = gen.integers(0, 20, size=n, dtype=np.uint8)
        block[:, 1] = gen.integers(0, 100, size=n, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(block.tobytes())


@pytest.fixture(scope="session")
def cifar10_dir(tmp_path_factory):
    return write_cifar10_style(str(tmp_path_factory.mktemp("cifar10")))


@pytest.fixture(scope="session")
def cifar100_dir(tmp_path_factory):
    return write_cifar100_style(str(tmp_path_factory.mktemp("cifar100")))


@pytest.fixture
def two_eval_shards(monkeypatch):
    """Split every no_grad eval forward over 2 threads, whatever the host's
    CPUs, so a 1-CPU host still runs the threaded path."""
    from semnet import backbone
    monkeypatch.setattr(backbone, "eval_shard_count", lambda: 2)


@pytest.fixture
def small_train_shards(monkeypatch):
    """Split every training forward of 2 samples or more into shards, so
    the tests' small batches run the sharded path the benchmark's batches
    of 128 take."""
    from semnet import backbone
    monkeypatch.setattr(backbone, "_MIN_SHARD_SAMPLES", 1)
