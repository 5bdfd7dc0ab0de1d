import gc
import glob
import os
import shutil
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from semnet.data import (  # noqa: E402
    CIFAR10_RECORD_BYTES,
    CIFAR100_RECORD_BYTES,
    CIFAR10_TRAIN_FILES,
)
from semnet.shards import close_worker  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:  # no such process
        return False


def live_children(pid: int | str = "self") -> list[int]:
    """The child processes of process ``pid`` (by default this one) that
    have not exited, from /proc/<pid>/task/*/children (empty where /proc
    has no such files)."""
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                pids += [int(child) for child in fh.read().split()]
        except OSError:  # the thread ended meanwhile
            pass
    return [pid for pid in pids if running(pid)]


@pytest.fixture(autouse=True)
def no_child_left_alive():
    """Fail a test that leaves a child of the pytest process alive, such as
    a shard worker whose model the test still holds. A model that only a
    reference cycle keeps is collected first, which reaps its worker."""
    yield
    if live_children():
        gc.collect()
    left = live_children()
    if left:
        close_worker()  # so the next test starts without it
        pytest.fail(f"child processes left alive: {left}")


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves alive a thread it did not find: semnet starts
    none, and a test's own threads end before it returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


def open_fds() -> set[str]:
    """This process's open file descriptors, from /proc/self/fd."""
    return set(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_file_left_open():
    """Fail a test that leaves a file descriptor open once its objects are
    collected, such as a CIFAR split's files. Skipped where /proc/self/fd
    does not exist."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = open_fds()
    yield
    gc.collect()
    left = open_fds() - before
    if left:
        pytest.fail(f"file descriptors left open: {sorted(left, key=int)}")


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


def with_own_files(cifar_dir, root, own="test") -> str:
    """A copy of the CIFAR directory ``cifar_dir`` at ``root`` whose files
    named from ``own`` (the test file by default) may be changed: the other
    files are links to ``cifar_dir``'s."""
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(cifar_dir):
        if name.startswith(own):
            shutil.copyfile(os.path.join(cifar_dir, name), os.path.join(root, name))
        else:
            os.symlink(os.path.join(cifar_dir, name), os.path.join(root, name))
    return root


@pytest.fixture(scope="session")
def cifar10_dir(tmp_path_factory):
    return write_cifar10_style(str(tmp_path_factory.mktemp("cifar10")))


@pytest.fixture(scope="session")
def cifar100_dir(tmp_path_factory):
    return write_cifar100_style(str(tmp_path_factory.mktemp("cifar100")))


@pytest.fixture
def small_shards(monkeypatch):
    """Split every training forward and no_grad eval forward of 2 samples
    or more into shards, so the tests' smallest batches run the sharded
    path that batches of 8 or more take."""
    from semnet import backbone
    monkeypatch.setattr(backbone, "_MIN_SHARD_SAMPLES", 1)
