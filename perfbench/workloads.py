"""Workload definitions shared by the orchestrator and the worker processes."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    kind: str                      # "train" or "eval"
    variant: int                   # CIFAR layout: 10 or 100
    depth: int
    batch: int
    train_subset: int | None = None


WORKLOADS = {
    "train-c10-d20": Workload("train", 10, 20, 128, train_subset=10_000),
    "train-c100-d164": Workload("train", 100, 164, 16),
    "eval-c10-d20": Workload("eval", 10, 20, 256),
}

# Timed operations a run makes at least, whatever --seconds says. The loss
# metric averages exactly this many, so it does not depend on speed.
MIN_OPS = 3

# BLAS threads every process of a run is pinned to (never more than nproc).
BLAS_THREADS = 1
