"""Seeded benchmark inputs: CIFAR-layout binaries and the eval checkpoint.

Images come from ``semnet.data.synthetic_dataset`` (learnable class blobs)
and are written with ``semnet.data.encode_record`` in the published layout:
exactly 50,000 train and 10,000 test records. Each 10,000-record chunk has
its own seed derived from the run seed, so two processes can build chunks
in parallel and the same seed always gives the same bytes.

``prepare`` starts the generators as plain child processes of this file
(``python3 inputs.py OUT_DIR VARIANT SEED JOB...``) and waits for each of
them on every path out, so no helper process outlives it.
"""

from __future__ import annotations

import os
import subprocess
import sys

CHUNK_RECORDS = 10_000
CHUNKS_PER_SEED = 8      # chunk seeds are seed * 8 + index, index < 6
GENERATORS = 2
CHECKPOINT_JOB = "ckpt"
_CHECKPOINT_LINE = "checkpoint="
# Rough cost of a job in chunks; only used to balance the generators.
_COST = {CHECKPOINT_JOB: 3}

# (file name, chunk indices) in the published layout of each variant.
_FILES = {
    10: [(f"data_batch_{i + 1}.bin", [i]) for i in range(5)] + [("test_batch.bin", [5])],
    100: [("train.bin", [0, 1, 2, 3, 4]), ("test.bin", [5])],
}


def _chunk_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"chunk-{index}.part")


def _write_chunk(out_dir: str, variant: int, seed: int, index: int) -> None:
    from semnet import data

    records = data.synthetic_dataset(CHUNK_RECORDS, variant,
                                     seed=seed * CHUNKS_PER_SEED + index)
    with open(_chunk_path(out_dir, index), "wb") as fh:
        for r in records:
            fh.write(data.encode_record(r, variant))


def _train_checkpoint(out_dir: str, seed: int) -> str:
    """Depth-20 SEM checkpoint from one training step of ``train_run``."""
    from semnet import training

    cfg = training.RunConfig(
        dataset="synthetic", synthetic_train=128, synthetic_test=10,
        synthetic_classes=10, depth=20, attention="sem", epochs=1,
        batch_size=128, max_steps=1, seed=seed, out_dir=os.path.join(out_dir, "ckpt-run"))
    return training.train_run(cfg).final_checkpoint


def _split_jobs(jobs: list[str]) -> list[list[str]]:
    shares: list[list[str]] = [[] for _ in range(GENERATORS)]
    loads = [0] * GENERATORS
    for job in jobs:
        i = loads.index(min(loads))
        shares[i].append(job)
        loads[i] += _COST.get(job, 1)
    return [s for s in shares if s]


def prepare(variant: int, seed: int, out_dir: str, *, checkpoint: bool) -> str | None:
    """Write the dataset for ``variant`` under ``out_dir``; with
    ``checkpoint`` also train the eval checkpoint and return its path.

    ``GENERATORS`` child processes share the work; all of them have ended
    when this returns or raises.
    """
    os.makedirs(out_dir, exist_ok=True)
    jobs = ([CHECKPOINT_JOB] if checkpoint else []) + [str(i) for i in range(6)]
    procs: list[subprocess.Popen] = []
    try:
        for share in _split_jobs(jobs):
            procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), out_dir, str(variant),
                 str(seed), *share],
                stdout=subprocess.PIPE, text=True))
        outputs = [p.communicate()[0] for p in procs]
        for p in procs:
            if p.returncode != 0:
                raise subprocess.CalledProcessError(p.returncode, p.args)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for name, indices in _FILES[variant]:
        with open(os.path.join(out_dir, name), "wb") as fh:
            for i in indices:
                with open(_chunk_path(out_dir, i), "rb") as part:
                    fh.write(part.read())
                os.remove(_chunk_path(out_dir, i))
            # Written back now, so the write-back cannot overlap set-up.
            fh.flush()
            os.fsync(fh.fileno())
    if not checkpoint:
        return None
    return next(line[len(_CHECKPOINT_LINE):] for out in outputs
                for line in out.splitlines() if line.startswith(_CHECKPOINT_LINE))


def main(argv: list[str]) -> int:
    out_dir, variant, seed, *jobs = argv
    for job in jobs:
        if job == CHECKPOINT_JOB:
            print(_CHECKPOINT_LINE + _train_checkpoint(out_dir, int(seed)), flush=True)
        else:
            _write_chunk(out_dir, int(variant), int(seed), int(job))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main(sys.argv[1:]))
