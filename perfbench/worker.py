"""One workload in a fresh process; prints its results as one JSON line.

Modes:

* ``setup``: set up and exit, giving one more set-up time sample;
* ``run``: set up, one warm-up operation, timed operations for
  ``--seconds`` (at least ``MIN_OPS``), then the output checks;
* ``trace``: as ``run``, with the tracer installed for the warm-up
  operation (under tracemalloc) and every other timed operation;
* ``ref``: as ``run`` for exactly ``--ops`` timed operations, untraced; the
  reference the traced run's losses and step time are compared with.

A train operation is one step of the sequence ``training.train_run`` uses:
batch fetch, ``Model.__call__``, ``softmax_cross_entropy``, ``backward``,
``SGD.step`` and ``zero_grad``. An eval operation is one call of
``training.evaluate`` over 256 test records, as ``semnet eval`` makes it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from semnet import data, optim, training  # noqa: E402
from semnet.rng import RngState  # noqa: E402
from semnet.tensor import no_grad, softmax_cross_entropy  # noqa: E402

from tracer import BACKBONE_LAYERS, TENSOR_OPS, NullTracer, Tracer  # noqa: E402
from workloads import MIN_OPS, WORKLOADS  # noqa: E402

MIB = float(1 << 20)


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TrainSession:
    """Set-up and steps of ``train_run`` for one workload."""

    def __init__(self, spec, seed: int, data_dir: str, out_dir: str, tracer):
        self.tracer = tracer
        cfg = training.RunConfig(
            dataset=f"cifar{spec.variant}", data_dir=data_dir, depth=spec.depth,
            attention="sem", epochs=1, batch_size=spec.batch,
            train_subset=spec.train_subset, seed=seed, out_dir=out_dir).resolved()
        train, test = training.load_datasets(cfg)
        self.records = len(train) + len(test)
        self.mean, self.std = data.compute_channel_stats(train)
        self.model = training.build_network(
            cfg.network_config(), RngState(cfg.seed, training._STREAM_PARAMS))
        tracer.watch_model(self.model)
        self.optimizer = optim.SGD(self.model.parameters(), lr=cfg.lr,
                                   momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        self.augment = data.AugmentConfig(crop_pad=cfg.crop_pad, flip_prob=cfg.flip_prob,
                                          enabled=cfg.augment)
        self.cfg, self.train = cfg, train
        self.batch = cfg.batch_size
        self.steps_per_epoch = math.ceil(len(train) / cfg.batch_size)
        self.epoch = 0
        self.batches = self._epoch_batches()
        self.checkpoint_path = os.path.join(out_dir, "final.ckpt")

    def _epoch_batches(self):
        return data.batch_iterator(
            self.train, self.cfg.batch_size, self.cfg.seed, self.epoch,
            augment_cfg=self.augment, channel_mean=self.mean, channel_std=self.std)

    def _next_batch(self):
        try:
            return next(self.batches)
        except StopIteration:
            self.epoch += 1
            self.batches = self._epoch_batches()
            return next(self.batches)

    def op(self, span: str, mem: dict | None = None) -> tuple[float, float]:
        """One training step; returns (seconds, loss)."""
        start = time.perf_counter()
        with self.tracer.span(span):
            images, labels = self._next_batch()
            if mem is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            logits = self.model(images, training=True)
            loss = training.softmax_cross_entropy(logits, labels)
            value = loss.item()
            if mem is not None:
                current, peak = tracemalloc.get_traced_memory()
                mem.update(forward_peak=peak - base, tape=current - base)
                tracemalloc.reset_peak()
            if not math.isfinite(value):
                self.optimizer.zero_grad()
                raise CheckFailed(f"non-finite loss {value} at epoch {self.epoch}")
            training.backward(loss)
            if mem is not None:
                mem["backward_peak"] = tracemalloc.get_traced_memory()[1] - base
            self.optimizer.step()
            self.optimizer.zero_grad()
        return time.perf_counter() - start, value

    def finish(self) -> dict:
        """Write the final checkpoint as ``train_run`` does and check that
        it reads back bit for bit."""
        start = time.perf_counter()
        training._save_checkpoint(self.checkpoint_path, self.model, self.cfg,
                                  self.mean, self.std)
        write_s = time.perf_counter() - start
        expected = dict(self.model.state_arrays())
        expected["norm.channel_mean"] = np.asarray(self.mean, dtype=np.float64)
        expected["norm.channel_std"] = np.asarray(self.std, dtype=np.float64)
        arrays = training.read_checkpoint(self.checkpoint_path)
        meta = arrays.pop("meta.config_json", None)
        if list(arrays) != list(expected):
            raise CheckFailed("checkpoint records differ from the model state")
        bad = [k for k in expected if not _same_bits(arrays[k], expected[k])]
        if bad:
            raise CheckFailed(f"checkpoint round trip changed {len(bad)} arrays, first {bad[0]}")
        if meta is None or json.loads(meta.tobytes())["depth"] != self.cfg.depth:
            raise CheckFailed("checkpoint config record is missing or wrong")
        return {"write_s": write_s, "bytes": os.path.getsize(self.checkpoint_path),
                "amortised_s": write_s / self.steps_per_epoch}

    def param_tensors(self) -> int:
        return len(self.optimizer.params)


class _LogitProbe:
    """Stands in for the model inside ``evaluate``: checks every batch of
    logits for non-finite values and keeps the last one."""

    def __init__(self, model):
        self.model = model
        self.logits = None

    def __call__(self, images, training=False):
        logits = self.model(images, training=training)
        if not np.isfinite(logits.data).all():
            raise CheckFailed("non-finite logits")
        self.logits = logits
        return logits


class EvalSession:
    """Set-up and batches of ``semnet eval`` for one workload."""

    def __init__(self, spec, checkpoint: str, data_dir: str, tracer):
        self.tracer = tracer
        model, cfg, self.mean, self.std = training.load_run_checkpoint(checkpoint)
        # As `semnet eval --data-dir`, pointed at the CIFAR-10 layout.
        cfg = replace(cfg, dataset=f"cifar{spec.variant}", data_dir=data_dir)
        train, self.test = training.load_datasets(cfg)
        self.records = len(train) + len(self.test)
        self.model = model
        tracer.watch_model(model)
        self.batch = spec.batch
        self.full_batches = len(self.test) // spec.batch
        self.done = 0
        self.top1: list[float] = []
        self.checkpoint_bytes = os.path.getsize(checkpoint)

    def op(self, span: str, mem: dict | None = None) -> tuple[float, float]:
        """``evaluate`` over the next full test batch; returns (seconds,
        mean cross-entropy of the batch)."""
        lo = (self.done % self.full_batches) * self.batch
        self.done += 1
        records = self.test[lo : lo + self.batch]
        probe = _LogitProbe(self.model)
        if mem is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        with self.tracer.span(span):
            top1 = training.evaluate(probe, records, self.batch, self.mean, self.std)
        seconds = time.perf_counter() - start
        if mem is not None:
            mem.update(forward_peak=tracemalloc.get_traced_memory()[1] - base,
                       tape=0, backward_peak=0)
        if not 0.0 <= top1 <= 100.0:
            raise CheckFailed(f"top-1 {top1} outside [0, 100]")
        self.top1.append(top1)
        labels = np.array([r.label for r in records], dtype=np.int64)
        with no_grad():
            loss = softmax_cross_entropy(probe.logits, labels).item()
        return seconds, loss

    def finish(self) -> dict:
        return {"bytes": self.checkpoint_bytes,
                "top1_mean": statistics.fmean(self.top1) if self.top1 else None}

    def param_tensors(self) -> int:
        return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def layer_metrics(tracer: Tracer, session, mem: dict) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run and whether its counts repeated
    exactly from step to step."""
    steps = tracer.summarize()
    times = [t for t, _ in steps]
    counts = [c for _, c in steps]
    repeated = all(c == counts[0] for c in counts)

    def med(key):
        return statistics.median(t.get(key, 0.0) for t in times)

    def count(key):
        return counts[0].get(key, 0)

    out = {
        "data.load_s": tracer.total("data.load"),
        "data.stats_s": tracer.total("data.stats"),
        "data.batch_s": med("data.batch_s"),
        "data.records": session.records,
        "backbone.build_s": tracer.total("backbone.build"),
    }
    for layer in BACKBONE_LAYERS:
        out[f"backbone.{layer}.fwd_s"] = med(f"backbone.{layer}.fwd_s")
        out[f"backbone.{layer}.bwd_s"] = med(f"backbone.{layer}.bwd_s")
    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_s"] = med(f"tensor.{op}.fwd_s")
        out[f"tensor.{op}.bwd_s"] = med(f"tensor.{op}.bwd_s")
        out[f"tensor.{op}.calls"] = count(f"tensor.{op}.calls")
    gflop = count("conv.flop") / 1e9
    fwd_s, bwd_s = out["tensor.conv2d.fwd_s"], out["tensor.conv2d.bwd_s"]
    out["tensor.conv2d.gflop"] = gflop
    out["tensor.conv2d.cols_mib"] = count("conv.cols_bytes") / MIB
    out["tensor.conv2d.fwd_gflops"] = gflop / fwd_s if fwd_s else 0.0
    # Backward runs two GEMMs of the forward's size: input and kernel grads.
    out["tensor.conv2d.bwd_gflops"] = 2 * gflop / bwd_s if bwd_s else 0.0
    out["tensor.backward_s"] = med("tensor.backward_s")
    out["tensor.backward.engine_s"] = med("tensor.backward.engine_s")
    out["tensor.tape_nodes"] = count("tensor.tape_nodes")
    step_s = med("step_s")
    out["attention.fwd_s"] = med("attention.fwd_s")
    out["attention.bwd_s"] = med("attention.bwd_s")
    out["attention.calls"] = count("attention.calls")
    out["attention.nodes"] = count("attention.nodes")
    out["attention.share"] = (out["attention.fwd_s"] + out["attention.bwd_s"]) / step_s
    out["optim.step_s"] = med("optim.step_s")
    out["optim.zero_grad_s"] = med("optim.zero_grad_s")
    out["optim.params"] = session.param_tensors()
    out["checkpoint.write_s"] = tracer.total("checkpoint.write")
    out["checkpoint.read_s"] = tracer.total("checkpoint.read")
    out["mem.forward_peak_mib"] = mem.get("forward_peak", 0) / MIB
    out["mem.backward_peak_mib"] = mem.get("backward_peak", 0) / MIB
    out["mem.tape_mib"] = mem.get("tape", 0) / MIB
    out["trace.step_s"] = step_s
    return out, repeated


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace", "ref"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--data", required=True, help="directory of the CIFAR-layout binaries")
    p.add_argument("--out", required=True, help="directory for the run's own checkpoint")
    p.add_argument("--checkpoint", help="checkpoint an eval workload loads")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--ops", type=int, help="exact number of timed operations")
    p.add_argument("--trace-out", help="file the traced run's spans are written to")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    tracer = Tracer() if args.mode == "trace" else NullTracer()
    if tracer.enabled:
        tracer.install()
    if spec.kind == "train":
        session = TrainSession(spec, args.seed, args.data, args.out, tracer)
    else:
        session = EvalSession(spec, args.checkpoint, args.data, tracer)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    attempted = failed = 0
    errors: list[str] = []

    def attempt(fn, *fn_args):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*fn_args)
        except Exception as exc:  # count the failure and keep measuring
            failed += 1
            if len(errors) < 5:
                errors.append(f"{type(exc).__name__}: {exc}")
            return None

    mem: dict = {}
    if tracer.enabled:
        tracemalloc.start()
    warm = attempt(session.op, "warmup", mem if tracer.enabled else None)
    if tracer.enabled:
        tracemalloc.stop()
    # A traced run alternates traced and untraced steps in one process, so
    # the tracing overhead is measured under the same conditions.
    min_ops = 2 * MIN_OPS if tracer.enabled else MIN_OPS
    op_s: list[float] = []
    losses: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    start = time.perf_counter()
    while True:
        timed = attempted - 1
        if args.ops is not None:
            if timed >= args.ops:
                break
        elif timed >= min_ops and time.perf_counter() - start >= args.seconds:
            break
        traced = tracer.enabled and timed % 2 == 0
        if tracer.enabled:
            tracer.set_installed(traced)
        outcome = attempt(session.op, "step" if traced else "untraced")
        if outcome is not None:
            op_s.append(outcome[0])
            losses.append(outcome[1])
            (traced_s if traced else untraced_s).append(outcome[0])
    if tracer.enabled:
        tracer.set_installed(True)
    finish = attempt(session.finish) or {}

    result.update(
        batch=session.batch,
        warmup_s=None if warm is None else warm[0],
        warmup_loss=None if warm is None else warm[1],
        op_s=op_s, losses=losses, finish=finish,
        attempted=attempted, failed=failed, errors=errors,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment())
    if tracer.enabled:
        tracer.uninstall()
        layers, repeated = layer_metrics(tracer, session, mem)
        layers["checkpoint.bytes"] = finish.get("bytes", 0)
        layers["trace.overhead_share"] = (statistics.median(traced_s)
                                          / statistics.median(untraced_s) - 1.0)
        result.update(layers=layers, counts_repeated=repeated)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
