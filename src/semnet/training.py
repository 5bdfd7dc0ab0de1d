"""Run configuration, the training loop, and evaluation.

A run writes into its output directory:

* ``config.resolved``: every setting after defaulting, as key=value lines;
* ``environment.json``: the numpy and BLAS build, the BLAS thread
  variables, the CPU count and the Python version the run executed on;
* ``metrics.jsonl``: one deterministic record per epoch (wall-clock times
  go to ``timing.jsonl`` so two identical runs produce byte-identical
  metrics logs);
* ``timing.jsonl``: first the set-up seconds (loading the data, its
  channel statistics, building the model), then per epoch the seconds spent
  training and evaluating and the minor page faults (``ru_minflt``) taken;
* ``final.ckpt`` / ``best.ckpt``: parameters, batch-norm buffers, the
  normalisation statistics, and the resolved config but its ``out_dir``
  embedded as bytes.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import data as data_mod
from .attention import ALL_OPERATORS, DecisionRecord, normalize_operator_set
from .backbone import (ATTENTION_MODES, SINGLE_OPERATOR_MODES, Model, build_network,
                       depth_to_blocks)
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import CheckpointError, NumericalFailure
from .optim import SGD, MultiStepSchedule
from .rng import RngState
from . import shards
from .tensor import (ACTIVATION_KINDS, backward, blas_runtime, layer_scope, no_grad,
                     set_debug_checks, softmax_cross_entropy)

DATASETS = ("cifar10", "cifar100", "synthetic")
DATA_DIR_ENV = "SEM_DATA_DIR"

# Reference protocol: 164 epochs with lr drops at 81 and 122. Shorter runs
# scale the milestones proportionally so they stay inside the run.
_REFERENCE_EPOCHS = 164
_REFERENCE_MILESTONES = (81, 122)

# RNG stream ids under the run seed (stream 0 feeds synthetic data).
_STREAM_PARAMS = 1
_STREAM_SUBSET = 3


@dataclass
class RunConfig:
    dataset: str = "synthetic"
    data_dir: str | None = None
    depth: int = 20
    attention: str = "sem"
    operator_set: tuple[str, ...] = ALL_OPERATORS
    reduction: int = 16
    switch_activation: str = "sigmoid"
    unit_decision: bool = False
    attention_seed: int | None = None
    epochs: int = 164
    batch_size: int = 128
    eval_batch_size: int = 256
    lr: float = 0.1
    lr_decay: float = 0.1
    milestones: tuple[int, ...] | None = None
    momentum: float = 0.9
    weight_decay: float = 1e-4
    augment: bool = True
    crop_pad: int = 4
    flip_prob: float = 0.5
    seed: int = 1
    out_dir: str = "runs/latest"
    num_classes: int | None = None
    synthetic_train: int = 512
    synthetic_test: int = 256
    synthetic_classes: int = 10
    train_subset: int | None = None
    max_steps: int | None = None

    # -- resolution -------------------------------------------------------

    def resolved(self) -> "RunConfig":
        """Fill every derived field and validate the result, so a bad value
        is rejected before a run writes anything."""
        cfg = replace(self)
        if cfg.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {cfg.dataset!r}; valid: {DATASETS}")
        if cfg.attention not in ATTENTION_MODES:
            raise ValueError(f"unknown attention mode {cfg.attention!r}; "
                             f"valid: {ATTENTION_MODES}")
        if cfg.switch_activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown switch_activation {cfg.switch_activation!r}; "
                             f"valid: {ACTIVATION_KINDS}")
        if cfg.unit_decision and cfg.attention != "sem":
            raise ValueError(f"unit_decision needs attention=sem; attention={cfg.attention!r} "
                             "has no decision network")
        depth_to_blocks(cfg.depth)
        cfg.operator_set = normalize_operator_set(cfg.operator_set)
        if cfg.attention in SINGLE_OPERATOR_MODES:
            cfg.switch_activation = "sigmoid"  # what their gates run
        labels = {"cifar10": 10, "cifar100": 100, "synthetic": cfg.synthetic_classes}
        if cfg.num_classes is None:
            cfg.num_classes = labels[cfg.dataset]
        if cfg.data_dir is None:
            cfg.data_dir = os.environ.get(DATA_DIR_ENV)
        if cfg.attention_seed is None:
            cfg.attention_seed = cfg.seed
        if cfg.milestones is None:
            scaled = [round(cfg.epochs * m / _REFERENCE_EPOCHS)
                      for m in _REFERENCE_MILESTONES]
            cfg.milestones = tuple(dict.fromkeys(
                m for m in scaled if 1 <= m < cfg.epochs))
        if cfg.epochs > 0 and any(not 1 <= m < cfg.epochs for m in cfg.milestones):
            raise ValueError(f"milestones {cfg.milestones} must lie in [1, epochs={cfg.epochs})")
        for name, low in (("reduction", 1), ("epochs", 0), ("batch_size", 1),
                          ("eval_batch_size", 1), ("crop_pad", 0), ("seed", 0),
                          ("attention_seed", 0), ("synthetic_train", 1),
                          ("synthetic_test", 1), ("synthetic_classes", 2),
                          ("num_classes", max(2, labels[cfg.dataset])),
                          ("train_subset", 1), ("max_steps", 1), ("lr", 0),
                          ("lr_decay", 0), ("momentum", 0), ("weight_decay", 0)):
            value = getattr(cfg, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for f in fields(cfg):
            if f.type == "float" and not math.isfinite(getattr(cfg, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(cfg, f.name)}")
        if not 0.0 <= cfg.flip_prob <= 1.0:
            raise ValueError("flip_prob must be in [0, 1]")
        return cfg

    def network_config(self) -> "RunConfig":
        # The backbone takes the run config itself; kept because perfbench
        # builds its model with build_network(cfg.network_config(), ...).
        return self

    # -- key=value serialisation ------------------------------------------

    def to_kv_text(self) -> str:
        lines = []
        for f in fields(self):
            lines.append(f"{f.name}={_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_sources(cls, config_path: str | None = None,
                     overrides: dict[str, str] | None = None) -> "RunConfig":
        """Defaults, then key=value file entries, then explicit overrides."""
        values: dict[str, str] = {}
        if config_path:
            values.update(parse_kv_file(config_path))
        if overrides:
            values.update(overrides)
        cfg = cls()
        known = {f.name: f for f in fields(cls)}
        for key, raw in values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _parse_value(key, raw))
        return cfg


def parse_kv_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_SCALAR_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()),
    "tuple[str, ...]": lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()),
}


def _parser_for(annotation: str):
    """Text parser for a RunConfig field annotation; ``X | None`` also
    accepts an empty value or ``none``."""
    base = annotation.removesuffix(" | None")
    if base not in _SCALAR_PARSERS:
        raise TypeError(f"no config parser for annotation {annotation!r}")
    parse = _SCALAR_PARSERS[base]
    if base == annotation:
        return parse
    return lambda raw: None if raw.lower() in ("", "none") else parse(raw)


_FIELD_PARSERS = {f.name: _parser_for(f.type) for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    try:
        return _FIELD_PARSERS[key](raw.strip())
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    """One epoch's line of ``metrics.jsonl``, field for field. It holds no
    wall-clock time, so identical runs log identically."""

    epoch: int
    train_loss: float
    train_top1: float
    test_top1: float
    lr: float
    decisions: list = field(default_factory=list)


def _decision_summary(records: list[DecisionRecord]) -> list:
    return [{"layer": rec.layer_index, "stage": rec.stage, "channels": rec.channels,
             "w": {op: [round(m, 8), round(s, 8)] for op, (m, s) in rec.stats().items()}}
            for rec in records]


@dataclass
class TrainResult:
    config: RunConfig
    metrics: list[MetricsRecord]
    final_checkpoint: str
    best_checkpoint: str | None
    metrics_path: str
    model: Model
    channel_mean: np.ndarray
    channel_std: np.ndarray
    steps: int

    @property
    def final_record(self) -> MetricsRecord | None:
        return self.metrics[-1] if self.metrics else None

    @property
    def best_top1(self) -> float | None:
        return max((m.test_top1 for m in self.metrics), default=None)


# ---------------------------------------------------------------------------
# Data assembly
# ---------------------------------------------------------------------------

def load_datasets(cfg: RunConfig) -> tuple[Sequence, Sequence]:
    """Train/test records for the configured dataset, subset applied."""
    if cfg.dataset == "synthetic":
        total = cfg.synthetic_train + cfg.synthetic_test
        records = data_mod.synthetic_dataset(total, cfg.synthetic_classes, seed=cfg.seed)
        train = records[: cfg.synthetic_train]
        test = records[cfg.synthetic_train :]
    else:
        if not cfg.data_dir:
            raise ValueError(
                f"dataset {cfg.dataset} needs data_dir or ${DATA_DIR_ENV}")
        variant = 10 if cfg.dataset == "cifar10" else 100
        train, test = data_mod.load_cifar(cfg.data_dir, variant)
    if cfg.train_subset is not None and cfg.train_subset < len(train):
        order = RngState(cfg.seed, _STREAM_SUBSET).generator().permutation(len(train))
        kept = order[: cfg.train_subset]
        if isinstance(train, data_mod.CifarSplit):
            train = train.take(kept)  # read from the files, as the whole split
        else:  # synthetic records, each owning its pixels
            train = [train[i] for i in kept]
    return train, test


# ---------------------------------------------------------------------------
# Evaluation and training
# ---------------------------------------------------------------------------

def evaluate(model: Model, records: Sequence, batch_size: int,
             channel_mean, channel_std) -> float:
    """Top-1 accuracy (percent) with running-statistics normalisation."""
    correct = 0
    with no_grad():
        for images, labels in data_mod.batch_iterator(
                records, batch_size, shuffle_seed=0, epoch=0, shuffle=False,
                channel_mean=channel_mean, channel_std=channel_std):
            logits = model(images, training=False)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    return 100.0 * correct / len(records)


def train_run(cfg: RunConfig, *, log=None) -> TrainResult:
    """Run the full training protocol and write the run directory. The
    shard worker of the model it builds is closed when the run ends or
    fails; other models keep theirs."""
    cfg = cfg.resolved()
    marks = [time.time()]
    train_records, test_records = load_datasets(cfg)
    marks.append(time.time())
    channel_mean, channel_std = data_mod.compute_channel_stats(train_records)
    marks.append(time.time())
    model = build_network(cfg, RngState(cfg.seed, _STREAM_PARAMS))
    marks.append(time.time())
    try:
        return _train_run(cfg, log, model, train_records, test_records,
                          channel_mean, channel_std, marks)
    finally:
        shards.close_worker_of(model)


def _train_run(cfg: RunConfig, log, model: Model, train_records, test_records,
               channel_mean, channel_std, marks) -> TrainResult:
    optimizer = SGD(model.parameters(), lr=cfg.lr,
                    momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    schedule = MultiStepSchedule(cfg.lr, cfg.milestones, cfg.lr_decay)
    augment_cfg = data_mod.AugmentConfig(
        crop_pad=cfg.crop_pad, flip_prob=cfg.flip_prob, enabled=cfg.augment)

    # Written only once the data and the model are set up, so a rejected
    # run leaves nothing behind.
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(cfg.to_kv_text())
    with open(os.path.join(cfg.out_dir, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(run_environment(), fh, indent=1, sort_keys=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    timing_path = os.path.join(cfg.out_dir, "timing.jsonl")
    final_path = os.path.join(cfg.out_dir, "final.ckpt")
    best_path = os.path.join(cfg.out_dir, "best.ckpt")

    metrics: list[MetricsRecord] = []
    best_top1 = -1.0
    wrote_best = False
    steps = 0
    stop = False

    with open(metrics_path, "w", encoding="utf-8") as mfh, \
         open(timing_path, "w", encoding="utf-8") as tfh:
        tfh.write(json.dumps({"setup": dict(zip(
            ("load_s", "stats_s", "build_s"), np.diff(marks).tolist()))}) + "\n")
        for epoch in range(cfg.epochs):
            t0 = time.time()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            lr = schedule.lr_at(epoch)
            optimizer.lr = lr
            loss_sum = 0.0
            seen = 0
            correct = 0
            decisions = []  # the epoch's last step's, which its record summarises
            for images, labels in data_mod.batch_iterator(
                    train_records, cfg.batch_size, cfg.seed, epoch,
                    augment_cfg=augment_cfg,
                    channel_mean=channel_mean, channel_std=channel_std):
                decisions = []
                # A diverging step is reported by NumericalFailure, not by
                # numpy warnings (the diagnostic rerun included).
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    logits = model(images, training=True, decisions=decisions)
                    loss = softmax_cross_entropy(logits, labels)
                    loss_val = loss.item()
                    if not np.isfinite(loss_val):
                        raise NumericalFailure(
                            f"non-finite loss at epoch {epoch} step {steps}; first offending "
                            f"layer: {_first_nonfinite_op(model, images, labels)}")
                    backward(loss)
                    optimizer.step()
                    optimizer.zero_grad()
                loss_sum += loss_val * len(labels)
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                seen += len(labels)
                steps += 1
                if cfg.max_steps is not None and steps >= cfg.max_steps:
                    stop = True
                    break
            train_s = time.time() - t0
            test_top1 = evaluate(model, test_records, cfg.eval_batch_size,
                                 channel_mean, channel_std)
            seconds = time.time() - t0
            record = MetricsRecord(
                epoch=epoch,
                train_loss=loss_sum / max(seen, 1),
                train_top1=100.0 * correct / max(seen, 1),
                test_top1=test_top1,
                lr=lr,
                decisions=_decision_summary(model.decision_records(decisions)))
            metrics.append(record)
            mfh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            tfh.write(json.dumps({"epoch": epoch, "seconds": seconds, "train_s": train_s,
                                  "eval_s": seconds - train_s, "minor_faults": faults}) + "\n")
            if log:
                log(f"epoch {epoch}: loss {record.train_loss:.4f} "
                    f"train {record.train_top1:.2f}% test {record.test_top1:.2f}% lr {lr:g}")
            if test_top1 > best_top1:
                best_top1 = test_top1
                _save_checkpoint(best_path, model, cfg, channel_mean, channel_std)
                wrote_best = True
            if stop:
                break

    _save_checkpoint(final_path, model, cfg, channel_mean, channel_std)
    return TrainResult(
        config=cfg, metrics=metrics,
        final_checkpoint=final_path,
        best_checkpoint=best_path if wrote_best else None,
        metrics_path=metrics_path, model=model,
        channel_mean=channel_mean, channel_std=channel_std, steps=steps)


def train_grid(variants: list[tuple[str, RunConfig]], out_dir: str) -> list[TrainResult | None]:
    """Train each ``(label, config)`` into ``out_dir/label`` in order, printing one
    outcome line per run. A diverged run (e.g. a linear switch activation) is a
    result: it is recorded as ``None`` and the grid goes on. ``train_run`` makes each
    directory once its run is set up, so a rejected grid writes nothing."""
    results: list[TrainResult | None] = []
    for label, cfg in variants:
        try:
            result = train_run(replace(cfg, out_dir=os.path.join(out_dir, label)))
        except NumericalFailure as exc:
            print(f"{label}: diverged ({exc})")
            result = None
        else:
            rec = result.final_record
            print(f"{label}: test_top1 {rec.test_top1:.4f}" if rec else f"{label}: no epochs")
        results.append(result)
    return results


def _first_nonfinite_op(model: Model, images, labels) -> str:
    """Rerun one training forward and its loss with the per-op check on and
    name the layer and op of the first non-finite output."""
    # The check was off, or the first pass would have raised; this rerun
    # leaves it off again.
    set_debug_checks(True)
    try:
        with no_grad(), layer_scope("loss"):
            softmax_cross_entropy(model(images, training=True), labels)
    except FloatingPointError as exc:
        return str(exc)
    finally:
        set_debug_checks(False)
    return "loss"


def run_environment() -> dict:
    """The numpy/BLAS build, BLAS thread settings, the CPUs this process may
    run on, whether large batches run in two shards (``shards.AVAILABLE``),
    and the host of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 returns no dicts
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), **blas_runtime()},
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
        "sharded": shards.AVAILABLE,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Checkpoint glue
# ---------------------------------------------------------------------------

def _save_checkpoint(path: str, model: Model, cfg: RunConfig,
                     channel_mean, channel_std) -> None:
    arrays = dict(model.state_arrays())
    arrays["norm.channel_mean"] = np.asarray(channel_mean, dtype=np.float64)
    arrays["norm.channel_std"] = np.asarray(channel_std, dtype=np.float64)
    # Without out_dir: where a run was written is not part of what it learned,
    # so identical runs in two directories write identical bytes.
    meta = {k: v for k, v in asdict(cfg).items() if k != "out_dir"}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays["meta.config_json"] = np.frombuffer(blob, dtype=np.uint8)
    write_checkpoint(path, arrays)


def load_run_checkpoint(path: str) -> tuple[Model, RunConfig, np.ndarray, np.ndarray]:
    """Rebuild the model (and normalisation stats) stored by a run."""
    arrays = read_checkpoint(path)
    try:
        blob = bytes(arrays.pop("meta.config_json").tobytes())
        meta = json.loads(blob.decode("utf-8"))
        channel_mean = arrays.pop("norm.channel_mean")
        channel_std = arrays.pop("norm.channel_std")
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing metadata record {exc}") from exc
    kwargs = {}
    for f in fields(RunConfig):
        if f.name in meta:
            v = meta[f.name]
            kwargs[f.name] = tuple(v) if isinstance(v, list) else v
    cfg = RunConfig(**kwargs).resolved()
    model = build_network(cfg, RngState(cfg.seed, _STREAM_PARAMS))
    try:
        model.load_state_arrays(arrays)
    except ValueError as exc:  # the file's arrays do not fit its own config
        raise CheckpointError(f"{path}: {exc}") from exc
    return model, cfg, channel_mean, channel_std
