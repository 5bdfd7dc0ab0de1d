"""Experiment command line: train, eval, gradcheck, random-ops, ablate,
export-decisions.

Run configuration comes from a key=value file (``--config``) plus per-field
flag overrides; every run writes its fully-resolved config. Exit codes:
0 success, 2 usage (also when the reader closes stdout early), 3 data
ingestion, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import verify
from .attention import decision_summary_csv
from .backbone import assign_random_operators, depth_to_blocks
from .data import normalize_images
from .errors import CheckpointError, IngestionError, NumericalFailure
from .tensor import Tensor, no_grad
from .training import (
    RunConfig,
    TrainResult,
    evaluate,
    load_datasets,
    load_run_checkpoint,
    train_run,
)

ABLATIONS = ("size_of_eo", "decision_removal", "activation", "no_augment")

OPERATOR_GRID = (("fc",), ("cnn",), ("ie",),
                 ("fc", "cnn"), ("fc", "ie"), ("cnn", "ie"),
                 ("fc", "cnn", "ie"))
ACTIVATION_GRID = ("tanh", "relu", "leaky_relu", "sigmoid")
NO_AUGMENT_GRID = ("none", "se", "sem")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value run configuration file")
    group = parser.add_argument_group("config overrides")
    for f in fields(RunConfig):
        group.add_argument(f"--{f.name.replace('_', '-')}",
                           dest=f"cfg_{f.name}", metavar="V",
                           help=f"override {f.name}")


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    return RunConfig.from_sources(args.config, overrides)


def _print_result(result: TrainResult) -> None:
    rec = result.final_record
    if rec is None:
        print(f"no epochs run; initial checkpoint at {result.final_checkpoint}")
        return
    print(f"final: epoch {rec.epoch} train_loss {rec.train_loss:.4f} "
          f"train_top1 {rec.train_top1:.2f} test_top1 {rec.test_top1:.2f}")
    print(f"best test_top1: {result.best_top1:.2f}")
    print(f"checkpoints: {result.final_checkpoint}"
          + (f" (best: {result.best_checkpoint})" if result.best_checkpoint else ""))


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    result = train_run(cfg, log=print)
    _print_result(result)
    return 0


def cmd_eval(args) -> int:
    model, cfg, mean, std = load_run_checkpoint(args.checkpoint)
    if args.data_dir:
        cfg = replace(cfg, data_dir=args.data_dir)
    train, test = load_datasets(cfg)
    records = train if args.split == "train" else test
    top1 = evaluate(model, records, args.batch_size, mean, std)
    print(f"{args.split} top1: {top1:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    scopes = list(verify.SCOPES) if args.scope == "all" else [args.scope]
    failed = False
    for scope in scopes:
        report = verify.run_scope(scope, seed=args.seed)
        worst = verify.worst_error(report)
        status = "ok" if worst <= verify.TOLERANCE else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{scope}: max_rel_err={worst:.3e} [{status}]")
        for name, err in sorted(report.items()):
            print(f"  {name}: {err:.3e}")
    if failed:
        print(f"gradient check exceeded tolerance {verify.TOLERANCE:g}", file=sys.stderr)
        return 4
    return 0


def cmd_random_ops(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = _config_from_args(args)
    mode = "random_single" if args.arity == 1 else "random_double"
    cfg = replace(cfg, attention=mode).resolved()
    n_blocks = 3 * depth_to_blocks(cfg.depth)

    # Directories are left to train_run, which creates one only after the
    # trial's data and model are set up, so a rejected command writes nothing.
    rows = []
    for trial in range(args.trials):
        assignment_seed = cfg.attention_seed + trial
        trial_cfg = replace(cfg, attention_seed=assignment_seed,
                            out_dir=os.path.join(cfg.out_dir, f"trial_{trial}"))
        try:
            result = train_run(trial_cfg, log=None)
            rec = result.final_record
            rows.append({"trial": trial, "seed": assignment_seed, "status": "ok",
                         "final_test_top1": f"{rec.test_top1:.4f}" if rec else "",
                         "best_test_top1": f"{result.best_top1:.4f}" if rec else ""})
            print(f"trial {trial}: test_top1 {rec.test_top1:.2f}" if rec
                  else f"trial {trial}: no epochs")
        except NumericalFailure as exc:
            rows.append({"trial": trial, "seed": assignment_seed,
                         "status": "diverged", "final_test_top1": "",
                         "best_test_top1": ""})
            print(f"trial {trial}: diverged ({exc})")
        assignment = assign_random_operators(n_blocks, args.arity, assignment_seed)
        with open(os.path.join(trial_cfg.out_dir, "assignment.json"), "w") as fh:
            json.dump({"arity": args.arity, "seed": assignment_seed,
                       "blocks": [list(ops) for ops in assignment]}, fh, indent=1)

    report_path = os.path.join(cfg.out_dir, "report.csv")
    _write_csv(report_path, rows,
               ("trial", "seed", "status", "final_test_top1", "best_test_top1"))
    scores = [float(r["final_test_top1"]) for r in rows if r["status"] == "ok"
              and r["final_test_top1"]]
    if scores:
        print(f"accuracy over {len(scores)} trials: mean {np.mean(scores):.2f} "
              f"min {min(scores):.2f} max {max(scores):.2f}")
    print(f"report: {report_path}")
    return 0


def _ablation_grid(which: str, base: RunConfig) -> list[tuple[str, RunConfig]]:
    if which == "size_of_eo":
        return [("+".join(ops),
                 replace(base, attention="sem", operator_set=ops, unit_decision=False))
                for ops in OPERATOR_GRID]
    if which == "decision_removal":
        return [("with_decision", replace(base, attention="sem", unit_decision=False)),
                ("unit_decision", replace(base, attention="sem", unit_decision=True))]
    if which == "activation":
        return [(act, replace(base, attention="sem", switch_activation=act))
                for act in ACTIVATION_GRID]
    if which == "no_augment":
        return [(f"{mode}_noaug", replace(base, attention=mode, augment=False))
                for mode in NO_AUGMENT_GRID]
    raise ValueError(f"unknown ablation {which!r}; valid: {ABLATIONS}")


def cmd_ablate(args) -> int:
    base = _config_from_args(args).resolved()
    grid = _ablation_grid(args.which, base)
    # As in random-ops, directories are left to train_run.
    rows = []
    for label, variant in grid:
        variant = replace(variant, out_dir=os.path.join(base.out_dir, label))
        try:
            result = train_run(variant, log=None)
            rec = result.final_record
            row = {"variant": label, "status": "ok",
                   "train_loss": f"{rec.train_loss:.6f}" if rec else "",
                   "train_top1": f"{rec.train_top1:.4f}" if rec else "",
                   "test_top1": f"{rec.test_top1:.4f}" if rec else "",
                   "best_test_top1": f"{result.best_top1:.4f}" if rec else ""}
        except NumericalFailure as exc:
            # A diverging variant is a result (e.g. linear switch
            # activations); record it and keep the grid going.
            row = {"variant": label, "status": "diverged", "train_loss": "",
                   "train_top1": "", "test_top1": "", "best_test_top1": ""}
            print(f"{label}: diverged ({exc})")
        rows.append(row)
        if row["status"] == "ok":
            print(f"{label}: test_top1 {row['test_top1']}")
    table_path = os.path.join(base.out_dir, f"ablation_{args.which}.csv")
    _write_csv(table_path, rows,
               ("variant", "status", "train_loss", "train_top1",
                "test_top1", "best_test_top1"))
    print(f"table: {table_path}")
    return 0


def cmd_export_decisions(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    model, cfg, mean, std = load_run_checkpoint(args.checkpoint)
    if cfg.attention != "sem":
        raise ValueError(
            f"checkpoint was trained with attention={cfg.attention!r}; "
            "decision export needs a sem checkpoint")
    if args.data_dir:
        cfg = replace(cfg, data_dir=args.data_dir)
    train, test = load_datasets(cfg)
    records = train if args.split == "train" else test
    sample = records[: args.samples]
    images = np.stack([r.image for r in sample]).astype(np.float32)
    images = normalize_images(images, mean, std)
    captured = []
    with no_grad():
        model(Tensor(images), training=False, capture_decisions=captured)
    csv_text = decision_summary_csv(captured)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _write_csv(path: str, rows: list[dict], columns: tuple[str, ...]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semnet",
        description="Switchable channel-attention experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model per the run config")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--data-dir", help="override the dataset root")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", default="all",
                   help="op name, 'sem-layer', 'full-block', or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("random-ops",
                       help="train with random per-block operator assignments")
    p.add_argument("--arity", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=int, default=1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_random_ops)

    p = sub.add_parser("ablate", help="run a fixed comparison grid")
    p.add_argument("--which", choices=ABLATIONS, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-decisions",
                       help="per-layer decision-weight statistics as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--data-dir", help="override the dataset root")
    p.set_defaults(func=cmd_export_decisions)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"usage error: {message}", file=sys.stderr)
        return 2
    except (IngestionError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # The reader closed stdout (e.g. `semnet gradcheck | head -1`).
        # As the Python docs advise, point the descriptor at devnull so
        # the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("usage error: stdout was closed before the command finished",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
