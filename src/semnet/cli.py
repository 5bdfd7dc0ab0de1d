"""Experiment command line: train, eval, gradcheck, random-ops, ablate,
export-decisions.

Run configuration comes from a key=value file (``--config``) plus per-field
flag overrides; every run writes its fully-resolved config. Exit codes:
0 success, 2 usage (also when the reader closes stdout early), 3 data
ingestion, a path that cannot be read or written, or a shard worker lost
mid-step, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import verify
from .attention import ALL_OPERATORS, decision_summary_csv
from .backbone import assign_random_operators, depth_to_blocks
from .data import batch_iterator
from .errors import CheckpointError, IngestionError, NumericalFailure, WorkerLost
from .tensor import no_grad
from .training import (
    RunConfig,
    TrainResult,
    evaluate,
    load_datasets,
    load_run_checkpoint,
    train_grid,
    train_run,
)

# Each fixed comparison grid: a resolved base config -> (label, config) runs.
ABLATIONS = {
    "size_of_eo": lambda base: [
        ("+".join(ops), replace(base, attention="sem", operator_set=ops, unit_decision=False))
        for n in (1, 2, 3) for ops in itertools.combinations(ALL_OPERATORS, n)],
    "decision_removal": lambda base: [
        (label, replace(base, attention="sem", unit_decision=unit))
        for label, unit in (("with_decision", False), ("unit_decision", True))],
    "activation": lambda base: [
        (act, replace(base, attention="sem", switch_activation=act))
        for act in ("tanh", "relu", "leaky_relu", "sigmoid")],
    "no_augment": lambda base: [
        (f"{mode}_noaug", replace(base, attention=mode, augment=False,
                                  unit_decision=base.unit_decision and mode == "sem"))
        for mode in ("none", "se", "sem")],
}


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


def _split_records(args, cfg: RunConfig):
    """The ``--split`` records of a checkpoint's dataset, from ``--data-dir`` if given."""
    if args.data_dir:
        cfg = replace(cfg, data_dir=args.data_dir)
    train, test = load_datasets(cfg)
    return train if args.split == "train" else test


def cmd_eval(args) -> int:
    model, cfg, mean, std = load_run_checkpoint(args.checkpoint)
    top1 = evaluate(model, _split_records(args, cfg), args.batch_size, mean, std)
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
    mode = "random_single" if args.arity == 1 else "random_double"
    cfg = replace(_config_from_args(args), attention=mode).resolved()
    variants = [(f"trial_{t}", replace(cfg, attention_seed=cfg.attention_seed + t))
                for t in range(args.trials)]
    results = train_grid(variants, cfg.out_dir)
    n_blocks = 3 * depth_to_blocks(cfg.depth)
    for label, variant in variants:
        assignment = assign_random_operators(n_blocks, args.arity, variant.attention_seed)
        with open(os.path.join(cfg.out_dir, label, "assignment.json"), "w") as fh:
            json.dump({"arity": args.arity, "seed": variant.attention_seed,
                       "blocks": [list(ops) for ops in assignment]}, fh, indent=1)

    report_path = os.path.join(cfg.out_dir, "report.csv")
    rows = _write_report(report_path, ("trial", "seed", "status", "final_test_top1",
                                       "best_test_top1"), variants, results)
    scores = [float(r["final_test_top1"]) for r in rows if r["final_test_top1"]]
    if scores:
        print(f"accuracy over {len(scores)} trials: mean {np.mean(scores):.2f} "
              f"min {min(scores):.2f} max {max(scores):.2f}")
    print(f"report: {report_path}")
    return 0


def cmd_ablate(args) -> int:
    base = _config_from_args(args).resolved()
    variants = ABLATIONS[args.which](base)
    results = train_grid(variants, base.out_dir)
    table_path = os.path.join(base.out_dir, f"ablation_{args.which}.csv")
    _write_report(table_path, ("variant", "status", "train_loss", "train_top1",
                               "test_top1", "best_test_top1"), variants, results)
    print(f"table: {table_path}")
    return 0


def cmd_export_decisions(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    model, cfg, mean, std = load_run_checkpoint(args.checkpoint)
    if cfg.attention != "sem" or cfg.unit_decision:
        raise ValueError(
            f"checkpoint was trained with attention={cfg.attention!r} and "
            f"unit_decision={str(cfg.unit_decision).lower()}; decision export "
            "needs a sem checkpoint with learned decision weights")
    sample = _split_records(args, cfg)[: args.samples]
    decisions = []
    with no_grad():
        for images, _ in batch_iterator(sample, cfg.eval_batch_size, 0, 0, shuffle=False,
                                        channel_mean=mean, channel_std=std):
            model(images, training=False, decisions=decisions)
    csv_text = decision_summary_csv(model.decision_records(decisions))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _write_report(path: str, columns: tuple[str, ...], variants: list[tuple[str, RunConfig]],
                  results: list[TrainResult | None]) -> list[dict]:
    """Write one CSV row per grid run and return the rows; each row holds every
    column of both reports and the file keeps ``columns``."""
    rows = []
    for trial, ((label, cfg), result) in enumerate(zip(variants, results)):
        rec = result.final_record if result else None
        top1 = f"{rec.test_top1:.4f}" if rec else ""
        rows.append({"variant": label, "trial": trial, "seed": cfg.attention_seed,
                     "status": "ok" if result else "diverged",
                     "train_loss": f"{rec.train_loss:.6f}" if rec else "",
                     "train_top1": f"{rec.train_top1:.4f}" if rec else "",
                     "test_top1": top1, "final_test_top1": top1,
                     "best_test_top1": f"{result.best_top1:.4f}" if rec else ""})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return rows


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
    p.add_argument("--which", choices=list(ABLATIONS), required=True)
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
    except BrokenPipeError:  # before OSError: a closed stdout is no data error
        # The reader closed stdout (e.g. `semnet gradcheck | head -1`).
        # As the Python docs advise, point the descriptor at devnull so
        # the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("usage error: stdout was closed before the command finished",
              file=sys.stderr)
        return 2
    except (IngestionError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except WorkerLost as exc:  # killed, say, by the out-of-memory killer
        print(f"worker lost: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
