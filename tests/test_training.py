"""Run configuration, optimizer semantics, the training loop, and
checkpoint round-trips."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from semnet import data as data_mod
from semnet import shards, training
from semnet.backbone import build_network
from semnet.errors import NumericalFailure
from semnet.optim import SGD, MultiStepSchedule
from semnet.rng import RngState
from semnet.tensor import Tensor, mul
from semnet.training import (
    MetricsRecord,
    RunConfig,
    _parser_for,
    evaluate,
    load_datasets,
    load_run_checkpoint,
    train_run,
)


def tiny_config(out_dir, **kw):
    base = dict(dataset="synthetic", depth=11, attention="sem", epochs=2,
                batch_size=16, synthetic_train=48, synthetic_test=32,
                synthetic_classes=4, seed=7, eval_batch_size=16,
                out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_reference_milestones(self):
        cfg = RunConfig(epochs=164).resolved()
        assert cfg.milestones == (81, 122)

    def test_scaled_milestones_stay_inside_run(self):
        cfg = RunConfig(epochs=20).resolved()
        assert all(1 <= m < 20 for m in cfg.milestones)
        assert RunConfig(epochs=1).resolved().milestones == ()

    def test_explicit_milestones_validated(self):
        with pytest.raises(ValueError, match="milestones"):
            RunConfig(epochs=10, milestones=(12,)).resolved()

    def test_num_classes_derived(self):
        assert RunConfig(dataset="cifar100", epochs=2).resolved().num_classes == 100
        assert RunConfig(dataset="synthetic", synthetic_classes=7,
                         epochs=2).resolved().num_classes == 7

    def test_kv_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "run.cfg")
        for cfg in (tiny_config(tmp_path, augment=False, operator_set=("fc", "ie")),
                    RunConfig(data_dir="/d", milestones=(3, 5), attention_seed=4,
                              num_classes=7, train_subset=10, max_steps=2, lr=0.03)):
            with open(path, "w") as fh:
                fh.write(cfg.to_kv_text())
            assert RunConfig.from_sources(path) == cfg

    def test_override_precedence(self, tmp_path):
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as fh:
            fh.write("depth=20\nseed=3\n# comment\n\n")
        cfg = RunConfig.from_sources(path, {"seed": "9"})
        assert cfg.depth == 20 and cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as fh:
            fh.write("dephth=20\n")
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_sources(path)

    @pytest.mark.parametrize("key,raw,expected", [
        ("augment", "on", True), ("augment", "NO", False), ("augment", "1", True),
        ("train_subset", "none", None), ("train_subset", "", None),
        ("train_subset", " 5 ", 5), ("milestones", "None", None),
        ("milestones", "3, 7", (3, 7)), ("operator_set", "ie, fc", ("ie", "fc")),
        ("data_dir", "none", None), ("data_dir", "/d", "/d"),
        ("lr", "0.5", 0.5), ("dataset", "cifar10", "cifar10")])
    def test_value_spellings(self, key, raw, expected):
        assert getattr(RunConfig.from_sources(None, {key: raw}), key) == expected

    def test_bad_value_names_its_key(self):
        with pytest.raises(ValueError, match="augment: expected a boolean"):
            RunConfig.from_sources(None, {"augment": "maybe"})
        with pytest.raises(ValueError, match="depth: "):
            RunConfig.from_sources(None, {"depth": "twenty"})

    def test_unknown_annotation_rejected(self):
        with pytest.raises(TypeError, match="list"):
            _parser_for("list[int]")
        with pytest.raises(TypeError):
            _parser_for("dict | None")

    def test_env_data_dir(self, monkeypatch):
        monkeypatch.setenv("SEM_DATA_DIR", "/data/sets")
        assert RunConfig(epochs=2).resolved().data_dir == "/data/sets"

    def test_reference_protocol_config_echo(self):
        # The long-run defaults reproduce the reference recipe verbatim.
        cfg = RunConfig(dataset="cifar100", depth=164, attention="sem",
                        data_dir="/data").resolved()
        assert (cfg.epochs, cfg.batch_size) == (164, 128)
        assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (0.1, 0.9, 1e-4)
        assert cfg.milestones == (81, 122)
        assert cfg.num_classes == 100 and cfg.augment is True
        assert cfg.operator_set == ("fc", "cnn", "ie")
        assert cfg.switch_activation == "sigmoid"


class TestSchedule:
    def test_reference_protocol_values(self):
        sched = MultiStepSchedule(0.1, (81, 122), 0.1)
        for epoch in range(164):
            expected = 0.1 if epoch < 81 else 0.01 if epoch < 122 else 0.001
            assert abs(sched.lr_at(epoch) - expected) < 1e-15


class TestSGD:
    def test_matches_scalar_recurrence(self):
        w = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = SGD([w], lr=0.05, momentum=0.9, weight_decay=0.01)
        grads = [1.0, -0.5, 0.25, 2.0]
        # Reference recurrence observes the same weight-dependent gradient.
        ref_w, ref_v = 2.0, 0.0
        for g in grads:
            w.grad = np.array([g])
            opt.step()
            ref_v = 0.9 * ref_v + (g + 0.01 * ref_w)
            ref_w -= 0.05 * ref_v
            assert abs(w.data[0] - ref_w) < 1e-14

    def test_plain_gradient_descent_when_disabled(self):
        w = Tensor(np.array([1.0, -1.0]), requires_grad=True, dtype=np.float64)
        opt = SGD([w], lr=0.5, momentum=0.0, weight_decay=0.0)
        w.grad = np.array([0.2, -0.2])
        opt.step()
        assert np.allclose(w.data, [0.9, -0.9])

    def test_zero_grad_zero_velocity_leaves_param(self):
        w = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        opt = SGD([w], lr=0.1, momentum=0.9, weight_decay=0.0)
        w.grad = np.zeros(1)
        opt.step()
        assert w.data[0] == 3.0

    def test_none_grad_skipped(self):
        w = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        opt = SGD([w], lr=0.1, momentum=0.9, weight_decay=1.0)
        opt.step()
        assert w.data[0] == 3.0


class TestTrainRun:
    def test_metrics_log_byte_identical_across_runs(self, tmp_path):
        r1 = train_run(tiny_config(tmp_path / "a"))
        r2 = train_run(tiny_config(tmp_path / "b"))
        assert (open(r1.metrics_path, "rb").read()
                == open(r2.metrics_path, "rb").read())

    def test_checkpoint_bytes_do_not_depend_on_the_out_dir(self, tmp_path):
        # The embedded config leaves out_dir out, so identical runs written
        # to two directories write identical checkpoints.
        r1 = train_run(tiny_config(tmp_path / "a"))
        r2 = train_run(tiny_config(tmp_path / "b"))
        assert (open(r1.final_checkpoint, "rb").read()
                == open(r2.final_checkpoint, "rb").read())

    def test_run_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        # The training shard count follows from the batch size alone and
        # eval logits do not depend on the slice count, so at one BLAS
        # thread a `semnet train` pinned to one CPU writes the bytes of one
        # on every CPU, and a rerun writes them again. Its batches of 16 run
        # two shards, the second in the worker process.
        script = ("import os, sys\n"
                  "if sys.argv[1] == 'one':\n"
                  "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "from semnet.cli import main\n"
                  "sys.exit(main(sys.argv[2:]))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        runs = {}
        for label, cpus in (("a", "all"), ("b", "all"), ("one", "one")):
            out = os.path.join(tmp_path, label)
            argv = ["train", "--dataset", "synthetic", "--depth", "11", "--epochs", "2",
                    "--batch-size", "16", "--synthetic-train", "48", "--synthetic-test", "32",
                    "--synthetic-classes", "4", "--seed", "7", "--out-dir", out]
            proc = subprocess.run([sys.executable, "-c", script, cpus, *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            env_json = json.load(open(os.path.join(out, "environment.json")))
            runs[label] = [open(os.path.join(out, name), "rb").read()
                           for name in ("metrics.jsonl", "final.ckpt")]
            assert len(env_json["cpu_affinity"]) == (
                1 if cpus == "one" else len(os.sched_getaffinity(0)))
        assert runs["a"] == runs["b"] == runs["one"]

    def test_timing_sidecar_says_where_the_time_went(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "run"))
        lines = open(os.path.join(tmp_path, "run", "timing.jsonl")).read().splitlines()
        assert len(lines) == 3
        setup = json.loads(lines.pop(0))
        assert list(setup) == ["setup"]
        assert set(setup["setup"]) == {"load_s", "stats_s", "build_s"}
        assert all(isinstance(v, float) and v >= 0 for v in setup["setup"].values())
        for epoch, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec) == {"epoch", "seconds", "train_s", "eval_s", "minor_faults"}
            assert rec["epoch"] == epoch
            assert rec["train_s"] > 0 and rec["eval_s"] > 0
            assert abs(rec["train_s"] + rec["eval_s"] - rec["seconds"]) < 1e-6
            assert isinstance(rec["minor_faults"], int) and rec["minor_faults"] >= 0
        metrics = open(result.metrics_path).read()
        assert "minor_faults" not in metrics and "setup" not in metrics
        # A metrics line is its record's fields, none of them wall-clock.
        for line in metrics.splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(f.name for f in fields(MetricsRecord))
            assert not set(keys) & {"seconds", "train_s", "eval_s"}

    def test_run_directory_contents(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "run"))
        for name in ("config.resolved", "environment.json", "metrics.jsonl",
                     "timing.jsonl", "final.ckpt", "best.ckpt"):
            assert os.path.exists(os.path.join(tmp_path, "run", name)), name
        env = json.load(open(os.path.join(tmp_path, "run", "environment.json")))
        assert set(env) == {"numpy", "blas", "threads", "cpu_count", "cpu_affinity",
                            "sharded", "python"}
        assert set(env["blas"]) == {"name", "version", "threads", "config"}
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert env["cpu_affinity"] == sorted(os.sched_getaffinity(0))
        assert env["sharded"] is shards.AVAILABLE
        lines = open(result.metrics_path).read().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_loss", "train_top1",
                               "test_top1", "lr", "decisions"}
        assert record["decisions"] and "w" in record["decisions"][0]
        assert 0.0 <= record["test_top1"] <= 100.0

    def test_blas_runs_on_one_thread_without_the_variables(self, tmp_path):
        # semnet sets the thread count itself at import; OpenBLAS would take
        # its default (one per CPU) from an environment without the variables.
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = ("import json; from semnet.training import run_environment; "
                  "print(json.dumps(run_environment()['blas']))")
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        blas = json.loads(proc.stdout)
        if "openblas" in (blas["name"] or "").lower():
            assert blas["threads"] == 1 and blas["config"].startswith("OpenBLAS"), blas
        else:  # a BLAS semnet cannot drive is recorded as such
            assert blas["threads"] is None and blas["config"] is None, blas

    def test_run_bytes_do_not_depend_on_the_blas_variable(self, tmp_path):
        # semnet pins BLAS to one thread at import, so a `semnet train` in an
        # environment asking for two threads runs on one and writes the bytes
        # of one that asks for none. (At this size two BLAS threads would
        # give the same bytes too; the read-back count shows the pin.)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        runs = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = os.path.join(tmp_path, f"run{len(runs)}")
            argv = ["train", "--dataset", "synthetic", "--depth", "11", "--epochs", "1",
                    "--batch-size", "16", "--synthetic-train", "48", "--synthetic-test", "16",
                    "--synthetic-classes", "4", "--seed", "7", "--out-dir", out]
            proc = subprocess.run([sys.executable, "-m", "semnet", *argv],
                                  env=dict(env, **threads), cwd=tmp_path,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            blas = json.load(open(os.path.join(out, "environment.json")))["blas"]
            assert blas["threads"] == (1 if "openblas" in (blas["name"] or "").lower()
                                       else None), (threads, blas)
            runs.append([open(os.path.join(out, name), "rb").read()
                         for name in ("metrics.jsonl", "final.ckpt")])
        assert runs[0] == runs[1]

    def test_epochs_zero_emits_initial_checkpoint_only(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r0", epochs=0))
        assert result.metrics == []
        assert os.path.exists(result.final_checkpoint)
        assert result.best_checkpoint is None
        assert open(result.metrics_path).read() == ""

    def test_eval_after_training_matches_final_record(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r1"))
        model, cfg, mean, std = load_run_checkpoint(result.final_checkpoint)
        _, test = load_datasets(cfg)
        top1 = evaluate(model, test, 16, mean, std)
        assert abs(top1 - result.final_record.test_top1) < 1e-9

    def test_eval_batch_size_independent(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r2", epochs=1))
        model, cfg, mean, std = load_run_checkpoint(result.final_checkpoint)
        _, test = load_datasets(cfg)
        a = evaluate(model, test, 32, mean, std)
        b = evaluate(model, test, 5, mean, std)
        assert abs(a - b) < 1e-6

    def test_checkpoint_roundtrip_logits_bitwise(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r3", epochs=1))
        model, cfg, mean, std = load_run_checkpoint(result.final_checkpoint)
        _, test = load_datasets(cfg)
        from semnet.data import batch_iterator
        from semnet.tensor import no_grad
        batch, _ = next(batch_iterator(test, 8, 0, 0, shuffle=False,
                                       channel_mean=mean, channel_std=std))
        with no_grad():
            a = result.model(batch).data.tobytes()
            b = model(batch).data.tobytes()
        assert a == b

    def test_random_init_chance_level(self):
        cfg = tiny_config("unused", synthetic_train=10, synthetic_test=500,
                          synthetic_classes=10, depth=11).resolved()
        _, test = load_datasets(cfg)
        from semnet.data import compute_channel_stats
        mean, std = compute_channel_stats(test)
        model = build_network(cfg, RngState(42))
        top1 = evaluate(model, test, 100, mean, std)
        assert abs(top1 - 10.0) <= 3.0

    def test_label_permutation_drops_accuracy(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r4", epochs=4,
                                       synthetic_train=64, max_steps=None))
        model, cfg, mean, std = load_run_checkpoint(result.final_checkpoint)
        _, test = load_datasets(cfg)
        base = evaluate(model, test, 16, mean, std)
        permuted = [type(r)(r.pixels, (r.label + 1) % cfg.num_classes,
                            r.coarse_label) for r in test]
        perm_top1 = evaluate(model, permuted, 16, mean, std)
        # Oracle: recompute both accuracies from raw predictions.
        from semnet.data import batch_iterator
        from semnet.tensor import no_grad
        preds = []
        labels = []
        for batch, lab in batch_iterator(test, 16, 0, 0, shuffle=False,
                                         channel_mean=mean, channel_std=std):
            with no_grad():
                preds.extend(model(batch).data.argmax(axis=1).tolist())
            labels.extend(lab.tolist())
        preds = np.array(preds)
        labels = np.array(labels)
        assert abs(base - 100.0 * (preds == labels).mean()) < 1e-9
        expected_perm = 100.0 * (preds == (labels + 1) % cfg.num_classes).mean()
        assert abs(perm_top1 - expected_perm) < 1e-9

    def test_max_steps_caps_training(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r5", epochs=10, max_steps=4))
        assert result.steps == 4
        assert len(result.metrics) == 2  # 3 batches/epoch -> stopped in epoch 2

    def test_max_steps_epoch_logs_its_last_steps_decisions(self, tmp_path):
        # Stopped after 2 of its 3 batches, the epoch still summarises the
        # decisions of the step it ended on.
        result = train_run(tiny_config(tmp_path / "r8", epochs=1, max_steps=2))
        record = json.loads(open(result.metrics_path).read().splitlines()[0])
        assert [d["layer"] for d in record["decisions"]] == [0, 1, 2]
        assert all(sorted(d["w"]) == ["cnn", "fc", "ie"] for d in record["decisions"])

    def test_non_finite_loss_aborts_with_layer_name(self, tmp_path):
        # An affine layer of the gate overflows first; the gate runs inside
        # conv3's node, whose output before the gate is still finite.
        cfg = tiny_config(tmp_path / "r6", lr=1e18, epochs=3)
        with pytest.raises(NumericalFailure,
                           match=r"first offending layer: stage1\.block0 \(op attention\)$"):
            train_run(cfg)
        # The per-op check that located it is off again.
        assert mul(Tensor(np.array([np.inf])), Tensor(np.array([1.0]))).data[0] == np.inf

    @pytest.mark.parametrize("planted,op", [("attention.ie_shift", "attention"),
                                            ("attention.decision_weight", "attention"),
                                            ("conv3.weight", "conv2d")])
    def test_first_nonfinite_op_tells_the_gate_from_its_conv(self, planted, op):
        # One NaN in a gate parameter or in conv3's kernel of stage2.block0:
        # the gate runs inside conv3's node, and the rerun still names which
        # of the two went non-finite.
        model = build_network(RunConfig(depth=11, attention="sem"), RngState(120))
        owner, attr = planted.split(".")
        getattr(getattr(model.stages[1][0], owner), attr).data.flat[0] = np.nan
        images = Tensor(RngState(121).generator().standard_normal((4, 3, 8, 8)),
                        dtype=np.float32)
        with np.errstate(invalid="ignore"):
            name = training._first_nonfinite_op(model, images, np.arange(4))
        assert name == f"stage2.block0 (op {op})"

    def test_subset_selection_deterministic(self):
        cfg = tiny_config("unused", synthetic_train=64, train_subset=16).resolved()
        a, _ = load_datasets(cfg)
        b, _ = load_datasets(cfg)
        assert len(a) == 16
        assert all(x.pixels.tobytes() == y.pixels.tobytes() for x, y in zip(a, b))

    def test_subset_keeps_only_its_images(self, cifar10_dir):
        # A subset keeps its records' bytes in the subset's order: synthetic
        # records as they are, CIFAR ones as a view read from the files.
        for cfg in (tiny_config("unused", synthetic_train=64, train_subset=16),
                    RunConfig(dataset="cifar10", data_dir=cifar10_dir, train_subset=16, seed=7)):
            whole, _ = load_datasets(replace(cfg, train_subset=None).resolved())
            train, _ = load_datasets(cfg.resolved())
            order = RngState(cfg.seed, training._STREAM_SUBSET).generator().permutation(
                len(whole))
            assert ([(r.pixels.tobytes(), r.label) for r in train]
                    == [(whole[i].pixels.tobytes(), whole[i].label) for i in order[:16]])
        assert isinstance(train, data_mod.CifarSplit) and train._owner is not None

    def test_decision_summary_only_for_sem(self, tmp_path):
        result = train_run(tiny_config(tmp_path / "r7", attention="none", epochs=1))
        record = json.loads(open(result.metrics_path).read().splitlines()[0])
        assert record["decisions"] == []
