"""Command-line harness: every verb end to end on desk-scale configs,
plus the documented exit codes."""

import json
import os
import struct
import sys
import zlib
from dataclasses import fields

import numpy as np
import pytest

from semnet import backbone
from semnet import data as data_mod
from semnet.checkpoint import read_checkpoint, write_checkpoint
from semnet.cli import main
from semnet.data import CIFAR10_RECORD_BYTES, CIFAR10_TEST_FILES, CIFAR10_TRAIN_FILES
from semnet.errors import CheckpointError
from semnet.training import RunConfig

from conftest import with_own_files

TINY = """\
dataset=synthetic
depth=11
attention=sem
epochs=1
batch_size=12
synthetic_train=24
synthetic_test=16
synthetic_classes=4
seed=7
eval_batch_size=16
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = os.path.join(tmp_path, "tiny.cfg")
    with open(path, "w") as fh:
        fh.write(TINY)
    return path


def run_cli(*argv):
    return main(list(argv))


class TestTrain:
    def test_train_writes_run_directory(self, tiny_cfg, tmp_path, capsys):
        out = os.path.join(tmp_path, "run")
        assert run_cli("train", "--config", tiny_cfg, "--out-dir", out) == 0
        for name in ("config.resolved", "metrics.jsonl", "final.ckpt"):
            assert os.path.exists(os.path.join(out, name))
        assert "final:" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        assert run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                       "--epochs", "2") == 0
        resolved = open(os.path.join(out, "config.resolved")).read()
        assert "epochs=2" in resolved

    def test_single_operator_mode_records_sigmoid_switch(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        assert run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                       "--attention", "se", "--switch-activation", "tanh") == 0
        resolved = open(os.path.join(out, "config.resolved")).read().splitlines()
        assert "switch_activation=sigmoid" in resolved
        meta = read_checkpoint(os.path.join(out, "final.ckpt"))["meta.config_json"]
        assert json.loads(meta.tobytes())["switch_activation"] == "sigmoid"

    def test_metrics_identical_across_reruns(self, tiny_cfg, tmp_path):
        a = os.path.join(tmp_path, "a")
        b = os.path.join(tmp_path, "b")
        run_cli("train", "--config", tiny_cfg, "--out-dir", a)
        run_cli("train", "--config", tiny_cfg, "--out-dir", b)
        assert (open(os.path.join(a, "metrics.jsonl"), "rb").read()
                == open(os.path.join(b, "metrics.jsonl"), "rb").read())

    def test_bad_config_is_usage_error(self, tmp_path):
        path = os.path.join(tmp_path, "bad.cfg")
        with open(path, "w") as fh:
            fh.write("depth=13\n")
        assert run_cli("train", "--config", path) == 2

    @pytest.mark.parametrize("flag,value", [("--synthetic-test", "0"),
                                            ("--train-subset", "-3")])
    def test_non_positive_size_is_usage_error(self, tiny_cfg, tmp_path, capsys,
                                              flag, value):
        out = os.path.join(tmp_path, "run")
        assert run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                       flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag[2:].replace("-", "_") in err
        assert not os.path.exists(out)

    def test_divergence_exit_code(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        assert run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                       "--lr", "1e18", "--epochs", "3") == 4


REJECTED_OVERRIDES = [
    ("--attention", "sem", "--switch-activation", "bogus"),
    ("--attention", "se", "--switch-activation", "bogus"),
    ("--attention", "se", "--unit-decision", "true"),  # a gate without a decision network
    ("--reduction", "0"),
    ("--dataset", "cifar10"),  # no data_dir and no $SEM_DATA_DIR
    ("--lr", "nan"),
    ("--momentum", "inf"),
    ("--weight-decay", "nan"),
    ("--lr", "-1"),
    ("--momentum", "-0.5"),
    ("--weight-decay", "-0.0001"),
    ("--lr-decay", "-0.1"),
]


class TestConfigValidation:
    @staticmethod
    def check_rejected(command, tiny_cfg, tmp_path, capsys, monkeypatch, overrides):
        monkeypatch.delenv("SEM_DATA_DIR", raising=False)
        out = os.path.join(tmp_path, "run")
        assert run_cli(*command, "--config", tiny_cfg, "--out-dir", out, *overrides) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("overrides", REJECTED_OVERRIDES)
    def test_rejected_before_the_run_directory_is_written(self, tiny_cfg, tmp_path,
                                                          capsys, monkeypatch, overrides):
        self.check_rejected(("train",), tiny_cfg, tmp_path, capsys, monkeypatch, overrides)

    @pytest.mark.parametrize("command", [("ablate", "--which", "decision_removal"),
                                         ("random-ops", "--arity", "1", "--trials", "2")])
    @pytest.mark.parametrize("overrides", REJECTED_OVERRIDES)
    def test_grid_rejected_before_its_directory_is_written(self, tiny_cfg, tmp_path, capsys,
                                                           monkeypatch, command, overrides):
        self.check_rejected(command, tiny_cfg, tmp_path, capsys, monkeypatch, overrides)


# Edge values for every config key: zero, negative, empty, an unknown
# spelling, and a wrong type (a fraction, or text for a number).
FUZZ_VALUES = ("0", "-1", "", "bogus", "2.5")


def test_config_fuzz_keeps_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    """Every RunConfig key at every edge value, run in-process on a
    one-step synthetic config: the exit code is 0, 2, 3 or 4, no traceback
    reaches stderr, and a usage error (2) leaves the run directory empty."""
    monkeypatch.chdir(tmp_path)  # relative out_dir values land here
    monkeypatch.delenv("SEM_DATA_DIR", raising=False)
    base = {"dataset": "synthetic", "depth": "11", "epochs": "1", "batch_size": "8",
            "eval_batch_size": "8", "synthetic_train": "8", "synthetic_test": "4",
            "synthetic_classes": "4", "max_steps": "1"}
    failures = []
    for i, (key, value) in enumerate((f.name, v) for f in fields(RunConfig)
                                     for v in FUZZ_VALUES):
        cfg = dict(base, out_dir=os.path.join(tmp_path, f"run{i}"))
        cfg[key] = value
        argv = ["train"] + [f"--{k.replace('_', '-')}={v}" for k, v in cfg.items()]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an exception escaping main() is the failure
            failures.append((key, value, f"raised {exc!r}"))
            continue
        err = capsys.readouterr().err
        out_dir = cfg["out_dir"]
        if code not in (0, 2, 3, 4):
            failures.append((key, value, f"exit {code}"))
        if "Traceback" in err:
            failures.append((key, value, "traceback on stderr"))
        if code == 2 and out_dir and os.path.isdir(out_dir) and os.listdir(out_dir):
            failures.append((key, value, f"exit 2 wrote {sorted(os.listdir(out_dir))}"))
    assert not failures, failures


class TestEval:
    def test_eval_matches_training_log(self, tiny_cfg, tmp_path, capsys):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out)
        final = json.loads(open(os.path.join(out, "metrics.jsonl")).read()
                           .splitlines()[-1])
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", os.path.join(out, "final.ckpt"),
                       "--split", "test", "--batch-size", "8") == 0
        printed = capsys.readouterr().out
        assert f"{final['test_top1']:.4f}" in printed

    def test_corrupt_checkpoint_exit_code(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out)
        path = os.path.join(out, "final.ckpt")
        blob = bytearray(open(path, "rb").read())
        blob[100] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert run_cli("eval", "--checkpoint", path) == 3

    def test_wrong_shape_checkpoint_exit_code(self, tiny_cfg, tmp_path, capsys):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out, "--epochs", "0")
        arrays = read_checkpoint(os.path.join(out, "final.ckpt"))
        arrays["stage1.block0.bn1.running_mean"] = np.full(1, 7.0, np.float32)
        path = os.path.join(tmp_path, "bad.ckpt")
        write_checkpoint(path, arrays)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", path) == 3
        assert "stage1.block0.bn1.running_mean" in capsys.readouterr().err

    def test_missing_checkpoint_exit_code(self, tmp_path):
        assert run_cli("eval", "--checkpoint",
                       os.path.join(tmp_path, "nope.ckpt")) == 3


@pytest.mark.parametrize("case", ["config_dir", "checkpoint_dir", "out_dir_below_file"])
def test_unusable_path_is_data_error(tiny_cfg, tmp_path, capsys, case):
    """A directory where a file is read, or a run directory below a regular
    file: exit 3, no traceback."""
    blocker = os.path.join(tmp_path, "file")
    open(blocker, "w").close()
    argv = {"config_dir": ("train", "--config", str(tmp_path)),
            "checkpoint_dir": ("eval", "--checkpoint", str(tmp_path)),
            "out_dir_below_file": ("train", "--config", tiny_cfg,
                                   "--out-dir", os.path.join(blocker, "run"))}[case]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err


def test_constant_channel_is_data_error(cifar10_dir, tmp_path, capsys):
    """CIFAR-10 files whose G channel holds one value: the train split's
    statistics reject it (its std would be 0), exit 3, no traceback."""
    data_dir = os.path.join(tmp_path, "data")
    os.makedirs(data_dir)
    for name in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES:
        raw = np.fromfile(os.path.join(cifar10_dir, name), dtype=np.uint8)
        raw = raw.reshape(-1, CIFAR10_RECORD_BYTES)
        raw[:, 1 + 1024 : 1 + 2048] = 77
        raw.tofile(os.path.join(data_dir, name))
    out = os.path.join(tmp_path, "run")
    assert run_cli("train", "--dataset", "cifar10", "--data-dir", data_dir,
                   "--train-subset", "32", "--depth", "11", "--batch-size", "16",
                   "--max-steps", "1", "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: channel 1 is constant") and "Traceback" not in err
    assert not os.path.exists(out)


def test_test_file_cut_short_during_eval_is_data_error(cifar10_dir, tiny_cfg, tmp_path,
                                                      capsys, monkeypatch):
    """A test file truncated after its split was loaded: eval's first batch
    read raises, exit 3, no traceback."""
    out = os.path.join(tmp_path, "run")
    assert run_cli("train", "--config", tiny_cfg, "--synthetic-classes", "10",
                   "--out-dir", out, "--epochs", "0") == 0
    arrays = read_checkpoint(os.path.join(out, "final.ckpt"))
    meta = json.loads(arrays["meta.config_json"].tobytes())
    meta["dataset"] = "cifar10"
    arrays["meta.config_json"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    checkpoint = os.path.join(tmp_path, "cifar10.ckpt")
    write_checkpoint(checkpoint, arrays)
    root = with_own_files(cifar10_dir, os.path.join(tmp_path, "data"))
    test_file = os.path.join(root, "test_batch.bin")
    load = data_mod.load_cifar

    def load_then_cut(path, variant):
        splits = load(path, variant)
        os.truncate(test_file, 100 * CIFAR10_RECORD_BYTES)
        return splits

    monkeypatch.setattr(data_mod, "load_cifar", load_then_cut)
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", checkpoint, "--data-dir", root) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: {test_file}: changed since it was loaded: the record at "
                   f"byte offset {100 * CIFAR10_RECORD_BYTES} is cut short or relabelled\n")


@pytest.mark.parametrize("name,shape", [(b"\xff\xfe", (2,)), (b"w", (2**62, 4)),
                                        (b"w", (2**63, 2))])
def test_malformed_record_table_is_data_error(tmp_path, capsys, name, shape):
    """A record with a valid CRC but a name that is not UTF-8, or extents
    whose product overflows int64: CheckpointError, and eval exits 3 with
    no traceback."""
    record = (struct.pack("<H", len(name)) + name + struct.pack("<BB", 4, len(shape))
              + struct.pack(f"<{len(shape)}Q", *shape) + bytes(8))
    blob = b"SEMCKPT1\x01" + record
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(blob + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(CheckpointError, match="bad.ckpt"):
        read_checkpoint(path)
    assert run_cli("eval", "--checkpoint", path) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err


class TestGradcheck:
    def test_single_scope_passes(self, capsys):
        assert run_cli("gradcheck", "--scope", "reshape") == 0
        assert "[ok]" in capsys.readouterr().out

    def test_sem_layer_reports_the_conv_and_gate_groups(self, capsys):
        # The gate inside its 1x1 conv with a sigmoid switch: the conv's
        # input, kernel and pre-activation unit, then the gate's parameters;
        # then one line for each other switch activation.
        assert run_cli("gradcheck", "--scope", "sem-layer") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sem-layer: ") and lines[0].endswith(" [ok]")
        assert [line.split(":")[0].strip() for line in lines[1:]] == sorted(
            ["input", "kernel", "gamma", "beta", "decision", "fc_reduce", "fc_expand",
             "cnn_kernel", "ie", "tanh", "relu", "leaky_relu"])

    def test_unknown_scope_usage_error(self, capsys):
        assert run_cli("gradcheck", "--scope", "does-not-exist") == 2

    def test_closed_stdout_keeps_the_exit_code_contract(self, tmp_path, monkeypatch,
                                                        capsys):
        """As `semnet gradcheck | head -1` once head has exited: a usage
        exit, no traceback, and stdout's descriptor left on devnull so the
        flush at interpreter exit cannot fail again."""

        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        fd = os.open(os.path.join(tmp_path, "stdout"), os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            assert run_cli("gradcheck", "--scope", "reshape") == 2
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err


class TestRandomOps:
    def test_single_trial_reproducible(self, tiny_cfg, tmp_path):
        a = os.path.join(tmp_path, "a")
        b = os.path.join(tmp_path, "b")
        for out in (a, b):
            assert run_cli("random-ops", "--arity", "1", "--trials", "1",
                           "--config", tiny_cfg, "--out-dir", out) == 0
        assert (open(os.path.join(a, "report.csv"), "rb").read()
                == open(os.path.join(b, "report.csv"), "rb").read())

    def test_double_assignments_are_valid_pairs(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "ro")
        assert run_cli("random-ops", "--arity", "2", "--trials", "2",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        valid = {("cnn", "ie"), ("fc", "cnn"), ("fc", "ie")}
        for trial in range(2):
            blob = json.load(open(os.path.join(out, f"trial_{trial}",
                                               "assignment.json")))
            assert blob["arity"] == 2
            assert len(blob["blocks"]) == 3
            assert all(tuple(ops) in valid for ops in blob["blocks"])
        report = open(os.path.join(out, "report.csv")).read().splitlines()
        assert report[0] == "trial,seed,status,final_test_top1,best_test_top1"
        assert len(report) == 3

    def test_diverged_trials_are_reported(self, tiny_cfg, tmp_path, capsys):
        out = os.path.join(tmp_path, "ro")
        assert run_cli("random-ops", "--arity", "1", "--trials", "2", "--lr", "1e30",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        report = open(os.path.join(out, "report.csv")).read().splitlines()
        assert report[1:] == ["0,7,diverged,,", "1,8,diverged,,"]
        for trial in range(2):
            blob = json.load(open(os.path.join(out, f"trial_{trial}", "assignment.json")))
            assert blob["seed"] == 7 + trial and len(blob["blocks"]) == 3
        printed = capsys.readouterr().out
        assert "trial_0: diverged (" in printed and "trial_1: diverged (" in printed


class TestAblate:
    def test_size_of_eo_grid_has_seven_variants(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "size_of_eo",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_size_of_eo.csv")).read().splitlines()
        assert len(rows) == 8
        variants = [r.split(",")[0] for r in rows[1:]]
        assert variants == ["fc", "cnn", "ie", "fc+cnn", "fc+ie", "cnn+ie",
                            "fc+cnn+ie"]

    def test_decision_removal_variants(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "decision_removal",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_decision_removal.csv")).read().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["with_decision", "unit_decision"]

    def test_diverged_variants_are_reported(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "decision_removal", "--lr", "1e30",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_decision_removal.csv")).read().splitlines()
        assert rows[1:] == ["with_decision,diverged,,,,", "unit_decision,diverged,,,,"]

    def test_activation_grid(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "activation",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_activation.csv")).read().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["tanh", "relu",
                                                       "leaky_relu", "sigmoid"]
        assert all(r.split(",")[1] in ("ok", "diverged") for r in rows[1:])

    @pytest.mark.parametrize("unit", ["false", "true"])
    def test_no_augment_grid(self, tiny_cfg, tmp_path, unit):
        # A unit-decision base keeps its unit decision on the sem variant
        # only; the gates of the others have no decision network.
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "no_augment", "--unit-decision", unit,
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_no_augment.csv")).read().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["none_noaug", "se_noaug",
                                                       "sem_noaug"]
        for sub in ("none_noaug", "se_noaug", "sem_noaug"):
            resolved = open(os.path.join(out, sub, "config.resolved")).read()
            assert "augment=false" in resolved
            want = unit if sub == "sem_noaug" else "false"
            assert f"unit_decision={want}" in resolved


class TestExportDecisions:
    def test_rows_match_attention_layers_and_determinism(self, tiny_cfg, tmp_path,
                                                         capsys):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out)
        ckpt = os.path.join(out, "final.ckpt")
        f1 = os.path.join(tmp_path, "d1.csv")
        f2 = os.path.join(tmp_path, "d2.csv")
        capsys.readouterr()
        assert run_cli("export-decisions", "--checkpoint", ckpt,
                       "--samples", "16", "--out", f1) == 0
        assert run_cli("export-decisions", "--checkpoint", ckpt,
                       "--samples", "16", "--out", f2) == 0
        assert open(f1, "rb").read() == open(f2, "rb").read()
        lines = open(f1).read().splitlines()
        assert lines[0].startswith("layer_index,stage,channels,")
        assert len(lines) == 1 + 3  # depth 11 -> one block per stage
        means = [float(v) for v in lines[1].split(",")[3:6]]
        assert all(0.0 < v < 1.0 for v in means)

    def test_streams_the_sample_in_eval_batches(self, tiny_cfg, tmp_path, monkeypatch):
        # The tiny run's eval_batch_size of 16 exports 16 samples in one batch.
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out)
        whole = os.path.join(out, "final.ckpt")
        arrays = read_checkpoint(whole)
        meta = json.loads(arrays["meta.config_json"].tobytes())
        meta["eval_batch_size"] = 5
        arrays["meta.config_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        streamed = os.path.join(tmp_path, "streamed.ckpt")
        write_checkpoint(streamed, arrays)
        want, got = (os.path.join(tmp_path, name) for name in ("want.csv", "got.csv"))
        assert run_cli("export-decisions", "--checkpoint", whole, "--samples", "16",
                       "--out", want) == 0
        sizes = []
        inner = backbone.Model.forward

        def spy(model, x, *args, **kwargs):
            sizes.append(x.shape[0])
            return inner(model, x, *args, **kwargs)

        monkeypatch.setattr(backbone.Model, "forward", spy)
        assert run_cli("export-decisions", "--checkpoint", streamed, "--samples", "16",
                       "--out", got) == 0
        assert sizes == [5, 5, 5, 1]
        assert open(got, "rb").read() == open(want, "rb").read()

    def test_non_sem_checkpoint_is_usage_error(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                "--attention", "eca")
        assert run_cli("export-decisions", "--checkpoint",
                       os.path.join(out, "final.ckpt")) == 2

    def test_unit_decision_checkpoint_rejected_before_reading_data(self, tiny_cfg, tmp_path,
                                                                   capsys, monkeypatch):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out, "--unit-decision", "true")
        capsys.readouterr()
        monkeypatch.setattr("semnet.cli.load_datasets",
                            lambda cfg: pytest.fail("data was loaded"))
        assert run_cli("export-decisions", "--checkpoint",
                       os.path.join(out, "final.ckpt")) == 2
        captured = capsys.readouterr()
        assert "unit_decision" in captured.err and not captured.out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_sample_count_rejected_before_reading(self, tmp_path, capsys, samples):
        missing = os.path.join(tmp_path, "missing.ckpt")  # reading it would exit 3
        assert run_cli("export-decisions", "--checkpoint", missing,
                       "--samples", samples) == 2
        assert "--samples" in capsys.readouterr().err

    def test_untrained_model_means_near_half(self, tiny_cfg, tmp_path):
        # Fan-in-scaled init keeps decision logits within a few tenths,
        # so untrained batch means cluster around sigmoid(0) = 0.5 and
        # are almost constant across samples.
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out, "--epochs", "0")
        dest = os.path.join(tmp_path, "d.csv")
        assert run_cli("export-decisions", "--checkpoint",
                       os.path.join(out, "final.ckpt"), "--samples", "16",
                       "--out", dest) == 0
        sigma_2 = 1.0 / (1.0 + np.exp(2.0))  # decision logits stay within +-2
        all_means = []
        for line in open(dest).read().splitlines()[1:]:
            cells = line.split(",")
            means = [float(v) for v in cells[3:6]]
            stds = [float(v) for v in cells[6:9]]
            assert all(sigma_2 < m < 1.0 - sigma_2 for m in means), line
            assert all(s < 0.05 for s in stds), line
            all_means.extend(means)
        assert abs(np.mean(all_means) - 0.5) < 0.1
