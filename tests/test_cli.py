"""Command-line harness: every verb end to end on desk-scale configs,
plus the documented exit codes."""

import json
import os

import numpy as np
import pytest

from semnet.checkpoint import read_checkpoint
from semnet.cli import main

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        assert run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                       "--lr", "1e18", "--epochs", "3") == 4


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

    def test_missing_checkpoint_exit_code(self, tmp_path):
        assert run_cli("eval", "--checkpoint",
                       os.path.join(tmp_path, "nope.ckpt")) == 3


class TestGradcheck:
    def test_single_scope_passes(self, capsys):
        assert run_cli("gradcheck", "--scope", "conv1d_channel") == 0
        assert "[ok]" in capsys.readouterr().out

    def test_sem_layer_reports_five_groups(self, capsys):
        assert run_cli("gradcheck", "--scope", "sem-layer") == 0
        out = capsys.readouterr().out
        for group in ("decision", "fc_reduce", "fc_expand", "cnn_kernel", "ie"):
            assert group in out

    def test_unknown_scope_usage_error(self, capsys):
        assert run_cli("gradcheck", "--scope", "does-not-exist") == 2


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

    def test_activation_grid(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "activation",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_activation.csv")).read().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["tanh", "relu",
                                                       "leaky_relu", "sigmoid"]
        assert all(r.split(",")[1] in ("ok", "diverged") for r in rows[1:])

    def test_no_augment_grid(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "abl")
        assert run_cli("ablate", "--which", "no_augment",
                       "--config", tiny_cfg, "--out-dir", out) == 0
        rows = open(os.path.join(out, "ablation_no_augment.csv")).read().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["none_noaug", "se_noaug",
                                                       "sem_noaug"]
        for sub in ("none_noaug", "se_noaug", "sem_noaug"):
            resolved = open(os.path.join(out, sub, "config.resolved")).read()
            assert "augment=false" in resolved


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

    def test_non_sem_checkpoint_is_usage_error(self, tiny_cfg, tmp_path):
        out = os.path.join(tmp_path, "run")
        run_cli("train", "--config", tiny_cfg, "--out-dir", out,
                "--attention", "eca")
        assert run_cli("export-decisions", "--checkpoint",
                       os.path.join(out, "final.ckpt")) == 2

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
