"""The quick demos run end to end against the current API."""

import os
import runpy
import tempfile

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["01_tensor_autodiff.py",
                                  "02_switchable_attention.py",
                                  "03_backbone_anatomy.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_attention_demo_single_operator_matches_formula(capsys):
    # Also: the one node inside a conv with the identity kernel has the
    # stages' bits.
    runpy.run_path(os.path.join(DEMOS, "02_switchable_attention.py"), run_name="__main__")
    diffs = {text.split(",")[0]: float(text.rsplit(" ", 1)[1])
             for text in capsys.readouterr().out.splitlines() if "max diff:" in text}
    assert diffs["single-cnn route vs the ECA formula"] <= 1e-12
    assert diffs["one node inside the conv vs the stages"] == 0.0


def test_grid_demo_prints_its_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(os.path.join(DEMOS, "05_ablations_and_decisions.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("table: ") for line in lines) == 2
    assert sum(line.startswith("report: ") for line in lines) == 1
