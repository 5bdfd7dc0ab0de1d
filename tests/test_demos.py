"""The quick demos run end to end against the current API."""

import ast
import importlib
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
    # Also: the one node inside a conv with the identity kernel is x times
    # the v of the gate's terms, bit for bit.
    runpy.run_path(os.path.join(DEMOS, "02_switchable_attention.py"), run_name="__main__")
    diffs = {text.split(",")[0]: float(text.rsplit(" ", 1)[1])
             for text in capsys.readouterr().out.splitlines() if "max diff:" in text}
    assert diffs["single-cnn route vs the ECA formula"] <= 1e-12
    assert diffs["one node inside the conv vs x * v"] == 0.0


def test_every_name_a_demo_imports_from_semnet_exists():
    # Not every demo runs here (04 trains for seconds), so this is what
    # notices a demo still importing a name the package no longer has.
    missing = []
    for name in sorted(os.listdir(DEMOS)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "semnet":
                module = importlib.import_module(node.module)
                missing += [f"{name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing, missing


def test_grid_demo_prints_its_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(os.path.join(DEMOS, "05_ablations_and_decisions.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("table: ") for line in lines) == 2
    assert sum(line.startswith("report: ") for line in lines) == 1
