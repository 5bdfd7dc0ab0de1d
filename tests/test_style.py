"""Source layout rules that hold across the package, the tests and the demos."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_LINE = 100


@pytest.mark.parametrize("folder", [os.path.join("src", "semnet"), "tests", "demos"])
def test_no_line_exceeds_the_limit(folder):
    long_lines = []
    for name in sorted(os.listdir(os.path.join(ROOT, folder))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(ROOT, folder, name), encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if len(line.rstrip("\n")) > MAX_LINE:
                    long_lines.append(f"{folder}/{name}:{number}")
    assert not long_lines, long_lines


def test_numpy_is_the_only_runtime_dependency():
    # A fresh interpreter, so no module another test imported hides one.
    code = ("import sys; before = set(sys.modules); import semnet; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "semnet" in loaded and "numpy" in loaded
    top = {name.partition(".")[0] for name in loaded}
    assert not top - set(sys.stdlib_module_names) - {"numpy", "semnet"}
