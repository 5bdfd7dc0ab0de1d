"""Source layout rules that hold across the package, the tests and the demos."""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_LINE = 100


FOLDERS = [os.path.join("src", "semnet"), "tests", "demos"]


@pytest.mark.parametrize("folder", FOLDERS)
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


def unused_imports(source, exported=False):
    """Names an import binds that nothing in the module refers to, as
    ``line: name``. A line marked ``# noqa: F401`` is exempt; with
    ``exported`` (a package ``__init__``, whose ``__all__`` lists what it
    imports) every public name counts as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used and not (exported and not name.startswith("_")):
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("folder", FOLDERS)
def test_every_import_is_used(folder):
    unused = []
    for name in sorted(os.listdir(os.path.join(ROOT, folder))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, folder, name), encoding="utf-8") as fh:
                found = unused_imports(fh.read(), exported=name == "__init__.py")
            unused += [f"{folder}/{name}:{entry}" for entry in found]
    assert not unused, unused


def test_an_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["1: os"]
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []
