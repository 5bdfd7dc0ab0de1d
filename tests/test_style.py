"""Source layout rules that hold across the package, the tests and the demos."""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_LINE = 100


FOLDERS = [os.path.join("src", "semnet"), "tests", "demos", "perfbench"]


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


def dead_definitions(sources):
    """Private module-level names (``_x``, not dunders) that a module of
    ``sources`` (file name -> source) defines and no module of them loads,
    as a Name or an Attribute read, as ``file: name``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    dead = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{file}: {name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in loaded]
    return dead


def test_every_private_definition_is_used():
    folder = os.path.join(ROOT, "src", "semnet")
    sources = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert not dead_definitions(sources)


def test_a_dead_definition_is_found():
    sources = {"a.py": "_x = 1\n_y, (_z, __all__) = 2, (3, [])\ndef _f():\n    return _y\n",
               "b.py": "import a\nprint(a._z)\nclass _C:\n    pass\n"}
    assert dead_definitions(sources) == ["a.py: _x", "a.py: _f", "b.py: _C"]
