"""Every module of the package imports only names it uses, and every
private name a module defines is read somewhere in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PACKAGE_DIR = SRC_DIR / "shardsim"

# Imported names a module keeps without using them, each with its reason.
KEPT = {
    # perfbench's tracer test asserts that tracing rebinds ``harness.route``.
    ("harness", "route"),
}


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, ``__future__`` features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, and for a package ``__init__`` the strings
    its ``__all__`` lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_what_it_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kept = {name for module, name in KEPT if module == path.stem}
    assert imported_names(tree) - used_names(tree) - kept == set()


def test_kept_imports_are_still_imported():
    for module, name in KEPT:
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
        assert name in imported_names(tree) - used_names(tree)


def private_names(tree: ast.Module) -> set[str]:
    """The ``_``-prefixed names the module's top-level definitions and
    assignments bind, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attribute names and the names
    it imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_every_private_module_name_is_read():
    """A deletion that leaves a setter, struct or helper behind fails here."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    read = set().union(*map(read_names, trees.values()))
    defined = {(module, name) for module, tree in trees.items() for name in private_names(tree)}
    assert defined, "no private module-level names found"
    assert sorted((m, n) for m, n in defined if n not in read) == []


def test_cli_loads_neither_numpy_nor_scipy():
    """Only ``montecarlo assignment`` imports numpy, and only the tests use
    scipy; a fresh process keeps both out of a ``bounds`` run."""
    script = (
        "import sys, shardsim.cli\n"
        "shardsim.cli.main(['bounds'])\n"
        "heavy = {'numpy', 'scipy'} & set(sys.modules)\n"
        "assert not heavy, heavy\n"
    )
    # The checkout's package first, so the subprocess runs the code under test.
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
