"""Every module of the package imports only names it uses."""

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
