"""The runtime dependency stays numpy alone: every module of the package
imports only the standard library, numpy and offlang itself. Importing the
CLI loads no process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import offlang

MODULES = sorted(Path(offlang.__file__).parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "offlang"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in the module at `path`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_has_modules():
    assert {p.stem for p in MODULES} >= {"cli", "corpus", "model", "nn"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_offlang(path):
    assert imported_packages(path) - ALLOWED == set()


def test_importing_the_cli_loads_no_process_pool():
    """`multiprocessing` and `concurrent.futures` load only when work forks:
    imported at module level, they added about 15 ms to every command's start-up."""
    code = ("import sys, offlang.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    src = str(Path(offlang.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
