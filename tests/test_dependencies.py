"""The runtime dependency stays numpy alone: every module of the package
imports only the standard library, numpy and offlang itself. Importing the
CLI loads no process pool."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import offlang

from conftest import OLID_FIXTURE

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


def test_tune_pu_and_forest_prediction_load_no_numpy_ma(tmp_path):
    """A plain `np.unique` imports `numpy.ma` (9-12 ms) to check for a mask;
    `tune-pu` and `predict_forest` take their sorted distinct labels and
    features from a bincount instead. Its forked workers load no
    `concurrent.futures` either: every fork is a process on a pipe."""
    train = tmp_path / "train.tsv"
    train.write_text(OLID_FIXTURE, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"train_path": str(train), "seed": 5, "task": "a"},
                                  "output": {"dir": str(tmp_path / "out")},
                                  "baseline": {"grid": [0.0, 1.0], "folds": 2, "n_trees": 3}}))
    code = ("import sys, numpy as np; from offlang import baseline, cli; "
            f"assert cli.main(['tune-pu', '--config', {str(config)!r}]) == 0; "
            "X = np.eye(8)[np.arange(40) % 8]; "
            "forest = baseline.train_forest(X, np.arange(40) % 3, n_trees=3, seed=0); "
            "assert (baseline.predict_forest(forest, X) == np.arange(40) % 3).any(); "
            "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)")
    src = str(Path(offlang.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "pu_report.csv").exists()
    assert done.stdout.splitlines()[-1] == "False False"  # nor the process pool: forks are pipes
