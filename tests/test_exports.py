"""Every exported name resolves: each layer's ``__all__`` and the package imports;
and importing the CLI loads no scipy solver package."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gsdnn

LAYERS = sorted(
    m.name for m in pkgutil.iter_modules(gsdnn.__path__) if m.name not in ("cli", "__main__")
)


def test_every_layer_declares_its_exports():
    assert LAYERS == [
        "bilevel_trainer", "graph_core", "gsd_problem", "iter_solvers",
        "spectral_filters", "unrolled_gnn",
    ]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_names_resolve(layer):
    mod = importlib.import_module(f"gsdnn.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"gsdnn.{layer}.__all__ names missing objects: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_resolve_to_layer_exports():
    tree = ast.parse(inspect.getsource(gsdnn))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(LAYERS)
    for node in imports:
        mod = importlib.import_module(f"gsdnn.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{alias.name} is not in gsdnn.{node.module}.__all__"
            assert getattr(gsdnn, alias.asname or alias.name) is getattr(mod, alias.name)


def test_cli_import_leaves_scipy_solvers_unloaded():
    # src/ uses scipy only for the CSR container; its solver packages would
    # add about 80 modules and 10 MB to every command's start-up
    src = str(Path(gsdnn.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = (
        "import sys, gsdnn.cli; "
        "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
