"""Every exported name resolves: each layer's ``__all__`` and the package imports."""

import ast
import importlib
import inspect
import pkgutil

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
