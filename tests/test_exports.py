"""Every exported name exists: each module's ``__all__`` and the names the
package ``__init__`` re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import wernerlike

MODULES = ("fock", "states", "tomography", "montecarlo", "trapsim", "wigner")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"wernerlike.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"wernerlike.{name}.__all__ lists missing names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_listed_names():
    tree = ast.parse(Path(wernerlike.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"wernerlike.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} not in {node.module}.__all__"
            assert getattr(wernerlike, alias.asname or alias.name) is getattr(module, alias.name)
