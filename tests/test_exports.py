"""Public names: every export resolves and the package imports only exports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import zermelo

SUBMODULES = [info.name for info in pkgutil.iter_modules(zermelo.__path__)]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"zermelo.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"zermelo.{name}.__all__ lists {missing}"


def test_package_imports_only_listed_names():
    tree = ast.parse(inspect.getsource(zermelo))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"zermelo.{node.module}")
            unlisted = [a.name for a in node.names if a.name not in module.__all__]
            assert not unlisted, f"zermelo imports {unlisted} from {node.module} unlisted"
