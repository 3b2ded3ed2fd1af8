"""Every exported name resolves, so a deletion leaves no stale export behind."""

import importlib
import pkgutil

import pytest

import cumvol

MODULES = ["cumvol"] + [f"cumvol.{m.name}" for m in pkgutil.iter_modules(cumvol.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from cumvol import *", namespace)
    assert set(cumvol.__all__) <= set(namespace)
