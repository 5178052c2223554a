"""The package API: every exported name resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import poscones

# errors.py defines no __all__; it is checked through the package list
MODULES = [
    importlib.import_module(f"poscones.{m.name}")
    for m in pkgutil.iter_modules(poscones.__path__)
]


@pytest.mark.parametrize(
    "module", [poscones] + MODULES, ids=lambda m: m.__name__
)
def test_every_exported_name_resolves_once(module):
    names = getattr(module, "__all__", ())
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []

