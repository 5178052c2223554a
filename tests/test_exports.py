"""The package API: every exported name resolves, and none is listed twice."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import poscones

# each module's own __all__; the package __all__ is built from nine of them
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



def test_package_all_is_built_from_the_star_imported_modules():
    # __init__.py names its modules three times: in `from . import`, in one
    # star import each, and in the sum that makes __all__; a module missing
    # from any one of them fails here
    body = ast.parse(Path(poscones.__file__).read_text()).body
    relative = [n for n in body if isinstance(n, ast.ImportFrom) and n.level == 1]
    imported = {a.name for n in relative if n.module is None for a in n.names}
    starred = {n.module for n in relative if [a.name for a in n.names] == ["*"]}
    assert imported == starred
    assert poscones.__all__ == sorted(
        name for m in starred for name in getattr(poscones, m).__all__
    )
