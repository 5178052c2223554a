"""Static checks on the library source, with the stdlib ast module only.

No module of the package (other than __init__.py, which re-exports) and
no test module imports a name it never reads, and no function of the
package assigns a local it never reads; names starting with "_" are
exempt from the second check.  Every module of the package but
__init__.py assigns a literal __all__, from which __init__.py builds the
public API, and every name it exports there is read by the package or the
benchmark, not by the tests alone.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "poscones"
BENCH = TESTS.parent / "bench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
IMPORTERS = MODULES + sorted(TESTS.glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded(node):
    """Names read anywhere under node, nested scopes included."""
    return {
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }


def _stored(fn):
    """Names bound in fn's own scope (not in nested functions, classes or
    comprehensions), with the line of their first binding."""
    out = {}
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out[node.id] = min(node.lineno, out.get(node.id, node.lineno))
        todo.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = _tree(path)
    loaded = _loaded(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_assigned_local_is_read(path):
    unread = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            declared = {
                name for n in ast.walk(fn)
                if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names
            }
            loaded = _loaded(fn)
            for name, line in _stored(fn).items():
                if not name.startswith("_") and name not in loaded | declared:
                    unread.append(f"{path.name}:{line} {fn.name}.{name}")
    assert unread == []


def _exports(path):
    """The literal __all__ that a module assigns, or None if it assigns none."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_assigns_a_literal_all(path):
    assert isinstance(_exports(path), list)


def _read_anywhere():
    """Names read as a name or an attribute in the package (but for
    __init__.py) or in the benchmark; an __all__ list holds strings, and a
    definition or an import binds, so neither counts as a read."""
    out = set()
    for path in MODULES + sorted(BENCH.glob("*.py")):
        for n in ast.walk(_tree(path)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.add(n.attr)
    return out


def test_every_exported_name_is_read_outside_the_tests():
    read = _read_anywhere()
    unread = [f"{p.name} {n}" for p in MODULES for n in _exports(p) or () if n not in read]
    assert unread == []
