"""Every exported name resolves, including the functions the benchmark's
tracer patches by name, so a deletion that breaks them fails here; and every
exported name has a caller in the package or the benchmark."""
import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import qbingham

MODULES = sorted(m.name for m in pkgutil.iter_modules(qbingham.__path__))
SRC = pathlib.Path(qbingham.__file__).parent
QBENCH = pathlib.Path(__file__).resolve().parents[1] / "qbench"


def _resolve(obj, qualname):
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"qbingham.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_names_resolve():
    tree = ast.parse(pathlib.Path(qbingham.__file__).read_text())
    names = [(node.module, a.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for a in node.names]
    assert names
    for module, name in names:
        mod = importlib.import_module(f"qbingham.{module}")
        assert hasattr(mod, name), (module, name)
        assert getattr(qbingham, name) is getattr(mod, name)


def test_tracing_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(QBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, qualname, _observe in tracing.TARGETS:
        mod = importlib.import_module(f"qbingham.{module}")
        assert callable(_resolve(mod, qualname)), (module, qualname)


def test_relative_imports_are_exported():
    src = pathlib.Path(qbingham.__file__).parent
    drift = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            exported = importlib.import_module(f"qbingham.{node.module}").__all__
            drift += [(path.name, node.module, a.name) for a in node.names
                      if not a.name.startswith("_") and a.name not in exported]
    assert not drift


def _references(tree):
    """(name, enclosing top-level def/class or None) for every Name and
    Attribute in tree, outside its __all__ assignment."""
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
            continue
        owner = getattr(top, "name", None) if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_export_has_a_caller():
    # a name in a module's __all__ must be referenced somewhere in the package
    # (outside __init__) or in the benchmark, not counting its own definition;
    # cli's __all__ is the command-line and snapshot API and is exempt
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    referenced = set()
    for path in files + sorted(QBENCH.glob("*.py")):
        referenced |= {name for name, owner in _references(ast.parse(path.read_text()))
                       if name != owner}
    unused = [(name, export) for name in MODULES if name != "cli"
              for export in importlib.import_module(f"qbingham.{name}").__all__
              if export not in referenced]
    assert not unused
