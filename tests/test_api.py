"""Every exported name resolves, including the functions the benchmark's
tracer patches by name, so a deletion that breaks them fails here; and every
exported name has a caller in the package or the benchmark."""
import ast
import dataclasses
import importlib
import inspect
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


def test_step_clock_hooks_resolve():
    # qbench/run.py's step_clock times a workload's steps by replacing these
    # attributes; the untraced benchmark fails if one moves or changes shape
    from qbingham import dynamics, leslie, sphere
    assert leslie.step_homogeneous is dynamics.step_homogeneous
    assert "step_homogeneous" in leslie.homogeneous_trajectory.__code__.co_names
    params = inspect.signature(dynamics.FieldSolver.__dict__["run"]).parameters
    assert list(params) == ["self", "state", "dt", "n_steps", "callback"]
    assert params["callback"].default is None
    assert callable(sphere.bingham_moments)


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


# defaulted parameters that no package or benchmark call passes, and why
# each stays an option
DEFAULTS_WITHOUT_CALLER = {
    ("dynamics", "FieldSolver.__init__", "forcing"):
        "the manufactured-solution tests drive the field solver with a forcing",
    ("dynamics", "step_homogeneous", "tol"):
        "the closure-accuracy tests step at tighter closure tolerances",
}


def _defaulted(fn, bound):
    """(positional parameter names, {defaulted public parameter name: its
    default's node}) of a def; a method's self (or a classmethod's cls) is
    dropped when bound."""
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if bound and not static:
        pos = pos[1:]
    named = dict(zip(pos[len(pos) - len(a.defaults):], a.defaults))
    named.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return pos, {p: d for p, d in named.items() if not p.startswith("_")}


def _is_default(arg, default):
    """Whether a call's argument is the literal the parameter defaults to."""
    return isinstance(default, ast.Constant) and ast.dump(arg) == ast.dump(default)


def _exported_defs():
    """(module, qualname, call name, def node, positional names, defaulted
    names) for every exported function and every method of an exported class."""
    for name in MODULES:
        if name == "cli":
            continue
        exported = set(importlib.import_module(f"qbingham.{name}").__all__)
        for top in ast.parse((SRC / f"{name}.py").read_text()).body:
            if isinstance(top, ast.FunctionDef) and top.name in exported:
                yield (name, top.name, top.name, top, *_defaulted(top, False))
            elif isinstance(top, ast.ClassDef) and top.name in exported:
                for fn in top.body:
                    if isinstance(fn, ast.FunctionDef):
                        call = top.name if fn.name == "__init__" else fn.name
                        yield (name, f"{top.name}.{fn.name}", call, fn,
                               *_defaulted(fn, True))


def test_every_default_has_a_caller():
    # every defaulted parameter of an exported function or method (cli
    # exempt; underscore parameters are not options) is passed, by keyword or
    # by position, by some call in the package or the benchmark outside the
    # function's own body; an option no caller sets is a constant, and a call
    # that passes the default's own literal does not set it. The allowlist
    # must name only parameters that are still without a caller
    files = sorted(SRC.glob("*.py")) + sorted(QBENCH.glob("*.py"))
    calls = [(path.name, node) for path in files
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    unpassed = set()
    for module, qualname, callee, fn, pos, defaulted in _exported_defs():
        passed = set()
        for path, call in calls:
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            own = path == f"{module}.py" and fn.lineno <= call.lineno <= fn.end_lineno
            if name != callee or own:
                continue
            n_pos = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                         len(call.args))
            given = list(zip(pos, call.args[:n_pos])) + [
                (k.arg, k.value) for k in call.keywords if k.arg]
            passed |= {p for p, arg in given
                       if p not in defaulted or not _is_default(arg, defaulted[p])}
        unpassed |= {(module, qualname, p) for p in defaulted if p not in passed}
    assert unpassed == set(DEFAULTS_WITHOUT_CALLER), unpassed ^ set(DEFAULTS_WITHOUT_CALLER)


def test_every_config_field_is_a_key_a_runner_reads():
    # every ExperimentConfig field but experiment and raw is declared as a
    # config key, and is read as cfg.<field> by the command line or the
    # benchmark; a key no runner reads is a dead option
    from qbingham.config import ExperimentConfig
    keys = [f for f in dataclasses.fields(ExperimentConfig)
            if f.name not in ("experiment", "raw")]
    assert keys
    assert not [f.name for f in keys if "path" not in f.metadata]
    read = set()
    for path in [SRC / "cli.py"] + sorted(QBENCH.glob("*.py")):
        read |= _cfg_reads(ast.parse(path.read_text()))
    assert not [f.name for f in keys if f.name not in read]

    # per experiment, the fields its runner reads (following calls into cli
    # helpers, and run_experiment, which records seed) are exactly those of
    # the key paths config declares it reads, and seed
    from qbingham import cli
    from qbingham.config import _READS
    defs = {node.name: node for node in ast.parse((SRC / "cli.py").read_text()).body
            if isinstance(node, ast.FunctionDef)}
    for experiment, runner in cli._RUNNERS.items():
        reads = _READS[experiment].split()
        declared = {f.name for f in keys if f.name == "seed" or any(
            p == f.metadata["path"] or p.startswith(f.metadata["path"] + ".") for p in reads)}
        read, todo = set(), [runner.__name__, "run_experiment"]
        seen = set(todo)
        while todo:
            fn = defs[todo.pop()]
            read |= _cfg_reads(fn)
            calls = {node.func.id for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id in defs}
            todo += calls - seen
            seen |= calls
        assert read - {"experiment", "raw"} == declared, experiment


def _cfg_reads(tree):
    """The attribute names read off a name cfg anywhere in tree."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"}


def test_step_homogeneous_positional_layout():
    # the benchmark's tracer reads a halved step's _depth as args[4] of
    # step_homogeneous; a reorder of these parameters would corrupt its count
    from qbingham.dynamics import step_homogeneous
    params = list(inspect.signature(step_homogeneous).parameters)
    assert params[:5] == ["state", "dt", "params", "tol", "_depth"]
