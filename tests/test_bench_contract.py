"""The package names the benchmark under ``perfbench/`` binds still resolve.

``perfbench/*.py`` is read with ``ast``, never imported, so this checks what
the benchmark will look up without running any of its set-up.  A deletion
that would stop a workload before it times anything fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PERFBENCH.glob("*.py"))}


def _cavpuck_imports():
    """(file, module, name, alias) for every ``from cavpuck... import name``."""
    found = []
    for fname, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cavpuck":
                for alias in node.names:
                    found.append((fname, node.module, alias.name, alias.asname or alias.name))
    return found


def _resolve(module, name):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _span_targets():
    for node in ast.walk(SOURCES["spans.py"]):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


IMPORTS = _cavpuck_imports()


def test_perfbench_imports_something_from_the_package():
    assert IMPORTS
    assert len(_span_targets()) > 0


@pytest.mark.parametrize("module,name", [(m, n) for _, m, n, _ in IMPORTS],
                         ids=[f"{f}:{m}.{n}" for f, m, n, _ in IMPORTS])
def test_imported_name_resolves(module, name):
    _resolve(module, name)


def test_attributes_of_imported_modules_resolve():
    # e.g. ``from cavpuck import sweep as sweep_mod`` ... ``sweep_mod.SweepPlan``
    resolved = {alias: _resolve(m, n) for _, m, n, alias in IMPORTS}
    modules = {alias: obj for alias, obj in resolved.items() if inspect.ismodule(obj)}
    used = {
        (node.value.id, node.attr)
        for tree in SOURCES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    missing = [f"{alias}.{attr}" for alias, attr in sorted(used)
               if not hasattr(modules[alias], attr)]
    assert not missing


def test_span_targets_resolve_to_callables():
    missing = [f"{mod}.{attr}" for mod, attr, _ in _span_targets()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing


def test_make_operating_point_binds_seven_positional_arguments():
    from cavpuck.sensitivity import make_operating_point, responsivity

    inspect.signature(make_operating_point).bind(*range(7))
    inspect.signature(responsivity).bind(None)
