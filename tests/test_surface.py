"""The package surface: every public name has a caller, every name the
benchmark binds resolves, no module or test file imports a name it does not
use, and qcla needs nothing outside the standard library."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcla
from qcla.adders import request_for

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcla"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_public_name_has_a_caller():
    callers = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted(BENCH.glob("*.py"))
    referenced = set().union(*(_referenced(_tree(p)) for p in callers))
    assert sorted(set(qcla.__all__) - referenced) == []


def _load_bench_spans():
    """``bench/spans.py``, loaded by path (it imports only the standard
    library)."""
    spec = importlib.util.spec_from_file_location("_bench_spans",
                                                  BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_name_the_benchmark_binds_resolves():
    bench_spans = _load_bench_spans()
    assert len(bench_spans.SPANS) == 18
    for _, module, attr in bench_spans.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"
    # bench/workloads.py imports the first two; bench/test_bench.py checks
    # that the tracer wraps the other two bindings
    for module, attr in [("qcla.adders", "request_for"),
                         ("qcla.formulas", "formula_eval"),
                         ("qcla.carry", "levelize"),
                         ("qcla.sim", "build_variant")]:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"
    request = request_for("mersenne-ip-zeros", 8)
    assert (request.function, request.in_place, request.incoming_carry,
            request.zero_rep) == ("add-mersenne", True, False, "zeros")


@pytest.mark.parametrize("path",
                         sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _dunder_all(tree)  # a re-export is a use
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}


def test_qcla_imports_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "import sys, qcla, qcla.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
    assert "numpy" not in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
