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
from collections import Counter
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


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a piece of code reads, as a bare name, an attribute or an
    import (a name it binds is not a read)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def _top_level_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def test_every_private_name_in_src_has_a_reader_in_src():
    # a private helper kept only for a test is test code in the package
    stmts = [stmt for path in sorted(SRC.glob("*.py"))
             for stmt in _tree(path).body]
    reads = [_referenced(stmt) for stmt in stmts]
    readers = Counter(name for names in reads for name in names)
    # a statement that reads a name it binds (a recursive function) is not
    # its own reader
    unread = {name for stmt, names in zip(stmts, reads)
              for name in _top_level_names(stmt)
              if name.startswith("_") and not name.startswith("__")
              and readers[name] == (name in names)}
    assert sorted(unread) == []


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


def test_variant_order_is_pinned():
    # bench/workloads.py draws its seeded ops in this order, so a reordered
    # table would give two commits different op streams on the same seed
    assert qcla.VARIANTS == (
        "carry-network",
        "add-oop", "add-oop-ic", "add-ip", "add-ip-ic",
        "add-mod2n-oop", "add-mod2n-oop-ic", "add-mod2n-ip", "add-mod2n-ip-ic",
        "sub-oop", "sub-ip", "compare", "compare-ic",
        "mersenne-oop-ones", "mersenne-oop-zeros",
        "mersenne-ip-ones", "mersenne-ip-zeros",
    )


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


def test_src_imports_these_standard_library_modules_only():
    # `import qcla, qcla.cli` (the benchmark's setup_s) imports every one of
    # these in each fresh interpreter, and with no cached bytecode it also
    # compiles all of src/qcla; a new import is a cost every run pays, so
    # adding one means adding it here
    modules = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                modules.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    assert sorted(modules) == [
        "__future__", "argparse", "bisect", "collections", "dataclasses",
        "enum", "functools", "gc", "itertools", "json", "operator", "os",
        "random", "re", "sys", "typing",
    ]


def test_qcla_imports_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "import sys, qcla, qcla.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
    assert "numpy" not in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_no_module_raises_or_catches_system_exit():
    # cli.main maps every error to its exit code in one place; only the
    # `sys.exit(main())` entry point and argparse's usage error exit
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise):
                expr = node.exc
            elif isinstance(node, ast.ExceptHandler):
                expr = node.type
            else:
                continue
            if expr is not None and "SystemExit" in _referenced(expr):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
