"""Tests of the benchmark itself (run with ``python3 -m pytest bench``)."""

from __future__ import annotations

import os
import random
import shutil
import sys

import qcla_src

qcla_src.load()

import pytest  # noqa: E402

import qcla  # noqa: E402
from qcla.core import Barrier, Circuit, GateKind  # noqa: E402

import run  # noqa: E402
from spans import SPANS, Tracer, bindings  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    drawable_pairs,
    golden_key,
    load_golden,
)

GOLDEN = load_golden()


@pytest.fixture
def workdir():
    path = qcla_src.ROOT / run.OUT_DIR / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def patch_everywhere(original, replacement) -> list:
    """Rebind ``original`` to ``replacement`` wherever qcla binds it."""
    patches = [(mod, key, original) for mod, key in bindings(original)]
    for mod, key, _ in patches:
        setattr(mod, key, replacement)
    return patches


def unpatch(patches: list) -> None:
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)


def small_op(name: str):
    """A cheap op of a workload, from a real pass, on an adder variant."""
    ops = WORKLOADS[name].make_pass(GOLDEN, random.Random(3))
    return min((op for op in ops if op.variant == "add-ip"),
               key=lambda op: op.gates)


def qcla_bindings() -> dict[tuple[str, str], object]:
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qcla" or name.startswith("qcla."))
            for key, value in vars(mod).items() if callable(value)}


def traced_ops(workdir, tracer: Tracer) -> list:
    tracer.install()
    try:
        return [run.run_op(WORKLOADS[name], small_op(name), GOLDEN, workdir,
                           tracer)
                for name in WORKLOADS]
    finally:
        tracer.restore()


def test_golden_table_covers_every_drawable_pair():
    assert set(GOLDEN) == {golden_key(v, n) for v, n in drawable_pairs()}


def test_traced_run_restores_every_wrapped_function(workdir):
    before = qcla_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # wrapped in each namespace that callers use
        assert qcla.sim.build_variant is not before[("qcla.adders",
                                                     "build_variant")]
        assert qcla.carry.levelize is not before[("qcla.core", "levelize")]
        wrapped = {(mod.__name__, key) for mod, key, _, _ in tracer.swaps}
        for _, module, attr in SPANS:
            assert (module, attr) in wrapped
    finally:
        tracer.restore()
    workload = WORKLOADS["verify-sweep"]
    records = run.measure(workload, workload.stream(GOLDEN, 5), GOLDEN,
                          workdir, 0.3, Tracer())
    assert len(records) > 2 and not any(r.problem for r in records)
    after = qcla_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_span_self_times_add_up_to_op_wall_time(workdir):
    tracer = Tracer()
    records = traced_ops(workdir, tracer)
    ops = tracer.ops()
    assert len(ops) == len(records) == len(WORKLOADS)
    for record, op in zip(records, ops):
        assert record.problem is None
        assert op.wall_ns == record.ns
        assert sum(op.self_ns.values()) == op.wall_ns
        assert all(v >= 0 for v in op.self_ns.values())
        # each op reached a layer below the benchmark's own code
        assert op.calls["core.levelize"] > 0


def drop_one_ccx(circuit: Circuit) -> Circuit:
    i = next(i for i, g in enumerate(circuit.gates)
             if g.kind is GateKind.TOFFOLI)
    gates = circuit.gates[:i] + circuit.gates[i + 1:]
    barriers = [Barrier(b.position - (b.position > i), b.label)
                for b in circuit.barriers]
    return Circuit(circuit.layout, gates, barriers)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_circuit_counts_as_failed_op(name, workdir):
    workload = WORKLOADS[name]
    op = small_op(name)
    assert run.run_op(workload, op, GOLDEN, workdir).problem is None
    build = qcla.adders.build
    patches = patch_everywhere(build, lambda req: drop_one_ccx(build(req)))
    try:
        record = run.run_op(workload, op, GOLDEN, workdir)
    finally:
        unpatch(patches)
    assert record.problem is not None
    assert qcla.adders.build is build


def swap_two_commuting_gates(circuit: Circuit) -> Circuit:
    g = circuit.gates
    i = next(i for i in range(len(g) - 1)
             if not set(g[i].wires) & set(g[i + 1].wires))
    gates = g[:i] + (g[i + 1], g[i]) + g[i + 2:]
    return Circuit(circuit.layout, gates, circuit.barriers)


def test_equivalent_but_reordered_circuit_fails_the_digest_check(workdir):
    op = small_op("cli-files")
    build = qcla.adders.build
    patches = patch_everywhere(
        build, lambda req: swap_two_commuting_gates(build(req)))
    try:
        record = run.run_op(WORKLOADS["cli-files"], op, GOLDEN, workdir)
    finally:
        unpatch(patches)
    assert record.problem == "generated circuit differs from the golden digest"
