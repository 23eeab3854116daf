"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import pytest

import qcla.formulas
from qcla import CircuitError, build_variant, emit_native, verify_family
from qcla.adders import VARIANTS, request_for
from qcla.core import Circuit, GateKind, Role, touched_wires
from qcla.sim import run_columns, stride_column

# width grid used by the resource checks: dense through 64, then powers of two
GRID = list(range(7, 65)) + [128, 256, 512, 1024]


def valid_small_widths(vid: str, top: int) -> list[int]:
    out = []
    for n in range(1, top + 1):
        if vid == "carry-network":
            out.append(n)
            continue
        try:
            request_for(vid, n)
        except CircuitError:
            continue
        out.append(n)
    return out


def native_digest(circuit: Circuit) -> str:
    """SHA-256 of a circuit's native text form: pins its exact gate list."""
    return hashlib.sha256(emit_native(circuit).encode()).hexdigest()


def toffoli_depth(circuit: Circuit) -> int:
    """The Toffoli-weighted depth of the gate list's dependency DAG: the
    longest chain of gates, each sharing a wire with the next one later in
    the list, in which only Toffolis count."""
    level = [0] * circuit.layout.total_size  # per wire, the deepest chain
    for kind, controls, target, _ in circuit.gates:
        wires = (*controls, target)
        lv = max(level[w] for w in wires) + (kind is GateKind.TOFFOLI)
        for w in wires:
            level[w] = lv
    return max(level, default=0)


def idle_ancillae(circuit: Circuit) -> set[int]:
    """The wires of the circuit's ``ancilla`` registers that no gate
    touches."""
    layout = circuit.layout
    wires = {w for r in layout.registers if r.role is Role.ANCILLA
             for w in layout.indices(r.name)}
    return wires - touched_wires(circuit.gates)


class GridSweep(NamedTuple):
    results: dict  # (variant, n, field) -> VerifyResult
    digests: dict  # (variant, n) -> native_digest of the circuit verified
    depths: dict  # (variant, n) -> toffoli_depth of the circuit verified
    idle: dict  # (variant, n) -> idle_ancillae of the circuit verified


@pytest.fixture(scope="session")
def grid_sweep() -> GridSweep:
    """``verify_family`` for every variant over the width grid, run once.

    Every circuit that ``verify_family`` builds is also digested, its
    Toffoli DAG depth taken and its untouched ancillae listed, so the
    golden-digest, scheduler and ancilla tests check the very circuits the
    resource checks measured without building them a second time.
    """
    results, digests, depths, idle = {}, {}, {}, {}

    def build_and_digest(vid: str, n: int) -> Circuit:
        circuit = build_variant(vid, n)
        digests[(vid, n)] = native_digest(circuit)
        depths[(vid, n)] = toffoli_depth(circuit)
        idle[(vid, n)] = idle_ancillae(circuit)
        return circuit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcla.formulas, "build_variant", build_and_digest)
        for vid in VARIANTS:
            for r in verify_family(vid, GRID):
                results[(vid, r.n, r.field)] = r
    return GridSweep(results, digests, depths, idle)


def gc_boundary_ok(n: int) -> bool:
    """Check the carry values at the G/C boundary of the carry network.

    After the P- and G-round gates, the position-``j`` carry wire must hold
    the interval generate ``g[(j-1) AND j, j)`` for every input, with the
    interval recurrences ``p[i,j] = p[i,k] p[k,j]`` and
    ``g[i,j] = g[k,j] XOR g[i,k] p[k,j]``.  Exhaustive over all ``4^n``
    generate/propagate input strings.
    """
    circuit = build_variant("carry-network", n)
    prefix = [g for g in circuit.gates if g.phase in ("P", "G")]
    nsamples = 1 << (2 * n)
    g_col = [stride_column(t, nsamples) for t in range(n)]
    p_col = [stride_column(n + t, nsamples) for t in range(n)]
    cols = [0] * circuit.layout.total_size
    Z, B = circuit.layout.indices("Z"), circuit.layout.indices("B")
    for t in range(n):
        cols[Z[t]] = g_col[t]
        cols[B[t]] = p_col[t]
    run_columns(Circuit(circuit.layout, prefix), cols, (1 << nsamples) - 1)
    for j in range(1, n + 1):
        i = (j - 1) & j
        g_acc, p_acc = g_col[j - 1], p_col[j - 1]
        for t in range(j - 2, i - 1, -1):
            g_acc = g_acc ^ (g_col[t] & p_acc)
            p_acc = p_acc & p_col[t]
        if cols[Z[j - 1]] != g_acc:
            return False
    return True
