"""Reference routines for the property suites, over flat wire indices.

No generator, simulator path or command of qcla needs these; the tests use
them to check properties of the circuits qcla builds: reversibility, that
they permute the basis, the comparator's agreement with its constant-
propagated padded form, and the carry-status algebra the trees rest on.
"""

from __future__ import annotations

from typing import Mapping

from qcla.core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    InternalConsistencyError,
)
from qcla.formulas import popcount
from qcla.sim import columns_to_values, run_columns, stride_column, zero_columns

# ---------------------------------------------------------------------------
# Carry-status algebra

KILL, PROP, GEN = (0, 0), (1, 0), (0, 1)
STATUSES = (KILL, PROP, GEN)


def status_of(a_bit: int, b_bit: int) -> tuple[int, int]:
    """The (propagate, generate) status of one operand bit pair."""
    return (a_bit ^ b_bit, a_bit & b_bit)


def compose(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Status composition: ``x`` spans the lower interval, ``y`` the upper."""
    px, gx = x
    py, gy = y
    return (px & py, gy ^ (gx & py))


def popcount_identity_check(limit: int) -> bool:
    """``n - w(n) = sum_{t>=1} floor(n / 2^t)`` for ``1 <= n <= limit``."""
    for n in range(1, limit + 1):
        total = 0
        t = 1
        while (n >> t) > 0:
            total += n >> t
            t += 1
        if n - popcount(n) != total:
            return False
    return True


# ---------------------------------------------------------------------------
# Circuit transformations and whole-circuit runs


def invert(circuit: Circuit) -> Circuit:
    """The inverse circuit: the same gates in reverse order."""
    n = len(circuit.gates)
    barriers = tuple(
        Barrier(n - b.position, b.label) for b in reversed(circuit.barriers)
    )
    return Circuit(circuit.layout, tuple(reversed(circuit.gates)), barriers)


def run_state(circuit: Circuit, values: Mapping[int, int]) -> list[int]:
    """Run a single sample given the bit of some flat wires (the others are
    0); returns every wire's final bit, by flat index."""
    cols = zero_columns(circuit)
    for w, v in values.items():
        cols[w] = v & 1
    return run_columns(circuit, cols, 1)


def permutation_check(circuit: Circuit) -> bool:
    """Whether the circuit permutes the full computational basis.

    Enumerates every basis state, so the total width is limited to 20 wires.
    """
    width = circuit.layout.total_size
    if width > 20:
        raise CircuitError("permutation check limited to 20 wires")
    nsamples = 1 << width
    cols = [stride_column(i, nsamples) for i in range(width)]
    run_columns(circuit, cols, (1 << nsamples) - 1)
    states = columns_to_values(cols, nsamples)
    return len(set(states)) == nsamples


def constant_propagate(circuit: Circuit,
                       constants: Mapping[int, int]) -> Circuit:
    """Simplify a circuit against flat wires with compile-time-known values.

    Rules, applied in one forward pass with constant tracking:

    * a control known to be 0 deletes the gate;
    * a control known to be 1 is dropped (Toffoli -> CNOT -> NOT);
    * a gate whose target value stays compile-time-known updates the tracked
      constant and emits no gate.

    The result is equivalent to the input on all non-constant wires.  Reading
    one of the *declared* constant wires after it has been overwritten with a
    non-constant value raises :class:`InternalConsistencyError`.
    """
    known: dict[int, int] = {}
    for w, v in constants.items():
        if v not in (0, 1):
            raise CircuitError(f"constant for wire {w} must be 0 or 1, got {v}")
        known[w] = v
    declared = set(known)
    clobbered: set[int] = set()
    out: list[Gate] = []
    old_to_new: list[int] = []
    kinds = (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)
    for _, controls, target, phase in circuit.gates:
        old_to_new.append(len(out))
        for c in controls:
            if c in clobbered:
                raise InternalConsistencyError(
                    f"declared-constant wire {c} read after non-constant "
                    f"write")
        vals = [known.get(c) for c in controls]
        if 0 in vals:
            continue
        live = tuple(c for c, v in zip(controls, vals) if v is None)
        if target in known:
            if not live:
                known[target] ^= 1
                continue
            del known[target]
            if target in declared:
                clobbered.add(target)
        out.append(Gate(kinds[len(live)], live, target, phase))
    old_to_new.append(len(out))
    barriers = tuple(
        Barrier(old_to_new[b.position], b.label) for b in circuit.barriers
    )
    return Circuit(circuit.layout, out, barriers)
