"""Reference routines for the property suites, over flat wire indices.

No generator, simulator path or command of qcla needs these; the tests use
them to check properties of the circuits qcla builds: reversibility, that
they permute the basis, the comparator's agreement with its constant-
propagated padded form, the carry-status algebra the trees rest on, and
the light cone of a wire.
``reference_parse_native`` is the plain line-by-line parser that
``qcla.textfmt.parse_native`` must agree with, error for error, and
``reference_seal`` the pairwise scan that ``qcla.adders._seal`` must
agree with.  ``deletion_mutants`` makes the faulty circuits a functional
check must reject, and ``read_qasm`` reads back what
``qcla.textfmt.emit_qasm`` writes.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, Sequence

from qcla.core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    InternalConsistencyError,
    Register,
    RegisterLayout,
    Role,
)
from qcla.formulas import popcount
from qcla.sim import columns_to_values, run_columns, stride_column
from qcla.textfmt import ParseError

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


def deletion_mutants(circuit: Circuit) -> Iterator[Circuit]:
    """The circuit without its gate ``i``, for each ``i`` in turn; each
    barrier stays before the gate it stood before."""
    gates = circuit.gates
    for i in range(len(gates)):
        barriers = [Barrier(b.position - (b.position > i), b.label)
                    for b in circuit.barriers]
        yield Circuit(circuit.layout, gates[:i] + gates[i + 1:], barriers)


def run_state(circuit: Circuit, values: Mapping[int, int]) -> list[int]:
    """Run a single sample given the bit of some flat wires (the others are
    0); returns every wire's final bit, by flat index."""
    cols = [0] * circuit.layout.total_size
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


def gate_lightcone(gates: Sequence[Gate], sink: int) -> set[int]:
    """Indices of ``gates`` that can influence the final value of the flat
    wire ``sink``.

    Walks the gate list backwards, marking gates that write a marked wire and
    then marking their control wires.
    """
    marked = {sink}
    cone: set[int] = set()
    for i in range(len(gates) - 1, -1, -1):
        _, controls, target, _ = gates[i]
        if target in marked:
            cone.add(i)
            marked.update(controls)
    return cone


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


def reference_seal(copies: list[Gate],
                   block: list[Gate]) -> tuple[list[Gate], list[Gate]]:
    """``_seal`` by pairwise set scans: find the head of ``block`` (its
    leading run of pairwise wire-disjoint gates), then for each head gate
    in turn look for the first copy sharing a wire with it; move that copy
    last and that block gate first."""
    head = 0
    head_wires: set[int] = set()
    for g in block:
        wires = set(g.wires)
        if head_wires & wires:
            break
        head_wires |= wires
        head += 1
    for bi in range(head):
        wires = set(block[bi].wires)
        for ci, c in enumerate(copies):
            if wires & set(c.wires):
                copies = copies[:ci] + copies[ci + 1:] + [c]
                block = [block[bi]] + block[:bi] + block[bi + 1:]
                return copies, block
    return copies, block


# ---------------------------------------------------------------------------
# The native text format, parsed one line at a time

_WIRE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_KINDS = {k.value: k for k in GateKind}
_ROLES = {r.value: r for r in Role}


def reference_parse_native(text: str) -> Circuit:
    """``parse_native`` as a plain loop: every line is split, checked and
    built on its own, with the same errors in the same order."""
    registers: list[Register] = []
    sizes: dict[str, int] = {}
    offsets: dict[str, int] = {}  # register -> flat index of its bit 0
    total = 0
    gates: list[Gate] = []
    barriers: list[Barrier] = []
    reg_lineno = 0  # line of the last register header
    # token -> its flat wire index, checked once: the registers are fixed
    # by then, since every register header precedes the first gate
    wires: dict[str, int] = {}

    def wire(token: str, lineno: int) -> int:
        m = _WIRE_RE.match(token)
        if not m:
            raise ParseError(lineno, f"malformed wire reference {token!r}")
        name, index = m.group(1), int(m.group(2))
        if name not in sizes:
            raise ParseError(lineno, f"undeclared register {name!r}")
        if index >= sizes[name]:
            raise ParseError(lineno, f"wire {token} out of range")
        w = wires[token] = offsets[name] + index
        return w

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op, args = tokens[0], tokens[1:]
        kind = _KINDS.get(op)
        if kind is not None:
            if len(args) != kind.num_controls + 1:
                raise ParseError(
                    lineno,
                    f"{op} needs {kind.num_controls + 1} wires, got {len(args)}")
            ws = [wires[t] if t in wires else wire(t, lineno) for t in args]
            if len(set(ws)) != len(ws):
                raise ParseError(lineno, f"gate wires must be distinct: "
                                         f"{' '.join(args)}")
            gates.append(Gate(kind, ws[:-1], ws[-1]))
        elif op == "reg":
            if gates:
                raise ParseError(lineno, "reg line after first gate")
            if len(args) != 3:
                raise ParseError(lineno, "reg needs: name size role")
            name, size_s, role_s = args
            if not _NAME_RE.match(name):
                raise ParseError(lineno, f"bad register name {name!r}")
            if name in sizes:
                raise ParseError(lineno, f"duplicate register {name!r}")
            if not (size_s.isascii() and size_s.isdigit()):
                raise ParseError(lineno, f"bad register size {size_s!r}")
            if role_s not in _ROLES:
                raise ParseError(lineno, f"unknown role {role_s!r}")
            sizes[name] = int(size_s)
            offsets[name] = total
            total += sizes[name]
            registers.append(Register(name, sizes[name], _ROLES[role_s]))
            reg_lineno = lineno
        elif op == "barrier":
            if len(args) != 1:
                raise ParseError(lineno, "barrier needs exactly one label")
            barriers.append(Barrier(len(gates), args[0]))
        else:
            raise ParseError(lineno, f"unknown directive {op!r}")
    try:
        layout = RegisterLayout(registers)
    except CircuitError as exc:  # reported at the header's last line
        raise ParseError(reg_lineno, str(exc)) from None
    return Circuit(layout, gates, barriers)


# ---------------------------------------------------------------------------
# OpenQASM 2.0, only as far as emit_qasm writes it

_QASM_ID = r"([a-z][A-Za-z0-9_]*)"
_QASM_REG_RE = re.compile(_QASM_ID + r"\[([1-9][0-9]*)\]")
_QASM_WIRE_RE = re.compile(_QASM_ID + r"\[(0|[1-9][0-9]*)\]")
# the lowercase reserved words of OpenQASM 2.0 (arXiv:1707.03429)
_QASM_RESERVED = {"barrier", "cos", "creg", "exp", "gate", "if", "include",
                  "ln", "measure", "opaque", "pi", "qreg", "reset", "sin",
                  "sqrt", "tan"}
_QASM_KINDS = {"x": GateKind.NOT, "cx": GateKind.CNOT,
               "ccx": GateKind.TOFFOLI}


def read_qasm(text: str) -> tuple[dict[str, int], list, list[int]]:
    """``(sizes, gates, barriers)`` of an OpenQASM 2.0 program of ``qreg``,
    ``x``, ``cx``, ``ccx`` and ``barrier`` lines: each register's size in
    declaration order, each gate as ``(kind, wires)`` over flat indices
    with the registers laid out in that order, and the number of gates
    before each barrier.  A register name must be an identifier and no
    reserved word, declared once and before the first gate; a barrier
    spans every register.  Anything else raises ``ValueError``."""
    lines = text.splitlines()
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        raise ValueError("not an OpenQASM 2.0 header")
    sizes: dict[str, int] = {}
    offsets: dict[str, int] = {}
    gates: list = []
    barriers: list[int] = []

    def wire(token: str) -> int:
        m = _QASM_WIRE_RE.fullmatch(token)
        if not m or m.group(1) not in sizes:
            raise ValueError(f"unknown wire {token!r}")
        if int(m.group(2)) >= sizes[m.group(1)]:
            raise ValueError(f"wire {token} out of range")
        return offsets[m.group(1)] + int(m.group(2))

    for line in lines[2:]:
        if not line.endswith(";"):
            raise ValueError(f"unterminated line {line!r}")
        op, _, args = line[:-1].partition(" ")
        if op == "qreg":
            m = _QASM_REG_RE.fullmatch(args)
            if not m or m.group(1) in _QASM_RESERVED or m.group(1) in sizes:
                raise ValueError(f"bad qreg {args!r}")
            if gates:
                raise ValueError("qreg after a gate")
            offsets[m.group(1)] = sum(sizes.values())
            sizes[m.group(1)] = int(m.group(2))
        elif op == "barrier":
            if args.split(",") != list(sizes):
                raise ValueError(f"barrier {args!r} does not span every "
                                 f"register")
            barriers.append(len(gates))
        elif op in _QASM_KINDS:
            wires = tuple(map(wire, args.split(",")))
            kind = _QASM_KINDS[op]
            if len(wires) != kind.num_controls + 1:
                raise ValueError(f"{op} with {len(wires)} wires")
            gates.append((kind, wires))
        else:
            raise ValueError(f"unknown statement {line!r}")
    return sizes, gates, barriers
