"""Line-oriented circuit text format, plus an OpenQASM 2.0 exporter.

The native format is UTF-8 text.  Header lines declare registers in
layout order as ``reg <name> <size> <role>``; gate lines are
``not A[0]``, ``cnot A[0] B[1]`` (control first) and
``ccx A[0] B[0] X[2]`` (two controls, then the target); ``barrier
<label>`` lines mark phase boundaries.  ``#`` starts a comment.
Parsing is strict: unknown tokens are errors, reported with the line
number.
"""

from __future__ import annotations

import re

from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Register,
    RegisterLayout,
    Role,
)

__all__ = ["ParseError", "emit_native", "parse_native", "emit_qasm"]


class ParseError(ValueError):
    """A malformed circuit file, with the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_WIRE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class _WireTokens(dict):
    """Flat wire index -> its text token, each formatted on first use."""

    def __init__(self, layout: RegisterLayout):
        super().__init__()
        self.wire_at = layout.wire_at

    def __missing__(self, index: int) -> str:
        name, bit = self.wire_at(index)
        token = self[index] = f"{name}[{bit}]"
        return token


_OPS = {k: k.value for k in GateKind}


def emit_native(circuit: Circuit, header_comments: list[str] | None = None) -> str:
    """Serialize a circuit to the native text format."""
    lines = [f"# {c}" for c in header_comments or []]
    for r in circuit.layout.registers:
        lines.append(f"reg {r.name} {r.size} {r.role.value}")
    token = _WireTokens(circuit.layout).__getitem__

    def gate_line(gate: Gate) -> str:
        kind, controls, target, _ = gate
        return f"{_OPS[kind]} {' '.join(map(token, (*controls, target)))}"

    gates = circuit.gates
    start = 0
    for b in circuit.barriers:
        lines += map(gate_line, gates[start:b.position])
        lines.append(f"barrier {b.label}")
        start = b.position
    lines += map(gate_line, gates[start:])
    return "\n".join(lines) + "\n"


_KINDS = {k.value: k for k in GateKind}
_ROLES = {r.value: r for r in Role}


def parse_native(text: str) -> Circuit:
    """Parse the native text format back into a circuit.

    Gate phase tags are not part of the format, so parsed gates carry no
    phase; barriers and all counts round-trip exactly.  Every error,
    including an invalid register layout, is a :class:`ParseError`.
    """
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


def emit_qasm(circuit: Circuit) -> str:
    """Export a circuit as OpenQASM 2.0 (x / cx / ccx over named qregs).

    Register names are lowercased to satisfy QASM identifier rules;
    zero-sized registers are omitted.  Barriers span all registers.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    regs = [r for r in circuit.layout.registers if r.size > 0]
    qasm_names = {}
    for r in regs:
        name = r.name.lower()
        if name in qasm_names.values():
            name = f"{name}_{len(qasm_names)}"
        qasm_names[r.name] = name
        lines.append(f"qreg {name}[{r.size}];")
    all_regs = ",".join(qasm_names[r.name] for r in regs)

    def ref(index: int) -> str:
        name, bit = circuit.layout.wire_at(index)
        return f"{qasm_names[name]}[{bit}]"

    ops = {GateKind.NOT: "x", GateKind.CNOT: "cx", GateKind.TOFFOLI: "ccx"}
    barriers = list(circuit.barriers)
    bi = 0
    for i, g in enumerate(circuit.gates):
        while bi < len(barriers) and barriers[bi].position == i:
            lines.append(f"barrier {all_regs};")
            bi += 1
        lines.append(f"{ops[g.kind]} {','.join(ref(w) for w in g.wires)};")
    while bi < len(barriers):
        lines.append(f"barrier {all_regs};")
        bi += 1
    return "\n".join(lines) + "\n"
