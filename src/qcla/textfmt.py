"""Line-oriented circuit text format, plus an OpenQASM 2.0 exporter.

The native format is UTF-8 text.  Header lines declare registers in
layout order as ``reg <name> <size> <role>``; gate lines are
``not A[0]``, ``cnot A[0] B[1]`` (control first) and
``ccx A[0] B[0] X[2]`` (two controls, then the target); ``barrier
<label>`` lines mark phase boundaries.  ``#`` starts a comment.
Parsing is strict: unknown tokens are errors, reported with the line
number.

Parsing resolves each distinct gate line and each distinct wire token
once, so equal gate lines share one immutable :class:`Gate`.  The adders
uncompute what they compute and repeat many of their lines, and parse
cost follows the distinct lines.
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
    ccx,
    cnot,
    not_,
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


_LINE = {GateKind.NOT: "not %s", GateKind.CNOT: "cnot %s %s",
         GateKind.TOFFOLI: "ccx %s %s %s"}  # controls first, then the target


def emit_native(circuit: Circuit, header_comments: list[str] | None = None) -> str:
    """Serialize a circuit to the native text format."""
    lines = [f"# {c}" for c in header_comments or []]
    for r in circuit.layout.registers:
        lines.append(f"reg {r.name} {r.size} {r.role.value}")
    token = _WireTokens(circuit.layout).__getitem__

    def gate_line(gate: Gate) -> str:
        kind, controls, target, _ = gate
        return _LINE[kind] % (*map(token, controls), token(target))

    gates = circuit.gates
    start = 0
    for b in circuit.barriers:
        lines += map(gate_line, gates[start:b.position])
        lines.append(f"barrier {b.label}")
        start = b.position
    lines += map(gate_line, gates[start:])
    return "\n".join(lines) + "\n"


_ROLES = {r.value: r for r in Role}


class _BadWire(Exception):
    """A wire token that names no declared wire; the parser adds the line."""


class _WireIndex(dict):
    """Wire token -> its flat index, each token checked on first use.

    It holds only the tokens a file uses, so a large declared register
    costs nothing.  The registers are fixed by the first lookup, since
    every register header precedes the first gate.
    """

    def __init__(self, sizes: dict[str, int], offsets: dict[str, int]):
        super().__init__()
        self.sizes = sizes
        self.offsets = offsets  # register -> flat index of its bit 0

    def __missing__(self, token: str) -> int:
        m = _WIRE_RE.match(token)
        if not m:
            raise _BadWire(f"malformed wire reference {token!r}")
        name, index = m.group(1), int(m.group(2))
        if name not in self.sizes:
            raise _BadWire(f"undeclared register {name!r}")
        if index >= self.sizes[name]:
            raise _BadWire(f"wire {token} out of range")
        w = self[token] = self.offsets[name] + index
        return w


def _arity_error(lineno: int, tokens: list[str], want: int) -> ParseError:
    return ParseError(lineno,
                      f"{tokens[0]} needs {want} wires, got {len(tokens) - 1}")


def _distinct_error(lineno: int, tokens: list[str]) -> ParseError:
    return ParseError(lineno,
                      f"gate wires must be distinct: {' '.join(tokens[1:])}")


def parse_native(text: str) -> Circuit:
    """Parse the native text format back into a circuit.

    Gate phase tags are not part of the format, so parsed gates carry no
    phase; barriers and all counts round-trip exactly.  Every error,
    including an invalid register layout, is a :class:`ParseError`.
    """
    registers: list[Register] = []
    sizes: dict[str, int] = {}
    offsets: dict[str, int] = {}
    total = 0
    gates: list[Gate] = []
    barriers: list[Barrier] = []
    reg_lineno = 0  # line of the last register header
    wires = _WireIndex(sizes, offsets)
    # raw gate line -> its gate; a repeat is a valid line whose wires were
    # resolved against the same, by then fixed, registers
    parsed: dict[str, Gate] = {}
    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            gate = parsed.get(raw)
            if gate is not None:
                gates.append(gate)
                continue
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            op = tokens[0]
            if op == "ccx":
                if len(tokens) != 4:
                    raise _arity_error(lineno, tokens, 3)
                c1, c2, t = wires[tokens[1]], wires[tokens[2]], wires[tokens[3]]
                if c1 == c2 or c1 == t or c2 == t:
                    raise _distinct_error(lineno, tokens)
                gate = parsed[raw] = ccx(c1, c2, t)
                gates.append(gate)
            elif op == "cnot":
                if len(tokens) != 3:
                    raise _arity_error(lineno, tokens, 2)
                c, t = wires[tokens[1]], wires[tokens[2]]
                if c == t:
                    raise _distinct_error(lineno, tokens)
                gate = parsed[raw] = cnot(c, t)
                gates.append(gate)
            elif op == "not":
                if len(tokens) != 2:
                    raise _arity_error(lineno, tokens, 1)
                gate = parsed[raw] = not_(wires[tokens[1]])
                gates.append(gate)
            elif op == "reg":
                if gates:
                    raise ParseError(lineno, "reg line after first gate")
                if len(tokens) != 4:
                    raise ParseError(lineno, "reg needs: name size role")
                _, name, size_s, role_s = tokens
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
                if len(tokens) != 2:
                    raise ParseError(lineno, "barrier needs exactly one label")
                barriers.append(Barrier(len(gates), tokens[1]))
            else:
                raise ParseError(lineno, f"unknown directive {op!r}")
    except _BadWire as exc:
        raise ParseError(lineno, str(exc)) from None
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
