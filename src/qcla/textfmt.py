"""Line-oriented circuit text format, plus an OpenQASM 2.0 exporter.

The native format is UTF-8 text.  Header lines declare registers in
layout order as ``reg <name> <size> <role>``; gate lines are
``not A[0]``, ``cnot A[0] B[1]`` (control first) and
``ccx A[0] B[0] X[2]`` (two controls, then the target); ``barrier
<label>`` lines mark phase boundaries.  ``#`` starts a comment.
Parsing is strict: unknown tokens are errors, reported with the line
number.

Both directions work in bulk.  Emitting formats the token of each wire
that a gate touches once, so declared bits that no gate touches cost
nothing, and writes each run of gates between two barriers with one list
comprehension over that token table.  Parsing reads the register header
line by line, then resolves each distinct body line once, and each distinct
wire token once, and maps the file's lines through that table: equal gate
lines share one immutable :class:`Gate`.  The adders uncompute what they
compute and repeat many of their lines, so parse cost follows the distinct
lines.  An error is reported at the first line that has it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Iterator

from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Register,
    RegisterLayout,
    Role,
    _gc_paused,
    _is_name,
    ccx,
    cnot,
    not_,
    touched_wires,
)

__all__ = ["ParseError", "emit_native", "parse_native", "emit_qasm"]


class ParseError(ValueError):
    """A malformed circuit file, with the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _wire_tokens(circuit: Circuit, names: dict[str, str]) -> dict[int, str]:
    """Flat wire -> its token ``name[bit]``, for each wire the gates touch,
    with each register spelled as ``names`` says."""
    layout = circuit.layout
    wires = sorted(touched_wires(circuit.gates))
    tokens: dict[int, str] = {}
    start = 0  # registers follow each other, so their wires do too
    for r in layout.registers:
        if r.size:
            off, name = layout.offset(r.name), names[r.name]
            end = bisect_left(wires, off + r.size, start)
            tokens.update([(w, f"{name}[{w - off}]") for w in wires[start:end]])
            start = end
    return tokens


def _runs(circuit: Circuit) -> Iterator[tuple[tuple[Gate, ...], Barrier | None]]:
    """The runs of gates between barriers, each with the barrier after it
    (``None`` after the last run)."""
    gates, start = circuit.gates, 0
    for b in circuit.barriers:
        yield gates[start:b.position], b
        start = b.position
    yield gates[start:], None


def emit_native(circuit: Circuit, header_comments: list[str] | None = None) -> str:
    """Serialize a circuit to the native text format."""
    regs = circuit.layout.registers
    lines = [f"# {c}" for c in header_comments or []]
    lines += [f"reg {r.name} {r.size} {r.role.value}" for r in regs]
    tok = _wire_tokens(circuit, {r.name: r.name for r in regs})
    toffoli, cnot_kind = GateKind.TOFFOLI, GateKind.CNOT
    for run, barrier in _runs(circuit):
        # controls first, then the target
        lines += [f"ccx {tok[c[0]]} {tok[c[1]]} {tok[t]}" if k is toffoli
                  else f"cnot {tok[c[0]]} {tok[t]}" if k is cnot_kind
                  else f"not {tok[t]}"
                  for k, c, t, _ in run]
        if barrier is not None:
            lines.append(f"barrier {barrier.label}")
    return "\n".join(lines) + "\n"


class _BadLine(Exception):
    """A malformed line; the parser adds its line number."""


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
        # a token reads name[digits], digits in ASCII; a declared name is
        # well formed, so only an undeclared one needs the name check
        name, _, rest = token.partition("[")
        digits = rest[:-1]
        if rest[-1:] == "]" and digits.isascii() and digits.isdigit():
            size = self.sizes.get(name)
            if size is not None:
                index = int(digits)
                if index >= size:
                    raise _BadLine(f"wire {token} out of range")
                w = self[token] = self.offsets[name] + index
                return w
            if _is_name(name):
                raise _BadLine(f"undeclared register {name!r}")
        raise _BadLine(f"malformed wire reference {token!r}")


def _arity_error(tokens: list[str], want: int) -> _BadLine:
    return _BadLine(f"{tokens[0]} needs {want} wires, got {len(tokens) - 1}")


def _body_line(raw: str, wires: _WireIndex) -> Gate | str | None:
    """What a line other than a register header holds: a gate, a barrier's
    label, or ``None`` for a blank or comment line."""
    tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
    if not tokens:
        return None
    op = tokens[0]
    try:
        if op == "ccx":
            if len(tokens) != 4:
                raise _arity_error(tokens, 3)
            return ccx(wires[tokens[1]], wires[tokens[2]], wires[tokens[3]])
        if op == "cnot":
            if len(tokens) != 3:
                raise _arity_error(tokens, 2)
            return cnot(wires[tokens[1]], wires[tokens[2]])
        if op == "not":
            if len(tokens) != 2:
                raise _arity_error(tokens, 1)
            return not_(wires[tokens[1]])
    except CircuitError:  # the gate repeats a wire
        raise _BadLine(f"gate wires must be distinct: "
                       f"{' '.join(tokens[1:])}") from None
    if op == "barrier":
        if len(tokens) != 2:
            raise _BadLine("barrier needs exactly one label")
        return tokens[1]
    if op == "reg":
        raise _BadLine("reg line after first gate")
    raise _BadLine(f"unknown directive {op!r}")


def _split_barriers(items: list, barriers: list[Barrier]) -> list[Gate]:
    """The gates among ``items``, the body's lines read as gates, barrier
    labels and ``None`` for blank lines; each label becomes a barrier."""
    # the k-th line that holds no gate, at index i, follows i - k gates
    marks = [i for i, item in enumerate(items) if type(item) is not Gate]
    if not marks:
        return items
    gates: list[Gate] = []
    last = 0
    for k, i in enumerate(marks):
        gates += items[last:i]
        if items[i] is not None:
            barriers.append(Barrier(i - k, items[i]))
        last = i + 1
    gates += items[last:]
    return gates


@_gc_paused
def parse_native(text: str) -> Circuit:
    """Parse the native text format back into a circuit.

    Gate phase tags are not part of the format, so parsed gates carry no
    phase; barriers and all counts round-trip exactly.  Every error,
    including an invalid register layout, is a :class:`ParseError`.
    """
    lines = text.splitlines()
    registers: list[Register] = []
    sizes: dict[str, int] = {}
    offsets: dict[str, int] = {}
    total = 0
    barriers: list[Barrier] = []
    reg_lineno = 0  # line of the last register header
    wires = _WireIndex(sizes, offsets)
    first = len(lines)  # index of the first gate line
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] != ["reg"]:
            try:
                item = _body_line(raw, wires)
            except _BadLine as exc:
                raise ParseError(lineno, str(exc)) from None
            if type(item) is Gate:
                first = lineno - 1
                break
            if item is not None:
                barriers.append(Barrier(0, item))
            continue
        if len(tokens) != 4:
            raise ParseError(lineno, "reg needs: name size role")
        _, name, size_s, role_s = tokens
        if not _is_name(name):
            raise ParseError(lineno, f"bad register name {name!r}")
        if name in sizes:
            raise ParseError(lineno, f"duplicate register {name!r}")
        if not (size_s.isascii() and size_s.isdigit()):
            raise ParseError(lineno, f"bad register size {size_s!r}")
        try:
            role = Role(role_s)
        except ValueError:
            raise ParseError(lineno, f"unknown role {role_s!r}") from None
        sizes[name] = int(size_s)
        offsets[name] = total
        total += sizes[name]
        registers.append(Register(name, sizes[name], role))
        reg_lineno = lineno

    # each distinct body line once, in the order of first appearance, so
    # the first line to fail is the first failing line of the file
    table = dict.fromkeys(islice(lines, first, None))
    raw = ""
    try:
        for raw in table:
            table[raw] = _body_line(raw, wires)
    except _BadLine as exc:
        raise ParseError(lines.index(raw, first) + 1, str(exc)) from None
    items = list(map(table.__getitem__, islice(lines, first, None)))
    # hold one list as long as the file at a time: parse memory then peaks
    # no higher than with a single pass over the lines
    del lines, table
    gates = _split_barriers(items, barriers)
    del items
    try:
        layout = RegisterLayout(registers)
    except CircuitError as exc:  # reported at the header's last line
        raise ParseError(reg_lineno, str(exc)) from None
    return Circuit(layout, gates, barriers)


# OpenQASM 2.0's lowercase reserved words (Cross, Bishop, Smolin and
# Gambetta, arXiv:1707.03429)
_QASM_KEYWORDS = frozenset("barrier cos creg exp gate if include ln measure "
                           "opaque pi qreg reset sin sqrt tan".split())


def _qasm_names(registers: list[Register]) -> dict[str, str]:
    """Register name -> its QASM name: lowercased, with ``r`` before a
    leading ``_``, and where that is a keyword or already chosen, with
    ``_<k>`` after it for the first free ``k`` from the number of names
    chosen so far."""
    names: dict[str, str] = {}
    chosen = set(_QASM_KEYWORDS)
    for r in registers:
        base = r.name.lower()
        if base[0] == "_":
            base = "r" + base
        name, k = base, len(names)
        while name in chosen:
            name = f"{base}_{k}"
            k += 1
        names[r.name] = name
        chosen.add(name)
    return names


def emit_qasm(circuit: Circuit) -> str:
    """Export a circuit as OpenQASM 2.0 (x / cx / ccx over named qregs).

    Register names become QASM identifiers as ``_qasm_names`` says: unique,
    lowercase-led and no keyword; a name that already is one stays as it
    is.  Zero-sized registers are omitted.  Barriers span all registers
    and are omitted when no register is written.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    regs = [r for r in circuit.layout.registers if r.size > 0]
    qasm_names = _qasm_names(regs)
    lines += [f"qreg {qasm_names[r.name]}[{r.size}];" for r in regs]
    barrier = f"barrier {','.join(qasm_names.values())};"
    tok = _wire_tokens(circuit, qasm_names)
    toffoli, cnot_kind = GateKind.TOFFOLI, GateKind.CNOT
    for run, mark in _runs(circuit):
        lines += [f"ccx {tok[c[0]]},{tok[c[1]]},{tok[t]};" if k is toffoli
                  else f"cx {tok[c[0]]},{tok[t]};" if k is cnot_kind
                  else f"x {tok[t]};"
                  for k, c, t, _ in run]
        if mark is not None and regs:
            lines.append(barrier)
    return "\n".join(lines) + "\n"
