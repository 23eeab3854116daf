"""Classical simulation of NOT/CNOT/Toffoli circuits.

The simulator runs many computational-basis samples at once: each wire is
represented by one arbitrary-precision integer whose bit ``s`` is the wire's
value in sample ``s``, so a CNOT is one XOR and a Toffoli one AND plus one
XOR across every sample simultaneously.  The state is a list of these
columns indexed by flat wire index, so a register is a slice of it.
Exhaustive checks enumerate all operand combinations as stride patterns;
randomized checks draw each input column directly, since uniform random
operands are independent uniform bits in every column.

The oracle works on the same columns: a ripple-carry adder written as O(n)
AND/XOR operations over all samples at once gives the expected final column
of every register bit.  It shares nothing with the carry-lookahead
construction, so it is an independent reference, and one operand
assignment (:func:`expected_state`) is its one-sample case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

from .adders import VARIANTS, build_variant
from .core import Circuit, CircuitError, GateKind

# ---------------------------------------------------------------------------
# Column simulation


def zero_columns(circuit: Circuit) -> list[int]:
    """All-zero columns, one per wire, indexed by flat wire index."""
    return [0] * circuit.layout.total_size


def run_columns(circuit: Circuit, cols: list[int], mask: int) -> list[int]:
    """Apply the gates to bit columns (one per flat wire index) in place;
    ``mask`` covers all samples."""
    not_kind, cnot_kind = GateKind.NOT, GateKind.CNOT
    for kind, controls, target, _ in circuit.gates:
        if kind is not_kind:
            cols[target] ^= mask
        elif kind is cnot_kind:
            cols[target] ^= cols[controls[0]]
        else:
            cols[target] ^= cols[controls[0]] & cols[controls[1]]
    return cols


# ---------------------------------------------------------------------------
# Bit packing helpers


def stride_column(bit: int, total_bits: int) -> int:
    """Column whose sample-``s`` bit is bit ``bit`` of ``s``, for ``s`` below
    ``total_bits``."""
    block = 1 << bit
    col, width = ((1 << block) - 1) << block, 2 * block
    while width < total_bits:  # doubling keeps this linear in total_bits
        col |= col << width
        width *= 2
    return col & ((1 << total_bits) - 1)


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Bit-transpose: integer ``j`` of the result holds bit ``j`` of every
    row, row ``i`` at bit ``i`` (bits of a row at or past ``width`` are
    ignored)."""
    if not width:
        return []
    mask = (1 << width) - 1
    # zero-padded MSB-first bit strings; zip reads them one position at a time
    bits = [format(r & mask, f"0{width}b") for r in rows]
    if not bits:
        return [0] * width
    return [int("".join(reversed(col)), 2) for col in zip(*bits)][::-1]


def values_to_columns(values: Sequence[int], nbits: int) -> list[int]:
    """Transpose per-sample integers into ``nbits`` per-bit columns."""
    return _transpose(values, nbits)


def columns_to_values(cols: Sequence[int], nsamples: int) -> list[int]:
    """Inverse of :func:`values_to_columns`."""
    return _transpose(cols, nsamples)


def _sample(cols: Sequence[int], s: int) -> int:
    """The value that bit columns ``cols`` (LSB first) hold in sample ``s``."""
    return int("".join("01"[(c >> s) & 1] for c in reversed(cols)) or "0", 2)


# ---------------------------------------------------------------------------
# Column oracle


def uses_carry_in(variant_id: str) -> bool:
    return variant_id.endswith("-ic")


def input_registers(variant_id: str) -> list[tuple[str, str]]:
    """(operand, register) pairs consumed by a variant."""
    if variant_id == "carry-network":
        return [("a", "Z"), ("b", "B")]
    pairs = [("a", "A"), ("b", "B")]
    if uses_carry_in(variant_id):
        pairs.append(("y", "Y"))
    return pairs


def _width(op: str, n: int) -> int:
    return 1 if op == "y" else n


def check_inputs(circuit: Circuit, variant_id: str, n: int) -> None:
    """Raise :class:`CircuitError` unless the circuit declares every register
    the variant reads at width ``n`` (the carry-in ``Y`` at width 1)."""
    for op, reg in input_registers(variant_id):
        if reg not in circuit.layout:
            raise CircuitError(f"{variant_id} reads register {reg}, which the "
                               f"circuit does not declare")
        size, want = circuit.layout[reg].size, _width(op, n)
        if size != want:
            raise CircuitError(f"{variant_id} n={n} reads {reg}[{want}], but "
                               f"the circuit declares {reg}[{size}]")


def _ripple(a: Sequence[int], b: Sequence[int], c: int) -> list[int]:
    """Columns of ``a + b + c`` over ``len(a) + 1`` bits (``c`` is one
    column): a ripple-carry adder, carry-out last."""
    out = []
    for x, y in zip(a, b):
        p = x ^ y
        out.append(p ^ c)
        c = (x & y) ^ (p & c)
    return out + [c]


def _all(cols: Iterable[int], mask: int) -> int:
    """The samples in which every column is set."""
    for c in cols:
        mask &= c
    return mask


def _expected_columns(variant_id: str, n: int, a: Sequence[int],
                      b: Sequence[int], y: int,
                      mask: int) -> dict[str, list[int]]:
    """Expected final columns per register (LSB first; a register left out,
    or a bit past the end of its list, is all zeros) for input columns ``a``
    and ``b`` (``n`` each) and carry-in ``y`` over the samples in ``mask``.

    For ``carry-network``, ``a`` is the generate string (register ``Z``)
    and ``b`` the propagate string (register ``B``).
    """
    if variant_id == "carry-network":
        c, carries = 0, []
        for g, p in zip(a, b):
            c = g ^ (p & c)
            carries.append(c)
        return {"B": list(b), "Z": carries, "X": []}
    if variant_id not in VARIANTS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    out = {"A": list(a), "X": []}
    if uses_carry_in(variant_id):
        out["Y"] = [y]
    else:
        y = 0
    if variant_id.startswith("add-mod2n"):
        s = _ripple(a, b, y)[:n]
    elif variant_id.startswith("add"):
        s = _ripple(a, b, y)
    elif variant_id.startswith("sub"):  # 2^n + a - b = a + ~b + 1
        s = _ripple(a, [mask ^ x for x in b], mask)
    elif variant_id.startswith("compare"):  # a >= b + y: carry of a + ~b + ~y
        s = _ripple(a, [mask ^ x for x in b], mask ^ y)[n:]
    else:  # mersenne: end-around carry, then the representation of zero
        s = _ripple(a, b, 0)
        wrapped = s[n]
        s = _ripple(s[:n], [0] * n, wrapped)[:n]
        zeros = variant_id.endswith("zeros")
        if zeros:  # all ones without a wrap is the sum 2^n - 1, i.e. zero
            kill = _all(s, mask ^ wrapped)
            s = [x ^ kill for x in s]
        if "-ip-" in variant_id:
            # b = 0 and b = 2^n - 1 produce the same sum, so a reversible
            # circuit must separate them somewhere: the non-canonical zero
            # pattern of the chosen representation parks a set wrap-carry
            # ancilla (characterized by exhaustive simulation)
            out["X"] = [_all(b if zeros else [mask ^ x for x in b], mask)]
    if "-ip" in variant_id:  # in place: the sum overwrites b
        out["B"] = s[:n]
        if s[n:]:
            out["Z"] = s[n:]
    else:
        out["B"] = list(b)
        out["Z"] = s
    return out


def expected_state(variant_id: str, n: int, a: int, b: int,
                   y: int = 0) -> dict[str, int]:
    """Expected final register values for one operand assignment: the
    one-sample case of the column oracle.

    For ``carry-network`` the parameters are reinterpreted: ``a`` is the
    per-position generate string (loaded into ``Z``) and ``b`` the
    per-position propagate string (loaded into ``B``).
    """
    cols = _expected_columns(variant_id, n, [(a >> i) & 1 for i in range(n)],
                             [(b >> i) & 1 for i in range(n)], y & 1, 1)
    return {reg: _sample(c, 0) for reg, c in cols.items()}


# ---------------------------------------------------------------------------
# Operand-level interface


def run_operands(circuit: Circuit, variant_id: str, a: int, b: int,
                 y: int = 0) -> dict[str, int]:
    """Run one operand assignment; returns final values per register name."""
    layout = circuit.layout
    cols = zero_columns(circuit)
    ops = {"a": a, "b": b, "y": y}
    for op, reg in input_registers(variant_id):
        for i, w in enumerate(layout.indices(reg)):
            cols[w] = (ops[op] >> i) & 1
    run_columns(circuit, cols, 1)
    out = {}
    for r in layout.registers:
        off = layout.offset(r.name)
        out[r.name] = _sample(cols[off:off + r.size], 0)
    return out


@dataclass(frozen=True)
class Counterexample:
    variant_id: str
    n: int
    a: int
    b: int
    y: int
    register: str
    expected: int
    actual: int

    def __str__(self) -> str:
        head = f"{self.variant_id} n={self.n}: a={self.a} b={self.b}"
        if self.y:
            head += f" y={self.y}"
        return (f"{head}: register {self.register} = {self.actual}, "
                f"expected {self.expected}")


def _check_columns(circuit: Circuit, variant_id: str, n: int,
                   cols: list[int],
                   nsamples: int) -> Counterexample | None:
    """Run pre-loaded input columns and diff every wire against the oracle.

    A mismatch is reported at its lowest failing sample, in the first
    register (in layout order) that fails there.
    """
    layout = circuit.layout

    def register(name: str) -> list[int]:
        off = layout.offset(name)
        return cols[off:off + layout[name].size]

    mask = (1 << nsamples) - 1
    ops = {op: register(reg) for op, reg in input_registers(variant_id)}
    ops.setdefault("y", [0])
    expected = _expected_columns(variant_id, n, ops["a"], ops["b"],
                                 ops["y"][0], mask)
    run_columns(circuit, cols, mask)
    # every declared register, then any the oracle names that the circuit
    # lacks; a wire the circuit does not declare reads as all zeros
    got = {r.name: register(r.name) for r in layout.registers}
    got.update((r, []) for r in expected if r not in got)
    bad: dict[str, int] = {}  # per register, the samples where it fails
    failing = 0
    for reg, have in got.items():
        diff = 0
        for h, w in zip_longest(have, expected.get(reg, []), fillvalue=0):
            diff |= h ^ w
        bad[reg] = diff
        failing |= diff
    if not failing:
        return None
    s = (failing & -failing).bit_length() - 1
    reg = next(r for r, diff in bad.items() if (diff >> s) & 1)
    return Counterexample(variant_id, n, _sample(ops["a"], s),
                          _sample(ops["b"], s), _sample(ops["y"], s), reg,
                          _sample(expected.get(reg, []), s),
                          _sample(got[reg], s))


def exhaustive_check(variant_id: str, n: int, *,
                     circuit: Circuit | None = None) -> Counterexample | None:
    """Check every operand combination; returns the first mismatch, if any.

    ``circuit`` is the circuit under test, by default the generated
    ``build_variant(variant_id, n)``; pass one read from elsewhere, such as
    a parsed file, to check it against the variant's oracle.  The sample
    space has ``2n`` (plus one carry-in) input bits, so this is limited to
    small widths.
    """
    if n > 12:
        raise CircuitError(f"exhaustive check limited to n <= 12, got n={n}")
    if circuit is None:
        circuit = build_variant(variant_id, n)
    check_inputs(circuit, variant_id, n)
    pairs = input_registers(variant_id)
    total_bits = sum(_width(op, n) for op, _ in pairs)
    nsamples = 1 << total_bits
    cols = zero_columns(circuit)
    # sample index s = a concatenated with b concatenated with y, so each
    # operand bit follows a stride pattern
    off = total_bits
    for op, reg in pairs:
        off -= _width(op, n)
        for j, w in enumerate(circuit.layout.indices(reg)):
            cols[w] = stride_column(off + j, nsamples)
    return _check_columns(circuit, variant_id, n, cols, nsamples)


def random_check(variant_id: str, n: int, samples: int = 1000,
                 seed: int = 20260826) -> Counterexample | None:
    """Check a batch of uniformly random operands in one column run.

    Uniform operands are independent uniform bits, so each input column is
    drawn directly, one ``samples``-bit integer per wire.
    """
    if samples < 1:
        raise CircuitError(f"random check needs at least one sample, "
                           f"got {samples}")
    rng = random.Random(seed)
    circuit = build_variant(variant_id, n)
    cols = zero_columns(circuit)
    for _, reg in input_registers(variant_id):
        for w in circuit.layout.indices(reg):
            cols[w] = rng.getrandbits(samples)
    return _check_columns(circuit, variant_id, n, cols, samples)
