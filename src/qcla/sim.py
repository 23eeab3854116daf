"""Classical simulation of NOT/CNOT/Toffoli circuits.

The simulator runs many computational-basis samples at once: each wire is
represented by one arbitrary-precision integer whose bit ``s`` is the wire's
value in sample ``s``, so a CNOT is one XOR and a Toffoli one AND plus one
XOR across every sample simultaneously.  The state is a list of these
columns indexed by flat wire index, so a register is a slice of it.

One loader (``_load``) starts every run from the input columns its caller
gives: one assignment's operand bits, stride patterns over every operand
combination, or random draws (uniform random operands are independent
uniform bits).  The list ends at the highest wire that a gate or an input
touches, and declared bits past it read as 0.

The oracle works on the same columns: a ripple-carry adder written as O(n)
AND/XOR operations over all samples at once gives the expected final column
of every register bit, and addition mod ``2^n - 1`` is ``a + b + W`` mod
``2^n`` with ``W`` the wrapped carry.  It shares nothing with the
carry-lookahead construction, so it is an independent reference, and one
operand assignment (:func:`expected_state`) is its one-sample case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, zip_longest
from operator import and_
from typing import Iterable, Iterator, Sequence

from .adders import build_variant, variant_fields
from .core import Circuit, CircuitError, GateKind, _gc_paused, require_int

# ---------------------------------------------------------------------------
# Column simulation


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


def input_registers(variant_id: str) -> list[tuple[str, str]]:
    """(operand, register) pairs consumed by a variant."""
    function, _, incoming_carry, _ = variant_fields(variant_id)
    if function == "carry-network":
        return [("a", "Z"), ("b", "B")]
    pairs = [("a", "A"), ("b", "B")]
    if incoming_carry:
        pairs.append(("y", "Y"))
    return pairs


def _width(op: str, n: int) -> int:
    return 1 if op == "y" else n


def check_inputs(circuit: Circuit, variant_id: str, n: int) -> None:
    """Raise :class:`CircuitError` unless the circuit declares every register
    the variant reads at width ``n`` (the carry-in ``Y`` at width 1)."""
    pairs = input_registers(variant_id)
    missing = [reg for _, reg in pairs if reg not in circuit.layout]
    if missing:
        raise CircuitError(f"{variant_id} reads register {missing[0]}, which "
                           f"the circuit does not declare")
    for op, reg in pairs:
        size, want = circuit.layout[reg].size, _width(op, n)
        if size != want:
            raise CircuitError(f"{variant_id} n={n} reads {reg}[{want}], but "
                               f"the circuit declares {reg}[{size}]")


def _operand_bits(variant_id: str, n: int, a: int, b: int,
                  y: int) -> list[int]:
    """Input bits in :func:`input_registers` order, LSB first; raises
    :class:`CircuitError` unless ``a``, ``b`` fit in ``n`` bits, ``y`` in
    one."""
    ops = {"a": a, "b": b, "y": y}
    for op, value in ops.items():
        top = 1 << _width(op, n)
        if not 0 <= value < top:
            raise CircuitError(f"operand {op}={value} out of range [0, {top})")
    return [(ops[op] >> i) & 1 for op, _ in input_registers(variant_id)
            for i in range(_width(op, n))]


def _carries(g: Iterable[int], p: Iterable[int], c: int) -> Iterator[int]:
    """Yield each position's carry-out column, ``c = g ^ (p & c)`` from
    carry-in column ``c``; no pass holds every carry, and ``g`` may be
    made as it is read."""
    for gi, pi in zip(g, p):
        c = gi ^ (pi & c)
        yield c


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
    function, in_place, incoming_carry, zero_rep = variant_fields(variant_id)
    if function == "carry-network":
        return {"B": list(b), "Z": list(_carries(a, b, 0)), "X": []}
    out = {"A": list(a), "X": []}
    if incoming_carry:
        out["Y"] = [y]
    else:
        y = 0
    if function == "add-mod2n":
        s = _ripple(a, b, y)[:n]
    elif function == "add":
        s = _ripple(a, b, y)
    elif function == "subtract":  # 2^n + a - b = a + ~b + 1
        s = _ripple(a, [mask ^ x for x in b], mask)
    elif function == "compare":  # a >= b + y: carry of a + ~b + ~y
        s = _ripple(a, [mask ^ x for x in b], mask ^ y)[n:]
    else:  # add-mersenne: a + b + W mod 2^n, W the wrapped carry
        # p is read three times; the generate columns are made per pass,
        # so the two passes hold one column list besides the sum
        p = [x ^ z for x, z in zip(a, b)]
        w = 0  # W is the carry out of the top position, none at n = 0
        for w in _carries(map(and_, a, b), p, 0):
            pass
        zeros = zero_rep == "zeros"
        if zeros:  # a + b = 2^n - 1 is zero too, so it wraps
            w |= _all(p, mask)
        carries = _carries(map(and_, a, b), p, w)
        s = [x ^ c for x, c in zip(p, chain([w], carries))]
        if in_place:
            # b = 0 and b = 2^n - 1 produce the same sum, so a reversible
            # circuit must separate them somewhere: the non-canonical zero
            # pattern of the chosen representation parks a set wrap-carry
            # ancilla (characterized by exhaustive simulation)
            out["X"] = [_all(b if zeros else [mask ^ x for x in b], mask)]
    if in_place:  # the sum overwrites b
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
    per-position propagate string (loaded into ``B``).  Raises
    :class:`CircuitError` unless ``n >= 0``, ``a`` and ``b`` fit in ``n``
    bits and ``y`` in one; ``y`` is ignored without a carry-in.  Widths
    with no circuit, such as ``compare`` at ``n = 1``, have an oracle too.
    """
    require_int("n", n)
    if n < 0:
        raise CircuitError(f"the oracle needs n >= 0, got n={n}")
    bits = _operand_bits(variant_id, n, a, b, y)
    cols = _expected_columns(variant_id, n, bits[:n], bits[n:2 * n], y, 1)
    return {reg: _sample(c, 0) for reg, c in cols.items()}


# ---------------------------------------------------------------------------
# Operand-level interface


def _load(circuit: Circuit, variant_id: str,
          inputs: Iterable[int]) -> list[int]:
    """The columns before a run: ``inputs`` fill the input registers in
    :func:`input_registers` order, each LSB first, and every other wire is
    0.  The list ends at the highest wire that a gate or an input touches."""
    wires = [w for _, reg in input_registers(variant_id)
             for w in circuit.layout.indices(reg)]
    cols = [0] * max(circuit._span, max(wires, default=-1) + 1)
    for w, c in zip(wires, inputs):
        cols[w] = c
    return cols


def _read(circuit: Circuit, cols: list[int]) -> dict[str, list[int]]:
    """Each declared register's columns, LSB first; a bit past the end of
    ``cols`` is left out, as it reads 0."""
    offset = circuit.layout.offset
    return {r.name: cols[offset(r.name):offset(r.name) + r.size]
            for r in circuit.layout.registers}


def run_operands(circuit: Circuit, variant_id: str, a: int, b: int,
                 y: int = 0) -> dict[str, int]:
    """Run one operand assignment; returns final values per register name
    (declared bits that no gate or input touches cost nothing).  ``n`` is
    the size of ``B``, where every variant loads ``b``; raises
    :class:`CircuitError` as :func:`check_inputs` and :func:`expected_state`
    do."""
    n = circuit.layout["B"].size if "B" in circuit.layout else 0
    check_inputs(circuit, variant_id, n)
    cols = _load(circuit, variant_id, _operand_bits(variant_id, n, a, b, y))
    run_columns(circuit, cols, 1)
    return {reg: _sample(c, 0) for reg, c in _read(circuit, cols).items()}


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
                   inputs: list[int],
                   nsamples: int) -> Counterexample | None:
    """Run the input columns (in :func:`input_registers` order, each
    register LSB first) and diff every register against the oracle.

    A mismatch is reported at its lowest failing sample, in the first
    register (in layout order) that fails there.
    """
    mask = (1 << nsamples) - 1
    a, b, y = inputs[:n], inputs[n:2 * n], inputs[2 * n:] or [0]
    expected = _expected_columns(variant_id, n, a, b, y[0], mask)
    cols = _load(circuit, variant_id, inputs)
    run_columns(circuit, cols, mask)
    # every declared register, then any the oracle names that the circuit
    # lacks; a wire the circuit does not declare reads as all zeros
    got = _read(circuit, cols)
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
    return Counterexample(variant_id, n, *(_sample(c, s) for c in (a, b, y)),
                          reg, _sample(expected.get(reg, []), s),
                          _sample(got[reg], s))


@_gc_paused
def exhaustive_check(variant_id: str, n: int, *,
                     circuit: Circuit | None = None) -> Counterexample | None:
    """Check every operand combination; returns the first mismatch, if any.

    ``circuit`` is the circuit under test, by default the generated
    ``build_variant(variant_id, n)``; pass one read from elsewhere, such as
    a parsed file, to check it against the variant's oracle.  The sample
    space has ``2n`` (plus one carry-in) input bits, so this is limited to
    small widths.
    """
    require_int("n", n)
    if n > 12:
        raise CircuitError(f"exhaustive check limited to n <= 12, got n={n}")
    if circuit is None:
        circuit = build_variant(variant_id, n)
    check_inputs(circuit, variant_id, n)
    widths = [_width(op, n) for op, _ in input_registers(variant_id)]
    off = sum(widths)
    nsamples = 1 << off
    # sample index s = a concatenated with b concatenated with y, so each
    # operand bit follows a stride pattern
    inputs: list[int] = []
    for width in widths:
        off -= width
        inputs += [stride_column(off + j, nsamples) for j in range(width)]
    return _check_columns(circuit, variant_id, n, inputs, nsamples)


@_gc_paused
def random_check(variant_id: str, n: int, samples: int = 1000,
                 seed: int = 20260826) -> Counterexample | None:
    """Check a batch of uniformly random operands in one column run.

    Uniform operands are independent uniform bits, so each input column is
    drawn directly, one ``samples``-bit integer per input wire.
    """
    require_int("samples", samples)
    if samples < 1:
        raise CircuitError(f"random check needs at least one sample, "
                           f"got {samples}")
    rng = random.Random(seed)
    circuit = build_variant(variant_id, n)
    wires = sum(_width(op, n) for op, _ in input_registers(variant_id))
    inputs = [rng.getrandbits(samples) for _ in range(wires)]
    return _check_columns(circuit, variant_id, n, inputs, samples)
