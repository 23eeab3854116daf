"""Classical simulation of NOT/CNOT/Toffoli circuits.

The simulator runs many computational-basis samples at once: each wire is
represented by one arbitrary-precision integer whose bit ``s`` is the wire's
value in sample ``s``, so a CNOT is one XOR and a Toffoli one AND plus one
XOR across every sample simultaneously.  Exhaustive checks enumerate all
operand combinations as stride patterns; randomized checks pack a batch of
random operands into the same column form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .adders import build_variant, request_for
from .core import Circuit, CircuitError, Gate, GateKind, Wire

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


def carry_bits(g: int, p: int, n: int) -> int:
    """Carries ``c_1..c_n`` (bit ``j-1`` = ``c_j``) from per-position
    generate/propagate bit strings, with zero incoming carry."""
    c = 0
    out = 0
    for j in range(n):
        c = ((g >> j) & 1) ^ (((p >> j) & 1) & c)
        out |= c << j
    return out


# ---------------------------------------------------------------------------
# Column simulation


def zero_columns(circuit: Circuit) -> dict[Wire, int]:
    return {w: 0 for w in circuit.layout.all_wires()}


def run_columns(
    circuit: Circuit,
    cols: dict[Wire, int],
    mask: int,
    gates: Sequence[Gate] | None = None,
) -> dict[Wire, int]:
    """Apply the gates to bit columns in place; ``mask`` covers all samples."""
    not_kind, cnot_kind = GateKind.NOT, GateKind.CNOT
    for kind, controls, target, _ in circuit.gates if gates is None else gates:
        if kind is not_kind:
            cols[target] ^= mask
        elif kind is cnot_kind:
            cols[target] ^= cols[controls[0]]
        else:
            cols[target] ^= cols[controls[0]] & cols[controls[1]]
    return cols


def run_state(circuit: Circuit, values: Mapping[Wire, int]) -> dict[Wire, int]:
    """Run a single sample given per-wire bit values (missing wires are 0)."""
    cols = zero_columns(circuit)
    for w, v in values.items():
        circuit.layout.flat_index(w)
        cols[w] = v & 1
    return run_columns(circuit, cols, 1)


def set_register(cols: dict[Wire, int], name: str, size: int, value: int) -> None:
    for i in range(size):
        cols[Wire(name, i)] = (value >> i) & 1


def get_register(cols: Mapping[Wire, int], name: str, size: int) -> int:
    v = 0
    for i in range(size):
        v |= (cols.get(Wire(name, i), 0) & 1) << i
    return v


# ---------------------------------------------------------------------------
# Bit packing helpers


def stride_column(bit: int, total_bits: int) -> int:
    """Column whose sample-``s`` bit is bit ``bit`` of ``s`` (``total_bits``
    must be a multiple of ``2^(bit+1)``)."""
    block = 1 << bit
    rep = ((1 << total_bits) - 1) // ((1 << (2 * block)) - 1)
    return rep * (((1 << block) - 1) << block)


def pack_bits(bits: np.ndarray) -> int:
    """A 0/1 uint8 array (sample ``s`` at index ``s``) as a column integer."""
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def values_to_columns(values: Sequence[int], nbits: int) -> list[int]:
    """Transpose per-sample integers into ``nbits`` per-bit columns."""
    nbytes = (nbits + 7) // 8
    rows = np.zeros((len(values), nbytes), dtype=np.uint8)
    for s, v in enumerate(values):
        rows[s] = np.frombuffer(v.to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    return [pack_bits(np.ascontiguousarray(bits[:, j])) for j in range(nbits)]


def columns_to_values(cols: Sequence[int], nsamples: int) -> list[int]:
    """Inverse of :func:`values_to_columns`."""
    nsbytes = (nsamples + 7) // 8
    mat = np.zeros((len(cols), nsbytes), dtype=np.uint8)
    for j, c in enumerate(cols):
        mat[j] = np.frombuffer(c.to_bytes(nsbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(mat, axis=1, bitorder="little")[:, :nsamples]
    out = []
    for s in range(nsamples):
        col = np.packbits(np.ascontiguousarray(bits[:, s]), bitorder="little")
        out.append(int.from_bytes(col.tobytes(), "little"))
    return out


# ---------------------------------------------------------------------------
# Operand-level interface


def uses_carry_in(variant_id: str) -> bool:
    return variant_id.endswith("-ic")


def _mersenne_sum(n: int, a: int, b: int, zeros: bool) -> int:
    s = a + b
    if s >= (1 << n):
        s -= (1 << n) - 1
    elif zeros and s == (1 << n) - 1:
        # the all-propagate correction only fires when no wraparound occurred
        s = 0
    return s


def expected_state(variant_id: str, n: int, a: int, b: int,
                   y: int = 0) -> dict[str, int]:
    """Expected final register values for one operand assignment.

    For ``carry-network`` the parameters are reinterpreted: ``a`` is the
    per-position generate string (loaded into ``Z``) and ``b`` the
    per-position propagate string (loaded into ``B``).
    """
    mask = (1 << n) - 1
    if variant_id == "carry-network":
        return {"B": b, "Z": carry_bits(a, b, n), "X": 0}
    out = {"A": a, "X": 0}
    if uses_carry_in(variant_id):
        out["Y"] = y
    else:
        y = 0
    if variant_id in ("add-oop", "add-oop-ic"):
        out["B"] = b
        out["Z"] = a + b + y
    elif variant_id in ("add-ip", "add-ip-ic"):
        out["B"] = (a + b + y) & mask
        out["Z"] = (a + b + y) >> n
    elif variant_id in ("add-mod2n-oop", "add-mod2n-oop-ic"):
        out["B"] = b
        out["Z"] = (a + b + y) & mask
    elif variant_id in ("add-mod2n-ip", "add-mod2n-ip-ic"):
        out["B"] = (a + b + y) & mask
    elif variant_id == "sub-oop":
        out["B"] = b
        out["Z"] = (1 << n) + a - b
    elif variant_id == "sub-ip":
        out["B"] = (a - b) & mask
        out["Z"] = int(a >= b)
    elif variant_id in ("compare", "compare-ic"):
        out["B"] = b
        out["Z"] = int(a >= b + y)
    elif variant_id.startswith("mersenne-"):
        zeros = variant_id.endswith("zeros")
        s = _mersenne_sum(n, a, b, zeros)
        if "-ip-" in variant_id:
            out["B"] = s
            # b = 0 and b = 2^n - 1 produce the same sum, so a reversible
            # circuit must separate them somewhere: the non-canonical zero
            # pattern of the chosen representation parks a set wrap-carry
            # ancilla (characterized by exhaustive simulation)
            out["X"] = int(b == (mask if zeros else 0))
        else:
            out["B"] = b
            out["Z"] = s
    else:
        raise CircuitError(f"unknown variant {variant_id!r}")
    return out


def input_registers(variant_id: str) -> list[tuple[str, str]]:
    """(operand, register) pairs consumed by a variant."""
    if variant_id == "carry-network":
        return [("a", "Z"), ("b", "B")]
    pairs = [("a", "A"), ("b", "B")]
    if uses_carry_in(variant_id):
        pairs.append(("y", "Y"))
    return pairs


def run_operands(circuit: Circuit, variant_id: str, a: int, b: int,
                 y: int = 0) -> dict[str, int]:
    """Run one operand assignment; returns final values per register name."""
    cols = zero_columns(circuit)
    ops = {"a": a, "b": b, "y": y}
    for op, reg in input_registers(variant_id):
        set_register(cols, reg, circuit.layout[reg].size, ops[op])
    run_columns(circuit, cols, 1)
    return {
        r.name: get_register(cols, r.name, r.size)
        for r in circuit.layout.registers
    }


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


def _check_columns(
    circuit: Circuit,
    variant_id: str,
    n: int,
    cols: dict[Wire, int],
    a_arr: np.ndarray | Sequence[int],
    b_arr: np.ndarray | Sequence[int],
    y_arr: np.ndarray | Sequence[int],
    nsamples: int,
    exact_int: bool,
) -> Counterexample | None:
    """Run pre-loaded columns and diff every wire against the oracle."""
    mask = (1 << nsamples) - 1
    run_columns(circuit, cols, mask)
    layout = circuit.layout
    if exact_int:
        # operands fit in uint64: vectorize the oracle with numpy
        a_arr = np.asarray(a_arr, dtype=np.uint64)
        b_arr = np.asarray(b_arr, dtype=np.uint64)
        y_arr = np.asarray(y_arr, dtype=np.uint64)
        expected = _vector_expected(variant_id, n, a_arr, b_arr, y_arr)
        bad = 0
        bad_wire: dict[Wire, int] = {}
        for reg in layout.registers:
            vals = expected[reg.name]
            for i in range(reg.size):
                exp_col = pack_bits(((vals >> np.uint64(i)) & np.uint64(1)))
                diff = (cols[Wire(reg.name, i)] ^ exp_col) & mask
                if diff:
                    bad_wire[Wire(reg.name, i)] = diff
                    bad |= diff
        if not bad:
            return None
        s = (bad & -bad).bit_length() - 1
        a0, b0, y0 = int(a_arr[s]), int(b_arr[s]), int(y_arr[s])
        exp = expected_state(variant_id, n, a0, b0, y0)
        reg = next(w for w, d in bad_wire.items() if (d >> s) & 1).register
        got = 0
        for i in range(layout[reg].size):
            got |= ((cols[Wire(reg, i)] >> s) & 1) << i
        return Counterexample(variant_id, n, a0, b0, y0, reg,
                              exp.get(reg, 0), got)
    # wide operands: decode sample values and compare in Python
    for reg in layout.registers:
        vals = columns_to_values(
            [cols[Wire(reg.name, i)] for i in range(reg.size)], nsamples)
        for s, got in enumerate(vals):
            exp = expected_state(variant_id, n, int(a_arr[s]), int(b_arr[s]),
                                 int(y_arr[s]))
            if got != exp.get(reg.name, 0):
                return Counterexample(variant_id, n, int(a_arr[s]),
                                      int(b_arr[s]), int(y_arr[s]), reg.name,
                                      exp.get(reg.name, 0), got)
    return None


def _vector_expected(variant_id: str, n: int, a: np.ndarray, b: np.ndarray,
                     y: np.ndarray) -> dict[str, np.ndarray]:
    mask = np.uint64((1 << n) - 1)
    zero = np.zeros_like(a)
    if variant_id == "carry-network":
        c = zero.copy()
        out = zero.copy()
        for j in range(n):
            c = ((a >> np.uint64(j)) & np.uint64(1)) ^ (
                ((b >> np.uint64(j)) & np.uint64(1)) & c)
            out |= c << np.uint64(j)
        return {"B": b, "Z": out, "X": zero}
    exp: dict[str, np.ndarray] = {"A": a, "X": zero, "Y": y}
    s = a + b + y
    if variant_id in ("add-oop", "add-oop-ic"):
        exp["B"], exp["Z"] = b, s
    elif variant_id in ("add-ip", "add-ip-ic"):
        exp["B"], exp["Z"] = s & mask, s >> np.uint64(n)
    elif variant_id in ("add-mod2n-oop", "add-mod2n-oop-ic"):
        exp["B"], exp["Z"] = b, s & mask
    elif variant_id in ("add-mod2n-ip", "add-mod2n-ip-ic"):
        exp["B"] = s & mask
    elif variant_id == "sub-oop":
        exp["B"], exp["Z"] = b, np.uint64(1 << n) + a - b
    elif variant_id == "sub-ip":
        exp["B"] = (a - b) & mask
        exp["Z"] = (a >= b).astype(np.uint64)
    elif variant_id in ("compare", "compare-ic"):
        exp["B"], exp["Z"] = b, (a >= b + y).astype(np.uint64)
    else:  # mersenne
        wrapped = s >= np.uint64(1 << n)
        t = np.where(wrapped, s - mask, s)
        if variant_id.endswith("zeros"):
            t = np.where(~wrapped & (t == mask), zero, t)
        if "-ip-" in variant_id:
            exp["B"] = t
            bad = np.uint64(mask if variant_id.endswith("zeros") else 0)
            exp["X"] = (b == bad).astype(np.uint64)
        else:
            exp["B"], exp["Z"] = b, t
    return exp


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
        raise CircuitError("exhaustive check limited to n <= 12")
    if circuit is None:
        circuit = build_variant(variant_id, n)
    pairs = input_registers(variant_id)
    widths = {"a": n, "b": n, "y": 1}
    total_bits = sum(widths[op] for op, _ in pairs)
    nsamples = 1 << total_bits
    cols = zero_columns(circuit)
    # operand bit j of the field at offset `off` follows stride pattern
    # (sample index s = a concatenated with b concatenated with y)
    off = total_bits
    fields: dict[str, tuple[int, int]] = {}
    for op, reg in pairs:
        off -= widths[op]
        fields[op] = (off, widths[op])
        for j in range(widths[op]):
            cols[Wire(reg, j)] = stride_column(off + j, nsamples)
    s = np.arange(nsamples, dtype=np.uint64)

    def field(op: str) -> np.ndarray:
        if op not in fields:
            return np.zeros_like(s)
        lo, w = fields[op]
        return (s >> np.uint64(lo)) & np.uint64((1 << w) - 1)

    return _check_columns(circuit, variant_id, n, cols, field("a"), field("b"),
                          field("y"), nsamples, exact_int=True)


def random_check(variant_id: str, n: int, samples: int = 1000,
                 seed: int = 20260826) -> Counterexample | None:
    """Check a batch of uniformly random operands in one column run."""
    rng = np.random.default_rng(seed)
    nbytes = (n + 7) // 8
    mask = (1 << n) - 1

    def draw() -> list[int]:
        raw = rng.integers(0, 256, size=(samples, nbytes), dtype=np.uint8)
        return [int.from_bytes(raw[i].tobytes(), "little") & mask
                for i in range(samples)]

    a_vals, b_vals = draw(), draw()
    y_vals = ([int(v) for v in rng.integers(0, 2, size=samples)]
              if uses_carry_in(variant_id) else [0] * samples)
    circuit = build_variant(variant_id, n)
    cols = zero_columns(circuit)
    for op, reg in input_registers(variant_id):
        vals = {"a": a_vals, "b": b_vals, "y": y_vals}[op]
        w = circuit.layout[reg].size
        for j, col in enumerate(values_to_columns(vals, w)):
            cols[Wire(reg, j)] = col
    return _check_columns(circuit, variant_id, n, cols, a_vals, b_vals,
                          y_vals, samples, exact_int=n <= 12)


def permutation_check(circuit: Circuit) -> bool:
    """Whether the circuit permutes the full computational basis.

    Enumerates every basis state, so the total width is limited to 20 wires.
    """
    width = circuit.layout.total_size
    if width > 20:
        raise CircuitError("permutation check limited to 20 wires")
    nsamples = 1 << width
    wires = circuit.layout.all_wires()
    cols = {w: stride_column(i, nsamples) for i, w in enumerate(wires)}
    run_columns(circuit, cols, (1 << nsamples) - 1)
    nsbytes = nsamples // 8 if nsamples >= 8 else 1
    out = np.zeros(nsamples, dtype=np.uint32)
    for i, w in enumerate(wires):
        raw = np.frombuffer(
            cols[w].to_bytes(max(nsbytes, 1), "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[:nsamples]
        out |= bits.astype(np.uint32) << np.uint32(i)
    return len(np.unique(out)) == nsamples
