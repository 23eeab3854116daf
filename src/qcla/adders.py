"""Generators for carry-lookahead arithmetic circuits.

All circuits are built from NOT/CNOT/Toffoli gates over the canonical
register order ``A, B, Z, X, Y``:

* ``A``, ``B`` -- operand registers (LSB at index 0),
* ``Z``       -- result wires,
* ``X``       -- ancillae (clean in, clean out),
* ``Y``       -- optional single-bit incoming carry (preserved).

Variants: plain and in-place addition, addition mod ``2^n``, addition mod
``2^n - 1`` (end-around carry, in both representations of zero),
subtraction, and comparison -- each with or without an incoming carry where
that combination is defined.  The all-zeros representation costs one more
Toffoli, which folds the full-width propagate into the wrapped carry at a
G-round boundary given in closed form by ``n`` (see ``_mersenne_rounds``).

Three shared pieces build the adders:

* the *position map* (``_positions``): an incoming carry ``y`` turns an
  adder into the same adder one position wider on the doubled operands
  ``2a + y`` and ``2b + y``, so tree position ``i`` reads register bit
  ``i - lo`` with ``lo = 1``; ``_carry_homes`` places each in-place carry
  (``Y`` itself for position 1, ``Z[0]`` for a carry-out, ``X`` otherwise);
* the *out-of-place body* (``_out_of_place``): generate bits into ``Z``,
  propagate bits onto ``B``, the carry tree, the sum folded into ``Z``;
* the *in-place skeleton* (``_in_place``), in the paper's step order:
  init, forward tree, sum into ``B``, negate, fix-up + reversed tree,
  fix-up + generate erase, negate.  The second tree runs on ``A`` and the
  complemented sum, so it uncomputes the carries the first one wrote.

One table, ``_VARIANTS``, maps every variant id (the bare carry network of
``carry.py`` too) to its ``AdderRequest`` fields and its builder from ``n``:
``build`` is one lookup, and ``build_variant(id, n)`` is
``build(request_for(id, n))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable

from .carry import (
    PaddedRounds,
    WireFn,
    build_carry_network,
    interval_slot_count,
    network_gates,
    padded_cells,
)
from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    Register,
    RegisterLayout,
    Role,
    ccx,
    cnot,
    gate_lightcone,
    levelize,
    not_,
    retag,
)

FUNCTIONS = ("add", "add-mod2n", "add-mersenne", "subtract", "compare",
             "carry-network")
ZERO_REPS = ("ones", "zeros")


@dataclass(frozen=True)
class AdderRequest:
    """A validated description of one circuit: an adder or the bare carry
    network."""

    n: int
    function: str
    in_place: bool = False
    incoming_carry: bool = False
    zero_rep: str | None = None

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise CircuitError(f"unknown function {self.function!r}")
        if self.function == "carry-network" and (
                self.in_place or self.incoming_carry
                or self.zero_rep is not None):
            raise CircuitError("carry-network takes no variant flags")
        min_n = {"compare": 2, "add-mersenne": 2}.get(self.function, 1)
        if self.n < min_n:
            raise CircuitError(
                f"{self.function} requires n >= {min_n}, got {self.n}")
        if self.function == "add-mersenne":
            if self.zero_rep not in ZERO_REPS:
                raise CircuitError(
                    "add-mersenne requires zero_rep 'ones' or 'zeros'")
            if self.incoming_carry:
                raise CircuitError("add-mersenne has no incoming-carry form")
        elif self.zero_rep is not None:
            raise CircuitError("zero_rep is only meaningful for add-mersenne")
        if self.function == "compare" and self.in_place:
            raise CircuitError("compare has no in-place form")
        if self.function == "subtract" and self.incoming_carry:
            raise CircuitError("subtract has no incoming-carry form")

    @property
    def variant_id(self) -> str:
        fields = (self.function, self.in_place, self.incoming_carry,
                  self.zero_rep)
        return next(vid for vid, (f, _) in _VARIANTS.items() if f == fields)


def _seal(copies: list[Gate], block: list[Gate]) -> tuple[list[Gate], list[Gate]]:
    """Pin the seam between a pass of disjoint gates and the block after it.

    The in-order scheduler would otherwise blend the head of ``block`` into
    the last slice of ``copies``, splitting the block's first slice (and
    costing a Toffoli slice when the block is Toffolis).  Reorders both
    sides so a wire-sharing pair sits at the seam -- its copy last, its
    block gate first -- which forces the block to start on a fresh slice.
    Gates are only exchanged with wire-disjoint neighbours, so semantics
    are unchanged.
    """
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


# phase -> barrier label, where the two differ
_LABELS = {"P": "network", "G": "network", "C": "network", "Pinv": "network",
           None: ""}
_PHASE = itemgetter(3)


def _phase_barriers(gates: list[Gate]) -> list[Barrier]:
    """A barrier at each phase change; a carry tree's interleaved rounds
    (see ``network_gates``) count as one ``network`` region."""
    phases = list(map(_PHASE, gates))
    barriers = []
    i = 0
    for label, run in groupby(map(_LABELS.get, phases, phases)):
        barriers.append(Barrier(i, label))
        i += len(list(run))
    return barriers


def _layout(n: int, z: int, x: int, carry_in: bool) -> RegisterLayout:
    regs = [
        Register("A", n, Role.INPUT_A),
        Register("B", n, Role.INPUT_B),
    ]
    if z:
        regs.append(Register("Z", z, Role.OUTPUT))
    regs.append(Register("X", x, Role.ANCILLA))
    if carry_in:
        regs.append(Register("Y", 1, Role.CARRY_IN))
    return RegisterLayout(regs)


def _registers(layout: RegisterLayout) -> tuple[list[int], ...]:
    """Flat wire indices of ``A, B, Z, X, Y`` (empty for a register the
    layout lacks)."""
    return tuple(layout.indices(r) if r in layout else [] for r in "ABZXY")


def _positions(A: list[int], B: list[int],
               Y: list[int]) -> tuple[WireFn, WireFn, int]:
    """``(aw, bw, lo)``: tree position ``i`` reads register bit ``i - lo``.

    With an incoming carry ``lo = 1``: position 0 of both doubled operands
    ``2a + y`` and ``2b + y`` is the carry ``Y[0]`` itself.
    """
    return [*Y, *A].__getitem__, [*Y, *B].__getitem__, len(Y)


def _carry_homes(layout: RegisterLayout) -> WireFn:
    """Carry position -> wire for the in-place forms: ``Y[0]`` holds the
    position-1 carry when a carry comes in (it is only ever read), the
    ``n - 1`` scratch wires at the bottom of ``X`` the next positions, and
    ``Z[0]``, where the layout has it, the carry-out."""
    A, _, Z, X, Y = _registers(layout)
    homes = [*Y, *X[:len(A) - 1], *Z[:1]]
    return lambda j: homes[j - 1]


def _out_of_place(n: int, incoming_carry: bool,
                  mod2n: bool = False) -> tuple[RegisterLayout, list[Gate]]:
    """``Z = A + B (+ Y)``, mod ``2^n`` if ``mod2n``, with ``A``, ``B`` (and
    ``Y``) preserved.

    ``Z[0..w]`` = the low ``w`` sum bits and the carry into bit ``w``: for
    ``w = n``, ``Z[n]`` is the carry-out; mod ``2^n``, ``w = n - 1`` and
    ``Z[w]`` then takes the two operand bits of position ``w`` too, which
    makes it the top sum bit.

    Generate bits go to ``Z``, propagate bits onto ``B``, the width-``w``
    tree turns ``Z`` into carries, and ``B`` is folded in as the sum and
    restored.  With an incoming carry the circuit is the width-``w + 1``
    adder on the doubled operands ``2a + y`` and ``2b + y`` with the
    (always zero) low sum bit elided, which trades the position-0 Toffoli
    for a carry-seed CNOT from ``Y``.
    """
    w = n - mod2n
    m = w + int(incoming_carry)  # carry-tree width
    layout = _layout(n, w + 1, interval_slot_count(m), incoming_carry)
    A, B, Z, X, Y = _registers(layout)
    aw, bw, lo = _positions(A, B, Y)
    gw = lambda j: Z[j - lo]
    gates = [cnot(Y[0], Z[0], "init")] if lo else []
    gates += [ccx(aw(i), bw(i), gw(i + 1), "init") for i in range(lo, m)]
    gates += [cnot(aw(i), bw(i), "init") for i in range(1, m)]
    gates += network_gates(m, X.__getitem__, gw, bw)
    gates += [cnot(B[i], Z[i], "sum") for i in range(w)]
    if w and not lo:
        gates.append(cnot(A[0], Z[0], "fixup"))
    if w < n:
        gates += [cnot(r[w], Z[w], "sum") for r in (A, B)]
    gates += [cnot(aw(i), bw(i), "fixup") for i in range(1, m)]
    return layout, gates


def _in_place(layout: RegisterLayout, gw: WireFn, width: int,
              fwd: list[Gate], back: list[Gate], sums: range, erase: range,
              fixes: range) -> list[Gate]:
    """The in-place skeleton: ``B`` becomes the sum, carries are erased.

    Positions ``lo..width-1`` write their generate bits to their carry
    wires ``gw(i + 1)`` and every register position its propagate bit onto
    ``B``; ``fwd`` turns the generate bits into carries, which ``sums``
    fold into ``B``.  Negating the ``erase`` positions of ``B`` leaves
    ``A`` and the complemented sum, on which ``back`` (reversed) and the
    ``erase`` Toffolis run the carry computation backwards; the ``fixes``
    CNOTs put that computation's propagate bits on ``B`` for the reversed
    tree and take them off again.
    """
    A, B, _, _, Y = _registers(layout)
    aw, bw, lo = _positions(A, B, Y)
    n = len(A)
    gates = [ccx(aw(i), bw(i), gw(i + 1), "init") for i in range(lo, width)]
    gates += [cnot(aw(i), bw(i), "init") for i in range(lo, lo + n)]
    gates += fwd
    gates += [cnot(gw(i), bw(i), "sum") for i in sums]
    gates += [not_(bw(i), "negate") for i in erase]
    fix1, rev = _seal([cnot(aw(i), bw(i), "fixup") for i in fixes],
                      retag(reversed(back), "Pinv"))
    fix2, gen = _seal([cnot(aw(i), bw(i), "fixup") for i in fixes],
                      [ccx(aw(i), bw(i), gw(i + 1), "fixup") for i in erase])
    gates += fix1 + rev + fix2 + gen
    gates += [not_(bw(i), "negate") for i in erase]
    return gates


# ---------------------------------------------------------------------------
# Addition


def _add_ip(n: int,
            incoming_carry: bool) -> tuple[RegisterLayout, list[Gate]]:
    """``B = (A + B (+ Y)) mod 2^n`` with carry-out in ``Z[0]``.

    The carry string is computed with a forward width-``m`` tree and erased
    with the inverse width-``m-1`` tree running on ``A`` and the bitwise
    complement of the low sum bits.  With an incoming carry the circuit is
    the width-``n+1`` form on doubled operands; the position-1 carry wire is
    the carry-in ``Y`` itself (it is only ever read).
    """
    lo = int(incoming_carry)
    m = n + lo
    layout = _layout(n, 1, n - 1 + interval_slot_count(m), incoming_carry)
    A, B, _, X, Y = _registers(layout)
    _, bw, _ = _positions(A, B, Y)
    gw = _carry_homes(layout)
    slot = X[n - 1:].__getitem__  # after the n - 1 scratch carries
    return layout, _in_place(layout, gw, m, network_gates(m, slot, gw, bw),
                             network_gates(m - 1, slot, gw, bw),
                             sums=range(1, m), erase=range(lo, m - 1),
                             fixes=range(1, m - 1))


def _mod2n_ip(n: int,
              incoming_carry: bool) -> tuple[RegisterLayout, list[Gate]]:
    """``B = (A + B (+ Y)) mod 2^n`` with both carry trees of width ``n - 1``
    (``n`` on doubled operands); no carry-out wire at all."""
    lo = int(incoming_carry)
    m = n - 1 + lo  # width of both carry trees
    layout = _layout(n, 0, n - 1 + interval_slot_count(m), incoming_carry)
    A, B, _, X, Y = _registers(layout)
    _, bw, _ = _positions(A, B, Y)
    gw = _carry_homes(layout)
    tree = network_gates(m, X[n - 1:].__getitem__, gw, bw)
    return layout, _in_place(layout, gw, m, tree, tree, sums=range(1, m + 1),
                             erase=range(lo, m), fixes=range(1, m))


# ---------------------------------------------------------------------------
# Subtraction


def _sub(n: int, in_place: bool) -> tuple[RegisterLayout, list[Gate]]:
    """Two's-complement subtraction via complemented addition.

    Out of place: ``Z = 2^n + a - b`` on ``n + 1`` wires (top bit set iff
    ``a >= b``).  In place: ``B = (a - b) mod 2^n`` with ``Z[0] = [a >= b]``.
    """
    layout, gates = _add_ip(n, False) if in_place else _out_of_place(n, False)
    A, B, Z, _, _ = _registers(layout)
    pre = [not_(a, "negate") for a in A]
    post = [not_(a, "negate") for a in A]
    if in_place:
        post += [not_(b, "negate") for b in B]
    post += [not_(z, "negate") for z in Z]
    return layout, pre + gates + post


# ---------------------------------------------------------------------------
# Comparison


def _compare(n: int,
             incoming_carry: bool) -> tuple[RegisterLayout, list[Gate]]:
    """``Z[0] = [a >= b + y]`` with all other registers preserved.

    Complements ``A``, runs the carry tree padded to the next power of two
    (padding folded away at generation time), keeps only the light cone of
    the top carry in the G-rounds, undoes the non-output G-round gates, and
    uncomputes everything else.  With an incoming carry the width-``n+1``
    doubled-operand form is used; position 1's carry wire is ``Y`` itself.
    """
    m = n + int(incoming_carry)  # carry positions 1..m
    layout = _layout(n, 1, n - 1 + len(padded_cells(m)), incoming_carry)
    A, B, Z, X, Y = _registers(layout)
    aw, bw, lo = _positions(A, B, Y)
    gw = _carry_homes(layout)
    rounds = PaddedRounds(m, gw, bw, X[n - 1:].__getitem__)

    gates: list[Gate] = [not_(a, "negate") for a in A]
    gates += [ccx(aw(i), bw(i), gw(i + 1), "init") for i in range(lo, m)]
    gates += [cnot(aw(i), bw(i), "init") for i in range(1, m)]
    p_fw = rounds.p_gates()
    g_all = rounds.g_gates()
    sink = rounds.carry0_wire
    cone = gate_lightcone(g_all, sink)
    g_cone = [g for i, g in enumerate(g_all) if i in cone]
    gates += levelize(p_fw + g_cone)
    un_g = retag((g for g in reversed(g_cone) if g.target != sink), "fixup")
    p_bw = retag(reversed(p_fw), "Pinv")
    gates += levelize(un_g + p_bw)
    fix = [cnot(aw(i), bw(i), "fixup") for i in range(1, m)]
    erase = [ccx(aw(i), bw(i), gw(i + 1), "fixup") for i in range(lo, m - 1)]
    fix, erase = _seal(fix, erase)
    gates += fix + erase
    gates += [not_(a, "negate") for a in A]
    gates += [not_(Z[0], "negate")]
    return layout, gates


# ---------------------------------------------------------------------------
# Addition mod 2^n - 1 (end-around carry)


def _mersenne_oop(n: int,
                  zero_rep: str) -> tuple[RegisterLayout, list[Gate]]:
    """One's-complement addition: ``Z = a + b mod 2^n - 1``.

    ``zero_rep`` selects which bit pattern represents zero on the all-ones /
    all-zeros boundary: with ``"ones"`` the sum of complementary operands is
    the all-ones string, with ``"zeros"`` (one extra Toffoli folding the
    full-width propagate into the wrapped carry) it is the all-zeros string.
    """
    layout = _layout(n, n, len(padded_cells(n, wrap=True)), False)
    A, B, Z, X, _ = _registers(layout)
    gw = [*Z, Z[0]].__getitem__  # position n wraps onto the low sum bit
    rounds = PaddedRounds(n, gw, B.__getitem__, X.__getitem__, wrap=True)
    gates: list[Gate] = []
    gates += [ccx(A[i], B[i], gw(i + 1), "init") for i in range(n)]
    gates += [cnot(A[i], B[i], "init") for i in range(n)]
    gates += _mersenne_rounds(rounds, gw(n), zero_rep)
    gates += [cnot(B[i], Z[i], "sum") for i in range(n)]
    gates += [cnot(A[i], B[i], "fixup") for i in range(n)]
    return layout, gates


def _mersenne_rounds(rounds: PaddedRounds, wrap_wire: int,
                     zero_rep: str) -> list[Gate]:
    """P / G / wraparound-C / inverse-P rounds for one end-around addition."""
    p_fw = rounds.p_gates()
    g_fw = rounds.g_gates()
    c_fw = rounds.c_gates()
    p_bw = retag(reversed(p_fw), "Pinv")
    if zero_rep == "zeros":
        # Fold p[0, N) into the wrapped carry w before the C-rounds read
        # it.  The fold commutes with the G-round writes of w, so it may go
        # at any G-round boundary e, where the rounds are max(D, f(e) + 1 +
        # b(e)) deep: f(e) and b(e) are the longest gate chains ending on
        # its wires before e and starting from them after e.  G-round t
        # writes w iff bit t - 1 of n - 1 is set (round k always does), at
        # level t + 1.  For n > 2: D = 2k + 2, f(e) = max(k - 1, t + 1)
        # for the last such t <= e (k - 1 is the level of p[0, N/2)), and
        # b(e) = k + 1 + s(e) for the s(e) such rounds after e.  Depth D
        # needs s(e) = 1, out of reach when round k - 1 writes w; depth
        # D + 1 then needs s(e) = 2.  Either way the first shallowest e is
        # the last writing round among 1..k-2 (0 if none): the bit length
        # of n - 1 with the top two of its k bits cleared.  A search over
        # every boundary agrees for n = 2..4200; tests/test_adders.py
        # checks the widths the tests and the benchmark build.
        e = [0, *rounds.g_round_ends][
            ((rounds.n - 1) % max(rounds.N >> 2, 1)).bit_length()]
        g_fw.insert(e, ccx(*rounds.full_prefix_propagate(), wrap_wire, "C"))
    return levelize(p_fw + g_fw + c_fw + p_bw)


def _mersenne_ip(n: int,
                 zero_rep: str) -> tuple[RegisterLayout, list[Gate]]:
    """``B = a + b mod 2^n - 1``: the forward rounds in the representation
    ``zero_rep``, then the *other* representation's rounds inverted on ``A``
    and the complemented sum erase the carries.  Carry homes are
    ``X[0..n-1]``; position ``n`` wraps to ``X[0]``, which is also ``c_0``,
    so every position sums and erases."""
    layout = _layout(n, 0, n + len(padded_cells(n, wrap=True)), False)
    _, B, _, X, _ = _registers(layout)
    gw = [*X[:n], X[0]].__getitem__
    rounds = PaddedRounds(n, gw, B.__getitem__, X[n:].__getitem__, wrap=True)
    other = "zeros" if zero_rep == "ones" else "ones"
    fwd = _mersenne_rounds(rounds, gw(n), zero_rep)
    back = _mersenne_rounds(rounds, gw(n), other)
    every = range(n)
    return layout, _in_place(layout, gw, n, fwd, back, sums=every,
                             erase=every, fixes=every)


# ---------------------------------------------------------------------------
# The variant table


def _adder(make: Callable[..., tuple[RegisterLayout, list[Gate]]],
           *args: object) -> Callable[[int], Circuit]:
    """``n`` -> the circuit of the adder that ``make(n, *args)`` lays out;
    its gates are checked here, once, with a barrier at each phase change."""
    def build_adder(n: int) -> Circuit:
        layout, gates = make(n, *args)
        return Circuit(layout, gates, _phase_barriers(gates))
    return build_adder


# variant id -> (AdderRequest fields: function, in_place, incoming_carry,
# zero_rep; the builder of its circuit from n).  The order is VARIANTS'.
_VARIANTS: dict[str, tuple[tuple[str, bool, bool, str | None],
                           Callable[[int], Circuit]]] = {
    "carry-network": (("carry-network", False, False, None),
                      build_carry_network),
    "add-oop": (("add", False, False, None), _adder(_out_of_place, False)),
    "add-oop-ic": (("add", False, True, None), _adder(_out_of_place, True)),
    "add-ip": (("add", True, False, None), _adder(_add_ip, False)),
    "add-ip-ic": (("add", True, True, None), _adder(_add_ip, True)),
    "add-mod2n-oop": (("add-mod2n", False, False, None),
                      _adder(_out_of_place, False, True)),
    "add-mod2n-oop-ic": (("add-mod2n", False, True, None),
                         _adder(_out_of_place, True, True)),
    "add-mod2n-ip": (("add-mod2n", True, False, None),
                     _adder(_mod2n_ip, False)),
    "add-mod2n-ip-ic": (("add-mod2n", True, True, None),
                        _adder(_mod2n_ip, True)),
    "sub-oop": (("subtract", False, False, None), _adder(_sub, False)),
    "sub-ip": (("subtract", True, False, None), _adder(_sub, True)),
    "compare": (("compare", False, False, None), _adder(_compare, False)),
    "compare-ic": (("compare", False, True, None), _adder(_compare, True)),
    "mersenne-oop-ones": (("add-mersenne", False, False, "ones"),
                          _adder(_mersenne_oop, "ones")),
    "mersenne-oop-zeros": (("add-mersenne", False, False, "zeros"),
                           _adder(_mersenne_oop, "zeros")),
    "mersenne-ip-ones": (("add-mersenne", True, False, "ones"),
                         _adder(_mersenne_ip, "ones")),
    "mersenne-ip-zeros": (("add-mersenne", True, False, "zeros"),
                          _adder(_mersenne_ip, "zeros")),
}

VARIANTS = tuple(_VARIANTS)


def variant_fields(variant_id: str) -> tuple[str, bool, bool, str | None]:
    """A variant's ``AdderRequest`` fields but the width: ``(function,
    in_place, incoming_carry, zero_rep)``."""
    if variant_id not in _VARIANTS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    return _VARIANTS[variant_id][0]


def request_for(variant_id: str, n: int) -> AdderRequest:
    """The request corresponding to a variant id."""
    return AdderRequest(n, *variant_fields(variant_id))


def build_variant(variant_id: str, n: int) -> Circuit:
    """Build any variant, the bare carry network included."""
    return build(request_for(variant_id, n))


def build(request: AdderRequest) -> Circuit:
    """Build the circuit described by a request."""
    return _VARIANTS[request.variant_id][1](request.n)
