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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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

FUNCTIONS = ("add", "add-mod2n", "add-mersenne", "subtract", "compare")
ZERO_REPS = ("ones", "zeros")


@dataclass(frozen=True)
class AdderRequest:
    """A validated description of one arithmetic circuit."""

    n: int
    function: str
    in_place: bool = False
    incoming_carry: bool = False
    zero_rep: str | None = None

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise CircuitError(f"unknown function {self.function!r}")
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
        return next(vid for vid, f in _VARIANT_FIELDS.items() if f == fields)


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


def _circuit(layout: RegisterLayout, gates: list[Gate]) -> Circuit:
    """The one ``Circuit`` a build makes: its gates are checked here."""
    return Circuit(layout, gates, _phase_barriers(gates))


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


def _out_of_place(n: int, w: int,
                  incoming_carry: bool) -> tuple[RegisterLayout, list[Gate]]:
    """``Z[0..w]`` = the low ``w`` sum bits and the carry into bit ``w``;
    when ``w < n``, ``Z[w]`` then takes the two operand bits of position
    ``w`` too, which makes it the sum bit mod ``2^(w+1)``.

    Generate bits go to ``Z``, propagate bits onto ``B``, the width-``w``
    tree (``w + 1`` on doubled operands, where the seed CNOT from ``Y``
    replaces the position-0 Toffoli) turns ``Z`` into carries, and
    ``B`` is folded in as the sum and restored.
    """
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


def gen_add_oop(n: int, incoming_carry: bool = False) -> Circuit:
    """``Z = A + B (+ Y)`` with ``A``, ``B`` (and ``Y``) preserved.

    ``Z`` has ``n + 1`` wires; the top one is the carry-out.  With an
    incoming carry the circuit is the width-``n+1`` adder on the doubled
    operands ``2a + y`` and ``2b + y`` with the (always zero) low sum bit
    elided, which trades the position-0 Toffoli for a carry-seed CNOT.
    """
    return _circuit(*_out_of_place(n, n, incoming_carry))


def gen_add_ip(n: int, incoming_carry: bool = False) -> Circuit:
    """``B = (A + B (+ Y)) mod 2^n`` with carry-out in ``Z[0]``.

    The carry string is computed with a forward width-``m`` tree and erased
    with the inverse width-``m-1`` tree running on ``A`` and the bitwise
    complement of the low sum bits.  With an incoming carry the circuit is
    the width-``n+1`` form on doubled operands; the position-1 carry wire is
    the carry-in ``Y`` itself (it is only ever read).
    """
    return _circuit(*_add_ip(n, incoming_carry))


def _add_ip(n: int,
            incoming_carry: bool) -> tuple[RegisterLayout, list[Gate]]:
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


# ---------------------------------------------------------------------------
# Addition mod 2^n


def gen_add_mod2n(n: int, in_place: bool = False,
                  incoming_carry: bool = False) -> Circuit:
    """Addition discarding the carry-out: ``(a + b (+ y)) mod 2^n``."""
    if in_place:
        return _gen_mod2n_ip(n, incoming_carry)
    # the n - 1 low sum bits and Z[n-1] = c_{n-1}, into which a_{n-1} and
    # b_{n-1} are then folded as the top sum bit
    return _circuit(*_out_of_place(n, n - 1, incoming_carry))


def _gen_mod2n_ip(n: int, incoming_carry: bool) -> Circuit:
    # In-place form with both carry trees of width n-1 (or width n on the
    # doubled operands when a carry comes in); no carry-out wire at all.
    lo = int(incoming_carry)
    m = n - 1 + lo  # width of both carry trees
    layout = _layout(n, 0, n - 1 + interval_slot_count(m), incoming_carry)
    A, B, _, X, Y = _registers(layout)
    _, bw, _ = _positions(A, B, Y)
    gw = _carry_homes(layout)
    tree = network_gates(m, X[n - 1:].__getitem__, gw, bw)
    return _circuit(layout, _in_place(layout, gw, m, tree, tree,
                                      sums=range(1, m + 1),
                                      erase=range(lo, m), fixes=range(1, m)))


# ---------------------------------------------------------------------------
# Subtraction


def gen_sub(n: int, in_place: bool = False) -> Circuit:
    """Two's-complement subtraction via complemented addition.

    Out of place: ``Z = 2^n + a - b`` on ``n + 1`` wires (top bit set iff
    ``a >= b``).  In place: ``B = (a - b) mod 2^n`` with ``Z[0] = [a >= b]``.
    """
    layout, gates = (_add_ip(n, False) if in_place
                     else _out_of_place(n, n, False))
    A, B, Z, _, _ = _registers(layout)
    pre = [not_(a, "negate") for a in A]
    post = [not_(a, "negate") for a in A]
    if in_place:
        post += [not_(b, "negate") for b in B]
    post += [not_(z, "negate") for z in Z]
    return _circuit(layout, pre + gates + post)


# ---------------------------------------------------------------------------
# Comparison


def gen_compare(n: int, incoming_carry: bool = False) -> Circuit:
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
    return _circuit(layout, gates)


# ---------------------------------------------------------------------------
# Addition mod 2^n - 1 (end-around carry)


def gen_add_mersenne(n: int, in_place: bool = False,
                     zero_rep: str = "ones") -> Circuit:
    """One's-complement addition: ``a + b mod 2^n - 1``.

    ``zero_rep`` selects which bit pattern represents zero on the all-ones /
    all-zeros boundary: with ``"ones"`` the sum of complementary operands is
    the all-ones string, with ``"zeros"`` (one extra Toffoli folding the
    full-width propagate into the wrapped carry) it is the all-zeros string.
    """
    if zero_rep not in ZERO_REPS:
        raise CircuitError(f"zero_rep must be one of {ZERO_REPS}")
    if in_place:
        return _gen_mersenne_ip(n, zero_rep)
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
    return _circuit(layout, gates)


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


def _gen_mersenne_ip(n: int, zero_rep: str) -> Circuit:
    # Forward end-around addition in the requested representation, then the
    # carries are erased by inverting the *other* representation's rounds on
    # A and the complemented sum.  Carry homes are X[0..n-1]; position n
    # wraps to X[0], which is also c_0, so every position sums and erases.
    layout = _layout(n, 0, n + len(padded_cells(n, wrap=True)), False)
    _, B, _, X, _ = _registers(layout)
    gw = [*X[:n], X[0]].__getitem__
    rounds = PaddedRounds(n, gw, B.__getitem__, X[n:].__getitem__, wrap=True)
    other = "zeros" if zero_rep == "ones" else "ones"
    fwd = _mersenne_rounds(rounds, gw(n), zero_rep)
    back = _mersenne_rounds(rounds, gw(n), other)
    every = range(n)
    return _circuit(layout, _in_place(layout, gw, n, fwd, back, sums=every,
                                      erase=every, fixes=every))


# ---------------------------------------------------------------------------
# Dispatch

# variant id -> AdderRequest fields (function, in_place, incoming_carry,
# zero_rep); "carry-network" is handled separately (it is not an adder).
_VARIANT_FIELDS: dict[str, tuple[str, bool, bool, str | None]] = {
    "add-oop": ("add", False, False, None),
    "add-oop-ic": ("add", False, True, None),
    "add-ip": ("add", True, False, None),
    "add-ip-ic": ("add", True, True, None),
    "add-mod2n-oop": ("add-mod2n", False, False, None),
    "add-mod2n-oop-ic": ("add-mod2n", False, True, None),
    "add-mod2n-ip": ("add-mod2n", True, False, None),
    "add-mod2n-ip-ic": ("add-mod2n", True, True, None),
    "sub-oop": ("subtract", False, False, None),
    "sub-ip": ("subtract", True, False, None),
    "compare": ("compare", False, False, None),
    "compare-ic": ("compare", False, True, None),
    "mersenne-oop-ones": ("add-mersenne", False, False, "ones"),
    "mersenne-oop-zeros": ("add-mersenne", False, False, "zeros"),
    "mersenne-ip-ones": ("add-mersenne", True, False, "ones"),
    "mersenne-ip-zeros": ("add-mersenne", True, False, "zeros"),
}

VARIANTS = ("carry-network",) + tuple(_VARIANT_FIELDS)


def request_for(variant_id: str, n: int) -> AdderRequest:
    """The request corresponding to a variant id (not ``carry-network``)."""
    if variant_id not in _VARIANT_FIELDS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    function, in_place, ic, zero_rep = _VARIANT_FIELDS[variant_id]
    return AdderRequest(n, function, in_place, ic, zero_rep)


def build_variant(variant_id: str, n: int) -> Circuit:
    """Build any variant, including the bare carry network."""
    if variant_id == "carry-network":
        return build_carry_network(n)
    return build(request_for(variant_id, n))


def build(request: AdderRequest) -> Circuit:
    """Build the circuit described by a request."""
    n = request.n
    if request.function == "add":
        if request.in_place:
            return gen_add_ip(n, request.incoming_carry)
        return gen_add_oop(n, request.incoming_carry)
    if request.function == "add-mod2n":
        return gen_add_mod2n(n, request.in_place, request.incoming_carry)
    if request.function == "add-mersenne":
        return gen_add_mersenne(n, request.in_place, request.zero_rep)
    if request.function == "subtract":
        return gen_sub(n, request.in_place)
    return gen_compare(n, request.incoming_carry)
