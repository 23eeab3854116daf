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
that combination is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carry import (
    AncillaMap,
    PaddedRounds,
    interval_slot_count,
    network_gates,
)
from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    Register,
    RegisterLayout,
    Role,
    Wire,
    asap_slices,
    ccx,
    cnot,
    count_toffoli_slices,
    levelize,
    lightcone,
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
        if self.function == "compare":
            return "compare-ic" if self.incoming_carry else "compare"
        if self.function == "add-mersenne":
            place = "ip" if self.in_place else "oop"
            return f"mersenne-{place}-{self.zero_rep}"
        base = {"add": "add", "add-mod2n": "add-mod2n", "subtract": "sub"}
        vid = f"{base[self.function]}-{'ip' if self.in_place else 'oop'}"
        return vid + ("-ic" if self.incoming_carry else "")


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
    head_wires: set[Wire] = set()
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


_ROUND_PHASES = frozenset({"P", "G", "C", "Pinv"})


def _phase_barriers(gates: list[Gate]) -> list[Barrier]:
    """A barrier at each phase change; a carry tree's interleaved rounds
    (see ``network_gates``) count as one ``network`` region."""
    barriers = []
    prev = None
    for i, (_, _, _, phase) in enumerate(gates):
        label = "network" if phase in _ROUND_PHASES else (phase or "")
        if label != prev:
            barriers.append(Barrier(i, label))
            prev = label
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


def _aw(i: int) -> Wire:
    return Wire("A", i)


def _bw(i: int) -> Wire:
    return Wire("B", i)


# ---------------------------------------------------------------------------
# Out-of-place addition


def gen_add_oop(n: int, incoming_carry: bool = False) -> Circuit:
    """``Z = A + B (+ Y)`` with ``A``, ``B`` (and ``Y``) preserved.

    ``Z`` has ``n + 1`` wires; the top one is the carry-out.  With an
    incoming carry the circuit is the width-``n+1`` adder on the doubled
    operands ``2a + y`` and ``2b + y`` with the (always zero) low sum bit
    elided, which trades the position-0 Toffoli for a carry-seed CNOT.
    """
    m = n + 1 if incoming_carry else n  # carry-tree width
    gates: list[Gate] = []
    if incoming_carry:
        gates.append(cnot(Wire("Y", 0), Wire("Z", 0), "init"))
    # generate bits, then propagate bits in place on B
    if not incoming_carry:
        gates += [ccx(_aw(i), _bw(i), Wire("Z", i + 1), "init") for i in range(n)]
        gates += [cnot(_aw(i), _bw(i), "init") for i in range(1, n)]
    else:
        gates += [ccx(_aw(i), _bw(i), Wire("Z", i + 1), "init") for i in range(n)]
        gates += [cnot(_aw(i), _bw(i), "init") for i in range(n)]
    amap = AncillaMap(m, lambda i: Wire("X", i))
    gw = (lambda j: Wire("Z", j)) if not incoming_carry else (
        lambda j: Wire("Z", j - 1))
    pw = (lambda i: _bw(i)) if not incoming_carry else (lambda i: _bw(i - 1))
    gates += network_gates(m, amap, gw, pw)
    # fold propagate bits into the carries to produce the sum
    if not incoming_carry:
        gates += [cnot(_bw(i), Wire("Z", i), "sum") for i in range(n)]
        gates += [cnot(_aw(0), Wire("Z", 0), "fixup")]
        gates += [cnot(_aw(i), _bw(i), "fixup") for i in range(1, n)]
    else:
        gates += [cnot(_bw(i), Wire("Z", i), "sum") for i in range(n)]
        gates += [cnot(_aw(i), _bw(i), "fixup") for i in range(n)]
    layout = _layout(n, n + 1, amap.count, incoming_carry)
    return Circuit(layout, gates, _phase_barriers(gates))


# ---------------------------------------------------------------------------
# In-place addition


def gen_add_ip(n: int, incoming_carry: bool = False) -> Circuit:
    """``B = (A + B (+ Y)) mod 2^n`` with carry-out in ``Z[0]``.

    The carry string is computed with a forward width-``m`` tree and erased
    with the inverse width-``m-1`` tree running on ``A`` and the bitwise
    complement of the low sum bits.  With an incoming carry the circuit is
    the width-``n+1`` form on doubled operands; the position-1 carry wire is
    the carry-in ``Y`` itself (it is only ever read).
    """
    m = n + 1 if incoming_carry else n
    slots = interval_slot_count(m)
    # scratch carry wires in X: positions 1..m-1, minus Y when it serves as
    # the position-1 carry
    ncarry = m - 2 if incoming_carry else m - 1
    layout = _layout(n, 1, ncarry + slots, incoming_carry)

    if not incoming_carry:
        def gw(j: int) -> Wire:  # carry position -> wire
            return Wire("Z", 0) if j == m else Wire("X", j - 1)
        aw, bw = _aw, _bw
        lo = 0
    else:
        def gw(j: int) -> Wire:
            if j == 1:
                return Wire("Y", 0)
            return Wire("Z", 0) if j == m else Wire("X", j - 2)
        aw = lambda i: _aw(i - 1)  # tree operand index -> register index
        bw = lambda i: _bw(i - 1)
        lo = 1

    amap = AncillaMap(m, lambda i: Wire("X", ncarry + i))
    amap_rev = AncillaMap(m - 1, lambda i: Wire("X", ncarry + i)) if m > 1 else amap

    gates: list[Gate] = []
    gates += [ccx(aw(i), bw(i), gw(i + 1), "init") for i in range(lo, m)]
    gates += [cnot(aw(i), bw(i), "init") for i in range(lo, m)]
    gates += network_gates(m, amap, gw, bw)
    gates += [cnot(gw(i), bw(i), "sum") for i in range(1, m)]
    gates += [not_(bw(i), "negate") for i in range(lo, m - 1)]
    fix1 = [cnot(aw(i), bw(i), "fixup") for i in range(1, m - 1)]
    rev: list[Gate] = []
    if m > 1:
        fwd = network_gates(m - 1, amap_rev, gw, bw)
        rev = retag(reversed(fwd), "Pinv")
    fix1, rev = _seal(fix1, rev)
    gates += fix1 + rev
    fix2 = [cnot(aw(i), bw(i), "fixup") for i in range(1, m - 1)]
    erase = [ccx(aw(i), bw(i), gw(i + 1), "fixup") for i in range(lo, m - 1)]
    fix2, erase = _seal(fix2, erase)
    gates += fix2 + erase
    gates += [not_(bw(i), "negate") for i in range(lo, m - 1)]
    return Circuit(layout, gates, _phase_barriers(gates))


# ---------------------------------------------------------------------------
# Addition mod 2^n


def gen_add_mod2n(n: int, in_place: bool = False,
                  incoming_carry: bool = False) -> Circuit:
    """Addition discarding the carry-out: ``(a + b (+ y)) mod 2^n``."""
    if in_place:
        return _gen_mod2n_ip(n, incoming_carry)
    return _gen_mod2n_oop(n, incoming_carry)


def _gen_mod2n_oop(n: int, incoming_carry: bool) -> Circuit:
    # Width-(n-1) adder producing Z[0..n-1] with Z[n-1] = c_{n-1}, then two
    # CNOTs fold a_{n-1} and b_{n-1} into the top sum bit.  With an incoming
    # carry: width-n seeded tree on doubled operands, same top-bit fold.
    m = n if incoming_carry else n - 1  # carry-tree width
    amap = AncillaMap(m, lambda i: Wire("X", i)) if m >= 1 else None
    slots = amap.count if amap else 0
    layout = _layout(n, n, slots, incoming_carry)
    zw = lambda j: Wire("Z", j - 1) if incoming_carry else Wire("Z", j)
    pw = (lambda i: _bw(i - 1)) if incoming_carry else _bw
    gates: list[Gate] = []
    if incoming_carry:
        gates.append(cnot(Wire("Y", 0), Wire("Z", 0), "init"))
        gates += [ccx(_aw(i - 1), _bw(i - 1), Wire("Z", i), "init")
                  for i in range(1, m)]
        gates += [cnot(_aw(i), _bw(i), "init") for i in range(0, m - 1)]
    else:
        gates += [ccx(_aw(i), _bw(i), Wire("Z", i + 1), "init")
                  for i in range(m)]
        gates += [cnot(_aw(i), _bw(i), "init") for i in range(1, m)]
    if m >= 1:
        gates += network_gates(m, amap, zw, pw)
    if incoming_carry:
        gates += [cnot(_bw(i), Wire("Z", i), "sum") for i in range(n - 1)]
    else:
        gates += [cnot(_bw(i), Wire("Z", i), "sum") for i in range(m)]
        if m >= 1:
            gates.append(cnot(_aw(0), Wire("Z", 0), "fixup"))
    # top sum bit: c_{n-1} XOR a_{n-1} XOR b_{n-1}
    gates.append(cnot(_aw(n - 1), Wire("Z", n - 1), "sum"))
    gates.append(cnot(_bw(n - 1), Wire("Z", n - 1), "sum"))
    if incoming_carry:
        gates += [cnot(_aw(i), _bw(i), "fixup") for i in range(0, m - 1)]
    else:
        gates += [cnot(_aw(i), _bw(i), "fixup") for i in range(1, m)]
    return Circuit(layout, gates, _phase_barriers(gates))


def _gen_mod2n_ip(n: int, incoming_carry: bool) -> Circuit:
    # In-place form with both carry trees of width n-1 (or width n on the
    # doubled operands when a carry comes in); no carry-out wire at all.
    m = n if incoming_carry else n - 1  # width of both carry trees
    slots = interval_slot_count(m) if m >= 1 else 0

    if not incoming_carry:
        gw = lambda j: Wire("X", j - 1)
        aw, bw = _aw, _bw
        lo = 0
        ncarry = m
    else:
        def gw(j: int) -> Wire:
            return Wire("Y", 0) if j == 1 else Wire("X", j - 2)
        aw = lambda i: _aw(i - 1)
        bw = lambda i: _bw(i - 1)
        lo = 1
        ncarry = m - 1
    layout = _layout(n, 0, ncarry + slots, incoming_carry)
    amap = AncillaMap(m, lambda i: Wire("X", ncarry + i)) if m >= 1 else None

    gates: list[Gate] = []
    gates += [ccx(aw(i), bw(i), gw(i + 1), "init") for i in range(lo, m)]
    gates += [cnot(aw(i), bw(i), "init") for i in range(lo, m + 1)]
    if m >= 1:
        gates += network_gates(m, amap, gw, bw)
    gates += [cnot(gw(i), bw(i), "sum") for i in range(1, m + 1)]
    gates += [not_(bw(i), "negate") for i in range(lo, m)]
    fix1 = [cnot(aw(i), bw(i), "fixup") for i in range(1, m)]
    rev: list[Gate] = []
    if m >= 1:
        fwd = network_gates(m, amap, gw, bw)
        rev = retag(reversed(fwd), "Pinv")
    fix1, rev = _seal(fix1, rev)
    gates += fix1 + rev
    fix2 = [cnot(aw(i), bw(i), "fixup") for i in range(1, m)]
    erase = [ccx(aw(i), bw(i), gw(i + 1), "fixup") for i in range(lo, m)]
    fix2, erase = _seal(fix2, erase)
    gates += fix2 + erase
    gates += [not_(bw(i), "negate") for i in range(lo, m)]
    return Circuit(layout, gates, _phase_barriers(gates))


# ---------------------------------------------------------------------------
# Subtraction


def gen_sub(n: int, in_place: bool = False) -> Circuit:
    """Two's-complement subtraction via complemented addition.

    Out of place: ``Z = 2^n + a - b`` on ``n + 1`` wires (top bit set iff
    ``a >= b``).  In place: ``B = (a - b) mod 2^n`` with ``Z[0] = [a >= b]``.
    """
    inner = gen_add_ip(n) if in_place else gen_add_oop(n)
    pre = [not_(_aw(i), "negate") for i in range(n)]
    post = [not_(_aw(i), "negate") for i in range(n)]
    if in_place:
        post += [not_(_bw(i), "negate") for i in range(n)]
        post += [not_(Wire("Z", 0), "negate")]
    else:
        post += [not_(Wire("Z", i), "negate") for i in range(n + 1)]
    gates = pre + list(inner.gates) + post
    return Circuit(inner.layout, gates, _phase_barriers(gates))


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
    m = n + 1 if incoming_carry else n  # carry positions 1..m
    ncarry = m - 2 if incoming_carry else m - 1
    if not incoming_carry:
        def gw(j: int) -> Wire:
            return Wire("Z", 0) if j == m else Wire("X", j - 1)
        aw, bw = _aw, _bw
        lo = 0
    else:
        def gw(j: int) -> Wire:
            if j == 1:
                return Wire("Y", 0)
            return Wire("Z", 0) if j == m else Wire("X", j - 2)
        aw = lambda i: _aw(i - 1)
        bw = lambda i: _bw(i - 1)
        lo = 1
    rounds = PaddedRounds(m, gw, bw,
                          lambda i: Wire("X", ncarry + i), wrap=False)
    layout = _layout(n, 1, ncarry + rounds.slot_count, incoming_carry)

    gates: list[Gate] = [not_(_aw(i), "negate") for i in range(n)]
    gates += [ccx(aw(i), bw(i), gw(i + 1), "init") for i in range(lo, m)]
    gates += [cnot(aw(i), bw(i), "init") for i in range(1, m)]
    p_fw = rounds.p_gates("P")
    g_all = rounds.g_gates("G")
    sink = rounds.carry0_wire
    cone = lightcone(Circuit(layout, g_all), sink)
    g_cone = [g for i, g in enumerate(g_all) if i in cone]
    gates += levelize(p_fw + g_cone)
    un_g = retag((g for g in reversed(g_cone) if g.target != sink), "fixup")
    p_bw = retag(reversed(p_fw), "Pinv")
    gates += levelize(un_g + p_bw)
    fix = [cnot(aw(i), bw(i), "fixup") for i in range(1, m)]
    erase = [ccx(aw(i), bw(i), gw(i + 1), "fixup") for i in range(lo, m - 1)]
    fix, erase = _seal(fix, erase)
    gates += fix + erase
    gates += [not_(_aw(i), "negate") for i in range(n)]
    gates += [not_(Wire("Z", 0), "negate")]
    return Circuit(layout, gates, _phase_barriers(gates))


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

    def gw(j: int) -> Wire:  # position n wraps onto the low sum bit
        return Wire("Z", j % n)

    rounds = PaddedRounds(n, gw, _bw, lambda i: Wire("X", i), wrap=True)
    layout = _layout(n, n, rounds.slot_count, False)
    gates: list[Gate] = []
    gates += [ccx(_aw(i), _bw(i), gw(i + 1), "init") for i in range(n)]
    gates += [cnot(_aw(i), _bw(i), "init") for i in range(n)]
    gates += _mersenne_rounds(rounds, gw(n), zero_rep)
    gates += [cnot(_bw(i), Wire("Z", i), "sum") for i in range(n)]
    gates += [cnot(_aw(i), _bw(i), "fixup") for i in range(n)]
    return Circuit(layout, gates, _phase_barriers(gates))


def _mersenne_rounds(rounds: PaddedRounds, wrap_wire: Wire,
                     zero_rep: str) -> list[Gate]:
    """P / G / wraparound-C / inverse-P rounds for one end-around addition."""
    p_fw = rounds.p_gates("P")
    g_fw = rounds.g_gates("G")
    c_fw = rounds.c_gates("C")
    p_bw = retag(reversed(p_fw), "Pinv")
    if zero_rep == "zeros":
        # fold the full-width propagate into the wrapped carry before the
        # C-rounds read it; the fold commutes with the G-round writes of
        # that wire, and its cheapest spot in their serial chain depends on
        # when its own operands settle, so try each round boundary and keep
        # the shallowest
        p0, p1 = rounds.full_prefix_propagate()
        extra = ccx(p0, p1, wrap_wire, "C")
        orders = [
            levelize(p_fw + g_fw[:e] + [extra] + g_fw[e:] + c_fw + p_bw)
            for e in [0, *rounds.g_round_ends]
        ]
        return min(orders, key=lambda order: count_toffoli_slices(
            order, asap_slices(order)))
    return levelize(p_fw + g_fw + c_fw + p_bw)


def _gen_mersenne_ip(n: int, zero_rep: str) -> Circuit:
    # Forward end-around addition in the requested representation, then the
    # carries are erased by inverting the *other* representation's rounds on
    # A and the complemented sum.

    def gw(j: int) -> Wire:  # carry homes X[0..n-1], position n wraps to X[0]
        return Wire("X", j % n)

    def ch(i: int) -> Wire:  # carry c_i
        return gw(n if i == 0 else i)

    def make_rounds() -> PaddedRounds:
        return PaddedRounds(n, gw, _bw, lambda i: Wire("X", n + i), wrap=True)

    fwd_rounds = make_rounds()
    layout = _layout(n, 0, n + fwd_rounds.slot_count, False)
    other = "zeros" if zero_rep == "ones" else "ones"
    gates: list[Gate] = []
    gates += [ccx(_aw(i), _bw(i), gw(i + 1), "init") for i in range(n)]
    gates += [cnot(_aw(i), _bw(i), "init") for i in range(n)]
    gates += _mersenne_rounds(fwd_rounds, gw(n), zero_rep)
    gates += [cnot(ch(i), _bw(i), "sum") for i in range(n)]
    gates += [not_(_bw(i), "negate") for i in range(n)]
    fix1 = [cnot(_aw(i), _bw(i), "fixup") for i in range(n)]
    fwd = _mersenne_rounds(make_rounds(), gw(n), other)
    rev = retag(reversed(fwd), "Pinv")
    fix1, rev = _seal(fix1, rev)
    gates += fix1 + rev
    fix2 = [cnot(_aw(i), _bw(i), "fixup") for i in range(n)]
    erase = [ccx(_aw(i), _bw(i), gw(i + 1), "fixup") for i in range(n)]
    fix2, erase = _seal(fix2, erase)
    gates += fix2 + erase
    gates += [not_(_bw(i), "negate") for i in range(n)]
    return Circuit(layout, gates, _phase_barriers(gates))


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

_ALIASES = {"add": "add-oop"}

VARIANTS = ("carry-network",) + tuple(_VARIANT_FIELDS)


def request_for(variant_id: str, n: int) -> AdderRequest:
    """The request corresponding to a variant id (not ``carry-network``)."""
    vid = _ALIASES.get(variant_id, variant_id)
    if vid not in _VARIANT_FIELDS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    function, in_place, ic, zero_rep = _VARIANT_FIELDS[vid]
    return AdderRequest(n, function, in_place, ic, zero_rep)


def build_variant(variant_id: str, n: int) -> Circuit:
    """Build any variant, including the bare carry network."""
    if _ALIASES.get(variant_id, variant_id) == "carry-network":
        from .carry import CarryNetworkSpec, build_carry_network

        return build_carry_network(CarryNetworkSpec(n))
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
