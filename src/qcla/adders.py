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

* the *position lists* (``_positions``): an incoming carry ``y`` turns an
  adder into the same adder one position wider on the doubled operands
  ``2a + y`` and ``2b + y``, so tree position ``i`` reads register bit
  ``i - lo`` with ``lo = 1``; ``_carry_homes`` lists each in-place carry
  wire by position (``Y`` itself for position 1, ``Z[0]`` for a carry-out,
  ``X`` otherwise).  Each step is one ``map`` of a gate factory over
  slices of these lists;
* the *out-of-place body* (``_out_of_place``): generate bits into ``Z``,
  propagate bits onto ``B``, the carry tree, the sum folded into ``Z``;
* the *in-place skeleton* (``_in_place``), in the paper's step order:
  init, forward tree, sum into ``B``, negate, fix-up + reversed tree,
  fix-up + generate erase, negate.  The second tree runs on ``A`` and the
  complemented sum, so it uncomputes the carries the first one wrote.

One table, ``_VARIANTS``, maps every variant id (the bare carry network of
``carry.py`` too) to its ``AdderRequest`` fields and its builder from ``n``.
A request is valid when its fields other than ``n`` form a row of the
table; ``build`` is one lookup, and ``build_variant(id, n)`` is
``build(request_for(id, n))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable

from .carry import (
    PaddedRounds,
    build_carry_network,
    network_gates,
    padded_cells,
    tree_cells,
)
from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    Register,
    RegisterLayout,
    Role,
    _gc_paused,
    ccx,
    cnot,
    levelize,
    not_,
    require_int,
    retag,
)

FUNCTIONS = ("add", "add-mod2n", "add-mersenne", "subtract", "compare",
             "carry-network")


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
        if self._row not in [*_IDS]:  # by ==: a field may be unhashable
            *rest, last = [_as_flags(*row[1:]) for row in _IDS
                           if row[0] == self.function]
            rows = f"{', '.join(rest)} or {last}" if rest else last
            raise CircuitError(f"{self.function} takes {rows}")
        require_int("n", self.n)
        min_n = {"compare": 2, "add-mersenne": 2}.get(self.function, 1)
        if self.n < min_n:
            raise CircuitError(
                f"{self.function} requires n >= {min_n}, got {self.n}")

    @property
    def _row(self) -> tuple[str, bool, bool, str | None]:
        return (self.function, self.in_place, self.incoming_carry,
                self.zero_rep)

    @property
    def variant_id(self) -> str:
        return _IDS[self._row]


def _as_flags(in_place: bool, incoming_carry: bool,
              zero_rep: str | None) -> str:
    """A row's variant fields as ``qcla gen`` flags."""
    flags = ["--in-place"] * in_place + ["--incoming-carry"] * incoming_carry
    flags += [f"--zero-rep {zero_rep}"] * (zero_rep is not None)
    return " ".join(flags) or "no variant flags"


def _seal(copies: list[Gate], block: list[Gate]) -> tuple[list[Gate], list[Gate]]:
    """Pin the seam between a pass of disjoint gates and the block after it.

    The in-order scheduler would otherwise blend the head of ``block`` into
    the last slice of ``copies``, splitting the block's first slice (and
    costing a Toffoli slice when the block is Toffolis).  Returns both
    sides reordered, as new lists, so a wire-sharing pair sits at the seam
    -- its copy last, its block gate first -- which forces the block to
    start on a fresh slice.  The pair is the first gate of the block's
    head (its leading run of pairwise wire-disjoint gates) that shares a
    wire with a copy, and the first such copy.  Gates are only exchanged
    with wire-disjoint neighbours, so semantics are unchanged.
    """
    first: dict[int, int] = {}  # wire -> the first copy that uses it
    for ci, (_, controls, target, _) in enumerate(copies):
        first.setdefault(target, ci)
        for c in controls:
            first.setdefault(c, ci)
    head: set[int] = set()  # the wires of the block's head so far
    for bi, (_, controls, target, _) in enumerate(block):
        wires = (*controls, target)
        if not head.isdisjoint(wires):
            break
        hits = [first[w] for w in wires if w in first]
        if hits:
            ci = min(hits)
            return (copies[:ci] + copies[ci + 1:] + [copies[ci]],
                    [block[bi]] + block[:bi] + block[bi + 1:])
        head.update(wires)
    return copies, block


# phase -> barrier label, where the two differ
_LABELS = {"P": "network", "G": "network", "C": "network", "Pinv": "network"}
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
               Y: list[int]) -> tuple[list[int], list[int], int]:
    """``(Ap, Bp, lo)``: the wires of tree positions ``0, 1, ...`` in the
    two operands, where position ``i`` is register bit ``i - lo``.

    With an incoming carry ``lo = 1``: position 0 of both doubled operands
    ``2a + y`` and ``2b + y`` is the carry ``Y[0]`` itself.
    """
    return [*Y, *A], [*Y, *B], len(Y)


def _carry_homes(layout: RegisterLayout) -> list[int | None]:
    """The wire of each carry position for the in-place forms: ``Y[0]``
    holds the position-1 carry when a carry comes in (it is only ever
    read), the ``n - 1`` scratch wires at the bottom of ``X`` the next
    positions, and ``Z[0]``, where the layout has it, the carry-out.
    Position 0 has no carry wire."""
    A, _, Z, X, Y = _registers(layout)
    return [None, *Y, *X[:len(A) - 1], *Z[:1]]


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
    layout = _layout(n, w + 1, len(tree_cells(m)), incoming_carry)
    A, B, Z, X, Y = _registers(layout)
    Ap, Bp, lo = _positions(A, B, Y)
    G = [*Y, *Z]  # carry position j is Z[j - lo]
    gates = [cnot(Y[0], Z[0], "init")] if lo else []
    gates += map(ccx, Ap[lo:m], Bp[lo:m], G[lo + 1:m + 1], repeat("init"))
    gates += map(cnot, Ap[1:m], Bp[1:m], repeat("init"))
    gates += network_gates(m, X, G, Bp)
    gates += map(cnot, B[:w], Z[:w], repeat("sum"))
    if w and not lo:
        gates.append(cnot(A[0], Z[0], "fixup"))
    if w < n:
        gates += [cnot(r[w], Z[w], "sum") for r in (A, B)]
    gates += map(cnot, Ap[1:m], Bp[1:m], repeat("fixup"))
    return layout, gates


def _in_place(layout: RegisterLayout, G: list[int | None], width: int,
              fwd: list[Gate], rev: list[Gate], sums: slice, erase: slice,
              fixes: slice) -> list[Gate]:
    """The in-place skeleton: ``B`` becomes the sum, carries are erased.

    Positions ``lo..width-1`` write their generate bits to their carry
    wires ``G[i + 1]`` and every register position its propagate bit onto
    ``B``; ``fwd`` turns the generate bits into carries, which the ``sums``
    positions fold into ``B``.  Negating the ``erase`` positions of ``B``
    leaves ``A`` and the complemented sum, on which ``rev`` (a carry tree
    reversed and tagged ``Pinv``) and the ``erase`` Toffolis run the carry
    computation backwards; the ``fixes`` CNOTs put that computation's
    propagate bits on ``B`` for the reversed tree and take them off again.
    """
    A, B, _, _, Y = _registers(layout)
    Ap, Bp, lo = _positions(A, B, Y)
    out = G[1:]  # position i's carry-out wire
    gates = [*map(ccx, Ap[lo:width], Bp[lo:width], out[lo:width],
                  repeat("init"))]
    gates += map(cnot, A, B, repeat("init"))
    gates += fwd
    gates += map(cnot, G[sums], Bp[sums], repeat("sum"))
    negate = [*map(not_, Bp[erase], repeat("negate"))]
    fix = [*map(cnot, Ap[fixes], Bp[fixes], repeat("fixup"))]
    fix1, rev = _seal(fix, rev)
    fix2, gen = _seal(fix, [*map(ccx, Ap[erase], Bp[erase], out[erase],
                                 repeat("fixup"))])
    return gates + negate + fix1 + rev + fix2 + gen + negate


# ---------------------------------------------------------------------------
# Addition


def _add_ip(n: int, incoming_carry: bool,
            mod2n: bool = False) -> tuple[RegisterLayout, list[Gate]]:
    """``B = (A + B (+ Y)) mod 2^n`` with carry-out in ``Z[0]`` (none if
    ``mod2n``).

    A forward width-``m`` tree computes the ``e`` carries below the top sum
    bit and, unless ``mod2n``, the carry-out; the inverse width-``e`` tree
    (mod ``2^n`` the same tree) erases the ``e`` on ``A`` and the
    complemented low sum bits.  With an incoming carry this is the form one
    wider on doubled operands; position 1's carry wire is the carry-in
    ``Y`` itself (only ever read).
    """
    lo = int(incoming_carry)
    e = n - 1 + lo  # carries erased
    m = e + 1 - mod2n  # forward tree width
    layout = _layout(n, 1 - mod2n, n - 1 + len(tree_cells(m)),
                     incoming_carry)
    A, B, _, X, Y = _registers(layout)
    _, Bp, _ = _positions(A, B, Y)
    G = _carry_homes(layout)
    slots = X[n - 1:]  # after the n - 1 scratch carries
    fwd = network_gates(m, slots, G, Bp)
    rev = (retag(reversed(fwd), "Pinv") if mod2n
           else network_gates(e, slots, G, Bp, "Pinv")[::-1])
    return layout, _in_place(layout, G, m, fwd, rev, sums=slice(1, e + 1),
                             erase=slice(lo, e), fixes=slice(1, e))


# ---------------------------------------------------------------------------
# Subtraction


def _sub(n: int, in_place: bool) -> tuple[RegisterLayout, list[Gate]]:
    """Two's-complement subtraction via complemented addition.

    Out of place: ``Z = 2^n + a - b`` on ``n + 1`` wires (top bit set iff
    ``a >= b``).  In place: ``B = (a - b) mod 2^n`` with ``Z[0] = [a >= b]``.
    """
    layout, gates = _add_ip(n, False) if in_place else _out_of_place(n, False)
    A, B, Z, _, _ = _registers(layout)
    negate_a = [*map(not_, A, repeat("negate"))]
    post = [*map(not_, (B if in_place else []) + Z, repeat("negate"))]
    return layout, negate_a + gates + negate_a + post


# ---------------------------------------------------------------------------
# Comparison


def _compare(n: int,
             incoming_carry: bool) -> tuple[RegisterLayout, list[Gate]]:
    """``Z[0] = [a >= b + y]`` with all other registers preserved.

    Complements ``A``, runs the P- and G-rounds of the carry tree padded to
    the next power of two (padding folded away at generation time), all on
    the top carry's path, undoes the G-round gates that write other carries,
    and uncomputes everything else.  With an incoming carry the
    width-``n+1`` doubled-operand form is used; position 1's carry wire is
    ``Y`` itself.
    """
    m = n + int(incoming_carry)  # carry positions 1..m
    layout = _layout(n, 1, n - 1 + len(padded_cells(m)), incoming_carry)
    A, B, Z, X, Y = _registers(layout)
    Ap, Bp, lo = _positions(A, B, Y)
    G = _carry_homes(layout)
    out = G[1:]  # position i's carry-out wire
    rounds = PaddedRounds(m, G, Bp, X[n - 1:])

    negate_a = [*map(not_, A, repeat("negate"))]
    gates = negate_a + [*map(ccx, Ap[lo:m], Bp[lo:m], out[lo:m],
                             repeat("init"))]
    gates += map(cnot, Ap[1:m], Bp[1:m], repeat("init"))
    gates += levelize(rounds.p_gates + rounds.g_gates)
    top = rounds.carry0_wire
    un_g = [g for g in reversed(rounds.g_gates) if g.target != top]
    gates += levelize(retag(un_g, "fixup") + rounds.pinv)
    fix, erase = _seal([*map(cnot, Ap[1:m], Bp[1:m], repeat("fixup"))],
                       [*map(ccx, Ap[lo:m - 1], Bp[lo:m - 1], out[lo:m - 1],
                             repeat("fixup"))])
    return layout, gates + fix + erase + negate_a + [not_(Z[0], "negate")]


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
    G = [*Z, Z[0]]  # position n wraps onto the low sum bit
    rounds = PaddedRounds(n, G, B, X, wrap=True)
    gates = [*map(ccx, A, B, G[1:], repeat("init"))]
    gates += map(cnot, A, B, repeat("init"))
    gates += _mersenne_rounds(rounds, zero_rep)
    gates += map(cnot, B, Z, repeat("sum"))
    gates += map(cnot, A, B, repeat("fixup"))
    return layout, gates


def _mersenne_rounds(rounds: PaddedRounds, zero_rep: str) -> list[Gate]:
    """P / G / wraparound-C / inverse-P rounds for one end-around addition:
    the ``rounds``' own gates (left as they are), with the fold Toffoli
    inserted for ``"zeros"``."""
    g_fw = rounds.g_gates
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
        fold = ccx(*rounds.fold_controls, rounds.carry0_wire, "C")
        g_fw = [*g_fw[:e], fold, *g_fw[e:]]
    return levelize(rounds.p_gates + g_fw + rounds.c_gates + rounds.pinv)


def _mersenne_ip(n: int,
                 zero_rep: str) -> tuple[RegisterLayout, list[Gate]]:
    """``B = a + b mod 2^n - 1``: the forward rounds in the representation
    ``zero_rep``, then the *other* representation's rounds inverted on ``A``
    and the complemented sum erase the carries.  Both trees share the gates
    of one ``PaddedRounds`` and differ only in the fold Toffoli and their
    levelized order.  Carry homes are ``X[0..n-1]``; position ``n``
    wraps to ``X[0]``, which is also ``c_0``, so every position sums and
    erases."""
    layout = _layout(n, 0, n + len(padded_cells(n, wrap=True)), False)
    _, B, _, X, _ = _registers(layout)
    G = [*X[:n], X[0]]
    rounds = PaddedRounds(n, G, B, X[n:], wrap=True)
    other = "zeros" if zero_rep == "ones" else "ones"
    fwd = _mersenne_rounds(rounds, zero_rep)
    rev = retag(reversed(_mersenne_rounds(rounds, other)), "Pinv")
    every = slice(n)
    return layout, _in_place(layout, G, n, fwd, rev, sums=every,
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
                     _adder(_add_ip, False, True)),
    "add-mod2n-ip-ic": (("add-mod2n", True, True, None),
                        _adder(_add_ip, True, True)),
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
# AdderRequest fields but the width -> variant id
_IDS = {fields: vid for vid, (fields, _) in _VARIANTS.items()}


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


@_gc_paused
def build(request: AdderRequest) -> Circuit:
    """Build the circuit described by a request."""
    return _VARIANTS[request.variant_id][1](request.n)
