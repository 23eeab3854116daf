"""Log-depth carry computation over a prefix tree of propagate intervals.

Positions are 1-based: the carry array ``G[1..n]`` starts as the per-position
generate bits ``g[j-1, j]`` and ends as the carries ``c_1..c_n``; ``P_0[i]``
(``i >= 1``) is the per-position propagate bit ``a_i XOR b_i``.  Interval
propagate values ``P_t[m] = p[2^t * m, 2^t * (m+1))`` for ``t >= 1`` live in
ancilla slots, one per *cell* ``(t, m)``.

Four round families build and then uncompute the tree:

* P-rounds fuse adjacent propagate intervals,
* G-rounds push generate bits up the tree,
* C-rounds fan carries back down to the remaining positions,
* inverse P-rounds erase the interval-propagate ancillae.

``network_gates`` emits the whole tree over caller-chosen wires, and
``build_carry_network`` wraps it as the standalone ``carry-network``
circuit.  Callers give the wires as lists indexed by position (carry
position ``j``, propagate position ``i``, slot ``s``), so each round is
one ``map`` of ``ccx`` over strided slices of them.  ``PaddedRounds``
makes the rounds of a width padded up to a power of two with constant
propagate-1 / generate-0 positions (never materialized as wires), and
wraparound carries for end-around addition.
Ancilla registers are sized by counting the cells a tree enumerates
(``tree_cells``, ``padded_cells``), never by the paper's closed forms.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    InternalConsistencyError,
    Register,
    RegisterLayout,
    Role,
    ccx,
    levelize,
    retag,
)


def floor_log2(n: int) -> int:
    if n < 1:
        raise CircuitError(f"floor_log2 needs n >= 1, got {n}")
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    if n < 1:
        raise CircuitError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def tree_cells(n: int) -> list[tuple[int, int]]:
    """The interval cells ``(t, m)`` that get an ancilla slot in the
    unpadded width-``n`` tree, in slot order: ``1 <= m < floor(n/2^t)`` for
    ``1 <= t < floor(log2 n)``, ``t`` ascending, then ``m`` ascending."""
    return [(t, m) for t in range(1, n.bit_length() - 1)
            for m in range(1, n >> t)]


def network_gates(n: int, slots: Sequence[int], G: Sequence[int | None],
                  P: Sequence[int], phase: str | None = None) -> list[Gate]:
    """The full carry tree: P-rounds, G-rounds, C-rounds, inverse P-rounds.

    ``G[j]`` is the wire of carry position ``j`` (1-based; ``G[0]`` is
    never read), ``P[i]`` the wire of position-propagate index ``i``
    (``P[0]`` is never read), and ``slots[s]`` the wire of the ``s``-th
    cell of ``tree_cells(n)``.  Width 0 is the empty tree.  With ``phase``
    every gate takes that tag in place of its round's, and the inverse
    P-rounds are the P-round gates themselves.

    Gates come back in dependency-level order (see ``levelize``), which
    overlaps rounds of different families -- e.g. P-round ``t + 1`` runs
    beside G-round ``t`` -- so that in-order slicing reaches the tree's
    true depth of ``floor(log n) + floor(log(n/3)) + 3``.
    """
    # rows[t][m] is the wire of P_t[m]: position propagates, then the slots
    # of each t >= 1, whose P_t[0] has no slot
    rows: list[Sequence[int | None]] = [P[:n]]
    s = 0
    for t in range(1, n.bit_length() - 1):
        c = (n >> t) - 1
        rows.append([None, *slots[s:s + c]])
        s += c
    if len(G) <= n or len(P) < n or len(slots) < s:
        raise InternalConsistencyError("wire lists shorter than the tree")
    p_tag, g_tag, c_tag = (phase,) * 3 if phase else ("P", "G", "C")
    # each map stops at its last row slice, which holds exactly the round;
    # the longer G slices may run past it
    p_gates: list[Gate] = []
    for t in range(1, len(rows)):
        p_gates += map(ccx, rows[t - 1][2::2], rows[t - 1][3::2], rows[t][1:],
                       repeat(p_tag))
    g_gates: list[Gate] = []
    for t in range(1, len(rows) + 1):
        h = 1 << (t - 1)
        g_gates += map(ccx, G[h::2 * h], rows[t - 1][1::2], G[2 * h::2 * h],
                       repeat(g_tag))
    # the largest C-round t has 3 * 2^(t-1) <= n
    c_gates: list[Gate] = []
    for t in range((n // 3).bit_length(), 0, -1):
        h = 1 << (t - 1)
        c_gates += map(ccx, G[2 * h::2 * h], rows[t - 1][2::2],
                       G[3 * h::2 * h], repeat(c_tag))
    pinv = p_gates[::-1] if phase else retag(reversed(p_gates), "Pinv")
    return levelize(p_gates + g_gates + c_gates + pinv)


def build_carry_network(n: int) -> Circuit:
    """Standalone width-``n`` carry circuit.

    Registers: ``B[n]`` holds the position propagate bits (``B[0]`` unused),
    ``Z[n]`` holds the generate bits on entry and the carries ``c_1..c_n`` on
    exit, ``X`` holds the interval-propagate ancillae (clean in, clean out).
    """
    if n < 1:
        raise CircuitError(f"carry network needs n >= 1, got {n}")
    layout = RegisterLayout(
        [
            Register("B", n, Role.INPUT_B),
            Register("Z", n, Role.OUTPUT),
            Register("X", len(tree_cells(n)), Role.ANCILLA),
        ]
    )
    B, Z, X = (layout.indices(r) for r in "BZX")
    gates = network_gates(n, X, [None, *Z], B)
    # rounds overlap in the emitted order, so each barrier marks where its
    # round family first contributes; phase tags identify the members
    barriers = []
    seen: set[str] = set()
    for i, g in enumerate(gates):
        if g.phase is not None and g.phase not in seen:
            seen.add(g.phase)
            barriers.append(Barrier(i, g.phase))
    return Circuit(layout, gates, barriers)


def padded_cells(n: int, wrap: bool = False) -> list[tuple[int, int]]:
    """The interval cells ``(t, m)`` that get an ancilla slot in a width-``n``
    tree padded to a power of two (see ``PaddedRounds``), in slot order:
    the mixed intervals, plus the full prefixes ``m = 0`` with ``wrap``."""
    k = ceil_log2(n)
    return [(t, m) for t in range(1, k)
            for m in range(0 if wrap else 1, (1 << k) >> t)
            if m == 0 or (m << t) + (1 << (t - 1)) < n]


_CONST1 = object()


class PaddedRounds:
    """Carry-tree rounds over ``n`` real positions padded to ``N = 2^k``.

    Padding positions (``>= n``) carry constant propagate 1 / generate 0 and
    are folded away at generation time: interval values that are entirely
    padding become constants, intervals whose upper half is padding alias the
    wire of their lower half, and only genuinely mixed intervals get an
    ancilla slot and a Toffoli.

    ``G``, ``P`` and ``slots`` are wire lists as for ``network_gates``,
    with ``slots`` in ``padded_cells`` order.  The constructor makes each
    round once, as attributes that callers share and do not mutate:
    ``p_gates``, ``pinv`` (the same reversed and tagged ``Pinv``),
    ``g_gates`` with ``g_round_ends`` (the gate count after each round
    ``t``), and ``carry0_wire``, which ends up holding ``g[0, N)`` (always
    the position-``n`` carry wire).

    With ``wrap=True`` the tree also maintains the full-prefix propagate
    values ``p[0, 2^t)`` (slots ``(t, 0)``, fed from ``P[0]``), and makes
    ``fold_controls``, the two wires whose AND is ``p[0, N)``, and the
    C-rounds ``c_gates``, which produce end-around carries: ``c_j = g[0, j)
    XOR c_0 * p[0, j)`` where ``c_0`` is whatever ``carry0_wire`` holds
    after the G-rounds.
    """

    def __init__(self, n: int, G: Sequence[int | None], P: Sequence[int],
                 slots: Sequence[int], wrap: bool = False):
        if n < 2:
            raise CircuitError(f"padded rounds need n >= 2, got {n}")
        self.n = n
        self.k = ceil_log2(n)
        self.N = 1 << self.k
        self.G = G
        self.P = P
        self.slots = dict(zip(padded_cells(n, wrap), slots))
        self.p_gates = self._p_rounds()
        self.pinv = retag(reversed(self.p_gates), "Pinv")
        self.g_gates, self.g_round_ends, self.carry0_wire = self._g_rounds()
        if wrap:
            self.c_gates = self._c_rounds()
            self.fold_controls = (self.resolve_p(self.k - 1, 0),
                                  self.resolve_p(self.k - 1, 1))

    def resolve_p(self, t: int, m: int) -> int | object:
        """Wire (or constant-1 marker) holding ``p[2^t * m, 2^t * (m+1))``."""
        if t == 0:
            return _CONST1 if m >= self.n else self.P[m]
        lo = m << t
        if lo >= self.n:
            return _CONST1
        if m != 0 and lo + (1 << (t - 1)) >= self.n:
            return self.resolve_p(t - 1, 2 * m)
        return self.slots[(t, m)]

    def _p_rounds(self) -> list[Gate]:
        gates = []
        for (t, m), wire in self.slots.items():
            lo = self.resolve_p(t - 1, 2 * m)
            hi = self.resolve_p(t - 1, 2 * m + 1)
            if lo is _CONST1 or hi is _CONST1:
                raise InternalConsistencyError(
                    "constant operand for a materialized interval slot")
            gates.append(ccx(lo, hi, wire, "P"))
        return gates

    def _g_rounds(self) -> tuple[list[Gate], list[int], int]:
        home = dict(enumerate(self.G[1:self.n + 1], 1))
        gates, ends = [], []
        for t in range(1, self.k + 1):
            for m in range(self.N >> t):
                j = (m << t) + (1 << t)
                jc = j - (1 << (t - 1))
                pv = self.resolve_p(t - 1, 2 * m + 1)
                if pv is _CONST1:
                    cv = home.get(jc)
                    if cv is None:
                        continue  # control is constant 0
                    if home.get(j) is not None:
                        raise InternalConsistencyError(
                            "padding alias onto a live carry value")
                    home[j] = cv
                else:
                    gates.append(ccx(home[jc], pv, home[j], "G"))
            ends.append(len(gates))
        if home[self.N] != self.G[self.n]:
            raise InternalConsistencyError("top carry not at position n")
        return gates, ends, home[self.N]

    def _c_rounds(self) -> list[Gate]:
        c0, G, p = self.carry0_wire, self.G, self.resolve_p
        gates = []
        for t in range(self.k, 0, -1):
            h = 1 << (t - 1)
            if h < self.n:
                gates.append(ccx(c0, p(t - 1, 0), G[h], "C"))
            gates += [ccx(G[m << t], p(t - 1, 2 * m), G[(m << t) + h], "C")
                      for m in range(1, ((self.n - 1 - h) >> t) + 1)]
        return gates
