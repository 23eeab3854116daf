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
circuit.  ``PaddedRounds`` makes the rounds of a width padded up to a
power of two with constant propagate-1 / generate-0 positions (never
materialized as wires), and wraparound carries for end-around addition.
Callers give the wires as lists indexed by position (carry position
``j``, propagate position ``i``, slot ``s``).  Both trees fill one row of
wires per level, ``rows[t][m]`` for ``P_t[m]``, so each round is one
``map`` of ``ccx`` over strided slices of the rows and the carry wires.
The adders size each slot register by counting cells with ``tree_cells``
or ``padded_cells``, never by the paper's closed forms, while
``network_gates`` and ``PaddedRounds`` work out their row lengths
themselves.  A tree given fewer slots than it fills refuses its wire
lists; one given more would leave an ancilla idle, which criterion 5 of
``tests/test_acceptance.py`` rules out for every variant on the test width
grid, and ``tests/test_carry.py::test_every_ancilla_wire_is_touched`` at
the other widths n = 1..69.
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
        if g.phase not in seen:
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


class PaddedRounds:
    """Carry-tree rounds over ``n`` real positions padded to ``N = 2^k``.

    Padding positions (``>= n``) carry constant propagate 1 / generate 0.
    They are folded away once, while the rows are filled as in
    ``network_gates`` (``None`` marks a constant 1): an interval whose upper
    half is padding takes the wire of its lower half, so one that is all
    padding stays constant, and every other interval takes the next slot
    and one Toffoli.  G-rounds carry the position-``n`` wire up through the
    constant intervals.

    ``G``, ``P`` and ``slots`` are wire lists as for ``network_gates``,
    with ``slots`` in ``padded_cells`` order.  The constructor makes each
    round once, as attributes that callers share and do not mutate:
    ``p_gates``, ``pinv`` (the same reversed and tagged ``Pinv``),
    ``g_gates`` with ``g_round_ends`` (the gate count after each round
    ``t``), and ``carry0_wire``, which ends up holding ``g[0, N)`` (always
    the position-``n`` carry wire).

    With ``wrap=True`` the tree also fills the full-prefix propagate values
    ``P_t[0] = p[0, 2^t)`` (never read without it), and makes
    ``fold_controls``, the two wires whose AND is ``p[0, N)``, and the
    C-rounds ``c_gates``, which produce end-around carries: ``c_j = g[0, j)
    XOR c_0 * p[0, j)`` where ``c_0`` is whatever ``carry0_wire`` holds
    after the G-rounds.
    """

    def __init__(self, n: int, G: Sequence[int | None], P: Sequence[int],
                 slots: Sequence[int], wrap: bool = False):
        if n < 2:
            raise CircuitError(f"padded rounds need n >= 2, got {n}")
        k = ceil_log2(n)
        N = 1 << k
        self.n, self.N = n, N
        # the intervals P_t[m] whose upper half starts below n are those of
        # m < live[t]: the ones round t makes (P) or reads (G, C)
        live = [((n - 1 - (1 << t >> 1)) >> t) + 1 for t in range(k + 1)]
        first = 0 if wrap else 1
        rows: list[list[int | None]] = [[*P[:n], *repeat(None, N - n)]]
        s = 0
        self.p_gates = p_gates = []
        for t in range(1, k):
            below, c = rows[-1], live[t]
            made = slots[s:s + c - first]  # each map stops at its end
            s += c - first
            p_gates += map(ccx, below[2 * first::2], below[2 * first + 1::2],
                           made, repeat("P"))
            rows.append([*repeat(None, first), *made, *below[2 * c::2]])
        if len(G) <= n or len(P) < n or len(slots) < s:
            raise InternalConsistencyError("wire lists shorter than the tree")
        self.pinv = retag(reversed(p_gates), "Pinv")
        # home[j] is the wire of carry position j; past n it is the
        # position-n wire where that has moved up, None elsewhere
        home = [*G[:n + 1], *repeat(None, N - n)]
        self.g_gates, self.g_round_ends = g_gates, ends = [], []
        for t in range(1, k + 1):
            h, c = 1 << (t - 1), live[t]
            g_gates += map(ccx, home[h::2 * h], rows[t - 1][1:2 * c:2],
                           home[2 * h::2 * h], repeat("G"))
            # upper halves from live[t] on are padding: the carry moves up
            home[(2 * c + 2) * h::2 * h] = home[(2 * c + 1) * h::2 * h]
            ends.append(len(g_gates))
        if home[N] != G[n]:
            raise InternalConsistencyError("top carry not at position n")
        c0 = self.carry0_wire = home[N]
        if wrap:
            self.c_gates = c_gates = []
            for t in range(k, 0, -1):
                h, c = 1 << (t - 1), live[t]
                c_gates += map(ccx, [c0, *G[2 * h::2 * h]],
                               rows[t - 1][:2 * c:2], G[h::2 * h],
                               repeat("C"))
            self.fold_controls = rows[k - 1][:2]
