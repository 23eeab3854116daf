"""Standalone carry-computation network: counts, depth, semantics; the
padded rounds."""

import hashlib

import pytest

from conftest import GRID, gc_boundary_ok, idle_ancillae, valid_small_widths
from qcla import VARIANTS, CircuitError, build_variant, resource_report
from qcla.carry import (
    PaddedRounds,
    build_carry_network,
    ceil_log2,
    floor_log2,
    network_gates,
    padded_cells,
    tree_cells,
)
from qcla.core import InternalConsistencyError
from qcla.formulas import log_third, popcount
from qcla.sim import exhaustive_check


def test_width_must_be_positive():
    with pytest.raises(CircuitError):
        build_carry_network(0)


def test_network_gates_refuses_wire_lists_shorter_than_the_tree():
    # each round maps over slices of the lists, which would end early
    # instead of raising IndexError
    n, cells = 12, len(tree_cells(12))
    G, P, slots = range(1, n + 2), range(20, 20 + n), range(40, 40 + cells)
    assert (len(network_gates(n, slots, G, P))
            == len(build_carry_network(n).gates))
    for short in ((slots[1:], G, P), (slots, G[1:], P), (slots, G, P[1:])):
        with pytest.raises(InternalConsistencyError):
            network_gates(n, *short)


def test_log_helpers():
    assert [floor_log2(n) for n in (1, 2, 3, 4, 7, 8)] == [0, 1, 1, 2, 2, 3]
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 7, 8)] == [0, 1, 2, 2, 3, 3]
    assert log_third(10) == 1  # floor(log2(10/3))
    assert [log_third(n) for n in (1, 2, 3, 5, 6)] == [-2, -1, 0, 0, 1]
    with pytest.raises(CircuitError):
        log_third(0)


def test_reference_width_ten():
    r = resource_report(build_variant("carry-network", 10))
    assert r.toffoli == 24
    assert r.cnot == 0 and r.nots == 0
    assert r.total_slices == 7 and r.toffoli_slices == 7
    assert r.ancilla_count == 5


@pytest.mark.parametrize("n", range(1, 40))
def test_counts_and_depth_bound(n):
    k, w = floor_log2(n), popcount(n)
    r = resource_report(build_variant("carry-network", n))
    assert r.toffoli == max(4 * n - 3 * w - 3 * k - 1, 0)
    assert r.ancilla_count == n - w - k == len(tree_cells(n))
    depth = k + log_third(n) + 3
    if n >= 5:
        assert r.toffoli_slices == depth
    else:  # the trees degenerate below n = 5
        assert r.toffoli_slices <= depth


def test_depth_equality_widths():
    # the bound is met with equality at these widths (recorded, not assumed)
    for n, depth in [(8, 7), (10, 7), (16, 9), (32, 11), (64, 13)]:
        assert resource_report(build_variant("carry-network", n)).toffoli_slices == depth


def test_barriers_mark_every_round_family_once():
    c = build_variant("carry-network", 10)
    labels = [b.label for b in c.barriers]
    assert labels == ["P", "G", "C", "Pinv"]
    # each barrier sits at the first gate of its family
    for b in c.barriers:
        assert c.gates[b.position].phase == b.label
        assert all(g.phase != b.label for g in c.gates[: b.position])


@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_carries(n):
    assert exhaustive_check("carry-network", n) is None


@pytest.mark.parametrize("n", range(1, 9))
def test_gc_boundary_small(n):
    assert gc_boundary_ok(n)


# ---------------------------------------------------------------------------
# Padded rounds

# one SHA-256 over every round, the G-round ends and the wires the adders
# read, made before the rounds were rewritten over position-indexed rows
PADDED_WIDTHS = (*range(2, 601), 1023, 1024, 1025, 2047, 2048, 2049, 4095,
                 4096, 4097)
PADDED_DIGEST = ("c84eb1a7d6577fc9afd15beaab929ec2"
                 "7c6285615a39f06134a885a1f6d0aae4")


def padded_rounds(n, wrap, cut=""):
    """Rounds with propagates on ``0..n-1``, carries on ``n..2n-1``
    (position ``n`` on wire ``n``, as if wrapped to position 0) and slots
    from ``2n``; ``cut`` names the one list that ends a wire early."""
    lists = {"G": [*range(n, 2 * n), n], "P": range(n),
             "slots": range(2 * n, 2 * n + len(padded_cells(n, wrap)))}
    if cut:
        lists[cut] = lists[cut][:-1]
    return PaddedRounds(n, lists["G"], lists["P"], lists["slots"], wrap)


def test_padded_rounds_match_the_pinned_digest():
    digest = hashlib.sha256()
    for wrap in (False, True):
        for n in PADDED_WIDTHS:
            r = padded_rounds(n, wrap)
            # padded_cells sizes the slot register: one P gate per slot
            assert len(r.p_gates) == len(padded_cells(n, wrap)), (n, wrap)
            gates = r.p_gates + r.pinv + r.g_gates
            tail = [r.g_round_ends, r.carry0_wire]
            if wrap:
                gates += r.c_gates
                tail.append(tuple(r.fold_controls))
            for kind, controls, target, phase in gates:
                digest.update(repr((kind.value, controls, target,
                                    phase)).encode())
            digest.update(repr(tail).encode())
    assert digest.hexdigest() == PADDED_DIGEST


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("cut", ["G", "P", "slots"])
def test_padded_rounds_refuse_wire_lists_shorter_than_the_tree(wrap, cut):
    padded_rounds(9, wrap)
    with pytest.raises(InternalConsistencyError):
        padded_rounds(9, wrap, cut)


def test_every_ancilla_wire_is_touched():
    # tree_cells and padded_cells size the slot registers, while
    # network_gates and PaddedRounds work out their row lengths themselves:
    # a slot a tree is given but never fills is an idle ancilla.  Criterion 5
    # of test_acceptance checks the GRID widths; this checks the rest of 1..69
    idle = {}
    for vid in VARIANTS:
        for n in valid_small_widths(vid, 69):
            if n in GRID:
                continue
            if wires := idle_ancillae(build_variant(vid, n)):
                idle[(vid, n)] = wires
    assert idle == {}
