"""Standalone carry-computation network: counts, depth, semantics."""

import pytest

from conftest import gc_boundary_ok
from qcla import CircuitError, build_variant, resource_report
from qcla.carry import (
    build_carry_network,
    ceil_log2,
    floor_log2,
    network_gates,
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
