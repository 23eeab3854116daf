"""Circuit IR, scheduling, inversion, constant propagation, lightcone."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcla import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Register,
    RegisterLayout,
    Role,
    build_variant,
    parse_native,
    resource_report,
    schedule_asap,
)
from qcla.adders import VARIANTS
from qcla.core import cnot, ccx, levelize, not_
from qcla.sim import run_columns, stride_column

from conftest import GRID, toffoli_depth, valid_small_widths
from helpers import constant_propagate, gate_lightcone, invert


def small_layout(size: int = 6) -> RegisterLayout:
    return RegisterLayout([Register("W", size, Role.OUTPUT)])


@st.composite
def random_gates(draw, nwires: int = 6, max_gates: int = 25):
    idx = st.integers(0, nwires - 1)
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(list(GateKind)))
        wires = draw(
            st.lists(idx, min_size=kind.num_controls + 1,
                     max_size=kind.num_controls + 1, unique=True))
        gates.append(Gate(kind, wires[:-1], wires[-1]))
    return gates


def final_columns(circuit: Circuit) -> list[int]:
    """Run on all basis states at once (wire i's input = stride pattern i)."""
    n = circuit.layout.total_size
    nsamples = 1 << n
    cols = [stride_column(i, nsamples) for i in range(n)]
    return run_columns(circuit, cols, (1 << nsamples) - 1)


# ---------------------------------------------------------------------------
# Validation


def test_gate_control_arity_is_checked():
    # when the gate is made, before any circuit holds it
    for kind, controls in [(GateKind.CNOT, ()), (GateKind.NOT, (1,)),
                           (GateKind.TOFFOLI, (1,)), (GateKind.CNOT, (1, 2)),
                           (GateKind.TOFFOLI, (1, 2, 3)), ("ccx", (1, 2))]:
        with pytest.raises(CircuitError, match="gate with controls"):
            Gate(kind, controls, 0)


def test_gate_wires_must_be_distinct():
    made = [lambda: cnot(0, 0), lambda: ccx(1, 1, 0), lambda: ccx(0, 1, 0),
            lambda: ccx(0, 1, 1), lambda: Gate(GateKind.CNOT, (3,), 3),
            lambda: Gate(GateKind.TOFFOLI, (2, 2), 0),
            lambda: Gate(GateKind.TOFFOLI, (0, 2), 2)]
    for make in made:
        with pytest.raises(CircuitError, match="must be distinct"):
            make()


def test_layout_rejects_duplicate_names_and_two_carry_ins():
    with pytest.raises(CircuitError):
        RegisterLayout([Register("A", 2, Role.INPUT_A),
                        Register("A", 3, Role.INPUT_B)])
    with pytest.raises(CircuitError):
        RegisterLayout([Register("Y", 1, Role.CARRY_IN),
                        Register("Y2", 1, Role.CARRY_IN)])


def test_circuit_rejects_foreign_wires_and_bad_barriers():
    layout = small_layout(2)
    with pytest.raises(CircuitError):
        Circuit(layout, [not_(2)])  # past the end of the layout
    with pytest.raises(CircuitError):
        Circuit(layout, [not_(("W", 0))])  # a name, not a flat index
    with pytest.raises(CircuitError):
        Circuit(layout, [not_(0)], [Barrier(5, "P")])


# each element is (maker, *args), made inside the check: a wire that is no
# int is refused when its gate is made, the rest when the circuit is
@pytest.mark.parametrize("gates,fragment", [
    ([(tuple, (GateKind.NOT, (), 0, None))], "is not a Gate"),  # equal
    ([(not_, 0), (str, "not W[1]")], "is not a Gate"),
    ([(cnot, 0, 1), (not_, 1.5)], "wire 1.5 is not a flat index"),
    ([(cnot, 0, 2), (not_, True)], "wire True is not a flat index"),
    ([(cnot, 0, "1")], "wire '1' is not a flat index"),
    ([(not_, -1)], "wire -1 is not a flat index below 3"),
    ([(cnot, 0, 1), (ccx, 0, 1, 3)], "wire 3 is not a flat index below 3"),
])
def test_circuit_rejects_a_non_gate_and_a_wire_outside_the_layout(gates,
                                                                 fragment):
    with pytest.raises(CircuitError, match=fragment):
        Circuit(small_layout(3), [make(*args) for make, *args in gates])


def test_gate_wires_must_be_ints():
    # 1.0 == 1, so a set pass over distinct wires could keep 1 and lose it
    made = [lambda: not_(1.0), lambda: cnot(True, 2), lambda: ccx(0, 1, 2.0),
            lambda: Gate(GateKind.NOT, (), 1.0),
            lambda: Gate(GateKind.TOFFOLI, (0, False), 2)]
    for make in made:
        with pytest.raises(CircuitError, match="not int"):
            make()


# ---------------------------------------------------------------------------
# Scheduling


def test_empty_circuit_has_zero_slices():
    assert schedule_asap(Circuit(small_layout(), [])) == []


def test_disjoint_cnots_share_a_slice():
    c = Circuit(small_layout(), [cnot(0, 1), cnot(2, 3)])
    assert schedule_asap(c) == [[0, 1]]


def test_wire_sharing_gates_stay_ordered():
    c = Circuit(small_layout(), [cnot(0, 1), cnot(0, 2)])
    assert schedule_asap(c) == [[0], [1]]


def test_report_memory_follows_the_gates_not_the_declared_bits():
    # the scheduler once kept one stamp per declared bit: 80 MB here
    text = ("reg A 2 input-a\nreg B 2 input-b\nreg X 10000000 ancilla\n"
            "cnot A[0] B[1]\n")
    tracemalloc.start()
    try:
        report = resource_report(parse_native(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.width == 10_000_004 and report.total_slices == 1
    assert peak < 1 << 20


@given(random_gates())
@settings(max_examples=60, deadline=None)
def test_slices_are_wire_disjoint_and_cover_in_order(gates):
    c = Circuit(small_layout(), gates)
    slices = schedule_asap(c)
    flat = [i for s in slices for i in s]
    assert flat == list(range(len(gates)))
    for s in slices:
        used = set()
        for i in s:
            wires = set(gates[i].wires)
            assert not used & wires
            used |= wires


@given(random_gates())
@settings(max_examples=40, deadline=None)
def test_levelize_preserves_semantics(gates):
    c = Circuit(small_layout(), gates)
    assert final_columns(c) == final_columns(Circuit(c.layout,
                                                     levelize(gates)))


def test_levelize_never_reorders_wire_sharing_gates():
    gates = [cnot(0, 1), cnot(2, 1), cnot(4, 5), cnot(1, 3)]
    out = levelize(gates)
    pos = {id(g): i for i, g in enumerate(out)}
    for i, a in enumerate(gates):
        for b in gates[i + 1:]:
            if set(a.wires) & set(b.wires):
                assert pos[id(a)] < pos[id(b)]


# In-order slicing reaches the Toffoli depth that the gate order allows,
# except at these widths, where it takes one Toffoli slice more (13)
SLICES_ABOVE_DEPTH = {("add-ip", 6), ("add-ip-ic", 5), ("sub-ip", 6)}


def test_toffoli_slices_equal_the_toffoli_dag_depth(grid_sweep):
    measured = {(vid, n): (grid_sweep.results[(vid, n, "depth")].measured,
                           grid_sweep.depths[(vid, n)])
                for vid in VARIANTS for n in GRID}
    for vid in VARIANTS:
        for n in valid_small_widths(vid, 6):
            circuit = build_variant(vid, n)
            measured[(vid, n)] = (resource_report(circuit).toffoli_slices,
                                  toffoli_depth(circuit))
    off = {key: (slices, depth) for key, (slices, depth) in measured.items()
           if slices != depth}
    assert off == {key: (13, 12) for key in SLICES_ABOVE_DEPTH}


# ---------------------------------------------------------------------------
# Inversion


def test_invert_is_gate_reversal():
    gates = [not_(0), cnot(0, 1), ccx(0, 1, 2)]
    c = Circuit(small_layout(3), gates)
    assert list(invert(c).gates) == gates[::-1]


@given(random_gates())
@settings(max_examples=40, deadline=None)
def test_invert_composes_to_identity(gates):
    c = Circuit(small_layout(), gates)
    cols = final_columns(c)
    n = c.layout.total_size
    run_columns(invert(c), cols, (1 << (1 << n)) - 1)
    for i in range(n):
        assert cols[i] == stride_column(i, 1 << n)


def test_invert_preserves_counts():
    c = build_variant("add-ip", 9)
    a, b = resource_report(c), resource_report(invert(c))
    assert (a.toffoli, a.cnot, a.nots) == (b.toffoli, b.cnot, b.nots)


# ---------------------------------------------------------------------------
# Resource report


def test_empty_circuit_reports_zero():
    r = resource_report(Circuit(small_layout(), []))
    assert (r.toffoli, r.cnot, r.nots, r.total_slices, r.toffoli_slices) == \
        (0, 0, 0, 0, 0)


def test_out_of_place_adder_reference_counts():
    r = resource_report(build_variant("add-oop", 10))
    assert (r.toffoli, r.cnot, r.ancilla_count) == (34, 29, 5)
    r8 = resource_report(build_variant("add-oop", 8))
    assert (r8.toffoli, r8.toffoli_slices) == (27, 8)


@given(random_gates())
@settings(max_examples=40, deadline=None)
def test_report_slice_bounds(gates):
    r = resource_report(Circuit(small_layout(), gates))
    assert r.toffoli_slices <= r.total_slices <= r.toffoli + r.cnot + r.nots


# ---------------------------------------------------------------------------
# Constant propagation


def test_toffoli_control_known_one_becomes_cnot():
    c = Circuit(small_layout(3), [ccx(0, 1, 2)])
    out = constant_propagate(c, {0: 1})
    assert [g.kind for g in out.gates] == [GateKind.CNOT]
    assert out.gates[0].controls == (1,)


def test_toffoli_control_known_zero_is_deleted():
    c = Circuit(small_layout(3), [ccx(0, 1, 2)])
    assert len(constant_propagate(c, {0: 0}).gates) == 0


def test_cnot_control_rules():
    c = Circuit(small_layout(3), [cnot(0, 1)])
    assert len(constant_propagate(c, {0: 0}).gates) == 0
    out = constant_propagate(c, {0: 1})
    assert [g.kind for g in out.gates] == [GateKind.NOT]


def test_writes_to_tracked_constants_fold_away():
    gates = [not_(0), cnot(0, 1)]  # w0 stays compile-time-known
    out = constant_propagate(Circuit(small_layout(2), gates), {0: 0})
    assert [g.kind for g in out.gates] == [GateKind.NOT]
    assert out.gates[0].target == 1


@st.composite
def gates_targeting_live_wires(draw):
    """Random gates whose targets avoid the constant wires 0..2 (writing a
    non-constant value onto a tracked constant is outside the contract)."""
    idx = st.integers(0, 5)
    live = st.integers(3, 5)
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(list(GateKind)))
        target = draw(live)
        controls = draw(st.lists(
            idx.filter(lambda i: i != target),
            min_size=kind.num_controls, max_size=kind.num_controls,
            unique=True))
        gates.append(Gate(kind, controls, target))
    return gates


@given(gates_targeting_live_wires(), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_constant_propagation_preserves_live_wires(gates, const_bits):
    c = Circuit(small_layout(), gates)
    constants = {i: (const_bits >> i) & 1 for i in range(3)}
    out = constant_propagate(c, constants)
    # exhaustive over the non-constant inputs; constants pinned to their value
    nsamples = 1 << 3
    mask = (1 << nsamples) - 1

    def run(circ):
        cols = [mask * constants[i] for i in range(3)]
        cols += [stride_column(j, nsamples) for j in range(3)]
        return run_columns(circ, cols, mask)

    got, want = run(out), run(c)
    for i in range(3, 6):
        assert got[i] == want[i]


# ---------------------------------------------------------------------------
# Lightcone


def test_lightcone_direct_writer_only():
    gates = [cnot(0, 1), cnot(2, 3)]
    assert gate_lightcone(gates, 3) == {1}


def test_lightcone_excludes_dead_gates():
    gates = [cnot(0, 1), cnot(1, 2), not_(3)]
    assert gate_lightcone(gates, 2) == {0, 1}


@given(random_gates(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_lightcone_soundness(gates, sink_idx):
    c = Circuit(small_layout(), gates)
    cone = gate_lightcone(gates, sink_idx)
    kept = Circuit(c.layout, [g for i, g in enumerate(gates) if i in cone])
    assert final_columns(c)[sink_idx] == final_columns(kept)[sink_idx]
