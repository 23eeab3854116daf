"""Adder, subtractor, and comparator generators: contracts and structure."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcla.adders
import qcla.carry
import qcla.core
from qcla import (
    AdderRequest,
    CircuitError,
    GateKind,
    build,
    build_variant,
    exhaustive_check,
    expected_state,
    formula_eval,
    random_check,
    request_for,
    resource_report,
    verify_family,
)
from qcla.adders import (
    FUNCTIONS,
    VARIANTS,
    _mersenne_rounds,
    _seal,
    variant_fields,
)
from qcla.carry import PaddedRounds, padded_cells
from qcla.core import (
    Circuit,
    Register,
    RegisterLayout,
    Role,
    ccx,
    cnot,
    count_toffoli_slices,
    levelize,
    not_,
    retag,
    schedule_asap,
)
from qcla.sim import run_operands

from helpers import reference_seal


# ---------------------------------------------------------------------------
# Request validation


def test_unknown_function_rejected():
    with pytest.raises(CircuitError):
        AdderRequest(4, "multiply")


@pytest.mark.parametrize("kwargs", [
    dict(n=1, function="compare"),
    dict(n=1, function="add-mersenne", zero_rep="ones"),
    dict(n=4, function="add-mersenne"),  # missing zero_rep
    dict(n=4, function="add-mersenne", zero_rep="ones", incoming_carry=True),
    dict(n=4, function="add", zero_rep="ones"),
    dict(n=4, function="compare", in_place=True),
    dict(n=4, function="subtract", incoming_carry=True),
])
def test_invalid_requests_rejected(kwargs):
    with pytest.raises(CircuitError):
        AdderRequest(**kwargs)


@pytest.mark.parametrize("n", [4.0, "4", True, None])
def test_a_width_that_is_not_an_int_is_refused(n):
    # these once raised AttributeError or TypeError, or took True for 1
    message = f"n must be an int, got {n!r}"
    for call in (lambda: build(AdderRequest(n, "add")),
                 lambda: formula_eval("add-oop", n),
                 lambda: expected_state("add-oop", n, 1, 2),
                 lambda: exhaustive_check("add-oop", n),
                 lambda: random_check("add-oop", n)):
        with pytest.raises(CircuitError) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(CircuitError) as exc:
        random_check("add-oop", 4, samples=n)
    assert str(exc.value) == f"samples must be an int, got {n!r}"
    assert [str(r) for r in verify_family("add-oop", [n])] == [
        f"add-oop n={n} resources: not checked ({message})"]


def test_requests_are_the_rows_of_the_variant_table():
    # 6 functions x in_place x incoming_carry x 3 zero_reps = 72 requests
    accepted = set()
    for fields in product(FUNCTIONS, (False, True), (False, True),
                          (None, "ones", "zeros")):
        try:
            request = AdderRequest(8, *fields)
        except CircuitError as exc:
            assert str(exc).startswith(f"{fields[0]} takes "), exc
        else:
            assert variant_fields(request.variant_id) == fields
            accepted.add(fields)
    assert accepted == {variant_fields(vid) for vid in VARIANTS}
    assert len(accepted) == 17
    # an unhashable field once raised TypeError from the row lookup
    for kwargs in (dict(zero_rep=["ones"]), dict(in_place=[True])):
        with pytest.raises(CircuitError, match="^add takes no variant flags"):
            AdderRequest(4, "add", **kwargs)


def test_a_rejected_request_lists_its_function_as_gen_flags():
    with pytest.raises(CircuitError) as exc:
        AdderRequest(8, "compare", in_place=True)
    assert str(exc.value) == ("compare takes no variant flags or "
                              "--incoming-carry")
    with pytest.raises(CircuitError) as exc:
        AdderRequest(8, "add-mersenne", in_place=True)
    assert str(exc.value) == (
        "add-mersenne takes --zero-rep ones, --zero-rep zeros, "
        "--in-place --zero-rep ones or --in-place --zero-rep zeros")


def test_variant_ids_round_trip():
    for vid in VARIANTS:
        assert request_for(vid, 8).variant_id == vid
    with pytest.raises(CircuitError):
        request_for("no-such-variant", 8)


# ---------------------------------------------------------------------------
# Worked examples


def test_out_of_place_add_example():
    out = run_operands(build_variant("add-oop", 4), "add-oop", 5, 7)
    assert out["Z"] == 12 and out["A"] == 5 and out["B"] == 7 and out["X"] == 0


def test_in_place_add_example():
    out = run_operands(build_variant("add-ip", 4), "add-ip", 9, 9)
    assert out["B"] == 2 and out["Z"] == 1 and out["A"] == 9 and out["X"] == 0


def test_subtractor_sign_convention():
    # 3 - 5 encoded out-of-place: low bits 14 (= -2 mod 16), high bit 0
    out = run_operands(build_variant("sub-oop", 4), "sub-oop", 3, 5)
    assert out["Z"] == 0b01110
    out = run_operands(build_variant("sub-oop", 4), "sub-oop", 5, 5)
    assert out["Z"] == 0b10000  # a = b: low bits zero, sign bit set


def test_compare_examples():
    c = build_variant("compare", 5)
    assert run_operands(c, "compare", 3, 3)["Z"] == 1
    assert run_operands(c, "compare", 2, 5)["Z"] == 0
    assert run_operands(c, "compare", 17, 17)["Z"] == 1


def test_mersenne_examples():
    ones = build_variant("mersenne-oop-ones", 3)
    zeros = build_variant("mersenne-oop-zeros", 3)
    assert run_operands(ones, "mersenne-oop-ones", 5, 4)["Z"] == 2  # 9 - 7
    # complementary operands: one representation of zero per convention
    assert run_operands(ones, "mersenne-oop-ones", 3, 4)["Z"] == 0b111
    assert run_operands(zeros, "mersenne-oop-zeros", 3, 4)["Z"] == 0b000


# ---------------------------------------------------------------------------
# Structure


def test_incoming_carry_saves_one_toffoli():
    for n in (4, 7, 10, 16, 33):
        with_y = resource_report(build_variant("add-oop-ic", n))
        plain = resource_report(build_variant("add-oop", n + 1))
        assert with_y.toffoli == plain.toffoli - 1
        assert with_y.cnot == 3 * n + 1  # one below the (n+1)-bit adder


@pytest.mark.parametrize("n", list(range(1, 17)) + [33, 64])
def test_subtractor_toffoli_count_matches_adder(n):
    assert (resource_report(build_variant("sub-oop", n)).toffoli
            == resource_report(build_variant("add-oop", n)).toffoli)


def test_compare_g_round_structure_width_seven():
    # the G-rounds have n - 1 Toffolis; undoing the non-output ones takes
    # n - w(n-1) - 1 more (the rest feed the output carry chain)
    c = build_variant("compare", 7)
    g_ccx = [g for g in c.gates
             if g.phase == "G" and g.kind is GateKind.TOFFOLI]
    assert len(g_ccx) == 6
    z0 = c.layout.indices("Z")[0]
    assert sum(g.target == z0 for g in g_ccx) == 2
    undo = [g for g in c.gates
            if g.phase == "fixup" and g.kind is GateKind.TOFFOLI]
    assert len(undo) == 6 + 4  # step-6 undo plus the init-erase Toffolis


def test_compare_reference_counts():
    r = resource_report(build_variant("compare", 8))
    assert r.toffoli == 34
    assert r.cnot == 2 * 8 - 2 and r.nots == 2 * 8 + 1
    assert r.ancilla_count == 2 * 8 - 2 - 3  # 2n - floor(log(n-1)) - 3


def test_mersenne_reference_counts():
    r = resource_report(build_variant("mersenne-oop-ones", 7))
    assert (r.toffoli, r.cnot, r.ancilla_count) == (29, 21, 5)
    r = resource_report(build_variant("mersenne-ip-ones", 7))
    assert (r.toffoli, r.cnot, r.nots, r.ancilla_count) == (59, 28, 14, 12)


def test_canonical_register_order():
    c = build_variant("add-oop-ic", 6)
    assert [r.name for r in c.layout.registers] == ["A", "B", "Z", "X", "Y"]


@pytest.mark.parametrize("vid", VARIANTS)
def test_each_build_checks_its_gates_once(vid, monkeypatch):
    # the subtractors once re-checked the wrapped adder's gates, and the
    # comparator built a throwaway circuit of its G-rounds for the light cone
    checked = []
    check = qcla.core._check_gates
    monkeypatch.setattr(qcla.core, "_check_gates",
                        lambda gates, width: (checked.append(len(gates)),
                                              check(gates, width))[1])
    circuit = build_variant(vid, 9)
    assert checked == [len(circuit.gates)]


@pytest.mark.parametrize("vid", VARIANTS)
def test_each_build_makes_its_padded_rounds_once(vid, monkeypatch):
    # a PaddedRounds makes its rounds when constructed, so this pins one set
    # of P, G (and C) gates per build; the in-place Mersenne adders once
    # made each of them twice
    made = []
    init = PaddedRounds.__init__

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PaddedRounds, "__init__", counted_init)
    build_variant(vid, 9)
    assert len(made) == vid.startswith(("compare", "mersenne-"))


@pytest.mark.parametrize("vid", VARIANTS)
def test_each_build_makes_only_the_gates_it_keeps(vid, monkeypatch):
    # the in-place adders once made their back tree with round tags and
    # copied it to Pinv: add-ip at n = 64 made 1112 gates and kept 894
    made = []

    def counted(make):
        def make_and_count(*args):
            made.append(make(*args))
            return made[-1]
        return make_and_count

    def counted_retag(gates, phase):
        out = retag(gates, phase)
        made.extend(out)
        return out

    for module in (qcla.adders, qcla.carry):
        for name in ("ccx", "cnot", "not_"):
            if hasattr(module, name):  # carry.py makes only Toffolis
                monkeypatch.setattr(module, name,
                                    counted(getattr(qcla.core, name)))
        monkeypatch.setattr(module, "retag", counted_retag)
    # the other representation's fold Toffoli, made for the back tree of
    # mersenne-ip-ones, is kept only as its Pinv copy
    copied = vid == "mersenne-ip-ones"
    for n in (9, 64):
        made.clear()
        kept = {*map(id, build_variant(vid, n).gates)}
        assert len(made) == len(kept) + copied, n
        assert len({*map(id, made)} - kept) == copied, n


def gates_on(lo: int) -> st.SearchStrategy:
    """NOT, CNOT or Toffoli gates on wires ``lo..lo + 11``."""
    wires = st.lists(st.integers(lo, lo + 11), min_size=1, max_size=3,
                     unique=True)
    return wires.map(lambda ws: (not_, cnot, ccx)[len(ws) - 1](*ws))


@given(st.data())
def test_seal_matches_the_pairwise_reference(data):
    # block wires from 12 on are disjoint from every copy's
    lo = data.draw(st.sampled_from([0, 6, 12]))
    copies = data.draw(st.lists(gates_on(0), max_size=8))
    block = data.draw(st.lists(gates_on(lo), max_size=8))
    assert _seal(copies, block) == reference_seal(copies, block)


# ---------------------------------------------------------------------------
# The one-pass Mersenne fold


def fold_by_search(rounds: PaddedRounds, wrap_wire: int) -> list:
    """The ``zeros`` rounds by brute force: levelize the order with the fold
    gate at every G-round boundary and keep the first one with the fewest
    Toffoli slices."""
    p_fw = rounds.p_gates
    g_fw = rounds.g_gates
    c_fw = rounds.c_gates
    p_bw = retag(reversed(p_fw), "Pinv")
    extra = ccx(*rounds.fold_controls, wrap_wire, "C")
    slots = len(padded_cells(rounds.n, wrap=True))
    layout = RegisterLayout([Register("W", 2 * rounds.n + slots,
                                      Role.ANCILLA)])

    def toffoli_slices(order):
        return count_toffoli_slices(order, schedule_asap(Circuit(layout,
                                                                 order)))

    orders = [levelize(p_fw + g_fw[:e] + [extra] + g_fw[e:] + c_fw + p_bw)
              for e in [0, *rounds.g_round_ends]]
    return min(orders, key=toffoli_slices)


@pytest.mark.parametrize("n", [*range(2, 131), 255, 256, 257, 511, 512,
                               513, 1024, 2047, 2048, 4096])
def test_one_pass_fold_matches_the_candidate_search(n):
    # propagate bits on 0..n-1, carries on n..2n-1 (position n wraps to
    # position 0), interval slots from 2n
    carries = [*range(n, 2 * n), n]

    def fresh_rounds():
        return PaddedRounds(n, carries, range(n), range(2 * n, 4 * n),
                            wrap=True)

    rounds = fresh_rounds()
    assert _mersenne_rounds(rounds, "zeros") == fold_by_search(rounds, n)
    # the in-place adders share one rounds between both representations
    assert (_mersenne_rounds(rounds, "ones")
            == _mersenne_rounds(fresh_rounds(), "ones"))
