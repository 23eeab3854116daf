"""Reversible simulation, oracles, and the carry-status algebra."""

import random
import re
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcla.sim
from qcla import (
    Circuit,
    CircuitError,
    Register,
    RegisterLayout,
    Role,
    VARIANTS,
    build_variant,
    exhaustive_check,
    expected_state,
    random_check,
    run_operands,
)
from qcla.adders import variant_fields
from qcla.core import GateKind, ccx, cnot, not_
from qcla.sim import (
    _expected_columns,
    columns_to_values,
    input_registers,
    stride_column,
    values_to_columns,
)

from conftest import valid_small_widths
from helpers import (
    STATUSES,
    compose,
    deletion_mutants,
    permutation_check,
    run_state,
    status_of,
)


def layout(size: int) -> RegisterLayout:
    return RegisterLayout([Register("W", size, Role.OUTPUT)])


# ---------------------------------------------------------------------------
# Gate semantics


def test_not_flips():
    c = Circuit(layout(1), [not_(0)])
    assert run_state(c, {})[0] == 1


def test_cnot_conditional_flip():
    c = Circuit(layout(2), [cnot(0, 1)])
    assert run_state(c, {0: 1})[1] == 1
    assert run_state(c, {0: 0})[1] == 0


def test_toffoli_and_semantics():
    c = Circuit(layout(3), [ccx(0, 1, 2)])
    for a, b in product((0, 1), repeat=2):
        assert run_state(c, {0: a, 1: b})[2] == (a & b)


# ---------------------------------------------------------------------------
# Oracles


def plain_expected(vid: str, n: int, a: int, b: int, y: int) -> dict[str, int]:
    """Final register values by plain integer arithmetic, a reference kept
    apart from the column oracle."""
    m = (1 << n) - 1
    if vid == "carry-network":  # a: generate bits, b: propagate bits
        c = z = 0
        for j in range(n):
            c = ((a >> j) & 1) ^ ((b >> j) & 1 & c)
            z |= c << j
        return {"B": b, "Z": z, "X": 0}
    out = {"A": a, "X": 0}
    if vid.endswith("-ic"):
        out["Y"] = y
    else:
        y = 0
    s = a + b + y
    zeros = vid.endswith("zeros")
    mers = s - m if s > m else (0 if zeros and s == m else s)
    out["B"], z = {
        "add-oop": (b, s), "add-oop-ic": (b, s),
        "add-ip": (s & m, s >> n), "add-ip-ic": (s & m, s >> n),
        "add-mod2n-oop": (b, s & m), "add-mod2n-oop-ic": (b, s & m),
        "add-mod2n-ip": (s & m, None), "add-mod2n-ip-ic": (s & m, None),
        "sub-oop": (b, (1 << n) + a - b), "sub-ip": ((a - b) & m, int(a >= b)),
        "compare": (b, int(a >= b + y)), "compare-ic": (b, int(a >= b + y)),
        "mersenne-oop-ones": (b, mers), "mersenne-oop-zeros": (b, mers),
        "mersenne-ip-ones": (mers, None), "mersenne-ip-zeros": (mers, None),
    }[vid]
    if z is not None:
        out["Z"] = z
    if vid.startswith("mersenne-ip"):
        out["X"] = int(b == (m if zeros else 0))
    return out


@st.composite
def assignments(draw):
    n = draw(st.integers(1, 300))
    operand = st.one_of(st.sampled_from([0, 1, (1 << n) - 1, (1 << n) - 2]),
                        st.integers(0, (1 << n) - 1))
    return (draw(st.sampled_from(VARIANTS)), n, draw(operand) % (1 << n),
            draw(operand) % (1 << n), draw(st.integers(0, 1)))


@given(assignments())
@settings(max_examples=300, deadline=None)
def test_expected_state_matches_plain_arithmetic(case):
    # same registers, same values, same order (`qcla sim` prints in it)
    assert (list(expected_state(*case).items())
            == list(plain_expected(*case).items()))


def test_oracle_examples():
    assert expected_state("add-oop", 4, 5, 7)["Z"] == 12
    assert expected_state("mersenne-oop-ones", 3, 7, 7)["Z"] == 0b111
    assert expected_state("compare", 3, 2, 5)["Z"] == 0
    with pytest.raises(CircuitError):
        expected_state("no-such-variant", 4, 0, 0)


@pytest.mark.parametrize("vid", VARIANTS)
def test_the_oracle_refuses_a_negative_width(vid):
    # n = -1 once escaped `1 << n` as a bare ValueError
    for n in (-1, -64):
        with pytest.raises(CircuitError, match=f"n >= 0, got n={n}"):
            expected_state(vid, n, 0, 0)
    # widths with no circuit keep their oracle (the Mersenne one once
    # raised UnboundLocalError at n = 0)
    assert expected_state(vid, 0, 0, 0)["B"] == 0
    if vid != "carry-network":
        assert expected_state(vid, 1, 1, 1)["A"] == 1


def test_the_oracle_reads_the_variant_table_not_the_id_string():
    # a renamed or added variant is taught to adders._VARIANTS alone
    source = Path(qcla.sim.__file__).read_text(encoding="utf-8")
    assert re.findall(r'endswith|startswith|" in variant_id', source) == []
    for vid in VARIANTS:
        function, _, incoming_carry, _ = variant_fields(vid)
        regs = [reg for _, reg in input_registers(vid)]
        if function == "carry-network":
            assert regs == ["Z", "B"]
        else:
            assert regs == ["A", "B", "Y"][:2 + incoming_carry]
    with pytest.raises(CircuitError, match="unknown variant"):
        input_registers("add-oop-x")


def test_run_operands_examples():
    out = run_operands(build_variant("add-oop", 4), "add-oop", 5, 7)
    assert out == {"A": 5, "B": 7, "Z": 12, "X": 0}
    out = run_operands(build_variant("compare", 5), "compare", 17, 17)
    assert out["Z"] == 1
    # operands were once cut to the register (A=3 Z=5) and a missing
    # carry-in register raised a bare KeyError
    with pytest.raises(CircuitError,
                       match=re.escape("operand a=35 out of range [0, 16)")):
        run_operands(build_variant("add-oop", 4), "add-oop", 35, 2)
    with pytest.raises(CircuitError, match="reads register Y, which the "
                                           "circuit does not declare"):
        run_operands(build_variant("add-oop", 4), "add-oop-ic", 1, 2, 1)
    # without B, n once read as 0 and the error blamed A's width
    base = build_variant("add-oop", 4)
    no_b = Circuit(RegisterLayout([r for r in base.layout.registers
                                   if r.name != "B"]), [])
    with pytest.raises(CircuitError, match="reads register B, which the "
                                           "circuit does not declare"):
        run_operands(no_b, "add-oop", 5, 7)
    for a, b, y, bad in [(5, 16, 0, "b=16"), (-1, 0, 0, "a=-1"),
                         (1, 2, 2, "y=2")]:
        with pytest.raises(CircuitError, match=f"operand {bad} out of range"):
            run_operands(build_variant("add-oop-ic", 4), "add-oop-ic", a, b, y)
        with pytest.raises(CircuitError, match=f"operand {bad} out of range"):
            expected_state("add-oop-ic", 4, a, b, y)


def test_run_operands_memory_follows_the_registers_not_their_bits():
    # each register was once read back through a list of its wire indices
    # (a 54 MiB peak here), and the columns once covered every declared
    # bit (24 MiB for run_operands, 15 MiB for exhaustive_check)
    base = build_variant("add-oop", 4)
    wide = Circuit(RegisterLayout([*base.layout.registers,
                                   Register("W", 1_000_000, Role.ANCILLA)]),
                   base.gates)
    out, peaks = [], []
    for run in (lambda: run_operands(wide, "add-oop", 5, 7),
                lambda: exhaustive_check("add-oop", 4, circuit=wide)):
        tracemalloc.start()
        try:
            out.append(run())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out == [{**run_operands(base, "add-oop", 5, 7), "W": 0}, None]
    assert max(peaks) < 1 << 20, peaks


def test_mersenne_oracle_holds_one_column_list_besides_the_sum():
    # it once held the generate columns as a list too: a 3.7 MiB peak here
    rng = random.Random(24)
    a, b = ([rng.getrandbits(2048) for _ in range(4096)] for _ in "ab")
    tracemalloc.start()
    try:
        out = _expected_columns("mersenne-oop-ones", 4096, a, b, 0,
                                (1 << 2048) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out["Z"]) == 4096
    assert peak < 3 << 20, peak


def test_exhaustive_guard():
    with pytest.raises(CircuitError):
        exhaustive_check("add-oop", 13)


def test_exhaustive_reports_first_counterexample_fields():
    assert exhaustive_check("add-oop", 5) is None
    assert random_check("add-ip", 16, samples=200) is None


def test_counterexample_is_the_lowest_failing_sample():
    # sample s = a * 2^3 + b: Z fails from a = 1, the earlier register B
    # only from a = 4; the report takes the sample first, then the register
    good = build_variant("add-oop", 3)
    A, B, Z = (good.layout.indices(r) for r in "ABZ")
    broken = Circuit(good.layout, good.gates + (cnot(A[0], Z[0]),
                                                cnot(A[2], B[0])))
    cex = exhaustive_check("add-oop", 3, circuit=broken)
    assert (cex.a, cex.b, cex.y, cex.register, cex.expected,
            cex.actual) == (1, 0, 0, "Z", 1, 0)


def test_exhaustive_check_rejects_every_single_gate_deletion():
    # every gate of every variant matters on some input at n = 2..6
    mutants = survivors = 0
    for vid, n in [(v, n) for v in VARIANTS
                   for n in valid_small_widths(v, 6) if n >= 2]:
        for mutant in deletion_mutants(build_variant(vid, n)):
            mutants += 1
            survivors += exhaustive_check(vid, n, circuit=mutant) is None
    assert (mutants, survivors) == (2626, 0)


def without_first_toffoli(circuit: Circuit) -> Circuit:
    drop = next(i for i, g in enumerate(circuit.gates)
                if g.kind is GateKind.TOFFOLI)
    return Circuit(circuit.layout,
                   circuit.gates[:drop] + circuit.gates[drop + 1:])


@pytest.mark.parametrize("vid,n", [("add-ip", 64), ("mersenne-ip-zeros", 40),
                                   ("compare-ic", 30)])
def test_random_check_reports_a_true_counterexample(monkeypatch, vid, n):
    broken = without_first_toffoli(build_variant(vid, n))
    monkeypatch.setattr(qcla.sim, "build_variant", lambda v, m: broken)
    cex = random_check(vid, n)
    assert cex is not None
    assert cex.expected == plain_expected(vid, n, cex.a, cex.b,
                                          cex.y).get(cex.register, 0)
    actual = run_operands(broken, vid, cex.a, cex.b, cex.y)[cex.register]
    assert cex.actual == actual != cex.expected


@pytest.mark.parametrize("samples", [0, -3])
def test_random_check_needs_a_sample(samples):
    with pytest.raises(CircuitError):
        random_check("add-oop", 4, samples=samples)


def test_random_check_is_a_function_of_its_seed(monkeypatch):
    broken = without_first_toffoli(build_variant("add-oop", 32))
    monkeypatch.setattr(qcla.sim, "build_variant", lambda v, m: broken)
    first = random_check("add-oop", 32, samples=300, seed=7)
    assert first is not None
    assert random_check("add-oop", 32, samples=300, seed=7) == first


def test_random_check_seeds_draw_different_true_counterexamples(monkeypatch):
    vid, n = "add-ip-ic", 48
    broken = without_first_toffoli(build_variant(vid, n))
    monkeypatch.setattr(qcla.sim, "build_variant", lambda v, m: broken)
    found = [random_check(vid, n, samples=500, seed=seed) for seed in (1, 2)]
    for cex in found:
        assert cex is not None
        assert cex.expected == expected_state(vid, n, cex.a, cex.b,
                                              cex.y)[cex.register]
        actual = run_operands(broken, vid, cex.a, cex.b, cex.y)[cex.register]
        assert cex.actual == actual != cex.expected
    assert (found[0].a, found[0].b) != (found[1].a, found[1].b)


@given(st.integers(0, 80).flatmap(
    lambda k: st.tuples(st.just(k),
                        st.lists(st.integers(0, (1 << k) - 1), max_size=70))))
@settings(max_examples=200, deadline=None)
def test_columns_round_trip(case):
    k, values = case
    cols = values_to_columns(values, k)
    assert len(cols) == k
    assert columns_to_values(cols, len(values)) == values


@pytest.mark.parametrize("total", [1 << k for k in range(13)])
def test_stride_column_holds_the_sample_index_bits(total):
    for bit in range(total.bit_length() + 1):
        col = stride_column(bit, total)
        assert col >> total == 0
        assert all((col >> s) & 1 == (s >> bit) & 1 for s in range(total))


# ---------------------------------------------------------------------------
# Permutation property


def test_generated_circuits_permute_the_basis():
    for vid, n in [("add-oop", 3), ("add-ip", 3), ("compare", 3),
                   ("carry-network", 5)]:
        c = build_variant(vid, n)
        if c.layout.total_size <= 20:
            assert permutation_check(c)


def test_permutation_check_width_guard():
    with pytest.raises(CircuitError):
        permutation_check(build_variant("add-oop", 16))


# ---------------------------------------------------------------------------
# Carry-status algebra


def test_compose_is_associative_over_all_triples():
    for x, y, z in product(STATUSES, repeat=3):
        assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_status_never_propagate_and_generate():
    for a, b in product((0, 1), repeat=2):
        p, g = status_of(a, b)
        assert not (p and g)


@pytest.mark.parametrize("n", range(1, 6))
def test_interval_recurrences_match_composition(n):
    """p[i,j] = p[i,k] p[k,j] and g[i,j] = g[k,j] XOR g[i,k] p[k,j]."""
    for a, b in product(range(1 << n), repeat=2):
        status = [status_of((a >> i) & 1, (b >> i) & 1) for i in range(n)]
        iv = {(i, i + 1): status[i] for i in range(n)}
        for span in range(2, n + 1):
            for i in range(n - span + 1):
                iv[(i, i + span)] = compose(iv[(i, i + span - 1)],
                                            status[i + span - 1])
        for (i, j), (p, g) in iv.items():
            assert not (p and g)
            for k in range(i + 1, j):
                pl, gl = iv[(i, k)]
                ph, gh = iv[(k, j)]
                assert p == (pl & ph)
                assert g == (gh ^ (gl & ph))


@pytest.mark.parametrize("n", range(1, 7))
def test_carry_bits_against_majority_recurrence(n):
    for a, b in product(range(1 << n), repeat=2):
        g = a & b
        p = a ^ b
        c = 0
        out = 0
        for j in range(n):
            aj, bj = (a >> j) & 1, (b >> j) & 1
            c = (aj & bj) | (aj & c) | (bj & c)  # MAJ(a_j, b_j, c_j)
            out |= c << j
        assert expected_state("carry-network", n, g, p)["Z"] == out


# ---------------------------------------------------------------------------
# Cross-variant invariants


@pytest.mark.parametrize("n", range(2, 7))
def test_comparator_agrees_with_subtractor_sign(n):
    comp = build_variant("compare", n)
    sub = build_variant("sub-oop", n)
    for a, b in product(range(1 << n), repeat=2):
        z = run_operands(comp, "compare", a, b)["Z"]
        s = run_operands(sub, "sub-oop", a, b)["Z"]
        assert z == (s >> n)


@pytest.mark.parametrize("vid", ["mersenne-oop-ones", "mersenne-oop-zeros",
                                 "mersenne-ip-ones", "mersenne-ip-zeros"])
@pytest.mark.parametrize("n", range(2, 6))
def test_mersenne_congruence(vid, n):
    mod = (1 << n) - 1
    c = build_variant(vid, n)
    reg = "B" if "-ip-" in vid else "Z"
    for a, b in product(range(1 << n), repeat=2):
        v = run_operands(c, vid, a, b)[reg]
        assert v % mod == (a + b) % mod or (v % mod == 0 and (a + b) % mod == 0)
