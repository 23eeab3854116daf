"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
criterion.

1. Exhaustive functional correctness for every variant, all n <= 11.
2. Toffoli-count exactness on the width grid, with spot values.
3. CNOT/NOT-count exactness against the per-variant closed forms.
4. Depth exactness on the width grid against each variant's one closed
   form, with the paper's power-of-two forms for the out-of-place adder,
   in-place adder, and in-place mod-2^n adder, and the comparators'
   2 floor(log(n - 1)) + 5 and 2 floor(log n) + 5.
5. Ancilla-count exactness.
6. Randomized functional checks at large widths.
7. Property suites: reversibility, comparator constant propagation,
   status-algebra associativity, the popcount identity, and the carry
   values at the G/C boundary of the carry network.
"""

import secrets
from itertools import product

import pytest

from conftest import GRID, gc_boundary_ok, valid_small_widths
from qcla import build_variant, exhaustive_check, random_check
from qcla.adders import VARIANTS
from qcla.carry import ceil_log2, floor_log2
from qcla.formulas import popcount
from qcla.sim import run_columns, stride_column

from helpers import (
    STATUSES,
    compose,
    constant_propagate,
    invert,
    popcount_identity_check,
)


@pytest.fixture(scope="module")
def measured(grid_sweep):
    """verify_family results for every variant over the width grid,
    indexed by (variant, n, field)."""
    return grid_sweep.results


def test_criterion_1_exhaustive_functional_correctness():
    for vid in VARIANTS:
        for n in valid_small_widths(vid, 11):
            cex = exhaustive_check(vid, n)
            assert cex is None, f"{vid} n={n}: {cex}"
    print("CRITERION 1 (exhaustive functional correctness, n <= 11): PASS")


def test_criterion_2_toffoli_count_exactness(measured):
    for vid in VARIANTS:
        for n in GRID:
            r = measured[(vid, n, "toffoli")]
            assert r.ok, str(r)
    spot = [("add-oop", 10, 34), ("add-ip", 10, 63), ("compare", 8, 34),
            ("mersenne-oop-ones", 7, 29), ("mersenne-ip-ones", 7, 59),
            ("mersenne-ip-zeros", 7, 59), ("carry-network", 10, 24)]
    for vid, n, count in spot:
        assert measured[(vid, n, "toffoli")].measured == count
    print("CRITERION 2 (Toffoli counts exact on the width grid): PASS")


def test_criterion_3_cnot_not_count_exactness(measured):
    forms = {
        "add-oop": (lambda n: 3 * n - 1, lambda n: 0),
        "add-ip": (lambda n: 4 * n - 5, lambda n: 2 * n - 2),
        "compare": (lambda n: 2 * n - 2, lambda n: 2 * n + 1),
        "mersenne-ip-ones": (lambda n: 4 * n, lambda n: 2 * n),
        "mersenne-ip-zeros": (lambda n: 4 * n, lambda n: 2 * n),
    }
    for vid, (cnot_f, not_f) in forms.items():
        for n in GRID:
            assert measured[(vid, n, "cnot")].measured == cnot_f(n)
            assert measured[(vid, n, "not")].measured == not_f(n)
    # the harness also holds every other variant to its closed forms
    for vid in VARIANTS:
        for n in GRID:
            for field in ("cnot", "not"):
                r = measured[(vid, n, field)]
                assert r.ok, str(r)
    print("CRITERION 3 (CNOT/NOT counts exact): PASS")


def test_criterion_4_depth_bounds_and_power_of_two_equality(measured):
    for vid in VARIANTS:
        for n in GRID:
            r = measured[(vid, n, "depth")]
            assert r.ok and r.measured == r.expected, str(r)
    equality_rows = {
        "add-oop": lambda k: 2 * k + 2,
        "add-ip": lambda k: 4 * k + 3,
        "add-mod2n-ip": lambda k: 4 * k + 2,
    }
    for vid, depth in equality_rows.items():
        for k in range(3, 11):
            r = measured[(vid, 1 << k, "depth")]
            assert r.measured == depth(k), \
                f"{vid} n=2^{k}: depth {r.measured}, expected {depth(k)}"
    for vid in ("compare", "compare-ic"):
        m = vid == "compare"
        for n in GRID:
            r = measured[(vid, n, "depth")]
            depth = 2 * floor_log2(n - 1 if m else n) + 5
            assert r.measured == depth, \
                f"{vid} n={n}: depth {r.measured}, expected {depth}"
    print("CRITERION 4 (depth exact on the width grid): PASS")


def test_criterion_5_ancilla_count_exactness(measured, grid_sweep):
    forms = {
        "add-oop": lambda n: n - popcount(n) - floor_log2(n),
        "add-ip": lambda n: 2 * n - popcount(n) - floor_log2(n) - 1,
        "compare": lambda n: 2 * n - floor_log2(n - 1) - 3,
        "mersenne-oop-ones": lambda n: n - 2,
        "mersenne-oop-zeros": lambda n: n - 2,
        "mersenne-ip-ones": lambda n: 2 * n - 2,
        "mersenne-ip-zeros": lambda n: 2 * n - 2,
    }
    for vid, f in forms.items():
        for n in GRID:
            assert measured[(vid, n, "ancilla")].measured == f(n)
    for vid in VARIANTS:
        for n in GRID:
            r = measured[(vid, n, "ancilla")]
            assert r.ok, str(r)
    # the registers are sized from the cells each tree enumerates, so the
    # closed forms above are measured only if every ancilla is used
    idle = {key: wires for key, wires in grid_sweep.idle.items() if wires}
    assert not idle, f"ancillae that no gate touches: {idle}"
    print("CRITERION 5 (ancilla counts exact): PASS")


def test_criterion_6_randomized_scale_check():
    for vid in VARIANTS:
        for n in (16, 64, 256, 1024):
            cex = random_check(vid, n, samples=1000)
            assert cex is None, f"{vid} n={n}: {cex}"
    print("CRITERION 6 (randomized checks at n = 16..1024): PASS")


def _reversibility_ok(vid: str, n: int, samples: int = 1000) -> bool:
    circuit = build_variant(vid, n)
    mask = (1 << samples) - 1
    cols = [secrets.randbits(samples)
            for _ in range(circuit.layout.total_size)]
    start = list(cols)
    run_columns(circuit, cols, mask)
    run_columns(invert(circuit), cols, mask)
    return cols == start


def _compare_constant_propagation_ok(n: int) -> bool:
    """The width-n comparator's padded form, simplified by constant
    propagation of the zero padding bits, must agree with the unsimplified
    padded circuit on every live wire, for every operand pair."""
    m = 1 << ceil_log2(n)
    padded = build_variant("compare", m)
    A, B, Z = (padded.layout.indices(r) for r in "ABZ")
    constants = {}
    for i in range(n, m):
        constants[A[i]] = 0
        constants[B[i]] = 0
    simplified = constant_propagate(padded, constants)
    nsamples = 1 << (2 * n)
    mask = (1 << nsamples) - 1

    def run(circuit):
        cols = [0] * padded.layout.total_size
        for t in range(n):
            cols[A[t]] = stride_column(t, nsamples)
            cols[B[t]] = stride_column(n + t, nsamples)
        return run_columns(circuit, cols, mask)

    full, simp = run(padded), run(simplified)
    if any(full[i] != simp[i] for i in range(padded.layout.total_size)
           if i not in constants):
        return False
    z_expected = 0
    for s in range(nsamples):
        a, b = s & ((1 << n) - 1), s >> n
        z_expected |= int(a >= b) << s
    return simp[Z[0]] == z_expected


def test_criterion_7_property_suites():
    for vid in VARIANTS:
        assert _reversibility_ok(vid, 16), f"reversibility failed: {vid}"
    for n in range(2, 7):
        assert _compare_constant_propagation_ok(n), \
            f"comparator constant propagation failed at n={n}"
    for x, y, z in product(STATUSES, repeat=3):
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
    assert popcount_identity_check(10**6)
    for n in range(1, 11):
        assert gc_boundary_ok(n), f"G/C boundary invariant failed at n={n}"
    print("CRITERION 7 (property suites): PASS")
