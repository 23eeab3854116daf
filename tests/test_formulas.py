"""Closed-form resource formulas and the measurement harness."""

import pytest

from qcla import CircuitError, formula_eval, popcount_identity_check, verify_family
from qcla.formulas import FORMULAS, _POWER_OF_TWO_FORMS, popcount


def test_popcount_identity_examples():
    assert 10 - popcount(10) == 5 + 2 + 1
    assert 1 - popcount(1) == 0
    assert popcount_identity_check(10_000)


def test_formula_spot_values():
    e = formula_eval("add-oop", 10)
    assert e["toffoli"] == 34 and e["ancilla"] == 5 and e["exact"]
    e = formula_eval("add-ip-ic", 8)
    assert e["toffoli"] == 54 and e["depth"] == 16  # 4k + 4 with k = 3
    assert formula_eval("compare", 16)["toffoli"] == 79


def test_formulas_not_guaranteed_below_validity():
    assert formula_eval("add-oop", 6)["exact"] is False


def test_unknown_variant_rejected():
    with pytest.raises(CircuitError):
        formula_eval("no-such-variant", 8)


@pytest.mark.parametrize("vid", sorted(FORMULAS))
def test_undefined_formulas_raise_circuit_error(vid):
    # floor_log2 used to raise a bare ValueError at n = 0 and n = 1
    for n in range(7):
        try:
            formula_eval(vid, n)
        except CircuitError:
            pass


@pytest.mark.parametrize("vid", sorted(_POWER_OF_TWO_FORMS))
def test_power_of_two_forms_consistent(vid):
    # formula_eval raises if the general and specialized forms disagree
    for k in range(3, 11):
        formula_eval(vid, 1 << k)


def test_verify_family_matches_measurements():
    results = verify_family("add-oop", range(7, 17))
    assert results and all(r.ok for r in results)


def test_verify_family_skips_below_validity():
    assert verify_family("add-oop", [4, 5]) == []


def test_verify_family_skips_widths_where_formulas_are_undefined():
    from qcla.adders import VARIANTS

    # log_third and floor_log2 of n - 1 are undefined at the smallest widths
    for vid in VARIANTS:
        assert verify_family(vid, range(1, 7)) == []


def test_depth_note_fires_only_above_the_lower_formula():
    compare = FORMULAS["compare"]
    # at n = 8 the two published depths differ: 2*3 + 5 and 2*2 + 5
    assert (compare.depth(8), compare.depth_alt(8)) == (11, 9)
    assert compare.depth_note(8, 10) == (
        "depth 10 exceeds the lower of the two published formulas (9); "
        "bound used: 11")
    assert compare.depth_note(8, 9) is None
    assert compare.depth_note(9, 11) is None  # both formulas give 11
    assert FORMULAS["add-oop"].depth_note(8, 99) is None  # one formula only


def test_every_variant_has_formulas():
    from qcla.adders import VARIANTS

    assert set(FORMULAS) == set(VARIANTS)
