"""Closed-form resource formulas and the measurement harness.

``CLOSED_FORM_DIGEST`` pins every closed form: one SHA-256 over
``formula_eval`` of each variant at each width ``0..CLOSED_FORM_TOP``, or
its error message where a variant has no closed form.  A rewrite of
``formulas.py`` must keep it.  Regenerate it only on purpose, from the
repository root::

    PYTHONPATH=src:tests python3 tests/test_formulas.py
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcla import CircuitError, formula_eval, verify_family
from qcla.adders import VARIANTS
from qcla.formulas import EXHAUSTIVE_UPTO, FORMULAS, popcount

from helpers import popcount_identity_check

# The paper's simplified closed forms at n = 2^k, as (toffoli, ancilla,
# depth), for the variants whose references give them: a cross-check of the
# general formulas.
POWER_OF_TWO_FORMS = {
    "add-oop": lambda n, k: (5 * n - 3 * k - 4, n - k - 1, 2 * k + 2),
    "add-oop-ic": lambda n, k: (5 * n - 3 * k - 3, n - k - 1, 2 * k + 2),
    "add-ip": lambda n, k: (10 * n - 9 * k - 7, 2 * n - k - 2, 4 * k + 3),
    "add-ip-ic": lambda n, k: (10 * n - 6 * k - 8, 2 * n - k - 2, 4 * k + 4),
    "add-mod2n-oop": lambda n, k: (5 * n - 6 * k - 3, n - 2 * k, 2 * k + 1),
    "add-mod2n-oop-ic": lambda n, k: (5 * n - 3 * k - 5, n - k - 1, 2 * k + 2),
    "add-mod2n-ip": lambda n, k: (10 * n - 12 * k - 6, 2 * n - 2 * k - 1,
                                  4 * k + 2),
    "add-mod2n-ip-ic": lambda n, k: (10 * n - 6 * k - 10, 2 * n - k - 2,
                                     4 * k + 4),
    "compare": lambda n, k: (6 * n - 3 * k - 5, 2 * n - k - 2, 2 * k + 3),
    "compare-ic": lambda n, k: (6 * n - 2 * k - 4, 2 * n - k - 2, 2 * k + 5),
    "mersenne-oop-ones": lambda n, k: (5 * n - 6, n - 2, 2 * k + 3),
    "mersenne-ip-ones": lambda n, k: (10 * n - 11, 2 * n - 2, 4 * k + 7),
    "mersenne-ip-zeros": lambda n, k: (10 * n - 11, 2 * n - 2, 4 * k + 7),
}

# widths where a circuit exists but a closed form is undefined
# (floor_log2 of n - 1 = 0)
NO_CLOSED_FORM = {("add-ip", 1), ("add-mod2n-oop", 1), ("add-mod2n-ip", 1),
                  ("sub-ip", 1)}
# widths with no circuit at all
NO_CIRCUIT = {(v, 1) for v in VARIANTS
              if v.startswith(("compare", "mersenne"))}
FIELDS = ["toffoli", "cnot", "not", "ancilla", "depth"]
CLOSED_FORM_TOP = 4200
CLOSED_FORM_DIGEST = ("9fc1c18d9f6d9645d5668fad0247e208"
                      "70b90e310d457ea1d1de85ad666f5d5b")


def closed_form_digest() -> str:
    """One SHA-256 over every variant's closed forms at
    ``n = 0..CLOSED_FORM_TOP``."""
    digest = hashlib.sha256()
    for vid in VARIANTS:
        for n in range(CLOSED_FORM_TOP + 1):
            try:
                item = (vid, n, formula_eval(vid, n))
            except CircuitError as exc:
                item = (vid, n, str(exc))
            digest.update(repr(item).encode())
    return digest.hexdigest()


def test_closed_forms_match_the_pinned_digest():
    assert closed_form_digest() == CLOSED_FORM_DIGEST


def test_popcount_identity_examples():
    assert 10 - popcount(10) == 5 + 2 + 1
    assert 1 - popcount(1) == 0
    assert popcount_identity_check(10_000)


def test_formula_spot_values():
    e = formula_eval("add-oop", 10)
    assert e["toffoli"] == 34 and e["ancilla"] == 5
    assert list(e) == FIELDS  # the order as well
    e = formula_eval("add-ip-ic", 8)
    assert e["toffoli"] == 54 and e["depth"] == 16  # 4k + 4 with k = 3
    assert formula_eval("compare", 16)["toffoli"] == 79


def test_unknown_variant_rejected():
    with pytest.raises(CircuitError):
        formula_eval("no-such-variant", 8)


@pytest.mark.parametrize("vid", sorted(FORMULAS))
def test_undefined_formulas_raise_circuit_error(vid):
    # floor_log2 used to raise a bare ValueError at n = 0 and n = 1
    for n in range(7):
        try:
            formula_eval(vid, n)
        except CircuitError as exc:
            assert f"{vid} has no closed form at n={n}" in str(exc)


@pytest.mark.parametrize("vid", sorted(POWER_OF_TWO_FORMS))
def test_power_of_two_forms_consistent(vid):
    for k in range(3, 12):
        n = 1 << k
        e = formula_eval(vid, n)
        assert (e["toffoli"], e["ancilla"], e["depth"]) == \
            POWER_OF_TWO_FORMS[vid](n, k), f"{vid} n=2^{k}"


def test_verify_family_matches_measurements():
    results = verify_family("add-oop", range(7, 17))
    assert results and all(r.ok for r in results)


def _unchecked(vids, ns, field="resources"):
    """The (variant, width) pairs whose ``field`` (``resources`` or
    ``exhaustive``) verify_family reports as not checked."""
    pairs = set()
    for vid in vids:
        for r in verify_family(vid, ns):
            assert r.ok, str(r)
            if r.reason is not None:
                assert r.field in ("resources", "exhaustive")
                if r.field == field:
                    pairs.add((vid, r.n))
    return pairs


def test_verify_family_checks_every_small_width():
    skipped = NO_CLOSED_FORM | NO_CIRCUIT
    for vid in VARIANTS:
        for n in range(1, 7):
            if (vid, n) in skipped:
                continue
            results = verify_family(vid, [n])
            assert [r.field for r in results] == FIELDS + ["exhaustive"], \
                (vid, n)
            assert all(r.ok for r in results), [str(r) for r in results]


def test_verify_family_skips_below_validity():
    # below a variant's minimum width there is no circuit to measure
    minimal = sorted({v for v, _ in NO_CIRCUIT})
    assert _unchecked(minimal, [1]) == NO_CIRCUIT
    assert _unchecked(minimal, [1], "exhaustive") == NO_CIRCUIT
    assert _unchecked(minimal, range(2, 7)) == set()


def test_verify_family_skips_widths_where_formulas_are_undefined():
    # floor_log2 of n - 1 is undefined at n = 1 although the circuit exists
    built = [v for v in VARIANTS if (v, 1) not in NO_CIRCUIT]
    assert _unchecked(built, range(1, 7)) == NO_CLOSED_FORM
    # the circuit is still checked on every input
    assert _unchecked(built, range(1, 7), "exhaustive") == set()


def test_verify_family_says_why_a_width_is_not_checked():
    r, e = verify_family("compare", [1])
    assert str(r) == ("compare n=1 resources: not checked "
                      "(compare requires n >= 2, got 1)")
    assert str(e) == ("compare n=1 exhaustive: not checked "
                      "(compare requires n >= 2, got 1)")
    r, e = verify_family("add-ip", [1])
    assert str(r) == ("add-ip n=1 resources: not checked (add-ip has no "
                      "closed form at n=1: floor_log2 needs n >= 1, got 0)")
    assert str(e) == "add-ip n=1 exhaustive: ok"


def test_depth_is_a_bound_below_five_and_exact_from_there():
    lines = [str(r) for r in verify_family("add-oop", [3, 5])
             if r.field == "depth"]
    assert lines == ["add-oop n=3 depth: expected at most 5, measured 3 [ok]",
                     "add-oop n=5 depth: expected 6, measured 6 [ok]"]


@given(st.sampled_from(VARIANTS), st.integers(2, 1100))
@settings(max_examples=25, deadline=None)
def test_verify_family_holds_beyond_the_grid(vid, n):
    results = verify_family(vid, [n])
    assert [r.field for r in results] == \
        FIELDS + ["exhaustive"] * (n <= EXHAUSTIVE_UPTO)
    assert all(r.ok for r in results), [str(r) for r in results]


def test_every_variant_has_formulas():
    assert set(FORMULAS) == set(VARIANTS)


if __name__ == "__main__":
    print(f"CLOSED_FORM_DIGEST = {closed_form_digest()}")
