"""Closed-form resource counts for every circuit variant.

Each variant has exact formulas for its Toffoli, CNOT, and NOT counts and
its ancilla usage, plus an upper bound on Toffoli depth (the number of
ASAP time-slices containing a Toffoli).  Count formulas are exact for
``n >= 7``; depth formulas are upper bounds that are tight at powers of
two.  ``verify_family`` rebuilds circuits and diffs measured resources
against the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .adders import VARIANTS, build_variant
from .carry import floor_log2
from .core import CircuitError, resource_report

FORMULA_VALID_FROM = 7


def popcount(n: int) -> int:
    return n.bit_count()


def log_third(n: int) -> int:
    """``floor(log2(n / 3))`` (exact: equals ``floor_log2(n // 3)``)."""
    if n < 3:
        raise CircuitError(f"log_third requires n >= 3, got {n}")
    return floor_log2(n // 3)


def popcount_identity_check(limit: int) -> bool:
    """``n - w(n) = sum_{t>=1} floor(n / 2^t)`` for ``1 <= n <= limit``."""
    for n in range(1, limit + 1):
        total = 0
        t = 1
        while (n >> t) > 0:
            total += n >> t
            t += 1
        if n - popcount(n) != total:
            return False
    return True


@dataclass(frozen=True)
class FormulaSet:
    """Exact count formulas and a depth bound for one variant."""

    toffoli: Callable[[int], int]
    cnot: Callable[[int], int]
    nots: Callable[[int], int]
    ancilla: Callable[[int], int]
    depth: Callable[[int], int]
    # some variants have two published depth expressions that differ by O(1)
    # off powers of two; the bound used for checking is the larger one
    depth_alt: Callable[[int], int] | None = None

    def depth_bound(self, n: int) -> int:
        d = self.depth(n)
        return max(d, self.depth_alt(n)) if self.depth_alt else d

    def depth_note(self, n: int, measured: int) -> str | None:
        """Why a depth within ``depth_bound`` is still worth a remark: it
        exceeds the lower of two differing published expressions."""
        if self.depth_alt is None:
            return None
        lo, hi = sorted((self.depth(n), self.depth_alt(n)))
        if lo != hi and measured > lo:
            return (f"depth {measured} exceeds the lower of the two "
                    f"published formulas ({lo}); bound used: {hi}")
        return None


def _k(n: int) -> int:
    return floor_log2(n)


def _w(n: int) -> int:
    return popcount(n)


FORMULAS: dict[str, FormulaSet] = {
    "carry-network": FormulaSet(
        toffoli=lambda n: 4 * n - 3 * _w(n) - 3 * _k(n) - 1,
        cnot=lambda n: 0,
        nots=lambda n: 0,
        ancilla=lambda n: n - _w(n) - _k(n),
        depth=lambda n: _k(n) + log_third(n) + 3,
    ),
    "add-oop": FormulaSet(
        toffoli=lambda n: 5 * n - 3 * _w(n) - 3 * _k(n) - 1,
        cnot=lambda n: 3 * n - 1,
        nots=lambda n: 0,
        ancilla=lambda n: n - _w(n) - _k(n),
        depth=lambda n: _k(n) + log_third(n) + 4,
    ),
    "add-oop-ic": FormulaSet(
        toffoli=lambda n: 5 * n - 3 * _w(n + 1) - 3 * _k(n + 1) + 3,
        cnot=lambda n: 3 * n + 1,
        nots=lambda n: 0,
        ancilla=lambda n: (n + 1) - _w(n + 1) - _k(n + 1),
        depth=lambda n: _k(n + 1) + log_third(n + 1) + 4,
    ),
    "add-ip": FormulaSet(
        toffoli=lambda n: (10 * n - 3 * _w(n) - 3 * _w(n - 1)
                           - 3 * _k(n) - 3 * _k(n - 1) - 7),
        cnot=lambda n: 4 * n - 5,
        nots=lambda n: 2 * n - 2,
        ancilla=lambda n: 2 * n - _w(n) - _k(n) - 1,
        depth=lambda n: (_k(n) + _k(n - 1) + log_third(n)
                         + log_third(n - 1) + 8),
    ),
    "add-ip-ic": FormulaSet(
        toffoli=lambda n: (10 * n - 3 * _w(n) - 3 * _w(n + 1)
                           - 3 * _k(n) - 3 * _k(n + 1) + 1),
        cnot=lambda n: 4 * n - 2,
        nots=lambda n: 2 * n - 2,
        ancilla=lambda n: 2 * n - _w(n + 1) - _k(n + 1),
        depth=lambda n: (_k(n) + _k(n + 1) + log_third(n)
                         + log_third(n + 1) + 8),
    ),
    "add-mod2n-oop": FormulaSet(
        toffoli=lambda n: 5 * n - 3 * _w(n - 1) - 3 * _k(n - 1) - 6,
        cnot=lambda n: 3 * n - 2,
        nots=lambda n: 0,
        ancilla=lambda n: (n - 1) - _w(n - 1) - _k(n - 1),
        depth=lambda n: _k(n - 1) + log_third(n - 1) + 4,
    ),
    "add-mod2n-oop-ic": FormulaSet(
        toffoli=lambda n: 5 * n - 3 * _w(n) - 3 * _k(n) - 2,
        cnot=lambda n: 3 * n,
        nots=lambda n: 0,
        ancilla=lambda n: n - _w(n) - _k(n),
        depth=lambda n: _k(n) + log_third(n) + 4,
    ),
    "add-mod2n-ip": FormulaSet(
        toffoli=lambda n: 10 * n - 6 * _w(n - 1) - 6 * _k(n - 1) - 12,
        cnot=lambda n: 4 * n - 5,
        nots=lambda n: 2 * n - 2,
        ancilla=lambda n: 2 * n - 2 - _w(n - 1) - _k(n - 1),
        depth=lambda n: 2 * _k(n - 1) + 2 * log_third(n - 1) + 8,
    ),
    "add-mod2n-ip-ic": FormulaSet(
        toffoli=lambda n: 10 * n - 6 * _w(n) - 6 * _k(n) - 4,
        cnot=lambda n: 4 * n - 2,
        nots=lambda n: 2 * n - 2,
        ancilla=lambda n: 2 * n - _w(n) - _k(n) - 1,
        depth=lambda n: 2 * _k(n) + 2 * log_third(n) + 8,
    ),
    "sub-oop": FormulaSet(
        toffoli=lambda n: 5 * n - 3 * _w(n) - 3 * _k(n) - 1,
        cnot=lambda n: 3 * n - 1,
        nots=lambda n: 3 * n + 1,
        ancilla=lambda n: n - _w(n) - _k(n),
        depth=lambda n: _k(n) + log_third(n) + 4,
    ),
    "sub-ip": FormulaSet(
        toffoli=lambda n: (10 * n - 3 * _w(n) - 3 * _w(n - 1)
                           - 3 * _k(n) - 3 * _k(n - 1) - 7),
        cnot=lambda n: 4 * n - 5,
        nots=lambda n: 5 * n - 1,
        ancilla=lambda n: 2 * n - _w(n) - _k(n) - 1,
        depth=lambda n: (_k(n) + _k(n - 1) + log_third(n)
                         + log_third(n - 1) + 8),
    ),
    "compare": FormulaSet(
        toffoli=lambda n: 6 * n - _w(n - 1) - 2 * _k(n - 1) - 7,
        cnot=lambda n: 2 * n - 2,
        nots=lambda n: 2 * n + 1,
        ancilla=lambda n: 2 * n - _k(n - 1) - 3,
        depth=lambda n: 2 * _k(n) + 5,
        depth_alt=lambda n: 2 * _k(n - 1) + 5,
    ),
    "compare-ic": FormulaSet(
        toffoli=lambda n: 6 * n - _w(n) - 2 * _k(n) - 3,
        cnot=lambda n: 2 * n,
        nots=lambda n: 2 * n + 1,
        ancilla=lambda n: 2 * n - _k(n) - 2,
        depth=lambda n: 2 * _k(n + 1) + 5,
        depth_alt=lambda n: 2 * _k(n) + 5,
    ),
    "mersenne-oop-ones": FormulaSet(
        toffoli=lambda n: 5 * n - 6,
        cnot=lambda n: 3 * n,
        nots=lambda n: 0,
        ancilla=lambda n: n - 2,
        depth=lambda n: 2 * _k(n - 1) + 5,
    ),
    "mersenne-oop-zeros": FormulaSet(
        toffoli=lambda n: 5 * n - 5,
        cnot=lambda n: 3 * n,
        nots=lambda n: 0,
        ancilla=lambda n: n - 2,
        depth=lambda n: _k(n - 1) + log_third(n - 1) + 7,
    ),
}

_MERSENNE_IP = FormulaSet(
    toffoli=lambda n: 10 * n - 11,
    cnot=lambda n: 4 * n,
    nots=lambda n: 2 * n,
    ancilla=lambda n: 2 * n - 2,
    depth=lambda n: 3 * _k(n - 1) + log_third(n - 1) + 12,
)
FORMULAS["mersenne-ip-ones"] = _MERSENNE_IP
FORMULAS["mersenne-ip-zeros"] = _MERSENNE_IP

assert set(FORMULAS) == set(VARIANTS)


# Closed forms valid at n = 2^k exactly, used as an internal cross-check of
# the general formulas (variants whose references give both forms).
_POWER_OF_TWO_FORMS: dict[str, Callable[[int, int], tuple[int, int, int]]] = {
    # variant -> (toffoli, ancilla, depth) at n = 2^k
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
    "compare": lambda n, k: (6 * n - 3 * k - 5, 2 * n - k - 2, 2 * k + 5),
    "compare-ic": lambda n, k: (6 * n - 2 * k - 4, 2 * n - k - 2, 2 * k + 5),
    "mersenne-oop-ones": lambda n, k: (5 * n - 6, n - 2, 2 * k + 3),
    "mersenne-ip-ones": lambda n, k: (10 * n - 11, 2 * n - 2, 4 * k + 7),
    "mersenne-ip-zeros": lambda n, k: (10 * n - 11, 2 * n - 2, 4 * k + 7),
}


def formula_eval(variant_id: str, n: int) -> dict[str, int | bool]:
    """All formula values for one variant and width.

    ``exact`` reports whether the count formulas are guaranteed exact at
    this width.  At powers of two the general formulas are cross-checked
    against the simplified closed forms.
    """
    if variant_id not in FORMULAS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    f = FORMULAS[variant_id]
    out = {
        "toffoli": f.toffoli(n),
        "cnot": f.cnot(n),
        "not": f.nots(n),
        "ancilla": f.ancilla(n),
        "depth": f.depth_bound(n),
        "exact": n >= FORMULA_VALID_FROM,
    }
    if n >= 8 and n & (n - 1) == 0 and variant_id in _POWER_OF_TWO_FORMS:
        k = floor_log2(n)
        tof, anc, depth = _POWER_OF_TWO_FORMS[variant_id](n, k)
        if (tof, anc) != (out["toffoli"], out["ancilla"]):
            raise CircuitError(
                f"{variant_id} n={n}: general formulas disagree with the "
                f"power-of-two forms: {(out['toffoli'], out['ancilla'])} "
                f"vs {(tof, anc)}")
        out["depth"] = min(out["depth"], depth)
    return out


@dataclass(frozen=True)
class VerifyResult:
    variant_id: str
    n: int
    field: str
    expected: int
    measured: int
    ok: bool

    def __str__(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (f"{self.variant_id} n={self.n} {self.field}: "
                f"expected {self.expected}, measured {self.measured} "
                f"[{status}]")


def verify_family(variant_id: str, ns: Iterable[int]) -> list[VerifyResult]:
    """Measure circuits across a width range and diff against the formulas.

    Count fields require equality; the depth field requires measured depth
    at or below the formula bound.  Widths below ``FORMULA_VALID_FROM``
    are skipped: the closed forms are not exact there, and some are not
    even defined.
    """
    results = []
    for n in ns:
        if n < FORMULA_VALID_FROM:
            continue
        values = formula_eval(variant_id, n)
        report = resource_report(build_variant(variant_id, n))
        for field, measured in (
            ("toffoli", report.toffoli),
            ("cnot", report.cnot),
            ("not", report.nots),
            ("ancilla", report.ancilla_count),
        ):
            results.append(VerifyResult(
                variant_id, n, field, values[field], measured,
                measured == values[field]))
        results.append(VerifyResult(
            variant_id, n, "depth", values["depth"], report.toffoli_slices,
            report.toffoli_slices <= values["depth"]))
    return results
