"""Closed-form resource counts for every circuit variant.

Each variant has one closed form per resource: its Toffoli, CNOT and NOT
counts, its ancilla usage, and its Toffoli depth (the number of ASAP
time-slices containing a Toffoli).  The counts are exact wherever the
closed forms are defined, which is every width with a circuit except
``n = 1`` of ``add-ip``, ``add-mod2n-oop``, ``add-mod2n-ip`` and
``sub-ip``.  The depth is exact from ``n = 5``; below that the carry trees
degenerate and it is an upper bound.  ``verify_family`` builds circuits,
diffs measured resources against the closed forms and, at widths up to
``EXHAUSTIVE_UPTO``, checks each circuit on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .adders import VARIANTS, build_variant
from .carry import floor_log2
from .core import CircuitError, resource_report
from .sim import Counterexample, exhaustive_check

DEPTH_EXACT_FROM = 5
EXHAUSTIVE_UPTO = 8


def popcount(n: int) -> int:
    return n.bit_count()


def log_third(n: int) -> int:
    """``floor(log2(n / 3))``: ``floor_log2(n // 3)`` from ``n = 3``, and
    -2 and -1 at ``n = 1`` and ``2``."""
    if n < 1:
        raise CircuitError(f"log_third needs n >= 1, got {n}")
    return floor_log2(n // 3) if n >= 3 else n - 3


def _k(n: int) -> int:
    return floor_log2(n)


def _w(n: int) -> int:
    return popcount(n)


# variant id -> resource -> closed form, in formula_eval's key order
FORMULAS: dict[str, dict[str, Callable[[int], int]]] = {
    "carry-network": {
        "toffoli": lambda n: 4 * n - 3 * _w(n) - 3 * _k(n) - 1,
        "cnot": lambda n: 0,
        "not": lambda n: 0,
        "ancilla": lambda n: n - _w(n) - _k(n),
        "depth": lambda n: _k(n) + log_third(n) + 3,
    },
    "add-oop": {
        "toffoli": lambda n: 5 * n - 3 * _w(n) - 3 * _k(n) - 1,
        "cnot": lambda n: 3 * n - 1,
        "not": lambda n: 0,
        "ancilla": lambda n: n - _w(n) - _k(n),
        "depth": lambda n: _k(n) + log_third(n) + 4,
    },
    "add-oop-ic": {
        "toffoli": lambda n: 5 * n - 3 * _w(n + 1) - 3 * _k(n + 1) + 3,
        "cnot": lambda n: 3 * n + 1,
        "not": lambda n: 0,
        "ancilla": lambda n: (n + 1) - _w(n + 1) - _k(n + 1),
        "depth": lambda n: _k(n + 1) + log_third(n + 1) + 4,
    },
    "add-ip": {
        "toffoli": lambda n: (10 * n - 3 * _w(n) - 3 * _w(n - 1)
                              - 3 * _k(n) - 3 * _k(n - 1) - 7),
        "cnot": lambda n: 4 * n - 5,
        "not": lambda n: 2 * n - 2,
        "ancilla": lambda n: 2 * n - _w(n) - _k(n) - 1,
        "depth": lambda n: (_k(n) + _k(n - 1) + log_third(n)
                            + log_third(n - 1) + 8),
    },
    "add-ip-ic": {
        "toffoli": lambda n: (10 * n - 3 * _w(n) - 3 * _w(n + 1)
                              - 3 * _k(n) - 3 * _k(n + 1) + 1),
        "cnot": lambda n: 4 * n - 2,
        "not": lambda n: 2 * n - 2,
        "ancilla": lambda n: 2 * n - _w(n + 1) - _k(n + 1),
        "depth": lambda n: (_k(n) + _k(n + 1) + log_third(n)
                            + log_third(n + 1) + 8),
    },
    "add-mod2n-oop": {
        "toffoli": lambda n: 5 * n - 3 * _w(n - 1) - 3 * _k(n - 1) - 6,
        "cnot": lambda n: 3 * n - 2,
        "not": lambda n: 0,
        "ancilla": lambda n: (n - 1) - _w(n - 1) - _k(n - 1),
        "depth": lambda n: _k(n - 1) + log_third(n - 1) + 4,
    },
    "add-mod2n-oop-ic": {
        "toffoli": lambda n: 5 * n - 3 * _w(n) - 3 * _k(n) - 2,
        "cnot": lambda n: 3 * n,
        "not": lambda n: 0,
        "ancilla": lambda n: n - _w(n) - _k(n),
        "depth": lambda n: _k(n) + log_third(n) + 4,
    },
    "add-mod2n-ip": {
        "toffoli": lambda n: 10 * n - 6 * _w(n - 1) - 6 * _k(n - 1) - 12,
        "cnot": lambda n: 4 * n - 5,
        "not": lambda n: 2 * n - 2,
        "ancilla": lambda n: 2 * n - 2 - _w(n - 1) - _k(n - 1),
        "depth": lambda n: 2 * _k(n - 1) + 2 * log_third(n - 1) + 8,
    },
    "add-mod2n-ip-ic": {
        "toffoli": lambda n: 10 * n - 6 * _w(n) - 6 * _k(n) - 4,
        "cnot": lambda n: 4 * n - 2,
        "not": lambda n: 2 * n - 2,
        "ancilla": lambda n: 2 * n - _w(n) - _k(n) - 1,
        "depth": lambda n: 2 * _k(n) + 2 * log_third(n) + 8,
    },
    "sub-oop": {
        "toffoli": lambda n: 5 * n - 3 * _w(n) - 3 * _k(n) - 1,
        "cnot": lambda n: 3 * n - 1,
        "not": lambda n: 3 * n + 1,
        "ancilla": lambda n: n - _w(n) - _k(n),
        "depth": lambda n: _k(n) + log_third(n) + 4,
    },
    "sub-ip": {
        "toffoli": lambda n: (10 * n - 3 * _w(n) - 3 * _w(n - 1)
                              - 3 * _k(n) - 3 * _k(n - 1) - 7),
        "cnot": lambda n: 4 * n - 5,
        "not": lambda n: 5 * n - 1,
        "ancilla": lambda n: 2 * n - _w(n) - _k(n) - 1,
        "depth": lambda n: (_k(n) + _k(n - 1) + log_third(n)
                            + log_third(n - 1) + 8),
    },
    "compare": {
        "toffoli": lambda n: 6 * n - _w(n - 1) - 2 * _k(n - 1) - 7,
        "cnot": lambda n: 2 * n - 2,
        "not": lambda n: 2 * n + 1,
        "ancilla": lambda n: 2 * n - _k(n - 1) - 3,
        "depth": lambda n: 2 * _k(n - 1) + 5,
    },
    "compare-ic": {
        "toffoli": lambda n: 6 * n - _w(n) - 2 * _k(n) - 3,
        "cnot": lambda n: 2 * n,
        "not": lambda n: 2 * n + 1,
        "ancilla": lambda n: 2 * n - _k(n) - 2,
        "depth": lambda n: 2 * _k(n) + 5,
    },
    "mersenne-oop-ones": {
        "toffoli": lambda n: 5 * n - 6,
        "cnot": lambda n: 3 * n,
        "not": lambda n: 0,
        "ancilla": lambda n: n - 2,
        "depth": lambda n: 2 * _k(n - 1) + 5,
    },
    "mersenne-oop-zeros": {
        "toffoli": lambda n: 5 * n - 5,
        "cnot": lambda n: 3 * n,
        "not": lambda n: 0,
        "ancilla": lambda n: n - 2,
        "depth": lambda n: _k(n - 1) + log_third(n - 1) + 7,
    },
}

_MERSENNE_IP = {
    "toffoli": lambda n: 10 * n - 11,
    "cnot": lambda n: 4 * n,
    "not": lambda n: 2 * n,
    "ancilla": lambda n: 2 * n - 2,
    "depth": lambda n: 3 * _k(n - 1) + log_third(n - 1) + 12,
}
FORMULAS["mersenne-ip-ones"] = _MERSENNE_IP
FORMULAS["mersenne-ip-zeros"] = _MERSENNE_IP

assert set(FORMULAS) == set(VARIANTS)


def formula_eval(variant_id: str, n: int) -> dict[str, int]:
    """Every closed form of one variant at width ``n``."""
    if variant_id not in FORMULAS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    try:
        return {key: f(n) for key, f in FORMULAS[variant_id].items()}
    except CircuitError as exc:
        raise CircuitError(
            f"{variant_id} has no closed form at n={n}: {exc}") from None


@dataclass(frozen=True)
class VerifyResult:
    """One resource checked at one width, or (field ``exhaustive``) the
    check of every input at one width, with its first counterexample when
    it fails; or, with ``reason`` set, a width that could not be checked
    and why."""

    variant_id: str
    n: int
    field: str
    expected: int | None
    measured: int | None
    ok: bool
    reason: str | None = None
    counterexample: Counterexample | None = None

    def __str__(self) -> str:
        head = f"{self.variant_id} n={self.n} {self.field}: "
        if self.reason is not None:
            return f"{head}not checked ({self.reason})"
        if self.field == "exhaustive":
            return head + ("ok" if self.ok else f"FAIL ({self.counterexample})")
        bound = self.field == "depth" and self.n < DEPTH_EXACT_FROM
        status = "ok" if self.ok else "MISMATCH"
        return (f"{head}expected {'at most ' if bound else ''}"
                f"{self.expected}, measured {self.measured} [{status}]")


def verify_family(variant_id: str, ns: Iterable[int]) -> list[VerifyResult]:
    """Measure circuits across a width range and diff against the formulas.

    The four counts must equal their closed forms, and so must the depth
    from ``n = DEPTH_EXACT_FROM``; below that the depth must not exceed it.
    A width with no circuit, or where a closed form is undefined, gives
    one ``resources`` result that says why it was not checked.  Each
    circuit up to ``n = EXHAUSTIVE_UPTO`` is also checked on every input;
    those ``exhaustive`` results follow all the resource results.
    """
    if variant_id not in FORMULAS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    results, exhaustive = [], []
    for n in ns:
        try:
            circuit = build_variant(variant_id, n)
        except CircuitError as exc:
            results.append(VerifyResult(variant_id, n, "resources", None,
                                        None, True, str(exc)))
            if n <= EXHAUSTIVE_UPTO:
                exhaustive.append(VerifyResult(variant_id, n, "exhaustive",
                                               None, None, True, str(exc)))
            continue
        if n <= EXHAUSTIVE_UPTO:
            cex = exhaustive_check(variant_id, n, circuit=circuit)
            exhaustive.append(VerifyResult(variant_id, n, "exhaustive", None,
                                           None, cex is None,
                                           counterexample=cex))
        try:
            values = formula_eval(variant_id, n)
        except CircuitError as exc:
            results.append(VerifyResult(variant_id, n, "resources", None,
                                        None, True, str(exc)))
            continue
        report = resource_report(circuit)
        for field, measured in (
            ("toffoli", report.toffoli),
            ("cnot", report.cnot),
            ("not", report.nots),
            ("ancilla", report.ancilla_count),
        ):
            results.append(VerifyResult(
                variant_id, n, field, values[field], measured,
                measured == values[field]))
        depth, bound = report.toffoli_slices, values["depth"]
        results.append(VerifyResult(
            variant_id, n, "depth", bound, depth,
            depth == bound if n >= DEPTH_EXACT_FROM else depth <= bound))
    return results + exhaustive
