"""Closed-form resource counts for every circuit variant.

Each variant has one closed form per resource: its Toffoli, CNOT and NOT
counts, its ancilla usage, and its Toffoli depth (the number of ASAP
time-slices containing a Toffoli).  Each closed form is a sum of carry
network terms, ``_network``'s ``T(m)``, ``A(m)`` and ``D(m)`` at a tree
width ``m``, and its family's linear passes; a family form takes the
arguments of its builder in ``adders.py``.  The counts are exact wherever
the closed forms are defined, which is every width with a circuit except
``n = 1`` of ``add-ip``, ``add-mod2n-oop``, ``add-mod2n-ip`` and
``sub-ip``.  The depth is exact from ``n = 5``; below that the carry trees
degenerate and it is an upper bound.  ``verify_family`` builds circuits,
diffs measured resources against the closed forms and, at widths up to
``EXHAUSTIVE_UPTO``, checks each circuit on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .adders import VARIANTS, build_variant
from .carry import floor_log2
from .core import CircuitError, _gc_paused, require_int, resource_report
from .sim import Counterexample, exhaustive_check

DEPTH_EXACT_FROM = 5
EXHAUSTIVE_UPTO = 8
# formula_eval's keys, in the order of every family form's values
_FIELDS = ("toffoli", "cnot", "not", "ancilla", "depth")


def popcount(n: int) -> int:
    return n.bit_count()


def log_third(n: int) -> int:
    """``floor(log2(n / 3))``: ``floor_log2(n // 3)`` from ``n = 3``, and
    -2 and -1 at ``n = 1`` and ``2``."""
    if n < 1:
        raise CircuitError(f"log_third needs n >= 1, got {n}")
    return floor_log2(n // 3) if n >= 3 else n - 3


def _network(m: int) -> tuple[int, int, int]:
    """The width-``m`` carry network's Toffolis ``T(m)``, ancillae ``A(m)``
    and Toffoli depth ``D(m)``."""
    k, w = floor_log2(m), popcount(m)
    return 4 * m - 3 * w - 3 * k - 1, m - w - k, k + log_third(m) + 3


def _carry_network(n: int) -> tuple[int, ...]:
    t, a, d = _network(n)
    return t, 0, 0, a, d


def _out_of_place(n: int, ic: bool, mod2n: bool = False) -> tuple[int, ...]:
    """One network over the ``s`` sum positions (and the carry-in)."""
    s = n - mod2n
    t, a, d = _network(s + ic)
    return s + t, 3 * n - 1 + 2 * ic - mod2n, 0, a, d + 1


def _add_ip(n: int, ic: bool, mod2n: bool = False) -> tuple[int, ...]:
    """A network forward, one over the ``e`` erased carries backward."""
    e = n - 1 + ic
    t, a, d = _network(e + 1 - mod2n)
    t_back, _, d_back = _network(e)
    return (t + t_back + 2 * n - 1 - mod2n, 4 * n - 5 + 3 * ic, 2 * n - 2,
            n - 1 + a, d + d_back + 2)


def _sub(n: int, in_place: bool) -> tuple[int, ...]:
    """The matching adder, with ``A`` and the result negated."""
    t, c, x, a, d = (_add_ip if in_place else _out_of_place)(n, False)
    return t, c, x + 3 * n + 1, a, d


def _compare(n: int, ic: bool) -> tuple[int, ...]:
    """The padded tree's rounds on the top carry's path, and their undoing."""
    m = n - 1 + ic
    k = floor_log2(m)
    return (6 * n - popcount(m) - 2 * k - 7 + 4 * ic, 2 * m, 2 * n + 1,
            2 * m - k - 1 - ic, 2 * k + 5)


def _mersenne_oop(n: int, zero_rep: str) -> tuple[int, ...]:
    """The end-around padded rounds; ``"zeros"`` adds the fold Toffoli."""
    zeros = zero_rep == "zeros"
    depth = _network(n - 1)[2] + 4 if zeros else 2 * floor_log2(n - 1) + 5
    return 5 * n - 6 + zeros, 3 * n, 0, n - 2, depth


def _mersenne_ip(n: int) -> tuple[int, ...]:
    """One representation's rounds forward, the other's backward: either
    way, the Toffolis and depth of both out-of-place forms."""
    t_ones, _, _, a, d_ones = _mersenne_oop(n, "ones")
    t_zeros, _, _, _, d_zeros = _mersenne_oop(n, "zeros")
    return t_ones + t_zeros, 4 * n, 2 * n, n + a, d_ones + d_zeros


# variant id -> (its family form, the form's arguments after n), in
# VARIANTS' order
FORMULAS: dict[str, tuple] = {
    "carry-network": (_carry_network,),
    "add-oop": (_out_of_place, False),
    "add-oop-ic": (_out_of_place, True),
    "add-ip": (_add_ip, False),
    "add-ip-ic": (_add_ip, True),
    "add-mod2n-oop": (_out_of_place, False, True),
    "add-mod2n-oop-ic": (_out_of_place, True, True),
    "add-mod2n-ip": (_add_ip, False, True),
    "add-mod2n-ip-ic": (_add_ip, True, True),
    "sub-oop": (_sub, False),
    "sub-ip": (_sub, True),
    "compare": (_compare, False),
    "compare-ic": (_compare, True),
    "mersenne-oop-ones": (_mersenne_oop, "ones"),
    "mersenne-oop-zeros": (_mersenne_oop, "zeros"),
    "mersenne-ip-ones": (_mersenne_ip,),
    "mersenne-ip-zeros": (_mersenne_ip,),
}

assert tuple(FORMULAS) == VARIANTS


def formula_eval(variant_id: str, n: int) -> dict[str, int]:
    """Every closed form of one variant at width ``n``."""
    if variant_id not in FORMULAS:
        raise CircuitError(f"unknown variant {variant_id!r}")
    require_int("n", n)
    form, *args = FORMULAS[variant_id]
    try:
        return dict(zip(_FIELDS, form(n, *args)))
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


@_gc_paused
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
            if type(n) is int and n <= EXHAUSTIVE_UPTO:
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
        for field, measured in zip(_FIELDS, (report.toffoli, report.cnot,
                                             report.nots,
                                             report.ancilla_count)):
            results.append(VerifyResult(
                variant_id, n, field, values[field], measured,
                measured == values[field]))
        depth, bound = report.toffoli_slices, values["depth"]
        results.append(VerifyResult(
            variant_id, n, "depth", bound, depth,
            depth == bound if n >= DEPTH_EXACT_FROM else depth <= bound))
    return results + exhaustive
