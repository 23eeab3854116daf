"""Golden digests: every variant emits exactly the pinned gate list.

``golden_digests.json`` maps ``"variant/n"`` to the SHA-256 of
``emit_native(build_variant(variant, n))`` for the width grid and for every
valid width from 1 to 6, where the carry trees degenerate.  The
table was made from the generators before their IR was reworked, so a
refactor or optimisation that changes any gate, its order, a register or a
barrier fails here.  Regenerate it only on purpose, from the repository
root::

    PYTHONPATH=src python3 tests/test_golden.py

The native text drops phase tags, so ``PHASE_DIGEST`` pins them apart: one
SHA-256 over every gate's ``(kind, controls, target, phase)`` and every
barrier, for each variant at each valid width 1..16 and at 64.
``WIDE_PHASE_DIGEST`` is the same digest at widths above 64 that are not
powers of two, where a tree's rounds end in partial strides.  A change
that retags gates on purpose updates them by hand.
"""

import hashlib
import json
from pathlib import Path

from conftest import GRID, native_digest, valid_small_widths
from qcla import build_variant
from qcla.adders import VARIANTS

GOLDEN = Path(__file__).with_name("golden_digests.json")
SMALL_TOP = 6
PHASE_DIGEST = ("c057e82d730fa4d18a0b196a3ca5e836"
                "8b2c2480a15ec9f1754e6de8383e5b57")
WIDE_WIDTHS = (65, 100, 127, 129, 255, 257, 1000)
WIDE_PHASE_DIGEST = ("95fe3eb4f1f892b5c0a6a5b33c9435ea"
                     "b51bfca2f60ece3a2a36ead32ebbd896")


def small_pairs() -> list[tuple[str, int]]:
    return [(v, n) for v in VARIANTS for n in valid_small_widths(v, SMALL_TOP)]


def load() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_grid_digests_match(grid_sweep):
    golden = load()
    assert len(grid_sweep.digests) == len(VARIANTS) * len(GRID)
    bad = [key for key, digest in grid_sweep.digests.items()
           if golden[f"{key[0]}/{key[1]}"] != digest]
    assert not bad, f"circuits differ from the golden digests: {bad[:10]}"


def test_small_width_digests_match():
    golden = load()
    bad = [(v, n) for v, n in small_pairs()
           if golden[f"{v}/{n}"] != native_digest(build_variant(v, n))]
    assert not bad, f"circuits differ from the golden digests: {bad}"


def phase_digest(widths=None) -> str:
    """One SHA-256 over the phase-tagged gates and the barriers of every
    variant at ``widths`` (by default its valid widths 1..16 and 64)."""
    digest = hashlib.sha256()
    for v in VARIANTS:
        for n in widths or valid_small_widths(v, 16) + [64]:
            circuit = build_variant(v, n)
            for kind, controls, target, phase in circuit.gates:
                digest.update(repr((kind.value, controls, target,
                                    phase)).encode())
            digest.update(repr(circuit.barriers).encode())
    return digest.hexdigest()


def test_phase_tags_and_barriers_match():
    assert phase_digest() == PHASE_DIGEST


def test_phase_tags_and_barriers_match_above_64():
    assert phase_digest(WIDE_WIDTHS) == WIDE_PHASE_DIGEST


def test_table_covers_exactly_the_checked_pairs():
    pairs = small_pairs() + [(v, n) for v in VARIANTS for n in GRID]
    assert sorted(load()) == sorted(f"{v}/{n}" for v, n in pairs)


if __name__ == "__main__":
    table = {f"{v}/{n}": native_digest(build_variant(v, n))
             for v, n in small_pairs() + [(v, n) for v in VARIANTS
                                          for n in GRID]}
    lines = [f"{json.dumps(k)}: {json.dumps(d)}" for k, d in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
