"""Regenerate ``golden.json``, the circuits the benchmark expects.

For every (variant, width) that a workload can draw it stores the SHA-256
of ``emit_native(build_variant(variant, n))`` and the circuit's gate count.
The table pins the gate lists of the commit it was made from: an
optimisation must leave every digest unchanged.  Run from the repository
root::

    python3 bench/golden.py
"""

from __future__ import annotations

import hashlib
import json

import qcla_src

qcla_src.load()

from qcla import build_variant, emit_native  # noqa: E402

from workloads import GOLDEN_PATH, drawable_pairs, golden_key  # noqa: E402


def digest(variant: str, n: int) -> tuple[str, int]:
    circuit = build_variant(variant, n)
    text = emit_native(circuit)
    return hashlib.sha256(text.encode()).hexdigest(), len(circuit)


def main() -> None:
    table = {golden_key(v, n): digest(v, n)
             for v, n in sorted(drawable_pairs())}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
