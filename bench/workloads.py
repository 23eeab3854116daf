"""The benchmark's workloads: seeded inputs, one timed op each, and checks.

A workload turns a seed into an endless stream of ops, grouped in passes.
Each op is a call into qcla that a user would make; its output is checked
after the clock stops, and a failed check or an exception marks the op
failed instead of stopping the run.

Ops within a pass are ordered so that any stretch of the pass carries the
same mix of cheap and expensive ops as the whole pass (see ``balanced``).
A run ends wherever its time is up, so without this the figures would
depend on which ops the seed happened to put first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import qcla
import qcla.cli
from qcla import VARIANTS
from qcla.adders import request_for
from qcla.formulas import formula_eval

GOLDEN_PATH = Path(__file__).with_name("golden.json")

ADDERS = tuple(v for v in VARIANTS if v != "carry-network")
# the acceptance grid of the test suite: dense through 64, then powers of two
GRID = tuple(range(7, 65)) + (128, 256, 512, 1024)
VERIFY_RANGE_LEN = 4
# two tight cost clusters: out-of-place circuits at n = 4096 (~2.5x the
# cost of the rest) and in-place ones at n = 1024.  The median op lies
# well inside the n = 1024 cluster and the tail well inside the n = 4096
# one, so neither jumps between clusters when a run has an op more or less.
# (`carry-network` is left out: its wide oracle path alone costs ~7x.)
RANDOM_PAIRS = (
    ("add-oop", 4096),
    ("add-mod2n-oop", 4096),
    ("mersenne-oop-ones", 4096),
    ("add-ip", 1024),
    ("add-ip-ic", 1024),
    ("add-mod2n-ip", 1024),
    ("add-mod2n-ip-ic", 1024),
    ("sub-ip", 1024),
)
RANDOM_SAMPLES = 2048
# n = 9 is drawn twice per pass and n = 8 once, so the median op lies
# inside the n = 9 group and not on the gap between the two widths
EXHAUSTIVE_WIDTHS = (8, 9, 9)
# powers of two: few widths make a short pass, so the part of it a run
# covers varies little from seed to seed
CLI_WIDTHS = (64, 128, 256, 512, 1024, 2048)

_PHI = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Op:
    """One call into qcla, with the work it represents."""

    variant: str
    widths: tuple[int, ...]  # a verify range, or the single width
    gates: int  # gates built or parsed, from the golden table
    inputs: int  # operand assignments checked against the oracle
    seed: int = 0  # random_check operand seed
    operands: tuple[int, int, int] = (0, 0, 0)  # a, b, y for `qcla sim`
    gen_flags: tuple[str, ...] = ()  # variant flags for `qcla gen`

    @property
    def n(self) -> int:
        return self.widths[0]


def load_golden() -> dict[str, tuple[str, int]]:
    """``"variant/n"`` -> (SHA-256 of ``emit_native``, gate count)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return {k: (v[0], v[1]) for k, v in json.load(fh).items()}


def golden_key(variant: str, n: int) -> str:
    return f"{variant}/{n}"


def exhaustive_inputs(variant: str, n: int) -> int:
    return 4 ** n * (2 if variant.endswith("-ic") else 1)


def balanced(ops: list[Op], rng: random.Random) -> list[Op]:
    """Order a pass so that every stretch of it samples all cost levels.

    Ops are ranked by cost and then visited in golden-ratio order from a
    random start: the ranks met in any prefix are spread evenly over the
    whole range (a low-discrepancy sequence).
    """
    ranked = sorted(ops, key=lambda op: (op.inputs, op.gates, op.variant,
                                         op.widths))
    start = rng.random()
    keyed = [((r * _PHI + start) % 1.0, r) for r in range(len(ranked))]
    return [ranked[r] for _, r in sorted(keyed)]


# ---------------------------------------------------------------------------
# Ops and passes.  An op maker turns (variant, widths) into an op; a pass
# lists every op that one pass of a workload draws.


def verify_op(golden, rng: random.Random, variant: str,
              widths: tuple[int, ...]) -> Op:
    gates = sum(golden[golden_key(variant, n)][1] for n in widths)
    inputs = 0
    if variant != "carry-network":  # verify checks n <= 8 exhaustively
        inputs = sum(exhaustive_inputs(variant, n) for n in widths if n <= 8)
    return Op(variant, widths, gates, inputs)


def verify_pass(golden, rng: random.Random) -> list[Op]:
    """Every (variant, width) of the grid once: short ranges below 65,
    single widths above; the seed shifts where the short ranges split."""
    small = [n for n in GRID if n <= 64]
    ops = []
    for v in VARIANTS:
        cut = rng.randrange(1, VERIFY_RANGE_LEN + 1)
        chunks = [small[:cut]] + [small[i:i + VERIFY_RANGE_LEN]
                                  for i in range(cut, len(small),
                                                 VERIFY_RANGE_LEN)]
        chunks += [[n] for n in GRID if n > 64]
        ops += [verify_op(golden, rng, v, tuple(c)) for c in chunks]
    return ops


def random_op(golden, rng: random.Random, variant: str,
              widths: tuple[int, ...]) -> Op:
    return Op(variant, widths, golden[golden_key(variant, widths[0])][1],
              RANDOM_SAMPLES, seed=rng.randrange(1 << 32))


def random_pass(golden, rng: random.Random) -> list[Op]:
    return [random_op(golden, rng, v, (n,)) for v, n in RANDOM_PAIRS]


def exhaustive_op(golden, rng: random.Random, variant: str,
                  widths: tuple[int, ...]) -> Op:
    n = widths[0]
    return Op(variant, widths, golden[golden_key(variant, n)][1],
              exhaustive_inputs(variant, n))


def exhaustive_pass(golden, rng: random.Random) -> list[Op]:
    return [exhaustive_op(golden, rng, v, (n,))
            for v in ADDERS for n in EXHAUSTIVE_WIDTHS]


def _gen_flags(variant: str) -> tuple[str, ...]:
    if variant == "carry-network":
        return ("--circuit", "carry-network")
    req = request_for(variant, 8)
    flags = ["--circuit", req.function]
    if req.in_place:
        flags.append("--in-place")
    if req.incoming_carry:
        flags.append("--incoming-carry")
    if req.zero_rep:
        flags += ["--zero-rep", req.zero_rep]
    return tuple(flags)


def cli_op(golden, rng: random.Random, variant: str,
           widths: tuple[int, ...]) -> Op:
    n = widths[0]
    y = rng.randrange(2) if variant.endswith("-ic") else 0
    operands = (rng.randrange(1 << n), rng.randrange(1 << n), y)
    # built once by `gen`, parsed by `stats` and again by `sim`
    gates = 3 * golden[golden_key(variant, n)][1]
    return Op(variant, widths, gates, 1, operands=operands,
              gen_flags=_gen_flags(variant))


def cli_pass(golden, rng: random.Random) -> list[Op]:
    return [cli_op(golden, rng, v, (n,)) for v in VARIANTS for n in CLI_WIDTHS]


# ---------------------------------------------------------------------------
# Execution (timed) and checks (untimed)


def _quiet(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = qcla.cli.main(argv)
    return rc, out.getvalue()


def run_verify(op: Op, workdir: Path):
    lo, hi = op.widths[0], op.widths[-1]
    return _quiet(["verify", "--family", op.variant, "--range", f"{lo}..{hi}"])


def check_verify(op: Op, result, golden, workdir: Path) -> str | None:
    rc, text = result
    if rc != 0:
        return f"verify exited {rc}"
    if any("MISMATCH" in line for line in text.splitlines()):
        return "verify printed a MISMATCH line"
    return None


def run_random(op: Op, workdir: Path):
    return qcla.sim.random_check(op.variant, op.n, RANDOM_SAMPLES, op.seed)


def run_exhaustive(op: Op, workdir: Path):
    return qcla.sim.exhaustive_check(op.variant, op.n)


def check_none(op: Op, result, golden, workdir: Path) -> str | None:
    return None if result is None else f"counterexample: {result}"


def run_cli(op: Op, workdir: Path):
    path = str(workdir / "circuit.qc")
    a, b, y = op.operands
    gen = _quiet(["gen", *op.gen_flags, "--n", str(op.n),
                  "-o", path])
    stats = _quiet(["stats", path, "--json"])
    sim = _quiet(["sim", path, "--a", str(a), "--b", str(b), "--y", str(y)])
    return gen, stats, sim


def check_cli(op: Op, result, golden, workdir: Path) -> str | None:
    (gen_rc, _), (stats_rc, stats_out), (sim_rc, sim_out) = result
    if gen_rc != 0:
        return f"gen exited {gen_rc}"
    text = (workdir / "circuit.qc").read_text(encoding="utf-8")
    head = f"# variant={op.variant} n={op.n}\n"
    if not text.startswith(head):
        return "generated file lacks its variant stamp"
    digest = hashlib.sha256(text[len(head):].encode()).hexdigest()
    if digest != golden[golden_key(op.variant, op.n)][0]:
        return "generated circuit differs from the golden digest"
    if stats_rc != 0:
        return f"stats exited {stats_rc}"
    stats = json.loads(stats_out)
    want = formula_eval(op.variant, op.n)
    for field, key in (("toffoli", "toffoli"), ("cnot", "cnot"),
                       ("not", "not"), ("ancilla", "ancillae")):
        if stats[key] != want[field]:
            return f"stats {key}={stats[key]}, formula {want[field]}"
    if stats["toffoli_slices"] > want["depth"]:
        return (f"stats toffoli_slices={stats['toffoli_slices']} exceeds "
                f"the bound {want['depth']}")
    if sim_rc != 0:
        return f"sim exited {sim_rc}"
    if "restored=true clean=true" not in sim_out:
        return f"sim printed {sim_out.strip()!r}"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[dict, random.Random], list[Op]]
    make_op: Callable[[dict, random.Random, str, tuple[int, ...]], Op]
    run: Callable[[Op, Path], object]
    check: Callable[[Op, object, dict, Path], str | None]
    # (variant, widths) of the untimed warm-up op: widths no timed op
    # draws, so set-up cannot fill a cache that the timed ops then hit
    warmup: tuple[str, tuple[int, ...]]

    def stream(self, golden, seed: int) -> Iterator[Op]:
        """Ops pass after pass; the same seed gives the same ops."""
        rng = random.Random(seed)
        while True:
            yield from balanced(self.make_pass(golden, rng), rng)

    def warmup_op(self, golden) -> Op:
        return self.make_op(golden, random.Random(0), *self.warmup)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("verify-sweep", verify_pass, verify_op, run_verify,
             check_verify, ("add-oop", (65, 66))),
    Workload("random-wide", random_pass, random_op, run_random, check_none,
             ("add-ip", (96,))),
    Workload("exhaustive-narrow", exhaustive_pass, exhaustive_op,
             run_exhaustive, check_none, ("add-oop", (7,))),
    Workload("cli-files", cli_pass, cli_op, run_cli, check_cli,
             ("add-ip", (48,))),
)}


def drawable_pairs() -> set[tuple[str, int]]:
    """Every (variant, width) that an op or a warm-up op can build."""
    pairs = {(v, n) for v in VARIANTS for n in GRID + CLI_WIDTHS}
    pairs |= set(RANDOM_PAIRS)
    pairs |= {(v, n) for v in ADDERS for n in EXHAUSTIVE_WIDTHS}
    pairs |= {(w.warmup[0], n) for w in WORKLOADS.values()
              for n in w.warmup[1]}
    return pairs
