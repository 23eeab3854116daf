"""The qcla benchmark.

Run one workload, as a fresh process for each so that its peak memory is
its own::

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

or every workload, untraced and then traced, with a table at the end::

    python3 bench/run.py --all --seed 1 --seconds 20 [--out results.json]

Load: one client in a closed loop, in one process and one thread; each op
starts when the previous one returns.  The op's output is checked after
the clock stops.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run traces every second op; ``trace_overhead_ratio`` is the
median time of the traced ops over that of the untraced ones.  Its spans are written
to ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import qcla_src

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "gates_per_s": "gates/s",
    "inputs_checked_per_s": "inputs/s",
    "peak_rss_mb": "MiB",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qcla, qcla.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass(frozen=True)
class Record:
    op: object
    ns: int
    problem: str | None


def import_seconds() -> float:
    """Time to import qcla in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                          str(qcla_src.SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout)


def run_op(workload, op, golden, workdir: Path, tracer=None) -> Record:
    problem = None
    t0 = time.perf_counter_ns()
    if tracer is not None:
        tracer.begin_op(t0)
    try:
        result = workload.run(op, workdir)
    except Exception as exc:  # a raising op is a failed op, not a crash
        result, problem = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.end_op(t1)
    if problem is None:
        try:
            problem = workload.check(op, result, golden, workdir)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return Record(op, t1 - t0, problem)


def measure(workload, stream, golden, workdir: Path, seconds: float,
            tracer=None) -> list[Record]:
    """Closed loop: run ops from ``stream`` until ``seconds`` have passed.

    With a tracer, every second op runs traced and the others untraced, so
    both halves see the same mix of ops and the same machine load.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(stream)
        if tracer is not None and len(records) % 2:
            tracer.install()
            try:
                records.append(run_op(workload, op, golden, workdir, tracer))
            finally:
                tracer.restore()
        else:
            records.append(run_op(workload, op, golden, workdir))
    return records


def set_up(workload, seed: int, workdir: Path):
    """Import, inputs and a warm-up op, ``SETUP_REPEATS`` times.

    Returns the median set-up time, the op stream, the golden table and
    the warm-up record of the last repetition.
    """
    from workloads import load_golden

    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t = time.perf_counter()
        golden = load_golden()
        stream = workload.stream(golden, seed)
        stream = chain([next(stream)], stream)  # makes the first pass
        warm = run_op(workload, workload.warmup_op(golden), golden, workdir)
        times.append(imported + time.perf_counter() - t)
    return statistics.median(times), stream, golden, warm


def tail(times_ns: list[int]) -> tuple[float, float]:
    """(percentile, ms) of the highest percentile with at least
    ``TAIL_BEYOND`` ops beyond it (the maximum if there are too few ops)."""
    ordered = sorted(times_ns)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    i = len(ordered) - beyond - 1
    return 100.0 * (i + 1) / len(ordered), ordered[i] / 1e6


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    times = [r.ns for r in records]
    ok = [r for r in records if r.problem is None]
    busy_s = sum(times) / 1e9
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(times) / 1e6,
        "op_tail_ms": tail(times)[1],
        "gates_per_s": sum(r.op.gates for r in ok) / busy_s,
        "inputs_checked_per_s": sum(r.op.inputs for r in ok) / busy_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def describe(name: str, records: list[Record], warm: Record) -> bool:
    """Print op counts and failures; return whether every check passed."""
    failed = [r for r in records if r.problem is not None]
    pct, ms = tail([r.ns for r in records])
    print(f"{name}: {len(records)} ops, {len(failed)} failed "
          f"(failed_op_ratio {len(failed) / max(len(records), 1):.4f}); "
          f"tail is p{pct:.1f} = {ms:.3f} ms")
    for r in ([warm] if warm.problem else []) + failed[:5]:
        print(f"  FAILED {r.op.variant} {r.op.widths}: {r.problem}")
    return not failed and warm.problem is None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    root = Path.cwd()
    workdir = root / OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, stream, golden, warm = set_up(workload, seed, workdir)
        if not trace:
            records = measure(workload, stream, golden, workdir, seconds)
            correct = describe(name, records, warm)
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(records, setup_s).items()}
        else:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            records = measure(workload, stream, golden, workdir, seconds,
                              tracer)
            correct = describe(name, records, warm)
            metrics = layer_metrics(tracer.ops())
            metrics["trace_overhead_ratio"] = (
                statistics.median(r.ns for r in records[1::2])
                / statistics.median(r.ns for r in records[0::2]), "ratio")
            spans = root / OUT_DIR / f"trace-{name}-{seed}.tsv.gz"
            tracer.write(spans)
            print(f"spans written to {spans}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.problem is not None for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                return proc.returncode
            *lines, last = proc.stdout.strip().splitlines()
            print("\n".join(lines))
            key = "traced" if trace else "untraced"
            results.setdefault(name, {})[key] = json.loads(last)
    print()
    print(f"{'workload':<18} {'metric':<22} {'value':>14}  unit")
    for name, res in results.items():
        for metric, m in res["untraced"]["metrics"].items():
            print(f"{name:<18} {metric:<22} {m['value']:>14.4f}  {m['unit']}")
        overhead = res["traced"]["metrics"]["trace_overhead_ratio"]["value"]
        print(f"{name:<18} {'trace_overhead_ratio':<22} {overhead:>14.4f}  ratio")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "seconds": seconds, "results": results},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(r[k]["correct"] for r in results.values() for k in r)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results here")
    args = parser.parse_args(argv)
    try:
        qcla_src.load()
    except ImportError as exc:
        print(f"error: cannot import qcla from {qcla_src.SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
