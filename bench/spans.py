"""Per-layer tracing of qcla from outside its source.

``Tracer.install`` replaces each traced function, in every qcla module
that binds it by name, with a wrapper that records a span -- name, start,
end, parent span and op id -- and, for some functions, a work counter.
``Tracer.restore`` puts every original back.  Spans are kept in flat
arrays in memory and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Each op has a root span, ``op``, whose self time is the part of the op
spent outside every traced function, so the self times of an op's spans
add up to the op's wall time.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# (span name, module, attribute)
SPANS = (
    ("cli.main", "qcla.cli", "main"),
    ("formulas.verify_family", "qcla.formulas", "verify_family"),
    ("adders.build_variant", "qcla.adders", "build_variant"),
    ("adders.build", "qcla.adders", "build"),
    ("core.levelize", "qcla.core", "levelize"),
    ("core.schedule_asap", "qcla.core", "schedule_asap"),
    ("core.resource_report", "qcla.core", "resource_report"),
    ("sim.random_check", "qcla.sim", "random_check"),
    ("sim.exhaustive_check", "qcla.sim", "exhaustive_check"),
    ("sim.stride_column", "qcla.sim", "stride_column"),
    ("sim.values_to_columns", "qcla.sim", "values_to_columns"),
    ("sim.run_columns", "qcla.sim", "run_columns"),
    ("sim._check_columns", "qcla.sim", "_check_columns"),
    ("sim.columns_to_values", "qcla.sim", "columns_to_values"),
    ("sim.expected_state", "qcla.sim", "expected_state"),
    ("sim.run_operands", "qcla.sim", "run_operands"),
    ("textfmt.emit_native", "qcla.textfmt", "emit_native"),
    ("textfmt.parse_native", "qcla.textfmt", "parse_native"),
)
SPAN_NAMES = tuple(s[0] for s in SPANS)
_BUILDS = frozenset({"adders.build_variant", "adders.build"})


# Counters.  Each hook sees the finished call and adds to the current op.

def _count_built(tr: Tracer, parent: str, args, kwargs, result) -> None:
    if parent not in _BUILDS:  # count a circuit once, at its outermost build
        tr.add("adders.gates_built", len(result.gates))


def _count_levelize(tr: Tracer, parent: str, args, kwargs, result) -> None:
    tr.add("core.levelize.gates_in", len(args[0]))


def _count_slices(tr: Tracer, parent: str, args, kwargs, result) -> None:
    tr.add("core.slices", len(result))


def _count_run_columns(tr: Tracer, parent: str, args, kwargs, result) -> None:
    circuit = args[0]
    mask = args[2] if len(args) > 2 else kwargs["mask"]
    gates = args[3] if len(args) > 3 else kwargs.get("gates")
    samples = mask.bit_length()
    tr.add("sim.samples", samples)
    tr.add("sim.gate_samples",
           samples * len(circuit.gates if gates is None else gates))


def _count_emit(tr: Tracer, parent: str, args, kwargs, result) -> None:
    tr.add("textfmt.bytes", len(result))


def _count_parse(tr: Tracer, parent: str, args, kwargs, result) -> None:
    text = args[0] if args else kwargs["text"]
    tr.add("textfmt.bytes", len(text))
    tr.add("textfmt.parse_native.bytes", len(text))


HOOKS = {
    "adders.build_variant": _count_built,
    "adders.build": _count_built,
    "core.levelize": _count_levelize,
    "core.schedule_asap": _count_slices,
    "sim.run_columns": _count_run_columns,
    "textfmt.emit_native": _count_emit,
    "textfmt.parse_native": _count_parse,
}


def bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) under which a loaded qcla module binds
    ``original``.  Callers look functions up in their own module's
    namespace (``from .adders import build_variant``), so a wrapper must
    replace each binding."""
    return [(mod, key)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qcla" or name.startswith("qcla."))
            for key, value in list(vars(mod).items()) if value is original]


@dataclass
class OpTrace:
    """Self time and calls per span name, and counters, for one op."""

    wall_ns: int
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Tracer:
    def __init__(self) -> None:
        self.names = ("op",) + SPAN_NAMES
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.current = -1  # id of the op being run, -1 between ops
        self.counts: list[dict[str, int]] = []
        # (module, name, original, wrapper) for every traced binding
        self.swaps: list[tuple[object, str, object, object]] = []

    # -- recording

    def _open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def begin_op(self, t0_ns: int) -> None:
        self.counts.append(defaultdict(int))
        self.current = len(self.counts) - 1
        self.start[self._open(0)] = t0_ns

    def end_op(self, t1_ns: int) -> None:
        self.end[self.stack.pop()] = t1_ns
        self.current = -1

    def add(self, key: str, value: int) -> None:
        if self.current >= 0:
            self.counts[self.current][key] += value

    def _wrapper(self, kind: int, fn):
        name = self.names[kind]
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        names, kinds = self.names, self.kind

        def traced(*args, **kwargs):
            idx = self._open(kind)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if hook is not None:
                parent = self.parent[idx]
                hook(self, names[kinds[parent]] if parent >= 0 else "",
                     args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching

    def install(self) -> None:
        """Wrap every traced function wherever a qcla module binds it."""
        if not self.swaps:
            for kind, (_, module, attr) in enumerate(SPANS, start=1):
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrapper(kind, original)
                self.swaps += [(mod, key, original, wrapper)
                               for mod, key in bindings(original)]
        for mod, key, _, wrapper in self.swaps:
            setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Put every original function back."""
        for mod, key, original, _ in reversed(self.swaps):
            setattr(mod, key, original)

    # -- results

    def ops(self) -> list[OpTrace]:
        """Per-op self times, call counts and counters."""
        n = len(self.kind)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = [OpTrace(0) for _ in self.counts]
        for i in range(n):
            op = self.op[i]
            if op < 0:
                continue
            dur = self.end[i] - self.start[i]
            name = self.names[self.kind[i]]
            rec = out[op]
            rec.self_ns[name] += dur - covered[i]
            rec.calls[name] += 1
            if self.kind[i] == 0:
                rec.wall_ns = dur
        for rec, counts in zip(out, self.counts):
            rec.counts.update(counts)
        return out

    def write(self, path: Path) -> None:
        """Write every span as a gzip'd tab-separated line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.kind)):
                fh.write(f"{self.names[self.kind[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[OpTrace]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per-op medians of each span's self time, calls
    and share of the op, then the work counters and rates over the run."""
    out: dict[str, tuple[float, str]] = {}

    def med(values) -> float:
        return float(statistics.median(values)) if ops else 0.0

    for name in SPAN_NAMES:
        out[f"{name}.self_ms"] = (med(r.self_ns[name] / 1e6 for r in ops), "ms")
        out[f"{name}.calls"] = (med(r.calls[name] for r in ops), "count")
        out[f"{name}.share"] = (
            med(_ratio(r.self_ns[name], r.wall_ns) for r in ops), "ratio")

    def total(key: str) -> int:
        return sum(r.counts[key] for r in ops)

    def total_self_s(name: str) -> float:
        return sum(r.self_ns[name] for r in ops) / 1e9

    out["adders.gates_built"] = (
        med(r.counts["adders.gates_built"] for r in ops), "gates")
    out["core.levelize.gates_in_per_gate_built"] = (
        _ratio(total("core.levelize.gates_in"), total("adders.gates_built")),
        "ratio")
    out["core.slices"] = (med(r.counts["core.slices"] for r in ops), "count")
    out["sim.samples"] = (med(r.counts["sim.samples"] for r in ops), "count")
    out["sim.run_columns.gate_samples_per_s"] = (
        _ratio(total("sim.gate_samples"), total_self_s("sim.run_columns")),
        "gate-samples/s")
    out["sim.expected_state.calls_per_sample"] = (
        _ratio(sum(r.calls["sim.expected_state"] for r in ops),
               total("sim.samples")), "ratio")
    out["textfmt.bytes"] = (med(r.counts["textfmt.bytes"] for r in ops), "B")
    out["textfmt.parse_native.mb_per_s"] = (
        _ratio(total("textfmt.parse_native.bytes") / 1e6,
               total_self_s("textfmt.parse_native")), "MB/s")
    return out
