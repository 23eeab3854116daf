"""Command-line interface: generate, simulate, inspect, and verify circuits.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (running
out of memory, as a width too large to build does, included), 3 I/O or
parse error.  Integer operands are accepted in decimal or 0x-prefixed
hex.  Registers store bits least-significant-first; ``--bits`` prints
values most-significant-bit-first.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .adders import FUNCTIONS, VARIANTS, AdderRequest, build, request_for
from .core import Circuit, CircuitError, resource_report
from .formulas import verify_family
from .sim import (
    check_inputs,
    exhaustive_check,
    expected_state,
    run_operands,
)
from .textfmt import ParseError, emit_native, emit_qasm, parse_native

_META_RE = re.compile(r"^#\s*variant=(\S+)\s+n=(\d+)\s*$", re.MULTILINE)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _parse_range(text: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _read_circuit(path: str) -> tuple[Circuit, str | None, int | None]:
    """Parse a native-format file; also recover the variant/width stamp."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc})", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    try:
        circuit = parse_native(text)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    m = _META_RE.search(text)
    if m:
        return circuit, m.group(1), int(m.group(2))
    return circuit, None, None


def _fmt_value(value: int, size: int, bits: bool) -> str:
    if bits:
        return format(value, f"0{max(size, 1)}b")
    return str(value)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        request = AdderRequest(args.n, args.circuit, args.in_place,
                               args.incoming_carry, args.zero_rep)
        circuit = build(request)
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "qasm":
        text = emit_qasm(circuit)
    else:
        text = emit_native(circuit,
                           [f"variant={request.variant_id} n={args.n}"])
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    circuit, vid, n = _read_circuit(args.file)
    vid = args.variant or vid
    if vid is None:
        print("error: file carries no variant stamp; pass --variant",
              file=sys.stderr)
        return EXIT_USAGE
    if n is None:
        print("error: file carries no width stamp", file=sys.stderr)
        return EXIT_USAGE
    try:
        # a stamp names a circuit only at a width the variant is built at
        request = request_for(vid, n)
        check_inputs(circuit, vid, n)
        cex = (exhaustive_check(vid, n, circuit=circuit) if args.exhaustive
               else None)
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.exhaustive:
        if cex is not None:
            print(f"FAIL: {cex}")
            return EXIT_MISMATCH
        inputs = 4 ** n * (2 if request.incoming_carry else 1)
        print(f"pass ({inputs} inputs)")
        return EXIT_OK

    if args.a is None or args.b is None:
        print("error: sim needs --a and --b (or --exhaustive)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.y and not request.incoming_carry:
        print(f"error: {vid} has no carry-in, so --y must be 0",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        actual = run_operands(circuit, vid, args.a, args.b, args.y)
        expected = expected_state(vid, n, args.a, args.b, args.y)
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sizes = {r.name: r.size for r in circuit.layout.registers}

    # every register the oracle names, then any other the file declares;
    # X and those others are clean when they end as the oracle says: at 0,
    # but for the wrap carry the in-place Mersenne adders park in X[0]
    regs = [*expected, *(r for r in actual if r not in expected)]
    parts = []
    restored = True
    clean = True
    for reg in regs:
        got, want = actual.get(reg, 0), expected.get(reg, 0)
        if reg == "X" or reg not in expected:
            clean = clean and got == want
        elif reg in ("A", "Y") or (reg == "B" and not request.in_place):
            restored = restored and got == want
        else:
            parts.append(f"{reg}={_fmt_value(got, sizes.get(reg, n), args.bits)}")
    parts.append(f"restored={'true' if restored else 'false'}")
    parts.append(f"clean={'true' if clean else 'false'}")
    print(" ".join(parts))
    ok = all(actual.get(r, 0) == expected.get(r, 0) for r in regs)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_stats(args: argparse.Namespace) -> int:
    circuit, _, _ = _read_circuit(args.file)
    report = resource_report(circuit)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
        return EXIT_OK
    for field, value in report.as_dict().items():
        print(f"{field}: {value}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    vid = {"add": "add-oop"}.get(args.family, args.family)
    if vid not in VARIANTS:
        print(f"error: unknown family {vid!r} (choose from "
              f"{', '.join(VARIANTS)})", file=sys.stderr)
        return EXIT_USAGE
    results = verify_family(vid, args.range)
    for r in results:
        print(r)
    return EXIT_OK if all(r.ok for r in results) else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcla",
        description="Carry-lookahead adder circuit generator and verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a circuit file")
    gen.add_argument("--circuit", required=True, choices=FUNCTIONS)
    gen.add_argument("--n", required=True, type=_int)
    gen.add_argument("--in-place", action="store_true")
    gen.add_argument("--incoming-carry", action="store_true")
    gen.add_argument("--zero-rep", choices=["ones", "zeros"])
    gen.add_argument("--format", choices=["native", "qasm"], default="native")
    gen.add_argument("-o", "--output", help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    sim = sub.add_parser("sim", help="simulate a circuit file on operands")
    sim.add_argument("file")
    sim.add_argument("--a", type=_int)
    sim.add_argument("--b", type=_int)
    sim.add_argument("--y", type=_int, default=0)
    sim.add_argument("--variant", help="override the file's variant stamp")
    sim.add_argument("--bits", action="store_true",
                     help="print outputs as MSB-first bit strings")
    sim.add_argument("--exhaustive", action="store_true",
                     help="check every operand assignment against the oracle")
    sim.set_defaults(func=cmd_sim)

    stats = sub.add_parser("stats", help="print a circuit's resource report")
    stats.add_argument("file")
    stats.add_argument("--json", action="store_true")
    stats.set_defaults(func=cmd_stats)

    verify = sub.add_parser(
        "verify", help="check measured resources against the closed forms")
    verify.add_argument("--family", required=True)
    verify.add_argument("--range", required=True, type=_parse_range)
    verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # I/O helpers exit directly with their code
        return exc.code if isinstance(exc.code, int) else EXIT_IO
    except MemoryError:  # a width too large to build is a usage error
        print("error: out of memory: the circuit is too large for the memory "
              "available", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
