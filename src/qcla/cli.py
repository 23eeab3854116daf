"""Command-line interface: generate, simulate, inspect, and verify circuits.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 I/O or
parse error.  ``main`` maps each error to its code, and prints it as one
``error:`` line on stderr: ``CircuitError`` (a bad flag, width, operand or
stamp) and ``MemoryError`` (a width too large to build) give 2;
``ParseError``, a file that is not UTF-8 and ``OSError`` (reading the
input or writing the output) give 3.  Integer operands are accepted in
decimal or 0x-prefixed hex.  Registers store bits least-significant-first;
``--bits`` prints values most-significant-bit-first.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    m = _META_RE.search(text)
    vid, n = (m.group(1), int(m.group(2))) if m else (None, None)
    return parse_native(text), vid, n


def _fmt_value(value: int, size: int, bits: bool) -> str:
    if bits:
        return format(value, f"0{max(size, 1)}b")
    return str(value)


def cmd_gen(args: argparse.Namespace) -> int:
    request = AdderRequest(args.n, args.circuit, args.in_place,
                           args.incoming_carry, args.zero_rep)
    circuit = build(request)
    if args.format == "qasm":
        text = emit_qasm(circuit)
    else:
        text = emit_native(circuit,
                           [f"variant={request.variant_id} n={args.n}"])
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return EXIT_OK
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    circuit, vid, n = _read_circuit(args.file)
    vid = args.variant or vid
    if vid is None:
        raise CircuitError("file carries no variant stamp; pass --variant")
    if n is None:
        raise CircuitError("file carries no width stamp")
    # a stamp names a circuit only at a width the variant is built at
    request = request_for(vid, n)
    check_inputs(circuit, vid, n)

    if args.exhaustive:
        cex = exhaustive_check(vid, n, circuit=circuit)
        if cex is not None:
            print(f"FAIL: {cex}")
            return EXIT_MISMATCH
        inputs = 4 ** n * (2 if request.incoming_carry else 1)
        print(f"pass ({inputs} inputs)")
        return EXIT_OK

    if args.a is None or args.b is None:
        raise CircuitError("sim needs --a and --b (or --exhaustive)")
    if args.y and not request.incoming_carry:
        raise CircuitError(f"{vid} has no carry-in, so --y must be 0")
    actual = run_operands(circuit, vid, args.a, args.b, args.y)
    expected = expected_state(vid, n, args.a, args.b, args.y)
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
    report = resource_report(_read_circuit(args.file)[0]).as_dict()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return EXIT_OK
    for field, value in report.items():
        print(f"{field}: {value}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    vid = {"add": "add-oop"}.get(args.family, args.family)
    if vid not in VARIANTS:
        raise CircuitError(f"unknown family {vid!r} (choose from "
                           f"{', '.join(VARIANTS)})")
    results = verify_family(vid, args.range)
    for r in results:
        print(r)
    return EXIT_OK if all(r.ok for r in results) else EXIT_MISMATCH


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a full device may refuse the output only here
        return code
    except CircuitError as exc:
        message, code = str(exc), EXIT_USAGE
    except MemoryError:
        message = ("out of memory: the circuit is too large for the memory "
                   "available")
        code = EXIT_USAGE
    except ParseError as exc:
        message, code = f"{args.file}: {exc}", EXIT_IO
    except UnicodeDecodeError as exc:
        message, code = f"{args.file}: not UTF-8 text ({exc})", EXIT_IO
    except OSError as exc:
        message, code = str(exc), EXIT_IO
        if exc.filename is None and sys.stdout is sys.__stdout__:
            # output a full device or closed pipe refused stays buffered, and
            # the flush at exit would fail on it again, with exit status 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
