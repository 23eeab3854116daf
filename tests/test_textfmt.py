"""Native circuit text format and the OpenQASM exporter."""

import hashlib
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import valid_small_widths
from helpers import reference_parse_native
from qcla import (
    Barrier,
    Circuit,
    ParseError,
    Register,
    RegisterLayout,
    Role,
    build_variant,
    emit_native,
    emit_qasm,
    parse_native,
    resource_report,
)
from qcla.adders import VARIANTS
from qcla.core import ccx, cnot, not_


@pytest.mark.parametrize("vid", VARIANTS)
@pytest.mark.parametrize("n", [7, 10, 33, 64])
def test_round_trip_preserves_resources(vid, n):
    circuit = build_variant(vid, n)
    parsed = parse_native(emit_native(circuit))
    assert parsed.layout == circuit.layout
    assert [(g.kind, g.wires) for g in parsed.gates] == \
        [(g.kind, g.wires) for g in circuit.gates]
    assert parsed.barriers == circuit.barriers
    assert resource_report(parsed) == resource_report(circuit)


def test_emission_is_deterministic():
    a = emit_native(build_variant("add-ip", 12))
    b = emit_native(build_variant("add-ip", 12))
    assert a == b


def test_comments_and_blank_lines_ignored():
    text = """\
# a full-line comment

reg A 2 input-a  # trailing comment
reg B 2 input-b
cnot A[0] B[1]
"""
    c = parse_native(text)
    assert len(c.gates) == 1 and c.layout["A"].size == 2


def test_barrier_round_trip_positions():
    c = build_variant("carry-network", 10)
    parsed = parse_native(emit_native(c))
    assert [(b.position, b.label) for b in parsed.barriers] == \
        [(b.position, b.label) for b in c.barriers]


@pytest.mark.parametrize("text,fragment", [
    ("frobnicate A[0]", "unknown directive"),
    ("reg A 2\ncnot A[0] A[1]", "reg needs"),
    ("reg A two input-a", "bad register size"),
    ("reg A \u00b2 input-a", "bad register size"),  # isdigit, but not int
    ("reg A 4 input-a\nnot A[\u0663]", "malformed wire"),
    ("reg A 2 scratch", "unknown role"),
    ("reg A 2 input-a\nreg A 2 input-b", "duplicate register"),
    ("reg A 2 input-a\nnot B[0]", "undeclared register"),
    ("reg A 2 input-a\nnot A[5]", "out of range"),
    ("reg A 2 input-a\nnot A[x]", "malformed wire"),
    ("reg A 2 input-a\ncnot A[0]", "needs 2 wires"),
    ("reg A 2 input-a\ncnot A[0] A[0]", "must be distinct"),
    ("reg A 2 input-a\nbarrier", "exactly one label"),
    ("reg A 2 input-a\nnot A[0]\nreg B 2 input-b", "after first gate"),
    ("reg Y 1 carry-in\nreg Y2 1 carry-in", "carry-in"),
])
def test_strict_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_native(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_native("reg A 2 input-a\n\nbogus A[0]\n")
    assert exc.value.lineno == 3
    assert "line 3" in str(exc.value)


def test_qasm_export_shape():
    c = build_variant("add-oop", 4)
    text = emit_qasm(c)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert "qreg a[4];" in lines and "qreg z[5];" in lines
    body = [l for l in lines if l.startswith(("x ", "cx ", "ccx "))]
    assert len(body) == len(c.gates)
    r = resource_report(c)
    assert sum(l.startswith("ccx ") for l in body) == r.toffoli
    assert sum(l.startswith("cx ") for l in body) == r.cnot


def test_qasm_export_skips_empty_registers():
    c = build_variant("add-oop", 4)  # X register has size 0 at this width
    assert "qreg x[0];" not in emit_qasm(c)


SMALL = [(v, n) for v in VARIANTS for n in valid_small_widths(v, 6)]
# pieces of the format, so that mutations reach past the first token check
TOKENS = ["reg ", "not ", "cnot ", "ccx ", "barrier ", "A[", "B[", "X[",
          "Y[", "Z[", "]", "0", "1", "99999", " ", "\n", "#", "-1",
          "input-a", "carry-in", "ancilla", "output"]


@lru_cache(maxsize=None)
def small_text(vid: str, n: int) -> str:
    return emit_native(build_variant(vid, n))


@given(st.sampled_from(SMALL))
@settings(max_examples=40, deadline=None)
def test_emit_parse_is_a_fixed_point(pair):
    text = small_text(*pair)
    assert emit_native(parse_native(text)) == text


def mutated(data, text: str) -> str:
    """``text`` after one to three random edits: a piece spliced over a
    short span, or a whole line copied elsewhere (so that repeated lines,
    and register lines after gates, turn up)."""
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, min(len(text), i + 12)))
            piece = data.draw(st.one_of(st.sampled_from(TOKENS),
                                        st.text(max_size=4)))
            text = text[:i] + piece + text[j:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            line = lines[data.draw(st.integers(0, len(lines) - 1))]
            lines.insert(data.draw(st.integers(0, len(lines))), line)
            text = "".join(lines)
    return text


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=100, deadline=None)
def test_parse_raises_only_parse_error_on_mutated_text(pair, data):
    text = mutated(data, small_text(*pair))
    try:
        parse_native(text)
    except ParseError:
        pass


def outcome(parse, text: str) -> tuple:
    """What ``parse`` makes of ``text``: the circuit's parts, or the
    error's message and line."""
    try:
        c = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.lineno)
    return ("circuit", c.gates, c.layout, c.barriers)


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=300, deadline=None)
def test_parse_agrees_with_the_reference_on_mutated_text(pair, data):
    text = mutated(data, small_text(*pair))
    assert outcome(parse_native, text) == \
        outcome(reference_parse_native, text)


REPEATS = "reg A 2 input-a\nreg B 2 input-b\ncnot A[0] B[1]\n"


@pytest.mark.parametrize("text,lineno,fragment", [
    # a bad line fails where it first appears, not where it repeats
    (REPEATS + "not A[7]\ncnot A[0] B[1]\nnot A[7]\n", 4, "out of range"),
    (REPEATS + "ccx A[0] B[1] A[0]\nccx A[0] B[1] A[0]\n", 4,
     "must be distinct"),
    (REPEATS + "ccx B[1] B[1] A[0]\nccx B[1] B[1] A[0]\n", 4,
     "must be distinct"),
    (REPEATS + "cnot A[0] B[1]\nreg C 2 output\n", 5, "after first gate"),
])
def test_repeated_lines_fail_like_the_first(text, lineno, fragment):
    for parse in (parse_native, reference_parse_native):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.lineno == lineno and fragment in str(exc.value)


def test_equal_gate_lines_share_one_gate():
    text = REPEATS + "cnot A[0] B[1]  # the same gate\nnot A[1]\n" + \
        "cnot A[0] B[1]\n"
    gates = parse_native(text).gates
    assert gates == reference_parse_native(text).gates
    assert gates[0] == gates[1] and gates[0] is gates[3]


@pytest.mark.parametrize("vid", ["add-ip", "mersenne-ip-zeros", "compare"])
def test_emit_parse_is_a_fixed_point_at_width_1024(vid):
    text = emit_native(build_variant(vid, 1024))
    assert emit_native(parse_native(text)) == text


def test_text_memory_follows_the_gates_not_the_declared_bits():
    # the first register shifts every touched wire past a million bits
    # that no gate touches; neither direction may pay for them
    text = ("reg W 1000000 ancilla\nreg A 2 input-a\nreg B 2 input-b\n"
            "cnot A[0] B[1]\nbarrier sum\nccx A[0] A[1] B[0]\n")
    tracemalloc.start()
    try:
        circuit = parse_native(text)
        emitted = emit_native(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emitted == text
    assert circuit.gates[1].wires == (1_000_000, 1_000_001, 1_000_002)
    assert peak < 1 << 20


SEPARATED = """\
# variant=add-oop n=2
reg A 2 input-a
reg B 2 input-b
barrier head
cnot A[0] B[1]
barrier P

cnot A[0] B[1]
cnot A[0] B[1]  # the same gate, with a comment
   cnot   A[0]   B[1]
barrier P
# a comment line
ccx A[0] A[1] B[0]
barrier P
barrier G
cnot A[0] B[1]
ccx A[0] A[1] B[0]
not B[0]
barrier P
"""


def test_repeated_lines_between_barriers_and_comments_parse_as_the_reference():
    c = parse_native(SEPARATED)
    assert outcome(parse_native, SEPARATED) == \
        outcome(reference_parse_native, SEPARATED)
    assert [(b.position, b.label) for b in c.barriers] == [
        (0, "head"), (1, "P"), (4, "P"), (5, "P"), (5, "G"), (8, "P")]
    assert len(c.gates) == 8 and c.gates[0] is c.gates[1] is c.gates[5]


@pytest.mark.parametrize("token", [
    "A[1]", "A[01]", "A[007]", "B[1]", "A[2]", "A[]", "A[1]]", "A[[1]",
    "[1]", "A1]", "A[1", "A]1[", "A[1][0]", "A[+1]", "A[-1]", "A[1_0]",
    "A[١]", "a-b[1]", "1A[0]", "_[0]", "C[0]", "Å[0]", "A[1]#",
])
def test_wire_tokens_parse_as_the_reference(token):
    text = f"reg A 2 input-a\nreg B 3 input-b\nreg _ 1 ancilla\nnot {token}\n"
    assert outcome(parse_native, text) == outcome(reference_parse_native, text)


# SHA-256 of emit_qasm's output, taken before its emitter was rewritten
QASM_DIGESTS = {
    ("add-oop", 4):
        "4533c6a89c26a8bf41767d085a3453b1ec7ba20c24bc6d540f6a54af0783aec2",
    ("add-ip", 7):
        "e93e76a316816deba6b9b9b5053150633c15271e51d0cf5b8533fdc0186a2248",
    ("mersenne-ip-zeros", 10):
        "4750becbf657d4e46a631cda9bd92c5cd6c6cf575113d2e46d4a324972ac19f1",
    ("compare-ic", 33):
        "8f3f8737295be2584d953b330c2c737de1c6bb7cfd71f09c05b6ed114add0454",
    ("carry-network", 16):
        "f6732fb20f334b7faf0d5cba8456d501b936de31db13af02daf98d79a27dc560",
    ("sub-ip", 64):
        "e9c04f930a0d1bf94251e070f70c9463d0a40da8c71cdcafcc16a8c5cfa759ea",
    ("add-mod2n-ip-ic", 5):
        "dcbff539c4eac4f126069d24c44c4e211e5f6e3a0168c02608599785fe6286a0",
}


@pytest.mark.parametrize("vid,n", sorted(QASM_DIGESTS))
def test_qasm_export_is_pinned(vid, n):
    text = emit_qasm(build_variant(vid, n))
    assert hashlib.sha256(text.encode()).hexdigest() == QASM_DIGESTS[vid, n]


def test_qasm_export_renames_clashing_registers_and_keeps_every_barrier():
    layout = RegisterLayout([Register("a", 2, Role.INPUT_A),
                             Register("A", 2, Role.INPUT_B),
                             Register("E", 0, Role.ANCILLA),
                             Register("Q", 1, Role.OUTPUT)])
    c = Circuit(layout, [cnot(0, 2), ccx(1, 3, 4), not_(4)],
                [Barrier(0, "x"), Barrier(2, "y"), Barrier(3, "z"),
                 Barrier(3, "w")])
    assert emit_qasm(c) == """\
OPENQASM 2.0;
include "qelib1.inc";
qreg a[2];
qreg a_1[2];
qreg q[1];
barrier a,a_1,q;
cx a[0],a_1[0];
ccx a[1],a_1[1],q[0];
barrier a,a_1,q;
x q[0];
barrier a,a_1,q;
barrier a,a_1,q;
"""
