"""Native circuit text format and the OpenQASM exporter."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import valid_small_widths
from helpers import reference_parse_native
from qcla import (
    ParseError,
    build_variant,
    emit_native,
    emit_qasm,
    parse_native,
    resource_report,
)
from qcla.adders import VARIANTS


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
