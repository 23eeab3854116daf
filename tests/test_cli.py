"""Command-line interface: subcommands, exit codes, formats."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcla
from qcla import Circuit, GateKind, build_variant, emit_native, resource_report
from qcla.adders import VARIANTS, request_for
from qcla.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def wrap_everywhere(monkeypatch, original, wrapper):
    """Replace ``original`` by ``wrapper`` in every qcla module binding it."""
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "qcla":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)


def gen_file(tmp_path, capsys, name, *flags):
    path = tmp_path / name
    code, _, err = run(capsys, "gen", *flags, "-o", str(path))
    assert code == 0, err
    return path


def test_gen_stats_reference_counts(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "add10.qc", "--circuit", "add", "--n", "10")
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0
    assert "toffoli: 34" in out and "cnot: 29" in out and "ancillae: 5" in out


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, "a.qc", "--circuit", "compare", "--n", "9")
    b = gen_file(tmp_path, capsys, "b.qc", "--circuit", "compare", "--n", "9")
    assert a.read_bytes() == b.read_bytes()


def test_gen_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--circuit", "compare", "--n", "1")
    assert code == 2 and "n >= 2" in err


def test_gen_rejects_bad_flag_combination(capsys):
    code, _, err = run(capsys, "gen", "--circuit", "add", "--n", "4",
                       "--zero-rep", "ones")
    assert code == 2


@pytest.mark.parametrize("flags", [["--in-place"], ["--incoming-carry"],
                                   ["--zero-rep", "ones"]])
def test_gen_carry_network_takes_no_variant_flags(capsys, flags):
    code, out, err = run(capsys, "gen", "--circuit", "carry-network",
                         "--n", "4", *flags)
    assert code == 2 and out == ""
    assert err == "error: carry-network takes no variant flags\n"


def test_gen_mersenne_in_place_toffoli_count(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "m.qc", "--circuit", "add-mersenne",
                    "--zero-rep", "zeros", "--n", "7", "--in-place")
    code, out, _ = run(capsys, "stats", str(path), "--json")
    assert code == 0 and json.loads(out)["toffoli"] == 59


def test_sim_operands(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "a4.qc", "--circuit", "add", "--n", "4")
    code, out, _ = run(capsys, "sim", str(path), "--a", "5", "--b", "7")
    assert code == 0
    assert out.strip() == "Z=12 restored=true clean=true"


def test_sim_accepts_hex_and_prints_bits(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "a4.qc", "--circuit", "add", "--n", "4")
    code, out, _ = run(capsys, "sim", str(path), "--a", "0x5", "--b", "0x7",
                       "--bits")
    assert code == 0 and "Z=01100" in out  # 12 over 5 bits, MSB first


def test_sim_operand_out_of_range(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "a4.qc", "--circuit", "add", "--n", "4")
    code, _, err = run(capsys, "sim", str(path), "--a", "16", "--b", "0")
    assert code == 2 and "out of range" in err


def test_sim_rejects_a_carry_in_the_variant_cannot_take(tmp_path, capsys):
    # --y was once ignored here: Z=2, exit 0
    path = gen_file(tmp_path, capsys, "a4.qc", "--circuit", "add", "--n", "4")
    code, out, err = run(capsys, "sim", str(path), "--a", "1", "--b", "1",
                         "--y", "1")
    assert code == 2 and out == ""
    assert err == "error: add-oop has no carry-in, so --y must be 0\n"
    code, out, _ = run(capsys, "sim", str(path), "--a", "1", "--b", "1",
                       "--y", "0")
    assert code == 0 and out == "Z=2 restored=true clean=true\n"


def test_sim_exhaustive(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "c6.qc", "--circuit", "compare",
                    "--n", "6")
    code, out, _ = run(capsys, "sim", str(path), "--exhaustive")
    assert code == 0 and out.strip() == "pass (4096 inputs)"


def test_stats_missing_file(capsys):
    code, _, err = run(capsys, "stats", "/no/such/file.qc")
    assert code == 3


def test_stats_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("reg A 2 input-a\nbogus A[0]\n")
    code, _, err = run(capsys, "stats", str(bad))
    assert code == 3 and "line 2" in err


@pytest.mark.parametrize("command", [["stats"], ["sim", "--a", "1", "--b", "2"]],
                         ids=["stats", "sim"])
def test_a_file_that_is_not_utf8_is_an_io_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.qc"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 3 and out == ""
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


def test_round_trip_matches_in_memory_report(tmp_path, capsys):
    for vid, n in [("add-oop", 10), ("add-ip", 16), ("mersenne-ip-ones", 9),
                   ("carry-network", 12)]:
        flags = {
            "add-oop": ["--circuit", "add"],
            "add-ip": ["--circuit", "add", "--in-place"],
            "mersenne-ip-ones": ["--circuit", "add-mersenne", "--in-place",
                                 "--zero-rep", "ones"],
            "carry-network": ["--circuit", "carry-network"],
        }[vid]
        path = gen_file(tmp_path, capsys, f"{vid}.qc", *flags, "--n", str(n))
        code, out, _ = run(capsys, "stats", str(path), "--json")
        assert code == 0
        assert json.loads(out) == resource_report(build_variant(vid, n)).as_dict()


def test_verify_success_and_spot_line(capsys):
    code, out, _ = run(capsys, "verify", "--family", "carry-network",
                       "--range", "10..10")
    assert code == 0
    assert "carry-network n=10 toffoli: expected 24, measured 24 [ok]" in out


def test_verify_family_alias_and_exhaustive_lines(capsys):
    code, out, _ = run(capsys, "verify", "--family", "add", "--range", "7..8")
    assert code == 0
    assert "add-oop n=7 exhaustive: ok" in out


@pytest.mark.parametrize("family,lo", [
    ("add-ip", 1),  # formula_eval at n = 1 once died in floor_log2, exit 1
    ("add-oop", 1),  # log_third below n = 3 once ended in a usage error
    ("add-ip", 3),
])
def test_verify_below_formula_validity(capsys, family, lo):
    # these widths used to print "not checked (closed forms exact from n=7)"
    code, out, err = run(capsys, "verify", "--family", family,
                         "--range", f"{lo}..6")
    assert code == 0 and err == "" and "MISMATCH" not in out
    for n in range(lo, 7):
        if (family, n) == ("add-ip", 1):
            assert ("add-ip n=1 resources: not checked (add-ip has no closed "
                    "form at n=1: floor_log2 needs n >= 1, got 0)") in out
        else:
            for field in ("toffoli", "cnot", "not", "ancilla", "depth"):
                assert f"{family} n={n} {field}: expected " in out
        assert f"{family} n={n} exhaustive: ok" in out
    # the depth is a bound below n = 5 and exact from there
    assert f"{family} n=4 depth: expected at most" in out
    assert f"{family} n=5 depth: expected at most" not in out


def test_verify_carry_network_below_validity_says_so(capsys):
    # this range used to print nothing and exit 0, then only "not checked"
    # lines, with no exhaustive check of the network
    code, out, _ = run(capsys, "verify", "--family", "carry-network",
                       "--range", "3..6")
    assert code == 0
    counts = {3: (2, 0), 4: (6, 1), 5: (7, 1), 6: (11, 2)}
    depths = {3: "at most 4, measured 2", 4: "at most 5, measured 5",
              5: "5, measured 5", 6: "6, measured 6"}
    expected = []
    for n, (tof, anc) in counts.items():
        head = f"carry-network n={n}"
        expected += [f"{head} toffoli: expected {tof}, measured {tof} [ok]",
                     f"{head} cnot: expected 0, measured 0 [ok]",
                     f"{head} not: expected 0, measured 0 [ok]",
                     f"{head} ancilla: expected {anc}, measured {anc} [ok]",
                     f"{head} depth: expected {depths[n]} [ok]"]
    expected += [f"carry-network n={n} exhaustive: ok" for n in range(3, 7)]
    assert out.splitlines() == expected


def test_verify_names_a_width_without_a_circuit(capsys):
    code, out, _ = run(capsys, "verify", "--family", "compare",
                       "--range", "1..2")
    assert code == 0
    assert ("compare n=1 resources: not checked (compare requires n >= 2, "
            "got 1)") in out
    assert "compare n=1 exhaustive: not checked (compare requires n >= 2" in out
    assert "compare n=2 exhaustive: ok" in out


def test_verify_builds_each_width_once(monkeypatch):
    # verify once rebuilt every width up to 8 for its exhaustive check
    calls = []
    original = qcla.adders.build_variant

    def counting(vid, n):
        calls.append((vid, n))
        return original(vid, n)

    wrap_everywhere(monkeypatch, original, counting)
    assert main(["verify", "--family", "add-ip", "--range", "1..10"]) == 0
    assert calls == [("add-ip", n) for n in range(1, 11)]


def test_every_build_goes_through_adders_build(monkeypatch, capsys):
    # the carry network once had builds of its own, which a fault injected
    # into adders.build never reached
    calls = []
    original = qcla.adders.build

    def counting(request):
        calls.append(request.variant_id)
        return original(request)

    wrap_everywhere(monkeypatch, original, counting)
    for vid in VARIANTS:
        build_variant(vid, 4)
    assert calls == list(VARIANTS)
    calls.clear()
    code, _, _ = run(capsys, "gen", "--circuit", "carry-network", "--n", "8")
    assert code == 0 and calls == ["carry-network"]


def test_verify_prints_exhaustive_failures_after_every_resource_line(
        monkeypatch, capsys):
    build = qcla.adders.build

    def drop_first_toffoli(request):
        c = build(request)
        i = next(i for i, g in enumerate(c.gates)
                 if g.kind is GateKind.TOFFOLI)
        return Circuit(c.layout, c.gates[:i] + c.gates[i + 1:])

    monkeypatch.setattr(qcla.adders, "build", drop_first_toffoli)
    code, out, _ = run(capsys, "verify", "--family", "add-oop",
                       "--range", "2..3")
    assert code == 1
    assert out.splitlines() == [
        "add-oop n=2 toffoli: expected 3, measured 2 [MISMATCH]",
        "add-oop n=2 cnot: expected 5, measured 5 [ok]",
        "add-oop n=2 not: expected 0, measured 0 [ok]",
        "add-oop n=2 ancilla: expected 0, measured 0 [ok]",
        "add-oop n=2 depth: expected at most 4, measured 2 [ok]",
        "add-oop n=3 toffoli: expected 5, measured 4 [MISMATCH]",
        "add-oop n=3 cnot: expected 8, measured 8 [ok]",
        "add-oop n=3 not: expected 0, measured 0 [ok]",
        "add-oop n=3 ancilla: expected 0, measured 0 [ok]",
        "add-oop n=3 depth: expected at most 5, measured 3 [ok]",
        "add-oop n=2 exhaustive: FAIL (add-oop n=2: a=1 b=1: register Z = 0, "
        "expected 2)",
        "add-oop n=3 exhaustive: FAIL (add-oop n=3: a=1 b=1: register Z = 0, "
        "expected 2)",
    ]


@given(st.sampled_from(VARIANTS), st.integers(1, 9), st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_verify_exit_code_is_documented(vid, lo, span):
    code = main(["verify", "--family", vid,
                 "--range", f"{lo}..{min(lo + span, 9)}"])
    assert code in (0, 1, 2, 3)


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "--family", "nope", "--range", "7..8")
    assert code == 2 and "unknown family" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--circuit", "add"])  # missing --n
    assert exc.value.code == 2


def test_one_process_answers_as_separate_processes_do(capsys):
    # main builds its parser once per process; a usage error in between
    # must not change how the next command is parsed
    calls = [["gen", "--circuit", "add", "--n", "3"],
             ["gen", "--circuit", "add"],  # missing --n
             ["verify", "--family", "add", "--range", "7..8"]]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = {**os.environ, "PYTHONPATH": str(Path(qcla.__file__).parents[1])}
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "qcla.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 2, 0]


def test_a_width_too_large_to_build_is_a_usage_error():
    # under an address-space limit these printed a MemoryError traceback
    # and exited 1, the mismatch code; the limit binds the child alone
    pytest.importorskip("resource")
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (160 << 20, 160 << 20))\n"
             "from qcla.cli import main\n"
             "print(main(['gen', '--circuit', 'add', '--n', '1000000000']),\n"
             "      main(['verify', '--family', 'add', '--range',\n"
             "            '1000000000..1000000000']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(qcla.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout == "2 2\n", proc.stderr
    assert proc.stderr.count("error: out of memory") == 2
    assert "Traceback" not in proc.stderr


def test_qasm_format_output(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "a.qasm", "--circuit", "add", "--n", "4",
                    "--format", "qasm")
    assert path.read_text().startswith("OPENQASM 2.0;")


def test_sim_exhaustive_checks_the_file_not_the_stamp(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "c6.qc", "--circuit", "compare",
                    "--n", "6")
    lines = path.read_text().splitlines(keepends=True)
    first_ccx = next(i for i, l in enumerate(lines) if l.startswith("ccx "))
    path.write_text("".join(lines[:first_ccx] + lines[first_ccx + 1:]))
    code, out, _ = run(capsys, "sim", str(path), "--exhaustive")
    assert code == 1 and out.startswith("FAIL")


def test_sim_exhaustive_fails_a_file_without_its_output(tmp_path, capsys):
    # the diff once covered only the registers the file declares
    path = gen_file(tmp_path, capsys, "a2.qc", "--circuit", "add", "--n", "2")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines
                            if "Z[" not in l and not l.startswith("reg Z")))
    code, out, _ = run(capsys, "sim", str(path), "--exhaustive")
    assert code == 1
    assert out == "FAIL: add-oop n=2: a=0 b=1: register Z = 0, expected 1\n"


def test_sim_requires_a_register_the_oracle_does_not_name_to_end_at_0(
        tmp_path, capsys):
    # the operand check once looked only at the registers the oracle names
    path = gen_file(tmp_path, capsys, "a2.qc", "--circuit", "add", "--n", "2")
    lines = path.read_text().splitlines(keepends=True)
    first_gate = next(i for i, l in enumerate(lines)
                      if l.strip() and not l.startswith(("#", "reg ")))
    path.write_text("".join(lines[:first_gate] + ["reg W 1 ancilla\n"]
                            + lines[first_gate:] + ["not W[0]\n"]))
    code, out, _ = run(capsys, "sim", str(path), "--a", "1", "--b", "2")
    assert code == 1 and out == "Z=3 restored=true clean=false\n"
    code, out, _ = run(capsys, "sim", str(path), "--exhaustive")
    assert code == 1 and out.endswith("register W = 1, expected 0\n")


def test_sim_says_clean_exactly_when_it_exits_0(tmp_path, capsys):
    # the in-place Mersenne adders park a set wrap carry in X[0] on one
    # operand pattern, which sim once reported as clean=false with exit 0
    sets = 0
    for vid in VARIANTS:
        path = tmp_path / f"{vid}.qc"
        path.write_text(emit_native(build_variant(vid, 3),
                                    [f"variant={vid} n=3"]))
        for y in (0, 1) if request_for(vid, 3).incoming_carry else (0,):
            for a in range(8):
                for b in range(8):
                    code, out, _ = run(capsys, "sim", str(path), "--a",
                                       str(a), "--b", str(b), "--y", str(y))
                    assert (code, out.endswith(" restored=true clean=true\n")
                            ) == (0, True), (vid, a, b, y, out)
                    sets += 1
    assert sets == 22 * 64


def test_sim_exhaustive_past_the_width_limit_is_a_usage_error(tmp_path,
                                                               capsys):
    path = gen_file(tmp_path, capsys, "a13.qc", "--circuit", "add",
                    "--n", "13")
    code, out, err = run(capsys, "sim", str(path), "--exhaustive")
    assert code == 2 and out == ""
    assert err == "error: exhaustive check limited to n <= 12, got n=13\n"


def test_invalid_layout_in_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "two-carry-ins.qc"
    bad.write_text("reg A 1 input-a\nreg Y 1 carry-in\nreg Y2 1 carry-in\n"
                   "not A[0]\n")
    code, _, err = run(capsys, "stats", str(bad))
    assert code == 3 and "line 3:" in err and "carry-in" in err


@pytest.mark.parametrize("header", [
    "# variant=add-oop n=2\nreg B 2 input-b\nreg Z 3 output\n",  # no A
    "# variant=no-such n=2\nreg A 2 input-a\nreg B 2 input-b\n",
])
@pytest.mark.parametrize("mode", [["--a", "1", "--b", "1"], ["--exhaustive"]])
def test_sim_rejects_a_file_the_variant_cannot_run(tmp_path, capsys, header,
                                                   mode):
    path = tmp_path / "odd.qc"
    path.write_text(header + "cnot B[0] B[1]\n")
    code, _, err = run(capsys, "sim", str(path), *mode)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("stamp,mode", [
    (2, ["--exhaustive"]),  # once passed on 16 of the 256 inputs
    (9, ["--a", "300", "--b", "1"]),  # once a misleading mismatch, exit 1
])
def test_sim_rejects_a_width_stamp_the_registers_disagree_with(
        tmp_path, capsys, stamp, mode):
    path = gen_file(tmp_path, capsys, "a4.qc", "--circuit", "add", "--n", "4")
    path.write_text(path.read_text().replace("n=4", f"n={stamp}", 1))
    code, out, err = run(capsys, "sim", str(path), *mode)
    assert code == 2 and out == ""
    assert err.startswith(f"error: add-oop n={stamp} reads A[{stamp}]")


@pytest.mark.parametrize("vid,n,message", [
    ("add-oop", 0, "add requires n >= 1, got 0"),  # once passed 1 input
    ("compare", 1, "compare requires n >= 2, got 1"),
    ("carry-network", 0, "carry-network requires n >= 1, got 0"),
])
@pytest.mark.parametrize("mode", [["--a", "0", "--b", "0"], ["--exhaustive"]])
def test_sim_rejects_a_width_stamp_with_no_circuit(tmp_path, capsys, vid, n,
                                                   message, mode):
    path = tmp_path / "narrow.qc"
    path.write_text(f"# variant={vid} n={n}\nreg A {n} input-a\n"
                    f"reg B {n} input-b\nreg Z 1 output\n")
    code, out, err = run(capsys, "sim", str(path), *mode)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_sim_rejects_an_empty_carry_in(tmp_path, capsys):
    path = tmp_path / "y0.qc"
    path.write_text("# variant=add-oop-ic n=1\nreg A 1 input-a\n"
                    "reg B 1 input-b\nreg Y 0 carry-in\n")
    code, _, err = run(capsys, "sim", str(path), "--exhaustive")
    assert code == 2 and "reads Y[1], but the circuit declares Y[0]" in err


def exit_code(argv: list[str]) -> int:
    """``main``'s exit code; argparse exits through ``SystemExit``, and any
    other exception fails the test with its traceback."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


CIRCUITS = ["add", "add-mod2n", "add-mersenne", "subtract", "compare",
            "carry-network", "nope"]


@given(st.sampled_from(CIRCUITS), st.integers(-2, 12),
       st.lists(st.sampled_from(["--in-place", "--incoming-carry",
                                 "--zero-rep=ones", "--zero-rep=zeros",
                                 "--zero-rep=two", "--format=qasm"]),
                max_size=3))
@settings(max_examples=40, deadline=None)
def test_gen_exit_code_is_documented(circuit, n, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "c.qc")
        argv = ["gen", "--circuit", circuit, "--n", str(n), *flags, "-o", out]
        assert exit_code(argv) in (0, 1, 2, 3)


SIM_FILES = [("add-oop", 4), ("add-ip-ic", 3), ("compare", 3),
             ("mersenne-ip-zeros", 3), ("carry-network", 4)]
OPERAND = st.sampled_from(["0", "1", "7", "16", "300", "-1", "0x5", "x"])


@given(st.sampled_from(SIM_FILES), st.sampled_from(VARIANTS + ("nope",)),
       st.integers(0, 14),
       st.lists(st.tuples(st.sampled_from(["--a", "--b", "--y"]), OPERAND),
                max_size=3),
       st.lists(st.sampled_from(["--exhaustive", "--bits"]), max_size=2))
@settings(max_examples=40, deadline=None)
def test_sim_exit_code_is_documented(source, vid, n, operands, flags):
    text = emit_native(build_variant(*source), [f"variant={vid} n={n}"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.qc"
        path.write_text(text)
        argv = ["sim", str(path), *flags]
        for name, value in operands:
            argv += [name, value]
        assert exit_code(argv) in (0, 1, 2, 3)


@given(st.sampled_from(SIM_FILES), st.integers(0, 10_000),
       st.sampled_from(["", "bogus\n", "ccx A[0] A[0] B[0]\n",
                        "reg Q -1 output\n", "not Q[0]\n"]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_stats_exit_code_is_documented(source, where, line, as_json):
    lines = emit_native(build_variant(*source), []).splitlines(keepends=True)
    at = where % (len(lines) + 1)
    text = "".join(lines[:at] + [line] + lines[at + 1:])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.qc"
        path.write_text(text)
        argv = ["stats", str(path)] + (["--json"] if as_json else [])
        assert exit_code(argv) in (0, 1, 2, 3)


@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
@pytest.mark.parametrize("command", [
    ["gen", "--circuit", "add", "--n", "2"],
    ["stats", "FILE"],
    ["verify", "--family", "add", "--range", "7..8"],
], ids=["gen", "stats", "verify"])
def test_output_that_stdout_refuses_is_an_io_error(tmp_path, command, sink):
    # these once printed an OSError traceback and exited 1, the mismatch
    # code; then, with stdout buffered, the bytes a failed flush keeps made
    # the flush at exit fail again, with a second message and status 120
    if sink == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    path = tmp_path / "a2.qc"
    path.write_text(emit_native(build_variant("add-oop", 2)))
    argv = [str(path) if a == "FILE" else a for a in command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(qcla.__file__).parents[1])
    if sink == "full-device":
        out = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, out = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qcla.cli", *argv],
                              stdout=out, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(out)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name,command", [
    ("resource_report", ["stats", "FILE"]),
    ("verify_family", ["verify", "--family", "add", "--range", "7..8"]),
], ids=["stats", "verify"])
def test_a_circuit_error_in_any_command_is_a_usage_error(
        tmp_path, monkeypatch, capsys, name, command):
    # a CircuitError once escaped main under these commands
    path = tmp_path / "a2.qc"
    path.write_text(emit_native(build_variant("add-oop", 2)))

    def fail(*args):
        raise qcla.CircuitError("boom")

    monkeypatch.setattr(qcla.cli, name, fail)
    code, out, err = run(capsys,
                         *(str(path) if a == "FILE" else a for a in command))
    assert (code, out, err) == (2, "", "error: boom\n")
