import ast
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torus_cables import bypass, cli, transverse
from torus_cables.cli import render_mountain, run
from torus_cables.legendrian import CableSpec, Classification, classify, mountain_range
from torus_cables.torus_knots import TorusKnotSpec

from oracles import T23, T25, T34, _WIDE_CABLES, _render_by_cell, _sorted_payload, grid_cables

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_json_round_trip_stability():
    for argv in (
        ("classify", "--pq", "2,5", "--rs", "3,2", "--json"),
        ("transverse", "--pq", "2,3", "--rs", "2,5", "--json"),
        ("mountain", "--pq", "2,3", "--rs", "2,5", "--tb-floor", "5", "--json"),
        ("farey", "neighbors", "5/3", "--json"),
        ("tori", "census", "--pq", "2,3", "--slope", "7/2", "--json"),
        ("verify", "--suite", "qual1", "--k", "1", "--m", "1", "--n", "2", "--json"),
    ):
        code, out, _ = invoke(*argv)
        assert code == 0, argv
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, ensure_ascii=False) + "\n" == out


def test_json_key_order_is_frozen():
    code, out, _ = invoke("classify", "--pq", "2,5", "--rs", "5,3", "--json")
    doc = json.loads(out)
    assert list(doc) == ["cable", "case", "parameters", "generators", "simple"]
    assert list(doc["cable"]) == ["p", "q", "r", "s"]
    assert list(doc["parameters"]) == [
        "w", "n", "k", "e_n", "e_n_a", "e_n_c", "c", "c_prime", "tb_max"
    ]
    assert list(doc["generators"][0]) == ["id", "tb", "rot", "sign", "bound", "destabilizable"]
    code, out, _ = invoke("transverse", "--pq", "2,5", "--rs", "5,3", "--json")
    doc = json.loads(out)
    assert list(doc) == ["cable", "case", "parameters", "generators", "simple", "max_sl", "branches"]
    assert list(doc["branches"][0]) == ["origin", "sl_top", "destabilizable", "merge_sl"]


def test_no_floats_in_json():
    code, out, _ = invoke("transverse", "--pq", "2,5", "--rs", "5,3", "--json")
    doc = json.loads(out)

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into JSON")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        if isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)


def test_render_mountain_matches_per_cell_reference():
    cases = [(cable, 20) for cable in grid_cables((T25, T34), 6)]
    cases += [(CableSpec(T23, 2, 25), 20), (CableSpec(T23, 2, 81), 30)]
    tops = []
    for cable, depth in cases:
        cls = classify(cable)
        mr = mountain_range(cls, cls.tb_max - depth)
        assert render_mountain(mr) == _render_by_cell(mr), cable
        tops.append(max(mr.counts.values()))
    # T(2,3)_(2,25) reaches the letters (counts 10 to 35), T(2,3)_(2,81) "*" (36 up).
    assert 10 <= tops[-2] < 36 <= tops[-1]


def _assert_mountain_reports_match_references(cable, depth):
    cls = classify(cable)
    mr = mountain_range(cls, cls.tb_max - depth)
    assert render_mountain(mr) == _render_by_cell(mr), (cable, depth)
    got = cli._dump(cli._mountain_payload(cable, mr))
    assert got == cli._dump(_sorted_payload(cable, mr)), (cable, depth)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_WIDE_CABLES, st.integers(0, 40))
def test_mountain_reports_match_references_on_wide_knots(cable, depth):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    _assert_mountain_reports_match_references(CableSpec(knot, r, s), depth)


def test_mountain_reports_match_references_on_a_wide_cable():
    # T(11,13)_(101,97): 36,615 cells in 2,850 runs, at most 236 on a row, across 22,925 rots.
    _assert_mountain_reports_match_references(CableSpec(TorusKnotSpec(11, 13), 101, 97), 20)


def test_verify_qual1_at_large_k_exits_zero():
    code, out, _ = invoke("verify", "--suite", "qual1", "--k", "10000", "--m", "1", "--n", "4")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_verify_qual1_at_large_n_exits_zero():
    code, out, _ = invoke("verify", "--suite", "qual1", "--k", "1", "--m", "1", "--n", "20000")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_exit_codes():
    # The two argvs the golden corpus lacks.
    code, _, _ = invoke("classify", "--pq", "2,5", "--rs", "2,1")
    assert code == 1
    # The oracle's scan finds no candidate: 2/9 has no edge to an integer.
    code, out, err = invoke("bypass", "front", "2/9", "0/1", "--den-bound", "1")
    assert (code, out, err) == (1, "", "error: no candidate on the arc; raise den_bound\n")


@pytest.mark.parametrize("argv", [
    ("classify", "--pq", "2,5", "--rs", "7,5"),
    ("classify", "--pq", "2,5", "--rs", "7,5", "--json"),
    ("transverse", "--pq", "2,5", "--rs", "7,5", "--json"),
    ("mountain", "--pq", "2,5", "--rs", "7,5", "--tb-floor", "20"),
], ids=" ".join)
def test_an_answer_too_large_for_memory_exits_1_on_one_line(argv, monkeypatch):
    # On T(1000001,1000003)_(7,3) these commands run out of memory listing
    # the peaks; a property that raises stands in, so nothing is allocated.
    def out_of_memory(self):
        raise MemoryError

    for name in ("generators", "peak_rots"):
        monkeypatch.setattr(Classification, name, property(out_of_memory))
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_parser_choices_copy_the_layer_constants():
    # cli keeps literal copies so that building the parser loads neither layer.
    assert cli.SIDES == bypass.SIDES
    assert cli.SUITES == transverse.SUITES


def test_console_module_entry_point(monkeypatch):
    # The child imports this checkout's package, whether or not one is installed.
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "torus_cables.cli", "farey", "neighbors", "5/3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "upper 2/1, lower 3/2\n"
    # argparse's own usage errors reach run()'s err, as the process's stderr.
    monkeypatch.setenv("COLUMNS", "80")
    proc = subprocess.run(
        [sys.executable, "-m", "torus_cables.cli", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke("nonsense")
    assert proc.stderr.startswith("usage: torus-cables")


def test_help_reaches_out(monkeypatch):
    # argparse prints --help to sys.stdout itself; run() sends it to out.
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["farey", "--help"], ["--help"]):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "") and out.startswith("usage: torus-cables"), argv
    proc = subprocess.run(
        [sys.executable, "-m", "torus_cables.cli", "farey", "--help"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke("farey", "--help")


def _fail_last_claim(check):
    def wrapped(*args):
        claims = check(*args)
        return claims[:-1] + [replace(claims[-1], passed=False)]

    return wrapped


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_corpus(case, monkeypatch):
    # Every (command, op) in text and --json, the exit-1 domain errors, the
    # exit-2 missing arguments, and verify exiting 1 on a failed claim (the
    # suites pass on every valid input, so those cases fail the last claim).
    # argparse wraps its usage text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    if case.get("fail_last_claim"):
        for name in ("_check_qual1", "_check_qual2", "_check_qual4"):
            monkeypatch.setattr(transverse, name, _fail_last_claim(getattr(transverse, name)))
    assert invoke(*case["argv"]) == (case["code"], case["out"], case["err"])


def test_golden_corpus_covers_every_command():
    # The corpus is the one byte check of each command's output: every
    # COMMANDS entry needs an exit-0 case in text and in --json.
    covered = set()
    for case in GOLDEN:
        command, *rest = case["argv"]
        if case["code"] == 0:
            op = rest[0] if (command, None) not in cli.COMMANDS else None
            covered.add((command, op, "--json" in rest))
    missing = {(*key, as_json) for key in cli.COMMANDS for as_json in (False, True)} - covered
    assert not missing, missing


def _readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```\n", 2)[1]
    examples = []
    for chunk in block.split("\n\n"):
        command, _, output = chunk.partition("\n")
        assert command.startswith("$ torus-cables "), command
        examples.append((shlex.split(command)[2:], output.rstrip("\n") + "\n"))
    return examples


def test_readme_examples_replay():
    examples = _readme_examples()
    assert len(examples) == 8
    for argv, expected in examples:
        code, out, _ = invoke(*argv)
        assert (code, out) == (0, expected), argv


def test_readme_quick_start_replay():
    # Runs README's "Library quick start" block and checks every "# value".
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    namespace, checked = {}, 0
    for line in block.split("```\n", 1)[0].splitlines():
        code, _, expected = line.partition("  # ")
        if expected:
            assert eval(code, namespace) == ast.literal_eval(expected), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 4


# The argv grammar of all 7 subcommands, with small numbers so that every
# command finishes quickly.  One argv in four then has one token after the
# command replaced by a malformed one or dropped.
_INT = st.integers(-12, 40).map(str)
_SLOPE = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-3, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(-12, 12).map(str),
    st.sampled_from(["inf", "oo", "1/0", "0/0"]),
)
_PQ = st.sampled_from(["2,3", "2,5", "3,4", "2,7", "3,5", "4,5", "3,7", "5,7", "2,4", "3,2", "-2,3"])
_RS = st.tuples(st.integers(-12, 12), st.integers(-3, 12)).map(lambda t: f"{t[0]},{t[1]}")
_SMALL = st.integers(-1, 12).map(str)
_JUNK = st.sampled_from(["x", "", "1.5", "2/", "/3", "1,", "1,2,3", "--json", "-", "--help"])


@st.composite
def _argv(draw):
    def options(required, optional=()):
        # The required options, then each optional one present or not.
        present = [*required, *(o for o in optional if draw(st.booleans()))]
        # A value that starts with "-" is joined to its flag, or argparse
        # takes it for an option.
        argv = []
        for flag, value in present:
            if value is None:
                argv.append(flag)
                continue
            v = draw(value)
            argv += [f"{flag}={v}"] if v.startswith("-") else [flag, v]
        return argv

    command = draw(st.sampled_from(["farey", "bypass", "tori", "classify", "mountain",
                                    "transverse", "verify"]))
    if command in ("farey", "bypass"):
        if command == "farey":
            extra = [draw(_SLOPE), draw(_INT), draw(_INT)][:draw(st.integers(0, 3))]
            positional = [draw(st.sampled_from(cli._ops("farey"))), draw(_SLOPE), *extra]
        else:
            positional = [draw(st.sampled_from(cli.SIDES)), draw(_SLOPE), draw(_SLOPE)]
        # A negative positional slope stands as it is, with no "--" before it.
        argv = options((), [("--den-bound", _SMALL), ("--json", None)]) + positional
    elif command == "tori":
        argv = [draw(st.sampled_from(cli._ops("tori")))]
        argv += options([("--pq", _PQ)], [("--slope", _SLOPE), ("--k", _INT), ("--n", _INT),
                                          ("--bound", _INT), ("--json", None)])
    elif command == "verify":
        argv = options([("--suite", st.sampled_from(cli.SUITES)), ("--k", _SMALL), ("--m", _SMALL),
                        ("--n", _SMALL)], [("--pq", _PQ), ("--json", None)])
    else:
        required = [("--pq", _PQ), ("--rs", _RS)]
        required += [("--tb-floor", _INT)] if command == "mountain" else []
        optional = [("--sl-floor", _INT)] if command == "transverse" else []
        argv = options(required, [*optional, ("--json", None)])
    argv = [command, *argv]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(1, len(argv) - 1))
        argv[i:i + 1] = draw(st.sampled_from([[], [draw(_JUNK)]]))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    # Every argv ends in 0, 1 or 2 through run(); a traceback fails the test.
    # An exit 1 with a diagnostic gives it on one "error: " line.
    code, _, err = invoke(*argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1 and err:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
