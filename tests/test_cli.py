"""Command-line front end: output lines, exit codes, determinism."""

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bucketforge
from bucketforge.cli import run
from bucketforge.model import parse_cnf
from bucketforge.oracle import oracle_sat

from conftest import DIAG_TEXT, OVERFLOW_DIAGRAMS, UTILITY_OVERFLOW

CHAIN_TEXT = """BAYES
3
2 2 2
3
1 0
2 0 1
2 1 2
2 0.7 0.3
4 0.7 0.3 0.3 0.7
4 0.7 0.3 0.3 0.7
"""

COPY_TEXT = """BAYES
2
2 2
2
1 0
2 0 1
2 0.5 0.5
4 1 0 0 1
"""

OFF_ROW_TEXT = """BAYES
1
2
1
1 0
2 0.8 0.4
"""

DIAGRAM_TEXT = """ID
2
2 2
1 0
1
2 0 1
4 0.2 0.8 0.9 0.1
1
1 1
2 10.0 1.0
"""

# The chance variable never takes value 1, whatever the decision.
NEVER_ONE_DIAGRAM = """ID
2
2 2
1 0
1
2 0 1
4 1 0 1 0
1
1 1
2 10.0 1.0
"""

SAT_CNF = """p cnf 3 2
1 2 0
-1 3 0
"""

UNSAT_CNF = """p cnf 1 2
1 0
-1 0
"""


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_belief_lines(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["bel", net, "--query", "0"]) == 0
    assert lines_of(capsys) == ["belief=0.7 0.3", "evidence_mass=1"]


def test_belief_oracle_lines_agree(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    ev = write(tmp_path, "obs.ev", "1 2 1\n")
    assert run(["bel", net, "--query", "0", "--evidence", ev, "--oracle"]) == 0
    got = dict(line.split("=", 1) for line in lines_of(capsys))
    assert got["belief"] == got["oracle_belief"]
    assert got["evidence_mass"] == got["oracle_evidence_mass"]


def test_mpe_lines(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["mpe", net]) == 0
    assert lines_of(capsys) == ["value=0.343", "assignment=0=0 1=0 2=0"]


def test_map_accepts_variable_names(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["map", net, "--hyp", "X0,2", "--oracle"]) == 0
    got = dict(line.split("=", 1) for line in lines_of(capsys))
    assert got["value"] == got["oracle_value"]
    assert got["assignment"] == got["oracle_assignment"]


def test_meu_hand_value(tmp_path, capsys):
    diagram = write(tmp_path, "decide.id", DIAGRAM_TEXT)
    assert run(["meu", diagram]) == 0
    assert lines_of(capsys) == ["value=9.1", "assignment=0=1"]


def test_cond_mpe_matches_plain_mpe(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["mpe", net]) == 0
    plain = dict(line.split("=", 1) for line in lines_of(capsys))
    assert run(["cond-mpe", net, "--cutset", "0"]) == 0
    conditioned = dict(line.split("=", 1) for line in lines_of(capsys))
    assert conditioned["cutset"] == "0"
    assert conditioned["iterations"] == "2"
    assert conditioned["value"] == plain["value"]
    assert conditioned["assignment"] == plain["assignment"]


def test_cond_mpe_wbound_and_parallel_match_serial(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    assert run(["cond-mpe", net, "--wbound", "1", "--parallel", "1"]) == 0
    serial = capsys.readouterr().out
    assert run(["cond-mpe", net, "--wbound", "1", "--parallel", "4"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("command", [["mpe"], ["bel", "--query", "3"], ["map", "--hyp", "0,2"],
                                     ["cond-mpe", "--cutset", "1,4"]])
def test_a_query_on_a_parsed_network_builds_no_factor(tmp_path, capsys, monkeypatch, command):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    ev = write(tmp_path, "obs.ev", "1 5 1\n")
    built = []
    construct = bucketforge.DiscreteFactor.__post_init__

    def counted(self):
        built.append(self.scope)
        construct(self)
    monkeypatch.setattr(bucketforge.DiscreteFactor, "__post_init__", counted)
    assert run([command[0], net, *command[1:], "--evidence", ev, "--trace"]) == 0
    assert capsys.readouterr().out
    assert built == []
    # Asked for, a table is built as a factor.
    assert bucketforge.parse_network(DIAG_TEXT).cpts[3].scope == (0, 1, 3)
    assert built == [(0, 1, 3)]


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    ev = write(tmp_path, "obs.ev", "1 5 1\n")
    argv = ["bel", net, "--query", "2", "--evidence", ev, "--trace", "--oracle"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_json_mode_holds_the_same_numbers(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["bel", net, "--query", "1", "--json"]) == 0
    payload = capsys.readouterr().out
    obj = json.loads(payload)
    assert payload == json.dumps(obj, sort_keys=True) + "\n"
    assert run(["bel", net, "--query", "1"]) == 0
    line_mode = dict(line.split("=", 1) for line in lines_of(capsys))
    assert " ".join(f"{p:.12g}" for p in obj["belief"]) == line_mode["belief"]
    assert f"{obj['evidence_mass']:.12g}" == line_mode["evidence_mass"]


def test_trace_lines_come_first(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["bel", net, "--query", "0", "--trace"]) == 0
    out = lines_of(capsys)
    assert out[0].startswith("trace var=")
    # Two buckets are eliminated; the query bucket is read, not processed.
    assert sum(1 for line in out if line.startswith("trace ")) == 2
    assert out[-2].startswith("belief=")


def test_inline_and_file_orderings(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    order = write(tmp_path, "by-hand.ord", "0 1 2 4 3 5\n")
    assert run(["mpe", net, "--order", "given:X0,X1,X2,X4,X3,X5"]) == 0
    inline = capsys.readouterr().out
    assert run(["mpe", net, "--order", order]) == 0
    assert capsys.readouterr().out == inline
    assert run(["mpe", net, "--order", "min-degree"]) == 0
    heuristic = dict(line.split("=", 1) for line in lines_of(capsys))
    assert heuristic["value"] == dict(
        line.split("=", 1) for line in inline.splitlines())["value"]


def test_lax_mode_renormalizes_off_rows(tmp_path, capsys):
    net = write(tmp_path, "off.net", OFF_ROW_TEXT)
    assert run(["bel", net, "--query", "0"]) == 2
    capsys.readouterr()
    assert run(["bel", net, "--query", "0", "--lax"]) == 0
    out = lines_of(capsys)
    assert out[0].startswith("belief=0.666666666667 0.333333333333")


def test_warnings_print_as_one_stderr_line_each_time(tmp_path, capsys):
    net = write(tmp_path, "off.net", OFF_ROW_TEXT)
    assert run(["bel", net, "--query", "0", "--lax"]) == 0
    assert capsys.readouterr().err == (
        "warning: renormalized conditional table of variable 0\n")
    cnf = write(tmp_path, "taut.cnf", "p cnf 2 2\n1 -1 0\n2 0\n")
    for command in ("dr", "stats", "dr", "stats"):  # not once per location
        assert run([command, cnf]) == 0
        assert capsys.readouterr().err == (
            "warning: dropped tautological clause near line 2\n")
    twice = write(tmp_path, "twice.cnf", "p cnf 2 3\n1 -1 0\n2 -2 0\n2 0\n")
    assert run(["dr", twice]) == 0
    assert capsys.readouterr().err == (
        "warning: dropped tautological clause near line 2\n"
        "warning: dropped tautological clause near line 3\n")


@pytest.mark.parametrize("text, message", [
    ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate DIMACS header (line 2, column 1)"),
    ("p cnf 3\n", "malformed DIMACS header 'p cnf 3' (line 1, column 1)"),
    ("p dnf 3 1\n", "malformed DIMACS header 'p dnf 3 1' (line 1, column 1)"),
    ("p cnf x 1\n", "malformed DIMACS header 'p cnf x 1' (line 1, column 1)"),
    ("p cnf -1 1\n", "negative proposition count (line 1, column 1)"),
    ("c only a comment\n", "missing DIMACS header"),
], ids=["duplicate", "short", "not cnf", "not a count", "negative count", "missing"])
def test_dr_refuses_a_malformed_dimacs_header(tmp_path, capsys, text, message):
    cnf = write(tmp_path, "header.cnf", text)
    assert run(["dr", cnf]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_runtime_warnings_stay_errors_inside_the_cli(tmp_path, monkeypatch):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)

    def overflowing(*args, **kwargs):
        warnings.warn("overflow encountered in multiply", RuntimeWarning)
    monkeypatch.setattr(bucketforge.engines, "solve_mpe", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning):
            run(["mpe", net])


def _array_memory_error():
    """numpy's own MemoryError for a 2^40-cell float64 array, made without
    allocating anything."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((2 ** 20, 2 ** 20), np.dtype(np.float64))


@pytest.mark.parametrize("exc, err", [
    (MemoryError(), "error: out of memory\n"),
    (_array_memory_error(), "error: out of memory: Unable to allocate "),
], ids=["bare", "numpy"])
def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc, err):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)

    def exhausted(*args, **kwargs):
        raise exc
    monkeypatch.setattr(bucketforge.engines, "execute", exhausted)
    assert run(["mpe", net]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(err) and captured.err.count("\n") == 1


def test_usage_and_model_error_exit_codes(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    bad = write(tmp_path, "bad.net", "BAYES\n1\n2\n1\n1 0\n3 0.5 0.5\n")
    short = write(tmp_path, "short.ord", "0 1\n")
    late_query = write(tmp_path, "late.ord", "0 1 2\n")
    assert run([]) == 1
    assert run(["bel", net]) == 1
    assert run(["bel", net, "--query", "9"]) == 1
    assert run(["bel", net, "--query", "1", "--order", late_query]) == 1
    assert run(["cond-mpe", net, "--wbound", "-1"]) == 1
    assert run(["cond-mpe", net, "--cutset", "0", "--parallel", "0"]) == 1
    assert run(["map", net, "--hyp", "bogus"]) == 1
    assert run(["bel", net, "--query", "1", "--order", short]) == 2
    assert run(["bel", str(tmp_path / "missing.net"), "--query", "0"]) == 2
    assert run(["bel", bad, "--query", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("role", ["network", "evidence", "order", "cnf"])
def test_an_input_file_that_is_not_utf8_is_an_invalid_input_file(tmp_path, capsys, role):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 0\xff\n")
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    argv = {"network": ["mpe", str(bad)],
            "evidence": ["mpe", net, "--evidence", str(bad)],
            "order": ["mpe", net, "--order", str(bad)],
            "cnf": ["dr", str(bad)]}[role]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad} is not UTF-8 text: ") and err.count("\n") == 1


def test_seed_flag_is_gone(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    assert run(["bel", net, "--query", "0", "--seed", "1"]) == 1
    assert run(["dr", cnf, "--seed", "1"]) == 1
    assert run(["stats", net, "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("argv", [["dr", "theory.cnf", "--lax"],
                                  ["stats", "chain.net", "--trace"]],
                         ids=["dr-lax", "stats-trace"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    write(tmp_path, "theory.cnf", SAT_CNF)
    write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run([argv[0], str(tmp_path / argv[1]), argv[2]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert argv[2] in captured.err


def test_stats_given_order_with_a_repeated_node_is_a_usage_error(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    assert run(["stats", net, "--order", "given:0,0,1,2"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, code, err", [
    (["dr", "theory.cnf", "--order", "given:1,2,5"], 1, "'5'"),
    (["dr", "theory.cnf", "--order", "given:0,1,2"], 1, "'0'"),
    (["stats", "chain.net", "--order", "given:0,1,2,99"], 1, "'99'"),
    (["stats", "chain.net", "--order", "given:0,-1,1,2"], 1, "'-1'"),
    (["stats", "theory.cnf", "--order", "given:3,2,1,4"], 1, "'4'"),
    (["map", "chain.net", "--hyp", "0,5"], 1, "'5'"),
    (["cond-mpe", "chain.net", "--cutset", "3"], 1, "'3'"),
    (["stats", "chain.net", "--order", "given:0,2", "--evidence", "obs.ev"], 0, None),
], ids=["dr-high", "dr-zero", "stats-net", "stats-negative", "stats-cnf", "map-hyp",
        "cond-mpe-cutset", "stats-observed-left-out"])
def test_given_and_id_lists_follow_one_id_rule(tmp_path, capsys, argv, code, err):
    write(tmp_path, "chain.net", CHAIN_TEXT)
    write(tmp_path, "theory.cnf", SAT_CNF)
    write(tmp_path, "obs.ev", "1 1 0\n")
    assert run([str(tmp_path / a) if "." in a else a for a in argv]) == code
    captured = capsys.readouterr()
    if err is None:
        assert captured.err == ""
        assert "sequence=0 2" in captured.out.splitlines()
    else:
        assert captured.out == ""
        assert captured.err == f"error: not a variable id or name: {err}\n"


def test_dr_oracle_builds_the_truth_table_once(tmp_path, capsys, monkeypatch):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    calls = []

    def counted(theory):
        calls.append(theory)
        return oracle_sat(theory)
    monkeypatch.setattr(bucketforge.oracle, "oracle_sat", counted)
    assert run(["dr", cnf, "--oracle"]) == 0
    assert "oracle_sat=1" in lines_of(capsys)
    assert len(calls) == 1


def test_impossible_evidence_exit_codes(tmp_path, capsys):
    net = write(tmp_path, "copy.net", COPY_TEXT)
    ev = write(tmp_path, "conflict.ev", "2 0 0 1 1\n")
    assert run(["bel", net, "--query", "0", "--evidence", ev]) == 3
    assert lines_of(capsys) == ["IMPOSSIBLE EVIDENCE"]
    assert run(["mpe", net, "--evidence", ev]) == 3
    got = dict(line.split("=", 1) for line in lines_of(capsys))
    assert got["value"] == "0"
    assert "note" in got


@pytest.mark.parametrize("command, text, ev", [
    (["bel", "--query", "0"], COPY_TEXT, "2 0 0 1 1\n"),
    (["map", "--hyp", "0"], COPY_TEXT, "2 0 0 1 1\n"),
    (["meu"], NEVER_ONE_DIAGRAM, "1 1 1\n"),
], ids=["bel", "map", "meu"])
def test_impossible_evidence_is_one_object_under_json(tmp_path, capsys, command, text, ev):
    model = write(tmp_path, "model.txt", text)
    argv = [command[0], model, *command[1:], "--evidence", write(tmp_path, "conflict.ev", ev)]
    assert run(argv) == 3
    assert capsys.readouterr() == ("IMPOSSIBLE EVIDENCE\n", "")
    assert run([*argv, "--json"]) == 3
    assert capsys.readouterr() == ('{"impossible_evidence": 1}\n', "")


@pytest.mark.parametrize("hyp, order", [("0", []), ("0", ["--order", "given:0,1"]),
                                       ("1", ["--order", "given:1,0"])],
                         ids=["default", "given", "given, hypothesis observed"])
def test_map_under_impossible_evidence_exits_3(tmp_path, capsys, hyp, order):
    net = write(tmp_path, "copy.net", COPY_TEXT)
    ev = write(tmp_path, "conflict.ev", "2 0 0 1 1\n")
    assert run(["map", net, "--hyp", hyp, "--evidence", ev, *order]) == 3
    assert capsys.readouterr() == ("IMPOSSIBLE EVIDENCE\n", "")
    # Without evidence a best value cannot be 0 but through underflow.
    assert run(["map", net, "--hyp", hyp, *order]) == 0
    assert lines_of(capsys)[0] == "value=0.5"


def test_dr_model_satisfies_the_theory(tmp_path, capsys):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    out_path = str(tmp_path / "extension.cnf")
    assert run(["dr", cnf, "--extension", out_path, "--trace"]) == 0
    out = lines_of(capsys)
    got = dict(line.split("=", 1) for line in out if not line.startswith("trace "))
    assert got["sat"] == "1"
    model = {}
    for pair in got["model"].split():
        prop, val = pair.split("=")
        model[int(prop)] = bool(int(val))
    for clause in parse_cnf(SAT_CNF).clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in clause)
    extension = parse_cnf(Path(out_path).read_text())
    assert extension.num_props == 3
    assert len(extension.clauses) == int(got["clauses"])
    assert sum(1 for line in out if line.startswith("trace prop=")) == 3


def test_dr_writes_the_extension_before_printing(tmp_path, capsys):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    assert run(["dr", cnf]) == 0
    answer = capsys.readouterr().out
    out_path = tmp_path / "extension.cnf"
    assert run(["dr", cnf, "--extension", str(out_path)]) == 0
    assert capsys.readouterr().out == answer
    assert parse_cnf(out_path.read_text()).num_props == 3
    missing = str(tmp_path / "missing" / "extension.cnf")
    assert run(["dr", cnf, "--extension", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_dr_evidence_pins_unit_clauses(tmp_path, capsys):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    ev = write(tmp_path, "obs.ev", "1 1 1\n")
    assert run(["dr", cnf, "--evidence", ev]) == 0
    got = dict(line.split("=", 1) for line in lines_of(capsys))
    assert "1=1" in got["model"].split()
    assert "3=1" in got["model"].split()


def test_dr_unsat_exit_code(tmp_path, capsys):
    cnf = write(tmp_path, "clash.cnf", UNSAT_CNF)
    assert run(["dr", cnf]) == 3
    assert lines_of(capsys) == ["UNSAT"]
    assert run(["dr", cnf, "--json"]) == 3
    assert json.loads(capsys.readouterr().out) == {"sat": 0}


def test_dr_reads_a_one_based_order_file(tmp_path, capsys):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    order = write(tmp_path, "good.order", "2 3\n1\n")
    assert run(["dr", cnf, "--order", order, "--trace"]) == 0
    traced = [line.split()[1] for line in lines_of(capsys) if line.startswith("trace ")]
    assert traced == ["prop=1", "prop=3", "prop=2"]  # processed last to first


@pytest.mark.parametrize("text", ["1 x 3\n", "0 1 2\n", "1 2 2 3\n", "3 1\n"],
                         ids=["non-integer", "zero-based", "repeated", "missing"])
def test_dr_bad_order_file_is_an_invalid_input_file(tmp_path, capsys, text):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    order = write(tmp_path, "bad.order", text)
    assert run(["dr", cnf, "--order", order]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ordering ")


@pytest.mark.parametrize("flags, err", [
    (["--wbound", "4", "--parallel", "0"], "error: --parallel must be >= 1\n"),
    (["--cutset", "0", "--parallel", "-3"], "error: --parallel must be >= 1\n"),
    (["--wbound", "-1"], "error: --wbound must be >= 0\n"),
], ids=["parallel 0", "parallel -3", "wbound -1"])
def test_cond_mpe_checks_its_flags_before_reading_the_network(tmp_path, capsys,
                                                              monkeypatch, flags, err):
    def refuse(*_):
        raise AssertionError("the cutset heuristic ran")
    monkeypatch.setattr(bucketforge.cli, "cutset_heuristic", refuse)
    for net in (write(tmp_path, "chain.net", CHAIN_TEXT), str(tmp_path / "missing.net")):
        assert run(["cond-mpe", net, *flags]) == 1
        assert capsys.readouterr() == ("", err)


def test_cond_mpe_refuses_too_many_combinations_up_front(tmp_path, capsys, monkeypatch):
    n = 21
    lines = ["BAYES", str(n), " ".join(["2"] * n), str(n)]
    lines += [f"1 {v}" for v in range(n)]
    lines += ["2 0.5 0.5"] * n
    net = write(tmp_path, "wide.net", "\n".join(lines) + "\n")

    def no_iteration(*args, **kwargs):
        raise AssertionError("an iteration ran")
    monkeypatch.setattr(bucketforge.engines, "execute", no_iteration)
    cutset = ",".join(str(v) for v in range(n))
    assert run(["cond-mpe", net, "--cutset", cutset]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2097152 value combinations" in captured.err


def chain_text(n):
    lines = ["BAYES", str(n), " ".join(["2"] * n), str(n), "1 0"]
    lines += [f"2 {v - 1} {v}" for v in range(1, n)]
    lines += ["2 0.6 0.4"] + ["4 0.9 0.1 0.2 0.8"] * (n - 1)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", [["bel", "--query", "0"], ["mpe"],
                                     ["map", "--hyp", "0,1"],
                                     ["cond-mpe", "--cutset", "3"]])
def test_oracle_past_its_cap_is_an_error_line(tmp_path, capsys, command):
    net = write(tmp_path, "long.net", chain_text(22))  # 2^22 joint cells
    assert run([command[0], net, *command[1:]]) == 0
    capsys.readouterr()
    assert run([command[0], net, *command[1:], "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: joint table would hold 4194304 cells "
                            "(cap 1048576)\n")


def test_dr_oracle_past_its_cap_is_an_error_line(tmp_path, capsys):
    clauses = [f"{p} {p + 1} 0" for p in range(1, 21)]
    cnf = write(tmp_path, "wide.cnf", "p cnf 21 20\n" + "\n".join(clauses) + "\n")
    assert run(["dr", cnf]) == 0
    capsys.readouterr()
    assert run(["dr", cnf, "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truth table over 21 propositions exceeds the cap\n"


def test_cond_mpe_output_is_the_same_at_every_parallelism(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    ev = write(tmp_path, "obs.ev", "1 5 1\n")
    outputs = []
    for workers in ("1", "2", "4"):
        argv = ["cond-mpe", net, "--cutset", "0,1,3,4", "--evidence", ev,
                "--trace", "--parallel", workers]
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert run(argv + ["--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert "iterations=16" in outputs[0].splitlines()
    assert outputs[0::2] == [outputs[0]] * 3
    assert outputs[1::2] == [outputs[1]] * 3


def dyadic_network_text(rng, n):
    """Binary variables with up to two earlier parents, each row drawn from
    (0.5, 0.5), (0.25, 0.75) and (0.75, 0.25): every product of entries is
    exact, so equal masses tie exactly."""
    parents = [sorted(rng.sample(range(v), min(v, rng.randint(0, 2)))) for v in range(n)]
    rows = ["0.5 0.5", "0.25 0.75", "0.75 0.25"]
    lines = ["BAYES", str(n), " ".join(["2"] * n), str(n)]
    lines += [" ".join(map(str, [len(ps) + 1, *ps, v])) for v, ps in enumerate(parents)]
    lines += [f"{2 ** (len(ps) + 1)} " + " ".join(rng.choice(rows) for _ in range(2 ** len(ps)))
              for ps in parents]
    return "\n".join(lines) + "\n"


def test_cond_mpe_oracle_breaks_ties_as_the_engine_does(tmp_path, capsys):
    """The engine takes the first maximum over the cutset's combinations,
    then decodes the rest along the ordering; --oracle breaks ties in that
    order too."""
    rng = random.Random(2407)
    for case in range(200):
        n = rng.randint(2, 6)
        net = write(tmp_path, f"{case}.net", dyadic_network_text(rng, n))
        order = rng.sample(range(n), n)
        cut = order[n - rng.randint(1, min(3, n)):]
        assert run(["cond-mpe", net, "--cutset", ",".join(map(str, cut)), "--oracle",
                    "--order", "given:" + ",".join(map(str, order))]) == 0
        got = dict(line.split("=", 1) for line in lines_of(capsys))
        assert got["value"] == got["oracle_value"]
        assert got["assignment"] == got["oracle_assignment"], (case, cut, order)


def test_cond_mpe_trace_serialises_its_records_under_json(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    ev = write(tmp_path, "obs.ev", "1 5 1\n")
    assert run(["cond-mpe", net, "--cutset", "1,5", "--evidence", ev, "--trace", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["iterations"] == 2
    assert [r["pinned"] for r in out["iterations_trace"]] == [{"1": 0, "5": 1},
                                                               {"1": 1, "5": 1}]


def test_stats_reports_both_heuristics(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    assert run(["stats", net]) == 0
    out = lines_of(capsys)
    assert out[0] == "kind=bayes"
    assert out[1] == "variables=6"
    labels = [line.split("=", 1)[1] for line in out if line.startswith("order=")]
    assert labels == ["min-degree", "min-fill"]
    reports = [line for line in out if line.startswith("w=")]
    assert reports == ["w=2 wstar=2 fill=0"] * 2


def test_stats_conditions_on_evidence(tmp_path, capsys):
    net = write(tmp_path, "diag.net", DIAG_TEXT)
    ev = write(tmp_path, "obs.ev", "1 4 0\n")
    assert run(["stats", net, "--evidence", ev]) == 0
    out = lines_of(capsys)
    for line in out:
        if line.startswith("sequence="):
            ids = line.split("=", 1)[1].split()
            assert "4" not in ids
            assert len(ids) == 5


def test_stats_cnf_uses_one_based_propositions(tmp_path, capsys):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    assert run(["stats", cnf]) == 0
    out = lines_of(capsys)
    assert out[0] == "kind=cnf"
    assert out[1] == "propositions=3"
    for line in out:
        if line.startswith("sequence="):
            assert sorted(line.split("=", 1)[1].split()) == ["1", "2", "3"]


def _assert_cli_process(command, net, env, cwd):
    """Run ``command`` as its own process: documented lines, exit codes."""
    proc = subprocess.run([*command, "bel", net, "--query", "0"], env=env,
                          cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["belief=0.7 0.3", "evidence_mass=1"]
    proc = subprocess.run([*command, "bel", net], env=env, cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr


def test_console_script_is_installed(tmp_path):
    """The declared console script runs the CLI as a process from this tree.

    ``pip install`` turns ``[project.scripts]`` into a wrapper that imports
    the target and exits with its result; this runs the same wrapper code
    against the checkout, so no install is needed.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    # The tree ``bucketforge`` was imported from, whatever the caller's cwd.
    src = Path(bucketforge.__file__).resolve().parent.parent
    pyproject = src.parent / "pyproject.toml"
    assert pyproject.is_file(), f"bucketforge not imported from a checkout: {src}"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "bucketforge" in scripts, "pyproject.toml declares no bucketforge script"
    module, _, function = scripts["bucketforge"].partition(":")
    assert module and function, scripts["bucketforge"]
    wrapper = (f"import sys; from {module} import {function}; "
               f"sys.exit({function}())")
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    env = {**os.environ, "PYTHONPATH": str(src)}
    _assert_cli_process([sys.executable, "-c", wrapper], net, env, tmp_path)
    _assert_cli_process([sys.executable, "-m", "bucketforge.cli"], net, env,
                        tmp_path)


@pytest.mark.parametrize("command, flags", [("mpe", ["--trace"]),
                                            ("bel", ["--query", "0", "--evidence"])],
                         ids=["answer", "impossible evidence"])
def test_a_closed_stdout_exits_1_quietly(tmp_path, command, flags):
    """A reader that closed the pipe is not an input error (exit 2), and
    Python's flush at exit prints no ``Exception ignored`` line."""
    src = Path(bucketforge.__file__).resolve().parent.parent
    argv = [command, write(tmp_path, "copy.net", COPY_TEXT), *flags]
    if "--evidence" in flags:
        argv.append(write(tmp_path, "conflict.ev", "2 0 0 1 1\n"))
    read, written = os.pipe()
    os.close(read)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "bucketforge.cli", *argv],
                              stdout=written, stderr=subprocess.PIPE, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(written)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(shutil.which("bucketforge") is None,
                    reason="no bucketforge executable on PATH")
def test_installed_console_script_runs(tmp_path):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    _assert_cli_process([shutil.which("bucketforge")], net, None, tmp_path)


def test_non_finite_table_entry_is_an_invalid_input_file(tmp_path, capsys):
    net = write(tmp_path, "nan.net", CHAIN_TEXT.replace("2 0.7 0.3", "2 nan 0.3"))
    assert run(["mpe", net]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table entry must be finite, found 'nan' (line 8, column 3)\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(OVERFLOW_DIAGRAMS))
def test_meu_whose_expected_utility_overflows_is_refused(tmp_path, capsys, name, json_flag):
    path = write(tmp_path, name, OVERFLOW_DIAGRAMS[name])
    assert run(["meu", path, *json_flag]) == 1
    assert capsys.readouterr() == ("", "error: factor values must be finite\n")


# Under the default filter a numpy RuntimeWarning would print as a
# ``warning:`` line, as it does outside the tests.
@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("var", [0, 1], ids=["decision bucket", "chance bucket"])
def test_a_utility_sum_that_overflows_prints_only_the_refusal(tmp_path, capsys, var):
    path = write(tmp_path, "sum.id", UTILITY_OVERFLOW.format(var=var))
    assert run(["meu", path]) == 1
    assert capsys.readouterr() == ("", "error: factor values must be finite\n")


@pytest.mark.parametrize("spec, code, expected", [
    ("0,,1", 0, None),
    (",", 1, ("", "error: empty id list ','\n")),
], ids=["empty token", "no id"])
def test_an_id_list_skips_empty_tokens_but_not_every_token(tmp_path, capsys, spec, code,
                                                           expected):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    if expected is None:  # the same as the list without its empty token
        assert run(["map", net, "--hyp", "0,1"]) == 0
        expected = capsys.readouterr()
    assert run(["map", net, "--hyp", spec]) == code
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("order", [None, "min-degree", "given:1,0,2", "chain.ord"])
def test_bel_query_follows_the_one_id_rule(tmp_path, capsys, order):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    write(tmp_path, "chain.ord", "1 0 2\n")
    tail = [] if order is None else ["--order", str(tmp_path / order) if "." in order else order]
    assert run(["bel", net, "--query", "9", *tail]) == 1
    assert capsys.readouterr() == ("", "error: not a variable id or name: '9'\n")
    assert run(["bel", net, "--query", "0,1", *tail]) == 1
    assert capsys.readouterr().out == ""
    assert run(["bel", net, "--query", "1", *tail]) == 0
    by_id = capsys.readouterr().out
    assert run(["bel", net, "--query", "X1", *tail]) == 0
    assert capsys.readouterr().out == by_id


def test_variable_names_are_built_only_when_a_token_is_not_an_integer(tmp_path, capsys,
                                                                      monkeypatch):
    """An id list of integers reads no names; each list with a name among
    its tokens reads them once; either way the answer is the same."""
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    real = bucketforge.BeliefNetwork.names
    reads = []

    def counted(model):
        reads.append(model)
        return real.fget(model)
    monkeypatch.setattr(bucketforge.BeliefNetwork, "names", property(counted))
    for by_id, by_name, lists_named in [
            (["bel", net, "--query", "1", "--order", "given:1,0,2"],
             ["bel", net, "--query", "X1", "--order", "given:X1,0,X2"], 2),
            (["map", net, "--hyp", "0,2"], ["map", net, "--hyp", "2,X0"], 1),
            (["cond-mpe", net, "--cutset", "1", "--order", "given:0,2,1"],
             ["cond-mpe", net, "--cutset", "X1", "--order", "given:0,2,1"], 1),
            (["mpe", net, "--order", "given:2,1,0"], ["mpe", net, "--order", "given:X2,X1,X0"], 1),
            (["bel", net, "--query", "0"], ["bel", net, "--query", "X0"], 1)]:
        reads.clear()
        assert run(by_id) == 0
        expected = capsys.readouterr()
        assert reads == []
        assert run(by_name) == 0
        assert capsys.readouterr() == expected
        assert len(reads) == lists_named


@pytest.mark.parametrize("order", [None, "min-degree", "given:1,0,2", "chain.ord"])
def test_a_repeated_hypothesis_id_is_one_error_under_every_ordering(tmp_path, capsys,
                                                                     order):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    write(tmp_path, "chain.ord", "1 0 2\n")
    tail = [] if order is None else ["--order", str(tmp_path / order) if "." in order else order]
    for hyp in ("1,1", "X1,1"):
        assert run(["map", net, "--hyp", hyp, *tail]) == 1
        assert capsys.readouterr() == ("", "error: hypothesis lists a variable twice\n")


def test_stats_cnf_reads_evidence_like_dr(tmp_path, capsys):
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    ev = write(tmp_path, "obs.ev", "1 1 1\n")
    bad = write(tmp_path, "bad.ev", "1 4 1\n")
    assert run(["stats", cnf]) == 0
    plain = capsys.readouterr().out
    assert run(["stats", cnf, "--evidence", ev]) == 0
    assert capsys.readouterr().out == plain
    for path, err in [(str(tmp_path / "missing.ev"), "No such file"),
                      (bad, "error: unknown proposition 4")]:
        assert run(["stats", cnf, "--evidence", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert err in captured.err
        assert run(["dr", cnf, "--evidence", path]) == 2
        assert err in capsys.readouterr().err


NEGATIVE_TEXT = """BAYES
2
2 2
2
1 0
2 0 1
2 0.5 0.5
4 1.5 -0.5 0.5 0.5
"""


@pytest.mark.parametrize("row, argv", [
    ("1.5 -0.5", ["bel", "--query", "1"]),
    ("1.5 -0.5", ["mpe"]),
    ("1.5 -0.5", ["mpe", "--lax"]),
    ("1.5 -0.5", ["stats"]),
    ("-1 -3", ["mpe", "--lax"]),  # renormalizing would make this row valid
], ids=["bel", "mpe", "mpe-lax", "stats", "all-negative-row-lax"])
def test_negative_table_entry_is_a_model_error(tmp_path, capsys, row, argv):
    net = write(tmp_path, "neg.net", NEGATIVE_TEXT.replace("1.5 -0.5", row))
    assert run([argv[0], net, *argv[1:]]) == 2
    assert capsys.readouterr() == ("", "error: table for variable 1 has a negative entry\n")


def test_negative_utilities_still_solve(tmp_path, capsys):
    diagram = write(tmp_path, "decide.id", DIAGRAM_TEXT.replace("10.0 1.0", "-10.0 -1.0"))
    assert run(["meu", diagram, "--oracle"]) == 0
    got = dict(line.split("=", 1) for line in lines_of(capsys))
    assert got["value"] == got["oracle_value"]
    assert got["assignment"] == got["oracle_assignment"] == "0=0"


@pytest.mark.parametrize("command, text, extra, ids, builder", [
    ("bel", CHAIN_TEXT, ["--query", "0"], "0,1,2", "moral_graph"),
    ("mpe", CHAIN_TEXT, [], "0,1,2", "moral_graph"),
    ("map", CHAIN_TEXT, ["--hyp", "0"], "0,1,2", "moral_graph"),
    ("meu", DIAGRAM_TEXT, [], "0,1", "augmented_graph"),
    ("dr", SAT_CNF, [], "1,2,3", "interaction_graph"),
], ids=["bel", "mpe", "map", "meu", "dr"])
def test_a_given_ordering_builds_no_graph(tmp_path, capsys, monkeypatch, command, text,
                                          extra, ids, builder):
    path = write(tmp_path, "model", text)
    order_file = write(tmp_path, "model.ord", ids.replace(",", " ") + "\n")

    def refuse(*args):
        raise AssertionError("the graph was built")
    monkeypatch.setattr(bucketforge.cli, builder, refuse)
    for order in ("given:" + ids, order_file):
        assert run([command, path, *extra, "--order", order]) == 0
    capsys.readouterr()


# X0's prior and X1's row under X0 = 1 hold a -0 entry; under X0 = 1 the
# largest completion has probability 0.
NEGATIVE_ZERO_TEXT = """BAYES
2
2 2
2
1 0
2 0 1
2 1 -0
4 1 -0 0.5 0.5
"""


def test_negative_zero_entries_are_read_as_zero(tmp_path, capsys):
    net = write(tmp_path, "zero.net", NEGATIVE_ZERO_TEXT)
    ev = write(tmp_path, "x0.ev", "1 0 1\n")
    assert run(["mpe", net, "--evidence", ev, "--oracle"]) == 3
    got = dict(line.split("=", 1) for line in lines_of(capsys))
    assert got["value"] == got["oracle_value"] == "0"
    assert run(["mpe", net, "--evidence", ev, "--oracle", "--json"]) == 3
    out = capsys.readouterr().out
    assert '"value": 0.0' in out and "-0" not in out


def test_a_reused_parser_answers_each_command_as_a_fresh_one(tmp_path, capsys):
    net = write(tmp_path, "chain.net", CHAIN_TEXT)
    cnf = write(tmp_path, "theory.cnf", SAT_CNF)
    commands = [["bel", net, "--query", "0", "--json"],
                ["dr", cnf, "--trace"],
                ["cond-mpe", net, "--cutset", "1", "--wbound", "2"],  # usage error
                ["mpe", net, "--order", "given:2,1,0"],
                ["map", net, "--hyp", "0"],
                ["stats", cnf]]
    alone = []
    for argv in commands:
        bucketforge.cli.build_parser.cache_clear()
        alone.append((run(argv), capsys.readouterr()))
    assert alone[2][0] == 1 and alone[2][1].err.startswith("error: ")
    parser = bucketforge.cli.build_parser()
    assert [(run(argv), capsys.readouterr()) for argv in commands] == alone
    assert bucketforge.cli.build_parser() is parser


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv", [
    ["bel", "diag.net", "--query", "0", "--evidence", "diag.ev"],
    ["mpe", "diag.net", "--evidence", "diag.ev"],
    ["map", "diag.net", "--hyp", "0,1", "--evidence", "diag.ev"],
    ["meu", "golden.id", "--evidence", "golden.id.ev"],
    ["cond-mpe", "diag.net", "--cutset", "1,2", "--evidence", "diag.ev"],
], ids=lambda argv: argv[0])
def test_a_query_without_trace_builds_no_trace_entry(argv, monkeypatch, capsys):
    """Trace entries are read off the plan only when ``--trace`` prints them;
    with it, the other lines stay those of the untraced command."""
    built = []

    class Counted(bucketforge.buckets.TraceEntry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(bucketforge.buckets, "TraceEntry", Counted)
    argv = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert built == []
    assert run([*argv, "--trace"]) == 0
    traced = capsys.readouterr().out.splitlines()
    entries = [line for line in traced if line.startswith("trace var=")]
    assert len(built) == len(entries) > 0
    assert [line for line in traced if not line.startswith("trace ")] == plain.splitlines()


# -- the collector pause ------------------------------------------------------

PAUSE_INPUTS = {"net": DIAG_TEXT, "ev": "1 5 1\n", "copy": COPY_TEXT, "conflict": "2 0 0 1 1\n",
                "off": OFF_ROW_TEXT, "id": DIAGRAM_TEXT, "never": NEVER_ONE_DIAGRAM,
                "never_ev": "1 1 1\n", "sat": SAT_CNF, "unsat": UNSAT_CNF,
                "taut": "p cnf 2 2\n1 -1 0\n2 0\n", "bad": "BAYES\n1\n2\n1\n1 0\n3 0.5 0.5\n"}


def pause_argv(tmp_path, spec):
    """``spec``'s words, each ``{name}`` the path of that ``PAUSE_INPUTS``
    file (``{missing}`` a path with no file)."""
    paths = {name: write(tmp_path, name, text) for name, text in PAUSE_INPUTS.items()}
    paths["missing"] = str(tmp_path / "missing.net")
    return [word.format(**paths) for word in spec.split()]


@pytest.mark.parametrize("spec, code", [
    ("bel {net} --query 0", 0),
    ("bel {net} --query 2 --evidence {ev} --trace", 0),
    ("bel {net} --query 2 --evidence {ev} --json --oracle", 0),
    ("bel {off} --query 0 --lax", 0),
    ("bel {copy} --query 0 --evidence {conflict}", 3),
    ("bel {copy} --query 0 --evidence {conflict} --json", 3),
    ("mpe {net} --evidence {ev} --trace", 0),
    ("mpe {net} --json --oracle", 0),
    ("mpe {off} --lax --trace", 0),
    ("mpe {copy} --evidence {conflict} --trace", 3),
    ("map {net} --hyp 0,1 --evidence {ev} --trace", 0),
    ("map {copy} --hyp 0 --evidence {conflict} --json", 3),
    ("meu {id} --trace --oracle", 0),
    ("meu {id} --json", 0),
    ("meu {never} --evidence {never_ev}", 3),
    ("cond-mpe {net} --cutset 1,2 --evidence {ev} --trace", 0),
    ("cond-mpe {net} --wbound 1 --parallel 2 --json", 0),
    ("dr {sat} --trace --oracle", 0),
    ("dr {taut} --json", 0),
    ("dr {unsat} --trace", 3),
    ("stats {net} --evidence {ev}", 0),
    ("stats {sat} --json --order given:3,2,1", 0),
    ("stats {off} --lax", 0),
    ("", 1),
    ("bel {net} --query 9", 1),
    ("dr {sat} --bogus", 1),
    ("cond-mpe {net} --wbound -1", 1),
    ("mpe {missing}", 2),
    ("bel {bad} --query 0", 2),
    ("mpe {off}", 2),
], ids=lambda x: x if isinstance(x, str) and x else None)
def test_no_command_leaves_cyclic_garbage(tmp_path, capsys, spec, code):
    """``run`` pauses the cyclic collector, which is safe only while
    reference counting frees everything a command allocates: a command
    that built a cycle per step or per table would grow memory under the
    pause, and fails here instead."""
    argv = pause_argv(tmp_path, spec)
    assert run(argv) == code  # one-time imports and caches
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == code
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def _raise(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("spec, outcome, command", [
    ("bel {net} --query 0", 0, None),
    ("bel {copy} --query 0 --evidence {conflict}", 3, None),
    ("bel {net} --query 9", 1, None),
    ("bel {net} --query 0 --bogus", 1, None),
    ("bel {bad} --query 0", 2, None),
    ("bel --help", SystemExit, None),
    ("stats {net}", BrokenPipeError, _raise(BrokenPipeError())),
    ("stats {net}", RuntimeError, _raise(RuntimeError("unexpected"))),
], ids=["return 0", "return 3", "usage error", "unknown flag", "model error",
        "help", "broken pipe", "unexpected error"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, enabled,
                                                 spec, outcome, command):
    """Whichever way ``run`` ends, a return or an exception, the collector
    is as it was before: a caller that disabled it finds it disabled."""
    if command is not None:
        monkeypatch.setitem(bucketforge.cli._COMMANDS, "stats", command)
    argv = pause_argv(tmp_path, spec)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert run(argv) == outcome
        else:
            with pytest.raises(outcome):
                run(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_overlapping_runs_on_many_threads_leave_the_collector_as_they_found_it(tmp_path,
                                                                               capsys):
    """More threads than cores start together at a barrier, each running a
    query and a usage error in turn as fast as it can, with the interpreter
    switching threads every microsecond: however the calls overlap, the
    collector ends as it was before the first began, enabled or disabled."""
    argvs = [pause_argv(tmp_path, "mpe {net} --evidence {ev} --trace"),
             pause_argv(tmp_path, "bel {net} --query 9")]
    count, rounds = max(8, (os.cpu_count() or 1) + 1), 20
    was, interval = gc.isenabled(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for enabled in (True, False, True):
            (gc.enable if enabled else gc.disable)()
            barrier, codes = threading.Barrier(count), []

            def commands():
                barrier.wait()
                codes.extend(run(argvs[i % 2]) for i in range(rounds))
            threads = [threading.Thread(target=commands) for _ in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            half = count * rounds // 2
            assert sorted(codes) == [0] * half + [1] * half
            assert gc.isenabled() is enabled
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_a_call_that_begins_as_another_returns_leaves_the_collector_enabled(monkeypatch):
    """Thread A's command runs when thread B calls ``run``, and A returns
    while B's call is starting.  Had B read the collector's state while A
    held it disabled, and disabled it after A had enabled it again, both
    would return with it disabled, and so would every later call; one
    pause shared under a lock ends with it enabled."""
    a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
    threads = {}

    def isenabled():
        enabled = gc.isenabled()
        if threading.current_thread() is threads.get("b"):
            b_in.set()
            a_done.wait(5)
        return enabled

    def command(args):
        if threading.current_thread() is threads["b"]:
            b_in.set()
            a_done.wait(5)
        else:
            a_in.set()
            b_in.wait(5)
        return 0

    def call_a():
        run(["stats", "unread.net"])
        a_done.set()
    monkeypatch.setattr(bucketforge.cli, "gc",
                        SimpleNamespace(isenabled=isenabled, disable=gc.disable,
                                        enable=gc.enable))
    monkeypatch.setitem(bucketforge.cli._COMMANDS, "stats", command)
    assert gc.isenabled()
    threads["a"] = threading.Thread(target=call_a)
    threads["b"] = threading.Thread(target=run, args=(["stats", "unread.net"],))
    threads["a"].start()
    assert a_in.wait(5)
    threads["b"].start()
    for t in threads.values():
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads.values())
    assert a_done.is_set() and gc.isenabled()


def test_no_collector_pass_starts_inside_run_on_a_long_chain(tmp_path, capsys, generators):
    """A seeded 2500-variable window chain with half its variables observed,
    long-chain's shape: its plan keeps tens of thousands of objects alive.
    ``bel`` refuses with exit 3 once its sweep underflows, by an exception
    whose traceback keeps the sweep's frames, and so the plan, alive until
    the handler has printed the refusal; the pause covers that handler too.
    The same command run past the pause starts passes."""
    rng = np.random.default_rng(3301)
    chain = generators.window_network(rng, 2500, 2, 6)
    half = generators.observe(rng, chain, fraction=0.5, exclude=[0])
    net = write(tmp_path, "chain.net", generators.network_text(chain))
    ev = write(tmp_path, "chain.ev", generators.evidence_text(half))
    order = write(tmp_path, "chain.order", generators.order_text(range(chain.n)))
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def passes(command, argv):
        assert gc.isenabled()
        gc.collect()
        started.clear()
        gc.callbacks.append(on_gc)
        try:
            code = command(argv)
        finally:
            gc.callbacks.remove(on_gc)
        return code, list(started)

    refused = ["bel", net, "--query", "0", "--evidence", ev, "--order", order]
    assert passes(run, refused) == (3, [])
    assert passes(run, ["mpe", net, "--order", order, "--trace"]) == (0, [])
    code, unpaused = passes(bucketforge.cli._run, refused)
    assert code == 3 and len(unpaused) > 10
    assert capsys.readouterr().out.endswith("IMPOSSIBLE EVIDENCE\n")
