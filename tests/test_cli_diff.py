"""tools/cli_diff.py: one tree against itself shows no difference, and each
kind of difference is told apart."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_diff  # noqa: E402


def test_a_tree_against_itself_differs_nowhere():
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_diff.py"), src, src,
                           "--count", "60", "--seed", "3"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["commands"] >= 60
    assert summary == {"commands": summary["commands"], "exit_diffs": 0,
                       "answer_diffs": 0, "trace_diffs": 0}


def test_the_command_set_covers_every_command(tmp_path):
    commands = cli_diff.build_commands(60, 3, str(tmp_path))
    assert {argv[0] for argv in commands} == {"bel", "mpe", "map", "meu", "cond-mpe",
                                              "dr", "stats"}
    assert cli_diff.build_commands(60, 3, str(tmp_path)) == commands


def test_the_command_set_reads_damaged_networks_and_diagrams(tmp_path, capsys):
    from bucketforge.cli import run

    commands = cli_diff.build_commands(60, 3, str(tmp_path))
    damaged = [argv for argv in commands if argv[1].endswith((".bad.net", ".bad.id"))]
    assert {argv[0] for argv in damaged} == {"mpe", "meu"}
    assert {argv[1][-3:] for argv in damaged} == {"net", ".id"}
    codes = [run(argv) for argv in damaged]
    capsys.readouterr()
    assert 0 in codes and 2 in codes  # some damage leaves a valid file


def test_exit_answer_and_trace_differences_are_counted_apart():
    commands = [["bel"], ["mpe"], ["map"], ["meu"], ["dr"]]
    old = [{"exit": 0, "stdout": "trace var=1 op=sum\nbelief=0.5 0.5\n", "stderr": ""},
           {"exit": 0, "stdout": "value=0.25\n", "stderr": ""},
           {"exit": 0, "stdout": json.dumps({"trace": ["var=2 op=sum"], "value": 0.5}),
            "stderr": ""},
           {"exit": 0, "stdout": "value=1\n", "stderr": ""},
           {"exit": 2, "stdout": "", "stderr": "error: literal 4 out of range (line 2, column 1)\n"}]
    new = [{"exit": 0, "stdout": "trace var=1 op=skip\nbelief=0.5 0.5\n", "stderr": ""},
           {"exit": 3, "stdout": "IMPOSSIBLE EVIDENCE\n", "stderr": ""},
           {"exit": 0, "stdout": json.dumps({"trace": ["var=2 op=skip"], "value": 0.6}),
            "stderr": ""},
           {"exit": 0, "stdout": "value=1\n", "stderr": ""},
           {"exit": 2, "stdout": "", "stderr": "error: literal 4 out of range (line 2, column 3)\n"}]
    diffs = cli_diff.compare(commands, old, new)
    assert [argv for argv, *_ in diffs["exit"]] == [["mpe"]]
    assert [argv for argv, *_ in diffs["answer"]] == [["mpe"], ["map"], ["dr"]]
    assert [argv for argv, *_ in diffs["trace"]] == [["bel"], ["map"]]
