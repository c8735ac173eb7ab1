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


def test_the_command_set_runs_meu_on_diagrams_whose_sums_can_overflow(tmp_path, capsys):
    from bucketforge.cli import run
    from bucketforge.model import parse_network

    commands = cli_diff.build_commands(400, 3, str(tmp_path))
    scaled = [argv for argv in commands if argv[1].endswith(".big.id")]
    assert scaled and {argv[0] for argv in scaled} == {"meu"}
    for argv in scaled:
        diagram = parse_network(Path(argv[1]).read_text())
        assert all(1e290 <= abs(f.values).max() <= 10 ** 308.25 for f in diagram.utilities)
    codes = [run(argv) for argv in scaled]
    err = capsys.readouterr().err
    assert 0 in codes and "error: factor values must be finite\n" in err


def test_a_third_of_the_query_orderings_leave_the_observed_variables_anywhere(tmp_path):
    from bucketforge.graph import Ordering
    from bucketforge.model import parse_evidence, parse_network

    commands = cli_diff.build_commands(600, 3, str(tmp_path))
    queries = [argv for argv in commands if argv[0] in ("bel", "mpe", "map")
               and not argv[1].endswith(".bad.net")]
    mid_order = 0
    for argv in queries:
        if "--evidence" not in argv or "--order" not in argv:
            continue
        net = parse_network(Path(argv[1]).read_text())
        evidence = parse_evidence(Path(argv[argv.index("--evidence") + 1]).read_text(), net)
        spec = argv[argv.index("--order") + 1]
        if spec in ("min-fill", "min-degree"):
            continue
        seq = ([int(v) for v in spec[len("given:"):].split(",")] if spec.startswith("given:")
               else list(Ordering.parse(Path(spec).read_text(), net.n)))
        first = min(seq.index(v) for v, _ in evidence.items())
        mid_order += any(v not in evidence for v in seq[first:])
    assert mid_order >= len(queries) // 8


def test_a_slice_of_the_command_set_runs_the_wide_kernels(tmp_path, capsys):
    """The wide slice: ternary window-10 networks and diagrams of 30-60
    variables, given their natural order or ordered by min-fill, some with
    evidence, none with ``--oracle``; a ``meu`` command's trace reads
    buckets of ``factor.SCRATCH_CELLS`` cells or more."""
    from bucketforge import factor
    from bucketforge.cli import run
    from bucketforge.model import parse_network

    commands = cli_diff.build_commands(400, 3, str(tmp_path))
    wide = [argv for argv in commands if ".wide." in argv[1]]
    assert {argv[0] for argv in wide} == {"bel", "mpe", "map", "meu"}
    assert any("--evidence" in argv for argv in wide)
    orders = {argv[argv.index("--order") + 1] if "--order" in argv else "default"
              for argv in wide}
    assert {"min-fill", "default"} < orders  # and given order files
    for argv in wide:
        model = parse_network(Path(argv[1]).read_text())
        assert 30 <= model.n <= 60 and set(model.cards) == {3}
        assert "--oracle" not in argv
    argv = [a for a in next(argv for argv in wide if argv[0] == "meu")
            if a not in ("--trace", "--json")]
    assert run([*argv, "--trace"]) == 0
    trace = [line for line in capsys.readouterr().out.splitlines() if line.startswith("trace ")]
    assert max(int(line.rsplit("cells=", 1)[1]) for line in trace) >= factor.SCRATCH_CELLS
