"""CLI stdout, traces included, against output recorded before the sweep
was split into a plan and an executor.

``data/golden_trace.json`` holds, for each command, its argv (file names
relative to ``data/``), exit code and stdout; the commands cover ``bel``,
``mpe``, ``map`` and ``cond-mpe`` on the six-variable diagnostic fixture
(``diag.net``, ``diag.ev``) and ``meu`` on a seeded influence diagram
(``golden.id``, ``golden.id.ev``).
"""

import json
from pathlib import Path

import pytest

from bucketforge.cli import run

DATA = Path(__file__).parent / "data"
CASES = json.loads((DATA / "golden_trace.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_matches_the_recorded_output(case, capsys):
    argv = [str(DATA / a) if (DATA / a).is_file() else a for a in case["argv"]]
    assert run(argv) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
