"""tools/phase_times.py: in-process phase medians of one CLI command."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import phase_times  # noqa: E402
from bucketforge import cli, engines  # noqa: E402

from conftest import DIAG_TEXT  # noqa: E402


def wrapped():
    return [cli.parse_network, cli.parse_evidence, engines.plan, engines.execute,
            engines.forward_decode, cli._emit_common, cli._Output.flush]


def test_each_phase_is_timed_and_the_query_path_restored(tmp_path):
    net = tmp_path / "diag.net"
    net.write_text(DIAG_TEXT)
    ev = tmp_path / "obs.ev"
    ev.write_text("1 5 1\n")
    before = wrapped()
    out = phase_times.measure(["mpe", str(net), "--evidence", str(ev)], repeats=3)
    assert wrapped() == before
    assert out["runs"] == 3 and out["exit"] == [0]
    times = out["median_s"]
    assert list(times) == ["parse", "plan", "execute", "decode", "render", "total"]
    assert all(t > 0 for t in times.values())
    # Each phase is at most the run it is part of.
    assert max(times[p] for p in phase_times.PHASES) < times["total"]
    assert len(out["gc_collections"]) == 3 and out["gc_s"] >= 0


def test_the_command_line_prints_one_json_object(tmp_path):
    net = tmp_path / "diag.net"
    net.write_text(DIAG_TEXT)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "phase_times.py"),
                           "bel", str(net), "--query", "0"],
                          capture_output=True, text=True, env=env, check=True)
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert out["argv"] == ["bel", str(net), "--query", "0"]
    assert out["median_s"]["decode"] is not None  # bel decodes nothing, in no time
    assert out["median_s"]["decode"] == 0.0
