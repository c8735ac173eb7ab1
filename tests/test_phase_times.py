"""tools/phase_times.py: in-process phase medians of one CLI command."""

import inspect
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
    return [cli.parse_network, cli.parse_evidence, cli.parse_cnf,
            inspect.getattr_static(cli.Ordering, "parse"), cli.constrained_order,
            engines.constrained_order, engines.plan, engines.execute, engines.forward_decode,
            cli.directional_resolution, cli.generate_model, cli._emit_common, cli._Output.flush]


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
    assert list(times) == ["parse", "order", "plan", "execute", "decode", "resolve",
                           "generate", "render", "total"]
    assert times["resolve"] == times["generate"] == 0.0  # dr's phases
    assert all(t > 0 for p, t in times.items() if p not in ("resolve", "generate"))
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


def test_dr_times_resolution_and_model_generation(tmp_path):
    cnf = tmp_path / "theory.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
    before = wrapped()
    out = phase_times.measure(["dr", str(cnf)], repeats=3)
    assert wrapped() == before
    assert out["exit"] == [0]
    times = out["median_s"]
    assert all(times[p] > 0 for p in ("parse", "resolve", "generate", "render"))
    assert times["plan"] == times["execute"] == times["decode"] == 0.0
    assert times["resolve"] + times["generate"] < times["total"]


def test_an_order_file_is_timed_as_ordering_and_the_classmethod_put_back(tmp_path):
    net = tmp_path / "diag.net"
    net.write_text(DIAG_TEXT)
    order = tmp_path / "diag.order"
    order.write_text("0 5 4 3 2 1\n")  # the query variable first
    before = wrapped()
    out = phase_times.measure(["bel", str(net), "--query", "0", "--order", str(order)],
                              repeats=3)
    assert wrapped() == before
    assert isinstance(inspect.getattr_static(cli.Ordering, "parse"), classmethod)
    assert out["exit"] == [0] and out["median_s"]["order"] > 0
