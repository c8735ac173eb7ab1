"""tools/phase_times.py: in-process phase medians of one CLI command."""

import inspect
import json
import mmap
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import phase_times  # noqa: E402
from bucketforge import cli, engines  # noqa: E402

from conftest import DIAG_TEXT  # noqa: E402


def wrapped():
    return [cli.parse_network, cli.parse_evidence, cli.parse_cnf, cli.moral_graph,
            cli.augmented_graph, cli.interaction_graph,
            inspect.getattr_static(cli.Ordering, "parse"), cli.constrained_order,
            cli.order_and_width, engines.constrained_order, engines.plan, engines.execute,
            engines.forward_decode, cli.directional_resolution, cli.generate_model,
            cli._emit_common, cli._Output.flush]


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
    assert list(times) == ["parse", "graph", "order", "plan", "execute", "decode",
                           "resolve", "generate", "render", "total"]
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


def test_dr_times_its_graph_and_its_ordering_apart(tmp_path, monkeypatch):
    """The interaction graph is built as an argument of the ordering call, so
    it lands in ``graph``, not ``order``: a stand-in that takes 20 ms reads
    its 20 ms there.  dr's min-fill ordering is timed under whatever
    function cli calls for it; a ``given:`` list builds neither in cli."""
    cnf = tmp_path / "theory.cnf"
    cnf.write_text("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n")
    build = cli.interaction_graph

    def slow(theory):
        time.sleep(0.02)
        return build(theory)
    monkeypatch.setattr(cli, "interaction_graph", slow)
    out = phase_times.measure(["dr", str(cnf)], repeats=3)
    assert cli.interaction_graph is slow
    times = out["median_s"]
    assert times["graph"] >= 0.02 and 0 < times["order"] < 0.02
    given = phase_times.measure(["dr", str(cnf), "--order", "given:4,3,2,1"], repeats=3)
    assert given["exit"] == [0]
    assert given["median_s"]["graph"] == given["median_s"]["order"] == 0.0


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


def test_plan_steps_counts_the_computing_fixed_and_skipped_steps_of_the_query(tmp_path):
    """``plan_steps`` is read off the plan the query built: with variable 5
    observed its bucket is fixed, and a belief query on variable 2 keeps
    only the tables of 2 and its ancestors, so it skips the buckets that
    leaves empty.  dr builds no plan and counts none."""
    net = tmp_path / "diag.net"
    net.write_text(DIAG_TEXT)
    ev = tmp_path / "obs.ev"
    ev.write_text("1 5 1\n")
    model = cli.parse_network(DIAG_TEXT)
    evidence = cli.parse_evidence("1 5 1\n", model)
    for argv, result in [(["mpe", str(net), "--evidence", str(ev)],
                          engines.solve_mpe(model, evidence)),
                         (["bel", str(net), "--query", "2"], engines.solve_belief(model, 2))]:
        steps = result.plan.steps
        out = phase_times.measure(argv, repeats=2)
        assert out["plan_steps"] == {
            "computing": sum(step.run is not None for step in steps),
            "fixed": sum(step.entry.op == "assign" and step.run is None for step in steps),
            "skipped": sum(step.entry.op == "skip" for step in steps)}
        assert sum(out["plan_steps"].values()) == len(steps) > 0
    assert out["plan_steps"]["skipped"] > 0
    assert phase_times.measure(["mpe", str(net), "--evidence", str(ev)],
                               repeats=1)["plan_steps"]["fixed"] == 1
    cnf = tmp_path / "theory.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert phase_times.measure(["dr", str(cnf)], repeats=1)["plan_steps"] == {
        "computing": 0, "fixed": 0, "skipped": 0}


def test_the_traced_peak_comes_from_one_run_after_the_timed_ones(tmp_path, monkeypatch):
    """Only the last run is traced, and its peak holds what the command
    allocates: here cond-mpe's value per cutset combination."""
    net = tmp_path / "chain.net"
    n = 16
    lines = ["BAYES", str(n), " ".join(["2"] * n), str(n), "1 0"]
    lines += [f"2 {v - 1} {v}" for v in range(1, n)]
    lines += ["2 0.6 0.4"] + ["4 0.9 0.1 0.2 0.8"] * (n - 1)
    net.write_text("\n".join(lines) + "\n")
    traced, run = [], cli.run

    def watched(argv):
        traced.append(tracemalloc.is_tracing())
        return run(argv)

    monkeypatch.setattr(cli, "run", watched)
    cut = ",".join(map(str, range(14)))
    out = phase_times.measure(["cond-mpe", str(net), "--cutset", cut], repeats=2)
    assert traced == [False, False, False, True] and not tracemalloc.is_tracing()
    assert out["exit"] == [0]
    assert 8 * 2 ** 14 / 2 ** 20 <= out["traced_peak_mib"] < 64


def test_minflt_is_the_median_of_each_timed_runs_minor_page_faults(monkeypatch):
    """``minflt`` takes the change in ``ru_minflt`` over each timed run, not
    over the warm-up run or the traced one, and reports their median."""
    faults = iter([1000, 5, 9, 7, 100, 6, 1000])  # warm-up, five timed runs, traced
    count = {"minflt": 0}

    def faulting(argv):
        count["minflt"] += next(faults)
        return 0
    monkeypatch.setattr(cli, "run", faulting)
    monkeypatch.setattr(phase_times.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_minflt=count["minflt"]))
    assert phase_times.measure(["bel", "unread.net"], repeats=5)["minflt"] == 7


def test_a_run_that_touches_fresh_memory_reads_more_minor_page_faults(monkeypatch):
    """Each run of this command maps 64 new 128 KiB blocks from the OS (too
    small for a huge page) and writes every page of them: it reads at least
    half those pages more than a run that touches nothing new."""
    page, held = resource.getpagesize(), []

    def filling(argv):
        for _ in range(64):
            block = mmap.mmap(-1, 1 << 17)
            for offset in range(0, 1 << 17, page):
                block[offset] = 1
            held.append(block)
        return 0
    try:
        monkeypatch.setattr(cli, "run", lambda argv: 0)
        idle = phase_times.measure(["bel", "unread.net"], repeats=3)["minflt"]
        monkeypatch.setattr(cli, "run", filling)
        busy = phase_times.measure(["bel", "unread.net"], repeats=3)["minflt"]
    finally:
        for block in held:
            block.close()
    assert busy - idle >= 64 * (1 << 17) // page // 2, (busy, idle)
    assert len(held) == 64 * 5  # the warm-up, three timed runs and the traced run


def test_a_query_runs_no_collector_pass(tmp_path, generators):
    """``cli.run`` pauses the cyclic collector, so a query whose plan keeps
    thousands of objects alive (a seeded 1000-variable window chain, half
    observed) reads no pass in any generation."""
    rng = np.random.default_rng(3302)
    chain = generators.window_network(rng, 1000, 2, 6)
    net = tmp_path / "chain.net"
    net.write_text(generators.network_text(chain))
    ev = tmp_path / "chain.ev"
    ev.write_text(generators.evidence_text(
        generators.observe(rng, chain, fraction=0.5, exclude=[0])))
    out = phase_times.measure(["bel", str(net), "--query", "0", "--evidence", str(ev),
                               "--order", "given:" + ",".join(map(str, range(chain.n)))],
                              repeats=3)
    assert out["gc_collections"] == [0, 0, 0] and out["gc_s"] == 0
