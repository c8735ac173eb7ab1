"""Phase times of one CLI command, measured in-process.

    PYTHONPATH=src python3 tools/phase_times.py CMD ARGS...

``CMD ARGS...`` is a ``bucketforge`` command line, for example
``mpe net.net --order net.order``.  The command runs through
``bucketforge.cli.run`` once to warm up, then ``REPEATS`` more times with
its output discarded.  Each phase is timed by wrapping, for the duration of
the runs, the functions the query path calls it by:

    parse    cli.parse_network, parse_evidence, parse_cnf, parse_cnf_evidence
    graph    cli.moral_graph, augmented_graph and interaction_graph (the graph a
             heuristic ordering, a cutset or stats reads)
    order    Ordering.parse as cli calls it (an order file), cli.constrained_order
             (a heuristic ordering other than dr's), cli.order_and_width (dr's
             heuristic ordering) and engines.constrained_order (a heuristic ordering)
    plan     engines.plan
    execute  engines.execute
    decode   engines.forward_decode
    resolve  cli.directional_resolution (dr)
    generate cli.generate_model (dr)
    render   cli._emit_common and cli._Output.flush

``total`` is the whole ``cli.run`` call.  Times are wall-clock seconds
(``time.perf_counter``), summed per run over the calls of one phase; the
output is their median over the runs, and a phase the command does not
reach reads 0.  ``gc_collections`` is the median number of cyclic-collector
passes per run in each generation that start during the ``cli.run`` call,
and ``gc_s`` the median time per run spent in them.  ``cli.run`` pauses
the collector for the whole command, so a query reads ``[0, 0, 0]``: a
nonzero count means a pass on a path outside that pause, or a tree from
before it.  ``minflt`` is the median number of minor page faults per
run (the change in ``resource.getrusage``'s ``ru_minflt`` over the run): a
page the process touches for the first time, as a fresh large temporary's
are, costs one.  A phase whose functions the imported ``bucketforge`` lacks
reads null.  ``plan_steps`` counts the steps of the plans ``engines.plan``
returned in the last timed run: ``computing`` (a bucket rule runs),
``fixed`` (a fixed observed variable's bucket, planned and traced but run
as the restriction applied before the sweep) and ``skipped`` (an empty
bucket), so plan time per step can be read off the plan median; it is null
when the imported ``bucketforge`` has no ``engines.plan``.
``traced_peak_mib`` is the peak of the memory Python and numpy allocate
(``tracemalloc``, MiB) during one more run, made after the timed ones so
that tracing slows none of them.  One JSON object is printed.

``bucketforge`` is imported from ``sys.path``, so ``PYTHONPATH`` selects the
tree to measure; this is how one copy of the tool measures two commits.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc

REPEATS = 7

PHASES = {
    "parse": [("cli", "parse_network"), ("cli", "parse_evidence"), ("cli", "parse_cnf"),
              ("cli", "parse_cnf_evidence")],
    "graph": [("cli", "moral_graph"), ("cli", "augmented_graph"),
              ("cli", "interaction_graph")],
    "order": [("cli", "Ordering.parse"), ("cli", "constrained_order"),
              ("cli", "order_and_width"), ("engines", "constrained_order")],
    "plan": [("engines", "plan")],
    "execute": [("engines", "execute")],
    "decode": [("engines", "forward_decode")],
    "resolve": [("cli", "directional_resolution")],
    "generate": [("cli", "generate_model")],
    "render": [("cli", "_emit_common"), ("cli", "_Output.flush")],
}


def _owner(module, path: str):
    """The object holding the last name of a dotted ``path``, and that name."""
    *outer, name = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def measure(argv: list[str], repeats: int = REPEATS) -> dict:
    """Run ``argv`` through ``cli.run`` once unmeasured, then ``repeats``
    times, and return the medians described in the module docstring."""
    from bucketforge import cli, engines
    modules = {"cli": cli, "engines": engines}
    spent: dict[str, float] = {}
    saved, plans = [], []  # plans: what engines.plan returned in the current run

    def wrap(fn, phase):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - start
            if phase == "plan":
                plans.append(out)
            return out
        return timed

    found = set()
    for phase, targets in PHASES.items():
        for module, path in targets:
            try:
                owner, name = _owner(modules[module], path)
                fn = getattr(owner, name)
            except AttributeError:
                continue
            raw = inspect.getattr_static(owner, name)  # a classmethod is put back as one
            saved.append((owner, name, raw))
            timed = wrap(fn, phase)
            setattr(owner, name, staticmethod(timed) if isinstance(raw, classmethod) else timed)
            found.add(phase)

    # Passes count only while cli.run runs: a pass in this tool's own code
    # just before or after the call is not the command's.
    collecting = {"inside": False, "start": 0.0, "spent": 0.0, "passes": []}

    def on_gc(stage, info):
        if not collecting["inside"]:
            return
        if stage == "start":
            collecting["start"] = time.perf_counter()
            collecting["passes"][info["generation"]] += 1
        else:
            collecting["spent"] += time.perf_counter() - collecting["start"]

    samples: dict[str, list[float]] = {phase: [] for phase in [*PHASES, "total"]}
    collections: list[list[int]] = []
    gc_times: list[float] = []
    faults: list[int] = []
    codes = set()
    gc.callbacks.append(on_gc)
    try:
        for run in range(repeats + 1):
            spent.update(dict.fromkeys(PHASES, 0.0))
            plans.clear()
            collecting.update(spent=0.0, passes=[0] * len(gc.get_stats()))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                command = list(argv)
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                collecting["inside"] = True
                start = time.perf_counter()
                codes.add(cli.run(command))
                total = time.perf_counter() - start
                collecting["inside"] = False
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            if run == 0:
                continue
            for phase in PHASES:
                samples[phase].append(spent[phase])
            samples["total"].append(total)
            collections.append(collecting["passes"])
            gc_times.append(collecting["spent"])
            faults.append(minflt)
        steps = [step for planned in plans for step in planned.steps]
        tracemalloc.start()
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.add(cli.run(list(argv)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.callbacks.remove(on_gc)
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)

    return {
        "argv": list(argv),
        "runs": repeats,
        "exit": sorted(codes),
        "median_s": {phase: (statistics.median(times)
                             if phase in found or phase == "total" else None)
                     for phase, times in samples.items()},
        "gc_collections": [statistics.median(c[g] for c in collections)
                           for g in range(len(collections[0]))],
        "gc_s": statistics.median(gc_times),
        "minflt": statistics.median(faults),
        "plan_steps": {
            "computing": sum(step.run is not None for step in steps),
            "fixed": sum(step.run is None and step.op != "skip" for step in steps),
            "skipped": sum(step.op == "skip" for step in steps),
        } if "plan" in found else None,
        "traced_peak_mib": peak / 2 ** 20,
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 1
    print(json.dumps(measure(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
