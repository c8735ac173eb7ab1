"""Phase times of one CLI command, measured in-process.

    PYTHONPATH=src python3 tools/phase_times.py CMD ARGS...

``CMD ARGS...`` is a ``bucketforge`` command line, for example
``mpe net.net --order net.order``.  The command runs through
``bucketforge.cli.run`` once to warm up, then ``REPEATS`` more times with
its output discarded.  Each phase is timed by wrapping, for the duration of
the runs, the functions the query path calls it by:

    parse    cli.parse_network, parse_evidence, parse_cnf, parse_cnf_evidence
    order    Ordering.parse as cli calls it (an order file), cli.constrained_order
             and engines.constrained_order (a heuristic ordering)
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
passes per run in each generation, and ``gc_s`` the median time per run
spent in them.  A phase whose functions the imported ``bucketforge`` lacks
reads null.  One JSON object is printed.

``bucketforge`` is imported from ``sys.path``, so ``PYTHONPATH`` selects the
tree to measure; this is how one copy of the tool measures two commits.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import json
import statistics
import sys
import time

REPEATS = 7

PHASES = {
    "parse": [("cli", "parse_network"), ("cli", "parse_evidence"), ("cli", "parse_cnf"),
              ("cli", "parse_cnf_evidence")],
    "order": [("cli", "Ordering.parse"), ("cli", "constrained_order"),
              ("engines", "constrained_order")],
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
    saved = []

    def wrap(fn, phase):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - start
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

    collecting = {"start": 0.0, "spent": 0.0}

    def on_gc(stage, info):
        if stage == "start":
            collecting["start"] = time.perf_counter()
        else:
            collecting["spent"] += time.perf_counter() - collecting["start"]

    samples: dict[str, list[float]] = {phase: [] for phase in [*PHASES, "total"]}
    collections: list[list[int]] = []
    gc_times: list[float] = []
    codes = set()
    gc.callbacks.append(on_gc)
    try:
        for run in range(repeats + 1):
            spent.update(dict.fromkeys(PHASES, 0.0))
            before = [g["collections"] for g in gc.get_stats()]
            collecting["spent"] = 0.0
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                codes.add(cli.run(list(argv)))
                total = time.perf_counter() - start
            if run == 0:
                continue
            for phase in PHASES:
                samples[phase].append(spent[phase])
            samples["total"].append(total)
            collections.append([g["collections"] - b for g, b in zip(gc.get_stats(), before)])
            gc_times.append(collecting["spent"])
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
    }


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 1
    print(json.dumps(measure(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
