"""The benchmark's one client process: sends a workload's queries to
``bucketforge.cli.run`` one after another (a closed loop) and records them.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the query cycle, the warm-up queries, the seconds to measure
and whether to trace.  The pass repeats whole cycles until the seconds are
up and at least ``min_samples`` queries have run.  With tracing, untraced
and traced cycles alternate; the ratio of their per-query medians is the
tracing overhead.  The workload's calibration kernel (speed.py) runs
between queries, so that each query's time can be scaled to a reference
speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time

import speed
import tracing


def _one(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # the benchmark must outlive a crashing query
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, out.getvalue(), error


def run_pass(cli, queries, seconds, min_samples, kernel, tracer=None):
    """Whole cycles until ``seconds`` have passed and ``min_samples`` queries
    have run.  With a tracer, cycles alternate untraced and traced, so both
    halves see the same machine conditions.

    The calibration ``kernel`` runs before every query and once after the
    last.  Each record's ``s_ref`` is its time at reference speed: ``s``
    times the kernel's reference time over the mean of the kernel times on
    either side."""
    records, cycles = [], 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.install()
        try:
            for q in queries:
                if traced:
                    tracer.query = q["id"]
                # Every query starts from the same collector state, and none
                # pays for collecting what an earlier one left behind.
                gc.collect()
                kernel_s = speed.seconds(kernel)
                rc, elapsed, stdout, error = _one(cli, q["argv"])
                records.append({"id": q["id"], "rc": rc, "s": elapsed, "stdout": stdout,
                                "error": error, "traced": traced, "kernel_s": kernel_s})
        finally:
            if traced:
                tracer.uninstall()
                tracer.keep_orderings = False
        cycles += 1
        if (time.perf_counter() - start >= seconds and len(records) >= min_samples
                and cycles >= (2 if tracer is not None else 1)):
            break
    after = [r["kernel_s"] for r in records[1:]] + [speed.seconds(kernel)]
    reference = speed.REFERENCE_S[kernel]
    for r, kernel_after in zip(records, after):
        r["s_ref"] = r["s"] * reference / ((r["kernel_s"] + kernel_after) / 2)
    return {"records": records, "cycles": cycles}


def _tokens(q) -> int:
    total = 0
    for flag_or_path in q["argv"][1:]:
        if flag_or_path.endswith((".net", ".ev", ".order", ".cnf")):
            with open(flag_or_path, encoding="utf-8") as fh:
                total += len(fh.read().split())
    return total


def _median_sum(records) -> float:
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r["id"], []).append(r["s_ref"])
    return sum(statistics.median(v) for v in times.values())


def layer_metrics(bucketforge, tracer, records, queries) -> dict:
    traced = [r for r in records if r["traced"]]
    per_query = 1.0 / len(traced)
    totals = tracing.self_times(tracer.spans)
    out = {}
    for name, (unit, span) in tracing.LAYER_METRICS.items():
        if span is not None:
            out[name] = totals.get(span, 0.0) * per_query
        else:
            out[name] = tracer.counts.get(name, 0.0) * per_query
    out["model.input_tokens"] = sum(_tokens(q) for q in queries) / len(queries)
    widths = [bucketforge.graph.induced_width(g, order)
              for pairs in tracer.orderings.values() for g, order in pairs]
    out["graph.wstar_max"] = max((r.induced_width for r in widths), default=0)
    out["graph.fill_edges"] = sum(len(r.fill_edges) for r in widths) / len(queries)
    out["buckets.max_scope"] = tracer.max_scope
    out["factor.bytes_out_computed"] = out["factor.cells_out"] * 8
    workers = {q["id"]: int(q["argv"][q["argv"].index("--parallel") + 1])
               for q in queries if "--parallel" in q["argv"]}
    out["engines.cond_parallel_efficiency"] = tracing.parallel_efficiency(tracer.spans, workers)
    out["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in traced) * per_query
    # Per query id, the median traced time over the median untraced time.
    out["tracing.overhead_ratio"] = (_median_sum(traced)
                                     / _median_sum([r for r in records if not r["traced"]]) - 1.0)
    return out


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import bucketforge
    from bucketforge import cli

    for argv in plan["warmup"]:
        _one(cli, argv)
    for _ in range(3):
        speed.seconds(plan["kernel"])
    queries, seconds = plan["queries"], plan["seconds"]
    tracer = tracing.Tracer(bucketforge) if plan["trace"] else None
    result = run_pass(cli, queries, seconds, plan["min_samples"], plan["kernel"], tracer)
    if tracer is not None:
        tracing.write_spans(tracer.spans, plan["spans_path"])
        result["layers"] = layer_metrics(bucketforge, tracer, result["records"], queries)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
