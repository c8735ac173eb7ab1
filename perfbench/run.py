"""bucketforge benchmark: seeded workloads through ``bucketforge.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-order --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload long-chain --seed 1 --seconds 15 --repeat 5

Each run generates the workload's inputs from the seed, computes reference
answers (cached under .perfbench/), times the interpreter start-up that a
CLI user pays (``setup_s``), then starts one client process that sends the
workload's queries one after another and checks every answer.  Query
times are reported at reference machine speed (speed.py).  With
``--trace 0`` the last line is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced pass.
``--repeat K`` runs seeds seed..seed+K-1 and prints the median and
quartiles of every metric.  NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed
import tracing
import workloads

SETUP_SAMPLES = 7
MIN_SAMPLES = 11          # the tail needs ten samples beyond it
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "query_s_p50": "s",
    "query_s_tail": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

# The layer each workload is predicted to spend most of its self time in.
PREDICTED = {
    "sparse-order": ("graph.order_s",),
    "evidence-cond": ("graph.order_s",),
    "dense-sweep": ("factor.", "buckets."),
    "long-chain": ("model.validate_s",),
}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile): the eleventh-largest sample."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS/OpenMP thread: the only extra worker is cond-mpe --parallel.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Median time from starting an interpreter until ``import bucketforge.cli``
    returns, over several fresh interpreters (the first, which may compile
    bytecode, is not counted)."""
    code = "import bucketforge.cli; print('ready', flush=True)"
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("bucketforge.cli failed to import")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    workdir = os.path.join(root, ".perfbench", f"{workload}-s{seed}")
    inputs = workloads.build_inputs(workload, seed, workdir)
    env = _env(root)
    answers = workloads.references(inputs.queries, workdir)
    setup_s = setup_seconds(env)

    plan = {"queries": [{"id": q.id, "argv": q.argv} for q in inputs.queries],
            "warmup": inputs.warmup, "seconds": seconds, "trace": trace,
            "kernel": workloads.SPEED_KERNEL[workload],
            "min_samples": MIN_SAMPLES, "spans_path": os.path.join(workdir, "spans.tsv")}
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    subprocess.run([sys.executable, worker, plan_path, result_path], env=env, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    by_id = {q.id: q for q in inputs.queries}
    verdicts, failures = {}, []
    attempted = failed = unexpected = 0
    for r in result["records"]:
        key = (r["id"], r["rc"], r["stdout"], r["error"])
        if key not in verdicts:
            if r["error"] is not None:
                verdicts[key] = workloads.Verdict(False, r["error"])
            else:
                verdicts[key] = workloads.check(by_id[r["id"]], answers[r["id"]],
                                                r["rc"], r["stdout"])
            if not verdicts[key].ok:
                failures.append((r["id"], verdicts[key]))
        v = verdicts[key]
        attempted += 1
        failed += not v.ok
        unexpected += not v.ok and not v.underflow

    out = {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
           "correct": unexpected == 0, "failures": failures, "trace": trace}
    out["cycles"] = result["cycles"]
    if trace:
        out["layers"] = result["layers"]
        return out
    # Timings at reference speed (speed.py); the wall-clock ones are printed
    # beside them.
    samples = [r["s_ref"] for r in result["records"]]
    wall = [r["s"] for r in result["records"]]
    tail_s, tail_pct = tail(samples)
    out.update(samples=len(samples), tail_pct=tail_pct, wall={
        "query_s_p50": statistics.median(wall),
        "query_s_tail": tail(wall)[0],
        "queries_per_s": len(wall) / sum(wall),
        "speed": statistics.median(speed.REFERENCE_S[workloads.SPEED_KERNEL[workload]]
                                   / r["kernel_s"] for r in result["records"]),
    }, metrics={
        "setup_s": setup_s,
        "query_s_p50": statistics.median(samples),
        "query_s_tail": tail_s,
        "queries_per_s": len(samples) / sum(samples),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "ok_rate": 1.0 - failed / attempted,
    })
    return out


def _report(res: dict) -> None:
    print(f"workload={res['workload']} seed={res['seed']} attempted={res['attempted']} "
          f"failed={res['failed']} error_rate={res['failed'] / res['attempted']:.6g} "
          f"(base: {res['attempted']} queries attempted)")
    for qid, verdict in res["failures"]:
        kind = "known float64 underflow" if verdict.underflow else "UNEXPECTED"
        print(f"  failed {qid}: {verdict.reason} [{kind}]")
    if res["trace"]:
        layers = res["layers"]
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            print(f"  {name} = {layers[name]:.6g} {unit}")
        times = {k: v for k, v in layers.items() if k.endswith("_s")}
        top = max(times, key=times.get)
        by_layer: dict[str, float] = {}
        for k, v in times.items():
            by_layer[k.split(".")[0]] = by_layer.get(k.split(".")[0], 0.0) + v
        predicted = PREDICTED[res["workload"]]
        if len(predicted) == 1:
            met = top == predicted[0]
        else:
            share = sum(v for k, v in times.items() if k.startswith(predicted))
            met = share > max(v for k, v in by_layer.items()
                              if not k.startswith(tuple(p.rstrip(".") for p in predicted)))
        print(f"  largest self time: {top} ({times[top]:.4g} s/query); "
              f"per layer: {', '.join(f'{k}={v:.4g}' for k, v in sorted(by_layer.items()))}")
        print(f"  prediction {' + '.join(predicted)} dominant: {'met' if met else 'MISSED'}; "
              f"tracing overhead {layers['tracing.overhead_ratio']:.1%} "
              f"(median per query, {res['cycles']} alternating untraced/traced cycles)")
    else:
        for name, unit in END_TO_END.items():
            extra = ""
            if name in res["wall"]:
                extra = f" (wall clock {res['wall'][name]:.6g})"
            if name == "query_s_tail":
                extra += f" (p{res['tail_pct']:.1f} of {res['samples']} samples, 10 beyond)"
            print(f"  {name} = {res['metrics'][name]:.6g} {unit}{extra}")
        print(f"  machine speed = {res['wall']['speed']:.4g} x reference "
              f"(median over the pass; timings above are at reference speed)")


def _result_line(correct, attempted, failed, metrics: dict, units: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bucketforge", "cli.py")):
        print("error: run from the repository root; src/bucketforge is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # the references' CNF oracle
    deadline = time.monotonic() + DEADLINE_S * args.repeat
    runs = []
    for k in range(args.repeat):
        res = measure(root, args.workload, args.seed + k, args.seconds, bool(args.trace),
                      deadline)
        _report(res)
        runs.append(res)

    units = ({name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
             if args.trace else END_TO_END)
    values = {name: [r["layers" if args.trace else "metrics"][name] for r in runs]
              for name in units}
    if args.repeat > 1:
        print(f"over {args.repeat} seeds ({args.seed}..{args.seed + args.repeat - 1}): "
              "median [q1, q3] spread=(q3-q1)/median")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name} = {med:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"spread={spread:.4f} {units[name]}")
    print(_result_line(all(r["correct"] for r in runs), sum(r["attempted"] for r in runs),
                       sum(r["failed"] for r in runs),
                       {k: statistics.median(v) for k, v in values.items()}, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
