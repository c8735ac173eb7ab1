"""Benchmark pairs: compare two checkouts with their own ``perfbench/run.py``.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 21-30 \\
        [--workload W ...] [--seconds 15] [--claim WORKLOAD:METRIC] \\
        [--title TEXT] --out BENCH_<pr>.json

Each tree is a repository checkout; each runs its own, unchanged
``perfbench/run.py`` from its root, so each reads inputs it generated and
cached itself.  Every (workload, seed) is first run once on each side for
one second, so that both sides then read cached inputs, then once on each
side at ``--seconds``: one pair.  The side that runs first alternates from
pair to pair.  The output file holds, per workload and end-to-end metric,
each side's median and quartiles (``statistics.quantiles``, n=4) over the
pairs, every run, and how many pairs the change won; failures, attempts and
the machine speed each run reported; per query id (``queries``), each
side's median over the pairs of the run's median ``s_ref`` for that query,
read from the ``.perfbench/<workload>-s<seed>/result.json`` the run left,
and how many pairs the change won, so that a query a change left as it was
shows by name; and, for ``--claim``, whether the change won at least nine
pairs in ten and its median differs from the parent's by more than the
spread between the parent's quartiles.  Which direction is better comes
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse-order", "evidence-cond", "dense-sweep", "long-chain")
SPEED = re.compile(r"machine speed = ([0-9.eE+-]+) x reference")


def _seeds(spec: str) -> list[int]:
    """``21-30`` or ``21,23,25`` as a list of seeds."""
    if "-" in spec:
        first, last = spec.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in spec.split(",")]


def _commit(tree: str) -> str | None:
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``: its JSON line, plus
    the machine speed it reported."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["speed"] = float(SPEED.search(proc.stdout).group(1))
    result["query_s_ref"] = query_medians(tree, workload, seed)
    return result


def query_medians(tree: str, workload: str, seed: int) -> dict[str, float]:
    """Each query id's median ``s_ref`` (its time at reference speed) in the
    run that last wrote ``tree``'s ``result.json`` for this workload and
    seed."""
    path = Path(tree) / ".perfbench" / f"{workload}-s{seed}" / "result.json"
    times: dict[str, list[float]] = {}
    for r in json.loads(path.read_text(encoding="utf-8"))["records"]:
        times.setdefault(r["id"], []).append(r["s_ref"])
    return {qid: statistics.median(v) for qid, v in times.items()}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def _wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs the change won; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def summarize(runs: dict, seeds: list[int], directions: dict[str, str]) -> dict:
    """The per-workload section of the output from ``runs[side]``, one run
    result per seed."""
    out = {"seeds": seeds,
           "correct": all(r["correct"] for side in runs.values() for r in side),
           "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
           "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
           "machine_speed": {side: _summary([r["speed"] for r in rs])
                             for side, rs in runs.items()},
           "metrics": {}}
    for metric, better in directions.items():
        values = {side: [r["metrics"][metric]["value"] for r in rs]
                  for side, rs in runs.items()}
        out["metrics"][metric] = {
            "parent": _summary(values["parent"]), "change": _summary(values["change"]),
            "change_wins": f"{_wins(values['parent'], values['change'], better)}"
                           f"/{len(seeds)}"}
    return out


def per_query(runs: dict) -> dict:
    """Per query id, each side's median over the pairs of the runs'
    ``query_s_ref`` for it, and the pairs the change won (lower is better)."""
    out = {}
    for qid in runs["parent"][0]["query_s_ref"]:
        values = {side: [r["query_s_ref"][qid] for r in rs] for side, rs in runs.items()}
        out[qid] = {"parent": round(statistics.median(values["parent"]), 6),
                    "change": round(statistics.median(values["change"]), 6),
                    "change_wins": f"{_wins(values['parent'], values['change'], 'lower')}"
                                   f"/{len(values['parent'])}"}
    return out


def claim(workloads: dict, workload: str, metric: str, better: str) -> dict:
    entry = workloads[workload]["metrics"][metric]
    parent, change = entry["parent"], entry["change"]
    won, pairs = map(int, entry["change_wins"].split("/"))
    spread = parent["q3"] - parent["q1"]
    gain = (change["median"] - parent["median"]) * (1 if better == "higher" else -1)
    return {"workload": workload, "metric": metric, "parent_median": parent["median"],
            "change_median": change["median"],
            "parent_quartile_spread": round(spread, 6), "change_wins": entry["change_wins"],
            "met": won * 10 >= pairs * 9 and gain > spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 21-30")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several (default: all four)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--title", default="", help="one line describing the change")
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = {}
    pair = 0
    for workload in args.workload or WORKLOADS:
        runs: dict[str, list] = {"parent": [], "change": []}
        for seed in args.seeds:
            for tree in trees.values():
                run_once(tree, workload, seed, 1.0)
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            pair += 1
            for side in sides:
                runs[side].append(run_once(trees[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps({k: v['value'] for k, v in runs[side][-1]['metrics'].items()})}",
                      file=sys.stderr, flush=True)
        workloads[workload] = summarize(runs, args.seeds, directions)
        workloads[workload]["queries"] = per_query(runs)

    out = {"change": args.title,
           "parent_commit": _commit(trees["parent"]),
           "command": f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {args.seconds:g} --trace 0",
           "method": "written by tools/bench_pairs.py: each seed run once on each side "
                     "first (--seconds 1) so both read cached inputs; then one "
                     "parent/change pair per seed, the side that runs first alternating; "
                     "medians and quartiles (statistics.quantiles, n=4) over the pairs; "
                     "times at reference machine speed as perfbench reports them",
           "seeds": {w: args.seeds for w in workloads},
           "machine": {"cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count(),
                       "python": platform.python_version(), "numpy": numpy.__version__},
           "workloads": workloads}
    if args.claim:
        workload, metric = args.claim.split(":")
        out["claim"] = claim(workloads, workload, metric, directions[metric])
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out.get("claim", {})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
