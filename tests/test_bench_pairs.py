"""tools/bench_pairs.py: pairs are won by the better side of each metric,
and a claim needs nine wins in ten and a gain past the parent's spread."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


def _run(tail, rate):
    return {"correct": True, "failed": 0, "attempted": 10, "speed": 1.0,
            "metrics": {"query_s_tail": {"value": tail}, "queries_per_s": {"value": rate}}}


def _runs(parent, change):
    return {"parent": [_run(*p) for p in parent], "change": [_run(*c) for c in change]}


DIRECTIONS = {"query_s_tail": "lower", "queries_per_s": "higher"}


def test_each_metric_is_won_in_its_own_direction():
    runs = _runs([(0.09, 24.0), (0.10, 23.0), (0.08, 25.0)],
                 [(0.03, 40.0), (0.10, 41.0), (0.09, 20.0)])
    out = bench_pairs.summarize(runs, [21, 22, 23], DIRECTIONS)
    assert out["metrics"]["query_s_tail"]["change_wins"] == "1/3"  # a tie counts for neither
    assert out["metrics"]["queries_per_s"]["change_wins"] == "2/3"
    assert out["metrics"]["query_s_tail"]["parent"]["runs"] == [0.09, 0.10, 0.08]
    assert out["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    assert out["correct"]


def test_a_claim_needs_nine_wins_in_ten_and_a_gain_past_the_spread():
    parent = [(0.09 + i / 1000, 24.0) for i in range(10)]
    clear = bench_pairs.summarize(_runs(parent, [(0.03, 40.0)] * 10), list(range(10)),
                                  DIRECTIONS)
    assert bench_pairs.claim({"w": clear}, "w", "query_s_tail", "lower")["met"]
    assert bench_pairs.claim({"w": clear}, "w", "queries_per_s", "higher")["met"]
    # Eight wins in ten are not enough, however large the gain.
    eight = bench_pairs.summarize(_runs(parent, [(0.03, 40.0)] * 8 + [(0.2, 1.0)] * 2),
                                  list(range(10)), DIRECTIONS)
    assert not bench_pairs.claim({"w": eight}, "w", "query_s_tail", "lower")["met"]
    # Every pair won, but by less than the parent's own spread.
    slight = bench_pairs.summarize(_runs(parent, [(p - 0.0001, r) for p, r in parent]),
                                   list(range(10)), DIRECTIONS)
    assert slight["metrics"]["query_s_tail"]["change_wins"] == "10/10"
    assert not bench_pairs.claim({"w": slight}, "w", "query_s_tail", "lower")["met"]


def test_each_querys_median_is_read_per_run_and_compared_per_pair(tmp_path):
    """A run's per-query medians come from the result.json it left; over the
    pairs, each query keeps each side's median and the pairs the change
    won, so a query the change did not speed up shows by name."""
    sides = {"parent": ([0.12, 0.10, 0.14], [0.05, 0.05]), "change": ([0.11, 0.11], [0.06])}
    runs = {}
    for side, (slow, fast) in sides.items():
        workdir = tmp_path / side / ".perfbench" / "long-chain-s7"
        workdir.mkdir(parents=True)
        records = [{"id": "bel", "s_ref": s} for s in slow] + [{"id": "mpe", "s_ref": s}
                                                              for s in fast]
        (workdir / "result.json").write_text(json.dumps({"records": records}))
        medians = bench_pairs.query_medians(str(tmp_path / side), "long-chain", 7)
        runs[side] = [{"query_s_ref": medians},
                      {"query_s_ref": {q: t + 0.01 for q, t in medians.items()}}]
    assert runs["parent"][0]["query_s_ref"] == {"bel": 0.12, "mpe": 0.05}
    assert bench_pairs.per_query(runs) == {
        "bel": {"parent": 0.125, "change": 0.115, "change_wins": "2/2"},
        "mpe": {"parent": 0.055, "change": 0.065, "change_wins": "0/2"}}
