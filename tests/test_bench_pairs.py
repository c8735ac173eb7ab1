"""tools/bench_pairs.py: pairs are won by the better side of each metric,
and a claim needs nine wins in ten and a gain past the parent's spread."""

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
