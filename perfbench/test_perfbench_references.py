"""The benchmark's references against bucketforge's enumeration oracles.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the repository
root.  Instances are window networks small enough for the oracles' 2**20
cell cap.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import generators as gen  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bucketforge import oracle, parse_cnf, parse_network  # noqa: E402
from bucketforge.model import Evidence  # noqa: E402

SEEDS = range(12)


def _instance(seed, card=2, window=3, n=10, anchored=False):
    rng = np.random.default_rng(seed)
    net = gen.window_network(rng, n, card, window, anchored=anchored)
    evidence = gen.observe(rng, net, count=int(rng.integers(0, 4)), exclude=[1, 2])
    return rng, net, evidence, parse_network(gen.network_text(net))


def _rel(a, b):
    # Logs near zero are compared absolutely: 1e-9 on a log is 1e-9 relative
    # on the probability.
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", SEEDS)
def test_mpe_and_joint_score_match_the_oracle(seed):
    _, net, evidence, parsed = _instance(seed, card=2 + seed % 2, anchored=seed % 3 == 0)
    value, assignment = oracle.oracle_mpe(parsed, Evidence(evidence))
    assert _rel(ref.mpe_log_value(net, evidence), math.log(value))
    assert _rel(ref.log_joint(net, assignment), math.log(value))


@pytest.mark.parametrize("seed", SEEDS)
def test_belief_matches_the_oracle(seed):
    _, net, evidence, parsed = _instance(seed, card=2 + seed % 2)
    for query in (1, max(evidence, default=0)):
        expected, mass = oracle.oracle_belief(parsed, query, Evidence(evidence))
        post, log_mass = ref.belief(net, query, evidence)
        assert _rel(log_mass, math.log(mass))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(post, expected))


@pytest.mark.parametrize("seed", SEEDS)
def test_map_enumeration_matches_the_oracle(seed):
    _, net, evidence, parsed = _instance(seed)
    hyp = [2, 1, 7]
    value, best = oracle.oracle_map(parsed, hyp, Evidence(evidence))
    table = ref.map_table(net, hyp, evidence)
    assert _rel(max(table.values()), math.log(value))
    assert _rel(table[tuple(best[v] for v in hyp)], math.log(value))


@pytest.mark.parametrize("seed", SEEDS)
def test_meu_enumeration_matches_the_oracle(seed):
    rng = np.random.default_rng(seed)
    diagram = gen.window_diagram(rng, 9, 2 + seed % 2, 3, decisions=2, utilities=4)
    value, best = oracle.oracle_meu(parse_network(gen.network_text(diagram)))
    table = ref.meu_table(diagram, {})
    assert _rel(max(table.values()), value)
    assert _rel(table[tuple(best[d] for d in diagram.decisions)], value)


def test_long_window_pass_stays_exact_below_the_float64_range():
    rng = np.random.default_rng(5)
    net = gen.window_network(rng, 4000, 2, 6)
    evidence = gen.observe(rng, net, fraction=0.5)
    log_value = ref.mpe_log_value(net, evidence)
    assert log_value < ref.LOG_DBL_MIN
    # Any complete assignment scores at most the optimum.
    guess = {v: evidence.get(v, 0) for v in range(net.n)}
    assert ref.log_joint(net, guess) <= log_value


@pytest.mark.parametrize("seed", SEEDS)
def test_cnf_generators(seed):
    rng = np.random.default_rng(seed)
    planted = gen.planted_banded_cnf(rng, 14, 5, 4.5)
    models = oracle.truth_table_models(parse_cnf(gen.cnf_text(planted)))
    assert models
    for bits in models:
        assert ref.satisfies(planted, {p + 1: b for p, b in enumerate(bits)})
    theory = gen.random_3cnf(rng, 12, 4.26)
    assert parse_cnf(gen.cnf_text(theory)).clauses == tuple(map(frozenset, theory.clauses))


def test_tail_is_the_sample_with_ten_beyond_it():
    samples = [float(x) for x in range(1, 31)]
    value, pct = run.tail(samples)
    assert value == 20.0 and sum(s > value for s in samples) == 10
    assert math.isclose(pct, 100 * 20 / 30)


def test_query_times_are_scaled_by_the_kernel_times_around_them(monkeypatch):
    import speed
    import worker

    kernel_times = iter([0.010, 0.020, 0.040])
    monkeypatch.setattr(speed, "seconds", lambda kernel: next(kernel_times))
    monkeypatch.setitem(speed.REFERENCE_S, "interpreter", 0.030)

    class Cli:
        @staticmethod
        def run(argv):
            return 0

    queries = [{"id": "a", "argv": []}, {"id": "b", "argv": []}]
    records = worker.run_pass(Cli, queries, 0.0, 2, "interpreter")["records"]
    for r, (before, after) in zip(records, [(0.010, 0.020), (0.020, 0.040)]):
        assert math.isclose(r["s_ref"], r["s"] * 0.030 / ((before + after) / 2))


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.build_inputs("sparse-order", 3, str(tmp_path / "a"))
    b = workloads.build_inputs("sparse-order", 3, str(tmp_path / "b"))
    for qa, qb in zip(a.queries, b.queries):
        assert qa.argv[0] == qb.argv[0]
    for name in sorted(os.listdir(tmp_path / "a")):
        with open(tmp_path / "a" / name) as fa, open(tmp_path / "b" / name) as fb:
            assert fa.read() == fb.read()
