"""Barren buckets: ``bel`` and ``map`` sweep only the tables of the query or
hypothesis, the observed variables and their ancestors.

The reference is the unpruned sweep, every table of the network swept: the
same engine with ``engines._ancestral_tables`` replaced by
``net.factor_list()``.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

from bucketforge import Evidence, ZeroMassError, engines, parse_network
from bucketforge.cli import run
from bucketforge.oracle import score_hypothesis
from bucketforge.randgen import random_evidence, random_network, shuffled_ordering

RTOL = 1e-12


def unpruned(solve, *args):
    """``solve(*args)`` with every table of the network swept, or the
    ZeroMassError it raises."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engines, "_ancestral_tables",
                  lambda net, targets, evidence: net.factor_list())
        try:
            return solve(*args)
        except ZeroMassError as exc:
            return exc


def pruned(solve, *args):
    try:
        return solve(*args)
    except ZeroMassError as exc:
        return exc


def ancestors(net, targets):
    """Every ancestor of ``targets``, themselves included, by recursion on
    the parent lists."""
    out = set()

    def visit(v):
        if v not in out:
            out.add(v)
            for p in net.parents[v]:
                visit(p)
    for v in targets:
        visit(v)
    return out


def has_barren_chain(net, kept):
    return any(p not in kept and v not in kept
               for v in range(net.n) for p in net.parents[v])


def check_against_the_unpruned_sweep(result, ref, kept):
    """Skipped buckets are exactly the barren ones, traced as ``op=skip``,
    and no table grows."""
    assert [e.variable for e in result.trace] == [e.variable for e in ref.trace]
    for entry, ref_entry in zip(result.trace, ref.trace):
        if entry.variable in kept:
            assert entry.op == ref_entry.op
        else:
            assert entry.op == "skip" and entry.cells == 0
    assert result.max_table_scope <= ref.max_table_scope


@pytest.mark.parametrize("hard_rows", [0.0, 0.3], ids=["positive", "hard rows"])
def test_belief_matches_the_unpruned_sweep(hard_rows):
    rng = random.Random(1401)
    seen = Counter()
    for _ in range(300):
        net = random_network(rng, max_vars=9, max_card=3, hard_rows=hard_rows)
        query = rng.randrange(net.n)
        evidence = random_evidence(rng, net, max_observed=3)
        if rng.random() < 0.2:
            evidence = Evidence({**evidence.assignments,
                                 query: rng.randrange(net.cards[query])})
        observed = [v for v, _ in evidence.items()]
        suffix = sorted(set(observed) - {query}) if rng.random() < 0.5 else []
        order = shuffled_ordering(rng, net.n, prefix=[query], suffix=suffix)
        kept = ancestors(net, [query, *observed])

        result = pruned(engines.solve_belief, net, query, evidence, order)
        ref = unpruned(engines.solve_belief, net, query, evidence, order)
        seen["query observed"] += query in evidence
        seen["barren"] += len(kept) < net.n
        seen["barren chain"] += has_barren_chain(net, kept)
        if isinstance(ref, ZeroMassError):
            assert isinstance(result, ZeroMassError)
            assert str(result) == str(ref)
            seen["zero mass"] += 1
            continue
        np.testing.assert_allclose(result.belief, ref.belief, rtol=RTOL, atol=0)
        assert math.isclose(result.evidence_mass, ref.evidence_mass, rel_tol=RTOL)
        check_against_the_unpruned_sweep(result, ref, kept)
    assert seen["query observed"] >= 30 and seen["barren"] >= 150, seen
    assert seen["barren chain"] >= 50, seen
    if hard_rows:
        assert seen["zero mass"] >= 5, seen


@pytest.mark.parametrize("hard_rows", [0.0, 0.3], ids=["positive", "hard rows"])
def test_map_matches_the_unpruned_sweep(hard_rows):
    rng = random.Random(1402)
    seen = Counter()
    for _ in range(300):
        net = random_network(rng, max_vars=9, max_card=3, hard_rows=hard_rows)
        hyp = rng.sample(range(net.n), rng.randint(1, min(3, net.n)))
        evidence = random_evidence(rng, net, max_observed=3)
        observed = [v for v, _ in evidence.items()]
        order = shuffled_ordering(rng, net.n, prefix=hyp)
        kept = ancestors(net, [*hyp, *observed])

        result = pruned(engines.solve_map, net, hyp, evidence, order)
        ref = unpruned(engines.solve_map, net, hyp, evidence, order)
        seen["hypothesis observed"] += bool(set(hyp) & set(observed))
        seen["barren"] += len(kept) < net.n
        seen["barren chain"] += has_barren_chain(net, kept)
        if isinstance(ref, ZeroMassError):
            # Only impossible evidence gives a best value of 0 here.
            assert isinstance(result, ZeroMassError)
            assert str(result) == str(ref) == "evidence has probability zero"
            seen["zero mass"] += 1
            continue
        assert ref.value > 0.0
        assert math.isclose(result.value, ref.value, rel_tol=RTOL)
        assert result.note == ref.note
        # Without a near-tie the same assignment wins; with one, the
        # assignment chosen must still score the optimum.
        seen["same assignment"] += result.assignment == ref.assignment
        assert sorted(result.assignment) == sorted(hyp)
        assert math.isclose(score_hypothesis(net, result.assignment, evidence),
                            ref.value, rel_tol=1e-9, abs_tol=1e-15)
        check_against_the_unpruned_sweep(result, ref, kept)
    assert seen["hypothesis observed"] >= 30 and seen["barren"] >= 150, seen
    assert seen["barren chain"] >= 50, seen
    # At most 10 of the 300 cases decode another optimum; a zero-mass
    # case has no assignment to compare.
    assert seen["same assignment"] + seen["zero mass"] >= 290, seen
    if hard_rows:
        assert seen["zero mass"] >= 5, seen


def test_map_and_mpe_keep_their_max_buckets():
    """A hypothesis variable is never pruned, and ``mpe``, whose buckets of
    barren variables maximize, sweeps every table."""
    net = random_network(random.Random(7), max_vars=8)
    for result in (engines.solve_mpe(net), engines.solve_mpe_conditioned(net, [0])):
        assert not any(e.op == "skip" for e in result.trace)
    result = engines.solve_map(net, [0], None, None)
    assert [e.op for e in result.trace if e.variable == 0] == ["max"]


# X0 is 0 for sure, X1 copies X0 and X2 copies X1: observing X1=1 is
# impossible, and for a query on X0 the bucket of X2 is barren.
SURE_CHAIN = """BAYES
3
2 2 2
3
1 0
2 0 1
2 1 2
2 1 0
4 1 0 0 1
4 1 0 0 1
"""


@pytest.mark.parametrize("query", ["0", "1", "2"])
def test_impossible_evidence_still_exits_3(tmp_path, capsys, query):
    net = tmp_path / "chain.net"
    net.write_text(SURE_CHAIN)
    ev = tmp_path / "x1.ev"
    ev.write_text("1 1 1\n")
    assert run(["bel", str(net), "--query", query, "--evidence", str(ev)]) == 3
    assert capsys.readouterr() == ("IMPOSSIBLE EVIDENCE\n", "")


@pytest.mark.parametrize("hyp", [[0], [1], [2], [0, 2]])
def test_map_under_impossible_evidence_raises_pruned_and_unpruned(hyp):
    net = parse_network(SURE_CHAIN)
    evidence = Evidence({1: 1})
    for solve in (pruned, unpruned):
        result = solve(engines.solve_map, net, hyp, evidence, None)
        assert isinstance(result, ZeroMassError)
        assert str(result) == "evidence has probability zero"


def test_a_barren_chain_traces_as_skips():
    net = parse_network(SURE_CHAIN)
    result = engines.solve_belief(net, 0)
    assert [e.render() for e in result.trace] == [
        "var=2 op=skip in=- out=- cells=0", "var=1 op=skip in=- out=- cells=0"]
    assert result.belief == (1.0, 0.0)
    assert result.max_table_scope == 0
