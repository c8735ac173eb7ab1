"""Query engines against hand-worked cases and the enumeration oracles."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from bucketforge import (Evidence, EvidenceError, IterationRecord, Ordering,
                         OrderingConstraintError, ZeroMassError, engines,
                         parse_network, solve_belief, solve_map, solve_meu,
                         solve_mpe, solve_mpe_conditioned)
from bucketforge.buckets import TraceEntry, forward_decode, partition
from bucketforge.factor import DiscreteFactor, add, fold_max, multiply
from bucketforge.oracle import (CELL_LIMIT, oracle_belief, oracle_map, oracle_meu,
                                oracle_mpe, score_assignment, score_decisions,
                                score_hypothesis)
from bucketforge.randgen import (random_evidence, random_influence_diagram,
                                 random_network, shuffled_ordering,
                                 uniform_network)

from conftest import DIAG_GOOD_ORDER, OVERFLOW_DIAGRAMS, UTILITY_OVERFLOW

SINGLE = """BAYES
1
3
1
1 0
3 0.2 0.5 0.3
"""

CHAIN = """BAYES
3
2 2 2
3
1 0
2 0 1
2 1 2
2 0.7 0.3
4 0.7 0.3 0.3 0.7
4 0.7 0.3 0.3 0.7
"""

DECIDE_THEN_OBSERVE = """ID
2
2 2
1 0
1
2 0 1
4 0.2 0.8 0.9 0.1
1
1 1
2 10.0 1.0
"""


def close(a, b, tol=1e-9):
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-12)


def test_single_variable_belief_is_the_prior():
    net = parse_network(SINGLE)
    result = solve_belief(net, 0, None, None)
    assert result.belief == (0.2, 0.5, 0.3)
    assert result.evidence_mass == 1.0


def test_observed_query_returns_a_point_mass():
    net = parse_network(CHAIN)
    result = solve_belief(net, 1, Evidence({1: 1}), None)
    assert result.belief == (0.0, 1.0)
    # Mass is the evidence probability: P(x1=1) = 0.7*0.3 + 0.3*0.7.
    assert close(result.evidence_mass, 0.42)


def test_belief_matches_oracle_for_every_query(diag_net):
    for query in range(6):
        result = solve_belief(diag_net, query, Evidence({5: 1}), None)
        belief, mass = oracle_belief(diag_net, query, Evidence({5: 1}))
        assert all(close(a, b) for a, b in zip(result.belief, belief))
        assert close(result.evidence_mass, mass)


def test_belief_requires_the_query_at_position_one(diag_net):
    with pytest.raises(OrderingConstraintError):
        solve_belief(diag_net, 3, None, Ordering(DIAG_GOOD_ORDER))


def test_belief_zero_mass_raises():
    net = parse_network("""BAYES
2
2 2
2
1 0
2 0 1
2 1.0 0.0
4 1.0 0.0 0.5 0.5
""")
    with pytest.raises(ZeroMassError):
        solve_belief(net, 0, Evidence({1: 1}), None)


def test_chain_mpe_is_the_product_of_diagonal_entries():
    net = parse_network(CHAIN)
    result = solve_mpe(net, None, None)
    assert close(result.value, 0.7 ** 3)
    assert result.assignment == {0: 0, 1: 0, 2: 0}
    assert result.note is None


def test_uniform_network_ties_decode_to_all_zeros():
    net = uniform_network((2, 2, 2))
    result = solve_mpe(net, None, None)
    assert close(result.value, 1 / 8)
    assert result.assignment == {0: 0, 1: 0, 2: 0}


def test_mpe_with_impossible_evidence_reports_value_zero():
    net = parse_network("""BAYES
2
2 2
2
1 0
2 0 1
2 1.0 0.0
4 1.0 0.0 0.5 0.5
""")
    result = solve_mpe(net, Evidence({1: 1}), None)
    assert result.value == 0.0
    assert result.note is not None
    assert result.assignment[1] == 1


def test_mpe_value_is_ordering_invariant(diag_net):
    rng = random.Random(17)
    ev = Evidence({5: 0})
    baseline = solve_mpe(diag_net, ev, None).value
    for _ in range(10):
        seq = list(range(6))
        rng.shuffle(seq)
        result = solve_mpe(diag_net, ev, Ordering(tuple(seq)))
        assert close(result.value, baseline)
        assert close(score_assignment(diag_net, result.assignment), baseline)


def test_map_over_every_variable_equals_mpe(diag_net):
    ev = Evidence({5: 1})
    full = solve_map(diag_net, list(range(6)), ev, None)
    plain = solve_mpe(diag_net, ev, None)
    assert close(full.value, plain.value)
    assert close(score_assignment(diag_net, {**full.assignment}),
                 plain.value)


def test_map_single_variable_matches_the_belief_maximum(diag_net):
    ev = Evidence({5: 1})
    result = solve_map(diag_net, [2], ev, None)
    belief = solve_belief(diag_net, 2, ev, None)
    assert close(result.value, max(belief.belief) * belief.evidence_mass)
    assert result.assignment == {2: belief.belief.index(max(belief.belief))}


def test_map_matches_oracle(diag_net):
    ev = Evidence({5: 1})
    for hyp in ([0], [1, 4], [0, 2, 3], [5, 1]):
        result = solve_map(diag_net, hyp, ev, None)
        value, assignment = oracle_map(diag_net, hyp, ev)
        assert close(result.value, value)
        assert close(score_hypothesis(diag_net, result.assignment, ev), value)


def test_map_rejects_interleaved_orderings(diag_net):
    with pytest.raises(OrderingConstraintError):
        solve_map(diag_net, [0, 2], None, Ordering(DIAG_GOOD_ORDER))


def test_map_hypothesis_validation(diag_net):
    with pytest.raises(ValueError):
        solve_map(diag_net, [], None, None)
    with pytest.raises(ValueError):
        solve_map(diag_net, [0, 0], None, None)
    with pytest.raises(ValueError):
        solve_map(diag_net, [9], None, None)


def test_map_observed_hypothesis_variable_keeps_the_evidence(diag_net):
    ev = Evidence({1: 0})
    result = solve_map(diag_net, [1, 2], ev, None)
    assert result.assignment[1] == 0
    assert result.note is not None
    value, _ = oracle_map(diag_net, [1, 2], ev)
    assert close(result.value, value)


def test_meu_with_no_chance_variables_reads_the_utility():
    diagram = parse_network("""ID
1
3
1 0
0
1
1 0
3 2.0 5.0 1.0
""")
    result = solve_meu(diagram, None, None)
    assert result.value == 5.0
    assert result.assignment == {0: 1}


def test_meu_decision_then_chance_hand_case():
    diagram = parse_network(DECIDE_THEN_OBSERVE)
    result = solve_meu(diagram, None, None)
    # Option 0: 0.2*10 + 0.8*1 = 2.8; option 1: 0.9*10 + 0.1*1 = 9.1.
    assert close(result.value, 9.1)
    assert result.assignment == {0: 1}


def test_meu_conditions_on_the_evidence():
    diagram = parse_network(DECIDE_THEN_OBSERVE)
    result = solve_meu(diagram, Evidence({1: 1}), None)
    # Given the chance variable landed on 1, utility is 1.0 either way; the
    # tie decodes to option 0.
    assert close(result.value, 1.0)
    assert result.assignment == {0: 0}
    value, _ = oracle_meu(diagram, Evidence({1: 1}), [0])
    assert close(result.value, value)


def test_meu_zero_probability_branch_scores_zero():
    diagram = parse_network("""ID
2
2 2
1 0
1
2 0 1
4 1.0 0.0 0.0 1.0
1
1 1
2 3.0 7.0
""")
    high = solve_meu(diagram, Evidence({1: 1}), None)
    assert close(high.value, 7.0)
    assert high.assignment == {0: 1}
    low = solve_meu(diagram, Evidence({1: 0}), None)
    assert close(low.value, 3.0)
    assert low.assignment == {0: 0}


def test_meu_all_zero_utilities_tie_to_zero_decisions():
    diagram = parse_network("""ID
2
2 2
1 0
1
2 0 1
4 0.5 0.5 0.5 0.5
1
1 1
2 0.0 0.0
""")
    result = solve_meu(diagram, None, None)
    assert result.value == 0.0
    assert result.assignment == {0: 0}


def test_meu_requires_decisions_first():
    diagram = parse_network(DECIDE_THEN_OBSERVE)
    with pytest.raises(OrderingConstraintError):
        solve_meu(diagram, None, Ordering((1, 0)))


def test_meu_engine_matches_its_oracle_scorer():
    diagram = parse_network(DECIDE_THEN_OBSERVE)
    for ev in (None, Evidence({1: 0}), Evidence({1: 1})):
        result = solve_meu(diagram, ev, None)
        assert close(result.value, score_decisions(diagram, result.assignment, ev),
                     tol=1e-12)


# -- the MEU bucket rules as two separate functions, kept as the reference ----

def _reference_divide_where_positive(numer, denom):
    d = denom.aligned_values(numer.scope)
    d = np.broadcast_to(d, numer.values.shape)
    out = np.divide(numer.values, d, out=np.zeros_like(numer.values), where=d != 0)
    return DiscreteFactor(numer.scope, numer.cards, out)


def _reference_average_out_chance(schedule, var):
    bucket = schedule.buckets[var]
    probs, utils = bucket.factors, bucket.utilities
    if not probs and not utils:
        schedule.record(TraceEntry(var, "skip", (), (), 0))
        return
    if not probs:
        card = utils[0].cards[utils[0].scope.index(var)]
        probs = [DiscreteFactor((var,), (card,), np.ones(card))]
    combined = multiply(probs)
    marginal, _ = combined.eliminate(var, "sum")
    ins = tuple(f.scope for f in bucket.factors) + tuple(u.scope for u in utils)
    outs = [marginal.scope]
    cells = marginal.values.size
    if utils:
        weighted = multiply([combined, add(utils)])
        numer, _ = weighted.eliminate(var, "sum")
        averaged = _reference_divide_where_positive(numer, marginal)
        schedule.place(averaged, utility=True)
        outs.append(averaged.scope)
        cells += averaged.values.size
    schedule.place(marginal)
    schedule.record(TraceEntry(var, "sum", ins, tuple(outs), cells))


def _reference_maximize_decision(schedule, var):
    bucket = schedule.buckets[var]
    if not bucket.factors and not bucket.utilities:
        schedule.record(TraceEntry(var, "skip", (), (), 0))
        return
    cards_map = {}
    for f in (*bucket.factors, *bucket.utilities):
        for v, c in zip(f.scope, f.cards):
            if cards_map.setdefault(v, c) != c:
                raise ValueError(f"conflicting cardinalities for variable {v}")
    scope = tuple(sorted(cards_map))
    shape = tuple(cards_map[v] for v in scope)
    theta = np.zeros(shape)
    for f in bucket.utilities:
        theta = theta + f.aligned_values(scope)
    alive = np.ones(shape, dtype=bool)
    for f in bucket.factors:
        alive &= np.broadcast_to(f.aligned_values(scope), shape) > 0
    axis = scope.index(var)
    best, choices = fold_max(np.where(alive, theta, -np.inf), axis)
    support = alive.any(axis=axis)
    best = np.where(support, best, 0.0)
    out_scope = tuple(v for v in scope if v != var)
    out_cards = tuple(cards_map[v] for v in out_scope)
    theta_out = DiscreteFactor(out_scope, out_cards, best)
    support_out = DiscreteFactor(out_scope, out_cards, support.astype(np.float64))
    schedule.arg_tables[var] = (out_scope, choices)
    schedule.place(theta_out, utility=True)
    schedule.place(support_out)
    ins = (tuple(f.scope for f in bucket.factors)
           + tuple(u.scope for u in bucket.utilities))
    schedule.record(TraceEntry(var, "max", ins,
                               (theta_out.scope, support_out.scope),
                               theta_out.values.size + support_out.values.size))


def _reference_meu_sweep(diagram, evidence, ordering):
    schedule = partition(diagram.chance_factors(), ordering, evidence,
                         utilities=diagram.utilities)
    for var in reversed(ordering.sequence):
        if schedule.buckets[var].observed_value is not None:
            schedule.scatter(var)
        elif var in diagram.decisions:
            _reference_maximize_decision(schedule, var)
        else:
            _reference_average_out_chance(schedule, var)
    return schedule


def test_meu_bucket_rules_match_the_separate_reference_rules():
    rng = random.Random(51501)
    compared = zero_mass = observed_mid = 0
    for case in range(240):
        diagram = random_influence_diagram(rng, max_vars=8, max_card=3,
                                           hard_rows=0.3 if case % 3 == 0 else 0.0)
        decisions = list(diagram.decisions)
        rng.shuffle(decisions)
        evidence = random_evidence(rng, diagram, max_observed=3,
                                   exclude=diagram.decisions)
        observed = [v for v, _ in evidence.items()]
        for ev in (None, evidence):
            for suffix in ([], observed):
                # With no pinned suffix the observed variables land anywhere
                # after the decisions, mid-sequence included.
                order = shuffled_ordering(rng, diagram.n, prefix=decisions,
                                          suffix=suffix)
                if ev is not None and observed:
                    first = min(order.index_of(v) for v in observed)
                    observed_mid += any(v not in evidence
                                        for v in order.sequence[first:])
                ref = _reference_meu_sweep(diagram, ev, order)
                if ref.scalar == 0.0:
                    with pytest.raises(ZeroMassError):
                        solve_meu(diagram, ev, order)
                    zero_mass += 1
                    continue
                result = solve_meu(diagram, ev, order)
                assert result.trace == tuple(ref.trace)
                assert result.value == ref.util_scalar
                assert result.assignment == forward_decode(ref, diagram.decisions)
                assert result.max_table_scope == ref.max_generated_scope
                compared += 1
    assert compared >= 800 and zero_mass > 0 and observed_mid >= 80


def test_conditioning_with_empty_cutset_is_plain_elimination(diag_net):
    ev = Evidence({5: 1})
    plain = solve_mpe(diag_net, ev, None)
    conditioned = solve_mpe_conditioned(diag_net, [], ev, None)
    assert conditioned.value == plain.value
    assert conditioned.assignment == plain.assignment
    assert len(conditioned.iterations) == 1


def test_conditioning_on_every_variable_is_plain_enumeration(diag_net):
    ev = Evidence({5: 1})
    order = Ordering((0, 1, 2, 3, 4, 5))
    conditioned = solve_mpe_conditioned(diag_net, list(range(6)), ev, order)
    value, assignment = oracle_mpe(diag_net, ev, list(range(6)))
    assert close(conditioned.value, value)
    assert conditioned.assignment == assignment
    assert len(conditioned.iterations) == 2 ** 5  # observed var is pinned
    assert all(rec.max_table_scope == 0 for rec in conditioned.iterations)


def test_conditioning_matches_mpe_for_partial_cutsets(diag_net):
    ev = Evidence({5: 1})
    for cut in ([1], [1, 4], [0, 2, 3]):
        order_suffix = sorted(set(cut) | {5})
        free = [v for v in range(6) if v not in order_suffix]
        order = Ordering(tuple(free + order_suffix))
        plain = solve_mpe(diag_net, ev, order)
        conditioned = solve_mpe_conditioned(diag_net, cut, ev, order)
        assert close(conditioned.value, plain.value)
        assert conditioned.assignment == plain.assignment


def test_conditioning_iterates_cutset_values_lexicographically(diag_net):
    result = solve_mpe_conditioned(diag_net, [1, 2], None, None)
    pinned = [rec.pinned for rec in result.iterations]
    assert pinned == [((1, 0), (2, 0)), ((1, 0), (2, 1)),
                      ((1, 1), (2, 0)), ((1, 1), (2, 1))]


def test_engines_are_deterministic_across_repeat_calls(diag_net):
    ev = Evidence({5: 1})
    a = solve_mpe(diag_net, ev, None)
    b = solve_mpe(diag_net, ev, None)
    assert a.value == b.value
    assert a.assignment == b.assignment
    assert [e.render() for e in a.trace] == [e.render() for e in b.trace]


def _conditioning_by_repeated_sweeps(net, cut, evidence, ordering):
    """The conditioning loop as one full max sweep per cutset assignment:
    (best result, iteration records)."""
    ranges = [[evidence.get(v)] if v in evidence else range(net.cards[v])
              for v in cut]
    best, records = None, []
    for i, combo in enumerate(product(*ranges)):
        pinned = dict(evidence.assignments)
        pinned.update(zip(cut, combo))
        result = solve_mpe(net, Evidence(pinned), ordering)
        records.append(IterationRecord(i, tuple(zip(cut, combo)), result.value,
                                       result.max_table_scope))
        if best is None or result.value > best.value:
            best = result
    return best, tuple(records)


@pytest.mark.parametrize("draw", [1, 2])
def test_conditioning_replays_one_plan_exactly_like_repeated_sweeps(draw):
    rng = random.Random(80800 + draw)
    seen = Counter()
    for case in range(120):
        if case % 10 == 9:  # every assignment ties: the first maximum wins
            net = uniform_network([rng.randint(2, 3) for _ in range(rng.randint(2, 5))])
        else:
            net = random_network(rng, max_vars=7, max_card=3,
                                 hard_rows=0.3 if case % 3 == 0 else 0.0)
        evidence = random_evidence(rng, net, max_observed=2)
        observed = [v for v, _ in evidence.items()]
        free = [v for v in range(net.n) if v not in observed]
        shape = case % 4
        if shape == 0:
            cut = []
        elif shape == 1:
            cut = list(range(net.n))
        elif shape == 2 and observed:  # a cutset variable that is also observed
            cut = sorted({observed[0], *rng.sample(range(net.n), 1)})
        elif free:
            cut = sorted(rng.sample(free, rng.randint(1, min(3, len(free)))))
        else:
            cut = observed
        seen["empty" if not cut else "every" if len(cut) == net.n else "partial"] += 1
        seen["observed in cutset"] += bool(set(cut) & set(observed))
        seen["evidence beside cutset"] += bool(set(observed) - set(cut))
        # Pinned last as the CLI orders them, or anywhere.
        suffix = sorted(set(cut) | set(observed)) if case % 2 else []
        order = shuffled_ordering(rng, net.n, suffix=suffix)

        result = solve_mpe_conditioned(net, cut, evidence, order)
        best, records = _conditioning_by_repeated_sweeps(net, cut, evidence, order)
        assert result.iterations == records
        assert [r.value.hex() for r in result.iterations] == \
            [r.value.hex() for r in records]
        assert result.value.hex() == best.value.hex()
        assert result.assignment == best.assignment
        assert result.trace == best.trace
        assert result.note == best.note
        assert result.max_table_scope == max(r.max_table_scope for r in records)
    assert min(seen.values()) >= 10, seen


def _stream_watch(monkeypatch, batch):
    """Run conditioning in batches of ``batch`` combinations, checking each
    execution of the plan: it carries at most ``batch`` rows, and the rows
    of one query's executions, joined in call order, are every cutset
    combination in ``itertools.product`` order.  ``read`` counts the rows
    handed to ``execute`` and ``reduced`` those it has returned; returns
    the counts of the last query."""
    state = {"read": 0, "reduced": 0}
    query = {}
    max_sweep, execute = engines._max_sweep, engines.execute

    def watched_sweep(net, cut, evidence, ordering):
        ev = evidence if evidence is not None else Evidence.empty()
        ranges = [[ev.get(v)] if v in ev else range(net.cards[v]) for v in cut]
        query.update(cut=cut, combos=list(product(*ranges)))
        state.update(read=0, reduced=0)
        result = max_sweep(net, cut, evidence, ordering)
        assert state["read"] == state["reduced"] == len(query["combos"]), state
        return result

    def watched_execute(planned, arrays, values):
        rows = max((len(x) for x in values.values() if np.ndim(x)), default=1)
        assert rows <= batch, rows
        columns = [np.broadcast_to(values[v], rows).tolist() for v in query["cut"]]
        start = state["read"]
        assert [tuple(c[r] for c in columns) for r in range(rows)] == \
            query["combos"][start:start + rows]
        state["read"] += rows
        sweep = execute(planned, arrays, values)
        state["reduced"] += rows
        return sweep

    monkeypatch.setattr(engines, "_batch_size", lambda planned, cut: batch)
    monkeypatch.setattr(engines, "_max_sweep", watched_sweep)
    monkeypatch.setattr(engines, "execute", watched_execute)
    return state


@pytest.mark.parametrize("batch", [1, 2, 4])
def test_conditioning_streams_its_iterations(diag_net, monkeypatch, batch):
    state = _stream_watch(monkeypatch, batch)
    result = solve_mpe_conditioned(diag_net, [0, 1, 2, 3, 4], None, None)
    assert state == {"read": 32, "reduced": 32}
    assert [r.index for r in result.iterations] == list(range(32))


def test_conditioning_iterations_are_a_sequence_of_records_built_when_read(diag_net):
    ev = Evidence({2: 1, 5: 1})
    order = Ordering((0, 3, 4, 1, 2, 5))
    result = solve_mpe_conditioned(diag_net, [1, 2, 5], ev, order)
    _, records = _conditioning_by_repeated_sweeps(diag_net, [1, 2, 5], ev, order)
    view = result.iterations
    assert len(view) == len(records) == 2  # observed 2 and 5 keep their values
    assert view == records and records == view and tuple(view) == records
    assert view != records[:1] and view != "records"
    assert view[-1] == records[-1] and view[-2] == view[0] == records[0]
    assert view[::-1] == records[::-1] and view[5:] == ()
    for i in (2, -3):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = records[0]
    assert view[1].pinned == ((1, 1), (2, 1), (5, 1))
    # Plain ints, as --trace --json serialises them.
    assert all(type(val) is int for rec in view for _, val in rec.pinned)
    assert all(type(rec.value) is float for rec in view)


def test_an_empty_cutset_has_one_record_that_pins_nothing(diag_net):
    ev = Evidence({5: 1})
    result = solve_mpe_conditioned(diag_net, [], ev, None)
    (record,) = result.iterations
    assert record == IterationRecord(0, (), result.value, result.max_table_scope)


@pytest.mark.parametrize("block", [3, 1 << 14])
def test_iterating_the_records_reads_what_indexing_reads(diag_net, monkeypatch, block):
    """Iteration unravels a block of combinations at a time; each record
    equals the one indexing builds, across block edges too."""
    monkeypatch.setattr(engines, "_RECORD_BLOCK", block)
    ev = Evidence({2: 1, 5: 0})
    for cut in ([0, 1, 2, 3, 4, 5], [2, 5], [1, 3, 4], []):
        view = solve_mpe_conditioned(diag_net, cut, ev, None).iterations
        assert list(view) == [view[i] for i in range(len(view))]
        assert len(list(view)) == len(view) == 2 ** len(set(cut) - {2, 5})
        assert all(type(val) is int for rec in view for _, val in rec.pinned)
        assert all(type(rec.value) is float for rec in view)


def _window_chain(gen):
    """perfbench's seeded 24-variable binary chain, each variable with
    parents among the two before it."""
    chain = gen.window_network(np.random.default_rng(7), 24, 2, window=2, max_parents=2)
    return parse_network(gen.network_text(chain))


def test_a_batch_is_sized_from_the_plans_masks_without_building_a_scope():
    """On criterion 1's random networks with evidence and a cutset, the
    batch size read off the plan's position masks is the one the input
    scopes of each trace entry give, and a cond-mpe run with fixed evidence
    leaves its plan's scope list unbuilt."""
    rng = random.Random(3201)
    seen = Counter()
    for case in range(80):
        net = random_network(rng, max_vars=8, max_card=3)
        evidence = random_evidence(rng, net, max_observed=3)
        free = [v for v in range(net.n) if v not in evidence]
        if not free:
            continue
        cut = sorted(rng.sample(free, rng.randint(1, min(3, len(free)))))
        result = solve_mpe_conditioned(net, cut, evidence, shuffled_ordering(rng, net.n))
        planner = result.plan.planner
        assert planner._built is None
        size = engines._batch_size(result.plan, cut)
        widest = max((math.prod(net.cards[v] for v in set().union(*entry.input_scopes))
                      for entry in result.trace), default=1)
        assert result.plan.widest_read() == widest
        assert size == max(1, CELL_LIMIT // max(widest, len(cut), 1))
        seen["fixed evidence"] += planner.fixed_mask != 0
        seen["widest > 3"] += widest > 3
    assert seen["fixed evidence"] >= 30 and seen["widest > 3"] >= 30, seen


def test_conditioning_keeps_one_float_per_combination(generators):
    """What a result holds after the run: at most 16 bytes per cutset
    combination, besides the plan and the decoded answer."""
    net, cut = _window_chain(generators), range(16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = solve_mpe_conditioned(net, cut)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.iterations) == 2 ** 16
    assert held <= 16 * 2 ** 16 + 256 * 1024, held
    assert result.iterations[-1].pinned == tuple((v, 1) for v in cut)


def _watched_steps(planned, watch):
    """``planned`` with each step's ``run`` wrapped: ``watch(step, arrays,
    outs, choices)`` sees every call."""
    def wrapped(step):
        def run(arrays, values):
            outs, choices = step.run(arrays, values)
            watch(step, arrays, outs, choices)
            return outs, choices
        return step._replace(run=run) if step.run else step
    return planned._replace(steps=tuple(map(wrapped, planned.steps)))


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_conditioning_in_batches_of_any_size_replays_like_repeated_sweeps(monkeypatch,
                                                                          batch):
    """The replay test's 120 cases, all-ties networks included, with the
    combinations split into batches of ``batch``: records, value and
    assignment stay those of one sweep per combination, so the first
    maximum wins across batch boundaries; no batched array holds more than
    ``batch`` times the cells of the largest scope union of a step's inputs,
    the budget of one combination; and the combinations stream."""
    state = _stream_watch(monkeypatch, batch)
    execute, seen = engines.execute, Counter()

    def watched_execute(planned, arrays, values):
        rows = {len(x) for x in values.values() if np.ndim(x)}
        assert rows <= set(range(1, batch + 1)), rows
        seen["batched"] += bool(rows)
        seen["after the first batch"] += state["read"] > max(rows, default=1)
        cards = {v: c for scope, a in zip(planned.planner.built(), arrays)
                 for v, c in zip(scope, a.shape)}
        budget = batch * max((math.prod(cards[v] for v in set().union(*e.input_scopes))
                              for e in planned.trace), default=1)

        def watch(step, ins, outs, choices):
            entry = step.entry
            scopes = (*entry.input_scopes, *entry.output_scopes, entry.output_scopes[0])
            for a, scope in zip((*ins, *outs, choices), scopes):
                if a is not None and a.ndim > len(scope):  # a batched array
                    assert len(a) in rows and a.size <= budget, (a.shape, budget)
        return execute(_watched_steps(planned, watch), arrays, values)

    monkeypatch.setattr(engines, "execute", watched_execute)
    # The replay test itself, unchanged, under these batches.
    test_conditioning_replays_one_plan_exactly_like_repeated_sweeps(1)
    assert seen["batched"] >= 500 and seen["after the first batch"] >= 400, seen


def test_a_cutset_mid_order_shares_the_buckets_that_do_not_depend_on_it(monkeypatch):
    """Under a given ordering with the cutset in the middle, the buckets
    processed before it see no cutset value: each runs once per batch on
    unbatched tables, and the answer is bit for bit one sweep per
    combination."""
    rng = random.Random(61702)
    shared = 0
    for case in range(30):
        net = random_network(rng, max_vars=8, max_card=3,
                             hard_rows=0.3 if case % 3 == 0 else 0.0)
        if net.n < 4:
            continue
        evidence = random_evidence(rng, net, max_observed=1)
        seq = list(shuffled_ordering(rng, net.n).sequence)
        middle = net.n // 2
        cut = sorted(seq[middle - 1:middle + 1])
        order = Ordering(tuple(seq))
        best, records = _conditioning_by_repeated_sweeps(net, cut, evidence, order)

        calls = []
        planned_steps = []
        original_plan = engines.plan

        def watching_plan(*args, **kwargs):
            planned = original_plan(*args, **kwargs)
            planned_steps[:] = planned.steps
            return _watched_steps(planned, lambda step, ins, outs, choices:
                                  calls.append((step, ins, outs)))

        with monkeypatch.context() as patch:
            patch.setattr(engines, "plan", watching_plan)
            result = solve_mpe_conditioned(net, cut, evidence, order)
        assert [r.value.hex() for r in result.iterations] == \
            [r.value.hex() for r in records]
        assert result.iterations == records
        assert result.value.hex() == best.value.hex()
        assert result.assignment == best.assignment
        assert result.trace == best.trace

        # A slot depends on the cutset when it comes out of the bucket of an
        # unobserved cutset variable, is an evidence slice of a dependent
        # table, or is a result of a rule with a dependent input.
        varying = {v for v in cut if v not in evidence}
        dependent, expected = set(), {}
        for step in planned_steps:
            ins = [i in dependent for i in step.inputs]
            if step.variable in varying:
                outs = [True] * len(step.outputs)
            elif step.entry.op == "assign":
                outs = ins
            else:
                outs = [any(ins)] * len(step.outputs)
            expected[step.variable] = ins + outs
            dependent.update(slot for (slot, _), d in zip(step.outputs, outs) if d)
        ran = Counter(step.variable for step, _, _ in calls)
        assert set(ran.values()) == {1}  # one batch holds every combination
        for step, ins, outs in calls:
            entry = step.entry
            # Each array is over the scope its slot keeps once the evidence
            # is applied.
            slots = (*step.inputs, *range(step.first, step.first + len(step.outputs)))
            batched = [a.ndim > len(step.planner.kept[i]) for a, i in zip((*ins, *outs), slots)]
            assert batched == expected[step.variable]
            shared += entry.op == "max" and not any(batched)
    assert shared >= 40


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("var", [0, 1], ids=["decision bucket", "chance bucket"])
def test_meu_rejects_utilities_whose_sum_overflows(var):
    diagram = parse_network(UTILITY_OVERFLOW.format(var=var))
    with pytest.raises(ValueError, match="^factor values must be finite$"):
        solve_meu(diagram, None, None)


@pytest.mark.parametrize("name", sorted(OVERFLOW_DIAGRAMS))
def test_meu_rejects_an_expected_utility_that_overflows_as_it_folds(name):
    diagram = parse_network(OVERFLOW_DIAGRAMS[name])
    with pytest.raises(ValueError, match="^factor values must be finite$"):
        solve_meu(diagram, None, None)


@pytest.mark.parametrize("call, cls, message", [
    (lambda net: solve_mpe(net, Evidence({9: 0})), EvidenceError, "unknown variable 9"),
    (lambda net: solve_map(net, [0], Evidence({1: 2})), EvidenceError,
     "value 2 out of range for variable 1"),
    (lambda net: solve_belief(net, 0, None, Ordering((0, 1, 2, 3, 4))), OrderingConstraintError,
     "ordering must list each of the model's 6 variables exactly once"),
    (lambda net: solve_belief(net, 9), EvidenceError, "unknown query variable 9"),
    (lambda net: solve_mpe_conditioned(net, [1, 9]), ValueError, "unknown cutset variable 9"),
], ids=["evidence variable", "evidence value", "ordering", "query", "cutset"])
def test_engines_refuse_variables_and_orderings_outside_the_model(diag_net, call, cls, message):
    with pytest.raises(Exception) as info:
        call(diag_net)
    assert (type(info.value), str(info.value)) == (cls, message)


# Chance variable 1 is observed at 0; both utilities over (1, 2) sum past the
# float range only where 1 takes value 1.
OVERFLOW_ONLY_OFF_THE_EVIDENCE = """ID
3
2 2 2
1 0
2
2 0 1
2 1 2
4 0.5 0.5 0.5 0.5
4 0.3 0.7 0.6 0.4
2
2 1 2
4 1.0 2.0 1e308 1e308
2 1 2
4 1.0 2.0 1e308 1e308
"""


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["observed mid-order", "last"])
def test_a_cell_at_an_unobserved_value_is_never_computed(order):
    # With the observed variable mid-order, bucket 2 sums the utilities
    # before bucket 1 is processed; the evidence, applied first, leaves out
    # the cells that overflow, so both orderings give the same answer.
    diagram = parse_network(OVERFLOW_ONLY_OFF_THE_EVIDENCE)
    result = solve_meu(diagram, Evidence({1: 0}), Ordering(order))
    assert result.value == pytest.approx(3.4) and result.assignment == {0: 0}
