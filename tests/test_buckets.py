"""Bucket filing, the observation rule, and the backward sweep mechanics."""

import gc
import itertools
import math
import random
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from bucketforge import (BucketSchedule, Evidence, EvidenceError, Ordering, buckets, factor,
                         forward_decode, parse_network, partition)
from bucketforge.buckets import FOLD, Context, execute, plan
from bucketforge.factor import DiscreteFactor, Scratch
from bucketforge.randgen import (random_evidence, random_influence_diagram,
                                 random_network, shuffled_ordering)

from conftest import (DIAG_BAD_ORDER, DIAG_GOOD_ORDER, reference_fold, reference_fold_max,
                      reference_fold_sum)


def scopes_in(bucket):
    return sorted(f.scope for f in bucket.factors)


def test_partition_files_each_factor_at_its_highest_variable(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    assert scopes_in(schedule.buckets[0]) == [(0,)]
    assert scopes_in(schedule.buckets[1]) == [(0, 1)]
    assert scopes_in(schedule.buckets[2]) == [(0, 2)]
    assert scopes_in(schedule.buckets[3]) == [(0, 1, 3)]
    assert scopes_in(schedule.buckets[4]) == [(1, 2, 4)]
    assert scopes_in(schedule.buckets[5]) == [(4, 5)]


def test_partition_against_the_reversed_ordering(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_BAD_ORDER))
    assert scopes_in(schedule.buckets[0]) == [(0,), (0, 1), (0, 1, 3), (0, 2)]
    assert scopes_in(schedule.buckets[1]) == [(1, 2, 4)]
    assert scopes_in(schedule.buckets[4]) == [(4, 5)]
    for empty in (5, 3, 2):
        assert schedule.buckets[empty].factors == []


def test_observed_bucket_scatters_slices_one_by_one(diag_net):
    # Variable 1 observed and ordered last: its bucket holds three tables,
    # and scattering files each restricted slice separately.
    order = Ordering((0, 2, 3, 4, 5, 1))
    schedule = partition(diag_net.factor_list(), order, Evidence({1: 1}))
    assert scopes_in(schedule.buckets[1]) == [(0, 1), (0, 1, 3), (1, 2, 4)]

    schedule.process(1, "sum")
    entry = schedule.trace[-1]
    assert entry.op == "assign"
    assert len(entry.output_scopes) == 3
    assert scopes_in(schedule.buckets[0]) == [(0,), (0,)]
    assert scopes_in(schedule.buckets[3]) == [(0, 3)]
    assert scopes_in(schedule.buckets[4]) == [(2, 4)]
    assert schedule.buckets[1].factors == []

    # The slice of the variable's own table keeps the observed column.
    slice_of_own = [f for f in schedule.buckets[0].factors
                    if f.value_at({0: 0}) != 0.6][0]
    assert slice_of_own.value_at({0: 0}) == 0.7
    assert slice_of_own.value_at({0: 1}) == 0.2


def test_observed_root_slice_folds_into_the_scalar(diag_net):
    order = Ordering((1, 2, 3, 4, 5, 0))
    schedule = partition(diag_net.factor_list(), order, Evidence({0: 1}))
    # Everything touching variable 0 piles into its (last-position) bucket.
    assert scopes_in(schedule.buckets[0]) == [(0,), (0, 1), (0, 1, 3), (0, 2)]
    schedule.process(0, "sum")
    assert schedule.scalar == 0.4  # the prior of value 1
    assert scopes_in(schedule.buckets[1]) == [(1,)]
    assert scopes_in(schedule.buckets[2]) == [(2,)]
    assert scopes_in(schedule.buckets[3]) == [(1, 3)]


def test_elimination_places_results_further_down(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    schedule.process(5, "sum")
    entry = schedule.trace[-1]
    assert entry.op == "sum"
    assert entry.input_scopes == ((4, 5),)
    assert entry.output_scopes == ((4,),)
    assert entry.cells == 2
    assert entry.render() == "var=5 op=sum in=4,5 out=4 cells=2"
    generated = schedule.buckets[4].factors[-1]
    assert generated.scope == entry.output_scopes[0]
    # A conditional table summed over its child gives the all-ones table.
    assert math.isclose(generated.value_at({4: 0}), 1.0, rel_tol=1e-12)
    assert schedule.buckets[5].factors == []
    assert schedule.max_generated_scope == 1


def test_empty_bucket_is_skipped(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_BAD_ORDER))
    before = {v: list(b.factors) for v, b in schedule.buckets.items()}
    schedule.process(5, "sum")
    assert schedule.trace[-1].op == "skip"
    assert schedule.trace[-1].output_scopes == ()
    assert {v: b.factors for v, b in schedule.buckets.items()} == before


def test_the_bucket_snapshot_copies_and_leaves_the_slots_writable(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    schedule.process(5, "sum")
    sent = schedule.buckets[4].factors[-1]
    assert sent.values is not schedule.slots[-1]
    assert (sent.values == schedule.slots[-1]).all()
    assert not sent.values.flags.writeable
    assert schedule.slots[-1].flags.writeable


def test_a_table_outside_the_ordering_is_a_value_error():
    message = r"table over scope \(3, 7\) names variables \[7\] that the ordering lacks"
    with pytest.raises(ValueError, match=message):
        partition([DiscreteFactor((3, 7), (2, 2), [1.0] * 4)], Ordering((0, 3)))
    with pytest.raises(ValueError, match=message):
        plan([(3, 7)], {3: 2, 7: 2}, Ordering((0, 3)), (), {})


@pytest.mark.parametrize("advance", [lambda s: s.process(7, "sum"), lambda s: s.scatter(7)],
                         ids=["process", "scatter"])
def test_a_bucket_outside_the_ordering_is_a_value_error(advance):
    schedule = partition([], Ordering((0, 1)))
    with pytest.raises(ValueError, match="no bucket for variable 7: the ordering lacks it"):
        advance(schedule)
    assert schedule.trace == []


def snapshot(schedule):
    return {v: (b.factors, b.utilities) for v, b in schedule.buckets.items()}


@pytest.mark.parametrize("refused, message", [
    (DiscreteFactor((0, 2), (2, 5), [0.1] * 10), r"names variables \[2\] that the ordering lacks"),
    (DiscreteFactor((0, 1), (2, 2), [0.25] * 4), "value 2 out of range for variable 1"),
], ids=["variable outside the ordering", "observed value out of range"])
def test_a_refused_table_leaves_the_schedule_as_it_was(refused, message):
    schedule = BucketSchedule(Ordering((0, 1)), Evidence({1: 2}))
    before = snapshot(schedule)
    with pytest.raises(ValueError, match=message):
        schedule.place(refused)
    assert snapshot(schedule) == before and schedule._planner.cards == {}
    # Variable 0 was not recorded with the refused table's cardinality 2.
    accepted = DiscreteFactor((0,), (3,), [0.2, 0.3, 0.5])
    schedule.place(accepted)
    assert schedule.buckets[0].factors == [accepted]
    assert schedule._planner.cards == {0: 3}


def test_an_unknown_rule_is_refused_and_the_bucket_kept(diag_net):
    message = (r"no bucket rule 'mean' for unobserved variable 5: "
               r"the rules are 'sum', 'max', 'decide'")
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    before = snapshot(schedule)
    with pytest.raises(ValueError, match=message):
        schedule.process(5, "mean")
    assert snapshot(schedule) == before and schedule.trace == []
    # Only an observed bucket scatters.
    with pytest.raises(ValueError, match="no bucket rule 'assign' for unobserved variable 5"):
        schedule.scatter(5)
    assert snapshot(schedule) == before and schedule.trace == []
    schedule.process(5, "sum")
    assert schedule.trace[-1].render() == "var=5 op=sum in=4,5 out=4 cells=2"
    tables = diag_net.factor_list()
    with pytest.raises(ValueError, match="no bucket rule 'avg' for unobserved variable 5"):
        plan([f.scope for f in tables], diag_net.cards, Ordering(DIAG_GOOD_ORDER), (),
             {5: "avg"})


def test_a_utility_only_sum_bucket_is_refused_and_kept():
    utility = DiscreteFactor((0, 1), (2, 2), [1.0, 2.0, 3.0, 4.0])
    schedule = partition([DiscreteFactor((0,), (2,), [0.5, 0.5])], Ordering((0, 1)),
                         utilities=[utility])
    before = snapshot(schedule)
    assert before[1] == ([], [utility])
    with pytest.raises(ValueError, match="multiply needs at least one factor"):
        schedule.process(1, "sum")
    assert snapshot(schedule) == before and schedule.trace == []


@pytest.mark.parametrize("tables, op", [
    ([((1,), [1e200, 1.0]), ((0, 1), [1e200, 1.0, 1.0, 1.0])], "sum"),
    ([((1,), [1e200, 1.0]), ((0, 1), [1e200, 1.0, 1.0, 1.0]),
      ((0, 1), [0.0, 1.0, 1.0, 1.0])], "max"),
    ([((), 1e200), ((1,), [1e200, 1e200])], "sum"),
], ids=["product overflows", "inf times zero", "scalar overflows as it folds"])
def test_a_refused_process_leaves_the_schedule_as_it_was(tables, op):
    schedule = partition([DiscreteFactor(scope, (2,) * len(scope), values)
                          for scope, values in tables], Ordering((0, 1)))
    before = snapshot(schedule), schedule.scalar, len(schedule.slots)
    for _ in range(2):  # the refused bucket is still there to refuse again
        with pytest.raises(ValueError, match="^factor values must be finite$"):
            schedule.process(1, op)
        assert (snapshot(schedule), schedule.scalar, len(schedule.slots)) == before
        assert schedule.trace == [] and schedule.arg_tables == {}
    schedule.process(0, op)  # the rest of the sweep still runs
    assert schedule.trace[-1].variable == 0


@pytest.mark.parametrize("op", ["sum", "max"])
def test_a_batched_sweep_is_each_of_its_rows_bit_for_bit(diag_net, op):
    # Variables 1 and 4 vary mid-order along four rows, 5 is observed.
    tables = diag_net.factor_list()
    arrays = [f.values for f in tables]
    order = Ordering(DIAG_GOOD_ORDER)
    planned = plan([f.scope for f in tables], diag_net.cards, order, {5},
                   dict.fromkeys(DIAG_GOOD_ORDER, op), varying={1, 4})
    rows = [(0, 0), (1, 0), (0, 1), (1, 1)]
    batch = execute(planned, arrays, {5: 1, 1: np.array([r[0] for r in rows]),
                                      4: np.array([r[1] for r in rows])})
    for r, (x1, x4) in enumerate(rows):
        alone = execute(plan([f.scope for f in tables], diag_net.cards, order, {1, 4, 5},
                             dict.fromkeys(DIAG_GOOD_ORDER, op)), arrays, {5: 1, 1: x1, 4: x4})
        picked = batch.row(r)
        assert picked.scalar.hex() == alone.scalar.hex()
        assert picked.values == alone.values
        assert forward_decode(picked, range(6)) == forward_decode(alone, range(6))
        assert {v: c.tolist() for v, (_, c) in picked.arg_tables.items()} == \
            {v: c.tolist() for v, (_, c) in alone.arg_tables.items()}


def test_only_a_probability_sweep_runs_in_batches():
    chance = DiscreteFactor((0, 1), (2, 2), [0.5, 0.5, 0.5, 0.5])
    utility = DiscreteFactor((0, 1), (2, 2), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="the bucket of 0 would batch utilities or a decision"):
        plan([chance.scope, utility.scope], {0: 2, 1: 2}, Ordering((0, 1)), (),
             {0: "sum", 1: "sum"}, utilities=1, varying={1})
    with pytest.raises(ValueError, match="the bucket of 0 would batch utilities or a decision"):
        plan([chance.scope], {0: 2, 1: 2}, Ordering((0, 1)), (),
             {0: "decide", 1: "sum"}, varying={1})


def test_a_binary_max_sweep_keeps_one_byte_choice_tables(diag_net):
    tables = diag_net.factor_list()
    planned = plan([f.scope for f in tables], diag_net.cards, Ordering(DIAG_GOOD_ORDER),
                   (), dict.fromkeys(DIAG_GOOD_ORDER, "max"))
    sweep = execute(planned, [f.values for f in tables], {})
    assert len(sweep.arg_tables) == 6
    for scope, choices in sweep.arg_tables.values():
        assert choices.dtype == np.uint8
        assert choices.shape == tuple(diag_net.cards[v] for v in scope)


def test_a_table_is_freed_once_its_bucket_is_processed(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    schedule.process(5, "sum")
    sent = weakref.ref(schedule.slots[-1])
    assert sent().shape == (2,)  # the table over (4,)
    gc.collect()
    assert sent() is not None
    schedule.process(4, "sum")
    gc.collect()
    assert sent() is None
    assert schedule.buckets[4].factors == []


@pytest.mark.parametrize("evidence", [{}, {4: 0}], ids=["unobserved", "observed mid-order"])
def test_no_slot_outlives_the_step_that_consumes_it(diag_net, evidence):
    # Along the good ordering, bucket 5 sends a table to bucket 4; with 4
    # observed that table, over no variable once 4 is fixed, is folded
    # instead of summed.
    tables = diag_net.factor_list()
    planned = plan([f.scope for f in tables], diag_net.cards, Ordering(DIAG_GOOD_ORDER),
                   evidence, dict.fromkeys(DIAG_GOOD_ORDER, "sum"))
    made, checked = {}, []

    def watched(index, step):
        def run(arrays, values):
            # Every generated slot an earlier step consumed is gone by now.
            gc.collect()
            for before in planned.steps[:index]:
                for slot in before.reads:
                    if slot in made:
                        assert made[slot]() is None, slot
                        checked.append(slot)
            outs, choices = step.run(arrays, values)
            for (slot, _), out in zip(step.outputs, outs):
                if slot != FOLD:
                    made[slot] = weakref.ref(out)
            return outs, choices
        return step._replace(run=run) if step.run else step

    watching = planned._replace(steps=tuple(
        watched(i, step) for i, step in enumerate(planned.steps)))
    sweep = execute(watching, [f.values for f in tables], evidence)
    (sent,) = planned.steps[0].outputs
    assert planned.scopes[sent[0]] == (4,)
    assert sent[0] in checked
    assert sweep.slots == [None] * len(planned.scopes)
    mass = 0.324 if evidence else 1.0  # P(X4 = 0) by enumeration
    assert math.isclose(sweep.scalar, mass, rel_tol=1e-12)


@pytest.mark.parametrize("op", ["sum", "max"])
@pytest.mark.parametrize("observed, varying", [({1, 4, 5}, set()), ({4}, {1, 5})],
                         ids=["single values", "a batch"])
def test_a_scattered_slot_shares_no_memory_with_its_input(diag_net, op, observed, varying):
    # A fixed observed variable's slices are views of the tables handed to
    # execute, taken before the sweep, and its bucket runs nothing; a
    # varying variable's bucket gathers copies.  So no slot holds a view of
    # a table a step computed, and none keeps one alive.
    tables = diag_net.factor_list()
    arrays = [f.values for f in tables]
    planned = plan([f.scope for f in tables], diag_net.cards, Ordering(DIAG_GOOD_ORDER),
                   observed, dict.fromkeys(DIAG_GOOD_ORDER, op), varying=varying)
    made, scattered = [], []

    def watched(step):
        def run(ins, values):
            for a in ins:
                assert all(a is m or not np.shares_memory(a, m) for m in made)
                assert any(a is m for m in made) or any(np.shares_memory(a, t) for t in arrays)
            outs, choices = step.run(ins, values)
            for out in outs:
                assert not any(np.shares_memory(out, a) for a in [*ins, *made])
            made.extend(outs)
            if step.entry.op == "assign":
                scattered.append((step.variable, [np.ndim(a) for a in ins]))
            return outs, choices
        return step._replace(run=run) if step.run else step

    values = {v: np.array([0, 1, 1, 0]) if v in varying else 1 for v in observed | varying}
    execute(planned._replace(steps=tuple(map(watched, planned.steps))), arrays, values)
    assert [s.variable for s in planned.steps if s.entry.op == "assign" and not s.run] == \
        [v for v in reversed(DIAG_GOOD_ORDER) if v in observed]
    assert sorted(v for v, _ in scattered) == sorted(varying)
    if varying:  # bucket 5 gathered the table over (4, 5), already restricted at 4
        assert dict(scattered)[5] == [1]


def test_full_sum_sweep_reproduces_total_mass(diag_net):
    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    for var in reversed(DIAG_GOOD_ORDER):
        schedule.process(var, "sum")
    assert math.isclose(schedule.scalar, 1.0, rel_tol=1e-12)


def test_max_sweep_with_decode_matches_enumeration(diag_net):
    from bucketforge import forward_decode
    from bucketforge.oracle import oracle_mpe

    schedule = partition(diag_net.factor_list(), Ordering(DIAG_GOOD_ORDER))
    for var in reversed(DIAG_GOOD_ORDER):
        schedule.process(var, "max")
    value, assignment = oracle_mpe(diag_net, None, DIAG_GOOD_ORDER)
    assert math.isclose(schedule.scalar, value, rel_tol=1e-12)
    assert forward_decode(schedule, range(6)) == assignment


def test_decode_breaks_ties_toward_value_zero():
    from bucketforge import forward_decode
    from bucketforge.randgen import uniform_network

    net = uniform_network((2, 2, 2))
    order = Ordering((0, 1, 2))
    schedule = partition(net.factor_list(), order)
    for var in reversed(order.sequence):
        schedule.process(var, "max")
    assert forward_decode(schedule, range(3)) == {0: 0, 1: 0, 2: 0}


def _outcome(fn):
    """``fn()``, or the type and message of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


def _step_by_step(tables, utilities, ordering, evidence, ops):
    schedule = partition(tables, ordering, evidence, utilities)
    for var in reversed(ordering.sequence):
        if var in ops:
            schedule.process(var, ops[var])
    return schedule


def _planned(tables, utilities, cards, ordering, evidence, ops):
    everything = [*tables, *utilities]
    planned = plan([f.scope for f in everything], cards, ordering,
                   evidence.assignments, ops, len(utilities))
    return planned, execute(planned, [f.values for f in everything],
                            evidence.assignments)


def _assert_same_sweep(schedule, planned, sweep, n):
    assert tuple(schedule.trace) == planned.trace
    assert schedule.max_generated_scope == planned.max_generated_scope
    # Bit for bit: float.hex tells -0.0 from 0.0 and every last bit apart.
    assert schedule.scalar.hex() == sweep.scalar.hex()
    assert schedule.util_scalar.hex() == sweep.util_scalar.hex()
    assert schedule.arg_tables.keys() == sweep.arg_tables.keys()
    for var, (scope, choices) in schedule.arg_tables.items():
        other_scope, other = sweep.arg_tables[var]
        assert scope == other_scope
        assert choices.dtype == other.dtype and choices.tobytes() == other.tobytes()
    assert forward_decode(schedule, range(n)) == forward_decode(sweep, range(n))
    # What no step consumed: the query bucket of a belief sweep.
    for var, slots in planned.left.items():
        left = schedule.buckets[var].factors
        assert [f.values.tobytes() for f in left] == [sweep.slots[i].tobytes()
                                                      for i in slots]


def test_step_by_step_and_planned_sweeps_agree_bit_for_bit():
    rng = random.Random(90901)
    kinds = Counter()
    for case in range(150):
        hard = 0.3 if case % 3 == 0 else 0.0
        if case % 2:
            model = random_influence_diagram(rng, max_vars=8, max_card=3, hard_rows=hard)
            tables, utilities = model.chance_factors(), model.utilities
            prefix = list(model.decisions)
            rule = "decide"
        else:
            model = random_network(rng, max_vars=8, max_card=3, hard_rows=hard)
            tables, utilities = model.factor_list(), ()
            prefix = rng.sample(range(model.n), rng.randint(1, model.n))
            rule = "max"
        if case % 4 < 2:
            # Empty-scope tables fold into the scalars before any bucket runs.
            tables = [*tables, DiscreteFactor((), (), rng.uniform(0.5, 2.0))]
            if utilities:
                utilities = [*utilities, DiscreteFactor((), (), rng.uniform(-5.0, 10.0))]
        evidence = random_evidence(rng, model, max_observed=3, exclude=prefix)
        observed = [v for v, _ in evidence.items()]
        for suffix in ([], observed):
            # Without a pinned suffix the observed variables land anywhere
            # after the prefix, mid-order included.
            order = shuffled_ordering(rng, model.n, prefix=prefix, suffix=suffix)
            if observed:
                first = min(order.index_of(v) for v in observed)
                kinds["observed mid-order"] += any(v not in evidence
                                                   for v in order.sequence[first:])
            head = set(prefix)
            sweeps = {"mixed": {v: rule if v in head else "sum" for v in order}}
            if not utilities:
                sweeps["sum"] = dict.fromkeys(order, "sum")
                sweeps["max"] = dict.fromkeys(order, "max")
                # The belief sweep leaves the first bucket unprocessed.
                sweeps["belief"] = dict.fromkeys(order.sequence[1:], "sum")
            for name, ops in sweeps.items():
                for ev in (Evidence.empty(), evidence):
                    schedule = _outcome(lambda: _step_by_step(
                        tables, utilities, order, ev, ops))
                    both = _outcome(lambda: _planned(
                        tables, utilities, model.cards, order, ev, ops))
                    if isinstance(both, tuple) and isinstance(both[0], type):
                        assert schedule == both  # the same ValueError
                        kinds["refused"] += 1
                        continue
                    _assert_same_sweep(schedule, *both, model.n)
                    kinds[name if rule == "max" else "meu"] += 1
                    kinds["hard rows"] += bool(hard)
                    kinds["zero mass"] += both[1].scalar == 0.0
    assert min(kinds[k] for k in ("sum", "max", "mixed", "belief", "meu")) >= 300
    assert kinds["observed mid-order"] >= 40
    assert kinds["hard rows"] >= 400 and kinds["zero mass"] > 0


def test_a_plans_trace_is_the_step_by_step_trace():
    """On the oracle-equivalence sweep's random networks and diagrams
    (criterion 1), with and without evidence and, in max sweeps of
    networks, with a varying cutset: the trace read off the plan is the one
    the step-by-step sweep records, and its widest generated scope is the
    largest output scope of a sum or max entry."""
    rng = random.Random(23023)
    kinds = Counter()
    for case in range(120):
        if case % 3 == 2:
            model = random_influence_diagram(rng, max_vars=8, max_card=3)
            tables, utilities, head = model.chance_factors(), model.utilities, model.decisions
            rules = [{v: "decide" if v in head else "sum" for v in range(model.n)}]
        else:
            model = random_network(rng, max_vars=8, max_card=3)
            tables, utilities, head = model.factor_list(), (), ()
            rules = [dict.fromkeys(range(model.n), "sum"), dict.fromkeys(range(model.n), "max")]
        evidence = random_evidence(rng, model, exclude=head)
        free = [v for v in range(model.n) if v not in evidence and v not in head]
        order = shuffled_ordering(rng, model.n, prefix=list(head))
        for ops in rules:
            cuts = [()] + ([tuple(rng.sample(free, min(2, len(free))))]
                           if "max" in ops.values() else [])
            for ev in (Evidence.empty(), evidence):
                for cut in cuts:
                    planned = plan([f.scope for f in [*tables, *utilities]], model.cards, order,
                                   ev.assignments, ops, len(utilities), varying=cut)
                    pinned = Evidence({**dict(ev.items()), **dict.fromkeys(cut, 0)})
                    schedule = _step_by_step(tables, utilities, order, pinned, ops)
                    assert planned.trace == tuple(schedule.trace)
                    assert [step.entry for step in planned.steps] == schedule.trace
                    widest = max((len(s) for e in schedule.trace if e.op in ("sum", "max")
                                  for s in e.output_scopes), default=0)
                    assert planned.max_generated_scope == widest
                    kinds["varying" if cut else "evidence" if len(ev) else "plain"] += 1
                    kinds["widest > 1"] += widest > 1
    assert min(kinds.values()) >= 50, kinds


def _mid_order_cases(rng, count):
    """Criterion 1's random networks, each with random evidence and up to
    two free cutset variables, under an ordering that puts the observed and
    cutset variables anywhere."""
    for case in range(count):
        model = random_network(rng, max_vars=8, max_card=3,
                               hard_rows=0.3 if case % 3 == 0 else 0.0)
        evidence = random_evidence(rng, model, max_observed=3)
        free = [v for v in range(model.n) if v not in evidence]
        cut = rng.sample(free, min(len(free), rng.randint(0, 2)))
        yield model, evidence, cut, shuffled_ordering(rng, model.n)


def test_a_fixed_variables_bucket_runs_nothing_and_is_still_traced():
    """In a plan of a network or a diagram, no bucket of an observed
    variable with one value carries a ``run``, each still has its
    ``assign`` entry in the trace, and every varying variable's bucket
    gathers."""
    rng = random.Random(27101)
    cases = [(model, model.factor_list(), (), evidence, cut, order,
              [dict.fromkeys(order, "sum"), dict.fromkeys(order, "max")])
             for model, evidence, cut, order in _mid_order_cases(rng, 150)]
    for _ in range(60):
        model = random_influence_diagram(rng, max_vars=8, max_card=3)
        head = set(model.decisions)
        order = shuffled_ordering(rng, model.n, prefix=list(model.decisions))
        cases.append((model, model.chance_factors(), model.utilities,
                      random_evidence(rng, model, exclude=model.decisions), [], order,
                      [{v: "decide" if v in head else "sum" for v in order}]))
    kinds = Counter()
    for model, tables, utilities, evidence, cut, order, rules in cases:
        for ops in rules:
            planned = plan([f.scope for f in [*tables, *utilities]], model.cards, order,
                           evidence.assignments, ops, len(utilities), varying=cut)
            trace = planned.trace
            assert len(trace) == len(planned.steps)
            for step, entry in zip(planned.steps, trace):
                var = step.variable
                observed = var in evidence or var in cut
                assert entry.op == ("skip" if not step.inputs else "assign" if observed
                                    else "max" if ops[var] == "decide" else ops[var])
                assert (step.run is None) == (not step.inputs or var in evidence)
                if observed and entry.op != "skip":
                    kinds["fixed" if var in evidence else "gathered"] += 1
                    kinds["with utilities"] += bool(utilities) and var in evidence
    assert min(kinds.values()) >= 50 and kinds["fixed"] >= 300, kinds


def test_a_plans_trace_read_on_several_threads_at_once_is_its_trace():
    """The scopes a plan builds when its trace is first read are built
    once, whichever of several threads reading it gets there first."""
    n = 2000  # a window-3 chain, every other variable observed mid-order
    scopes = [tuple(range(max(0, i - 2), i + 1)) for i in range(n)]
    order = Ordering(tuple(range(n)))

    def planned():
        return plan(scopes, [2] * n, order, range(0, n, 2), dict.fromkeys(range(n), "max"))
    expected = planned().trace
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            shared, seen, ready = planned(), [], threading.Barrier(6)

            def read():
                ready.wait(timeout=30)
                seen.append(shared.trace)
            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert seen == [expected] * 6
    finally:
        sys.setswitchinterval(switch)


def test_a_batched_plan_with_fixed_evidence_is_the_step_by_step_sweep_bit_for_bit():
    """One cond-mpe plan with fixed evidence variables and a varying cutset,
    both anywhere in the ordering: each row of its batched sweep has the
    scalar, the choice tables and the decode of the step-by-step sweep
    with the row's cutset values added to the evidence, bit for bit."""
    kinds = Counter()
    for model, evidence, cut, order in _mid_order_cases(random.Random(27202), 120):
        tables = model.factor_list()
        ops = dict.fromkeys(order, "max")
        planned = plan([f.scope for f in tables], model.cards, order, evidence.assignments,
                       ops, varying=cut)
        rows = list(itertools.product(*(range(model.cards[v]) for v in cut)))
        values = {**evidence.assignments,
                  **{v: np.array([row[j] for row in rows]) for j, v in enumerate(cut)}}
        batch = execute(planned, [f.values for f in tables], values)
        for r, row in enumerate(rows):
            pinned = Evidence({**evidence.assignments, **dict(zip(cut, row))})
            schedule = _step_by_step(tables, (), order, pinned, ops)
            picked = batch.row(r)
            assert picked.scalar.hex() == schedule.scalar.hex()
            assert picked.arg_tables.keys() == schedule.arg_tables.keys()
            for var, (scope, choices) in schedule.arg_tables.items():
                other_scope, other = picked.arg_tables[var]
                assert scope == other_scope
                assert choices.dtype == other.dtype and choices.tobytes() == other.tobytes()
            assert forward_decode(picked, range(model.n)) == \
                forward_decode(schedule, range(model.n))
            kinds["rows"] += 1
            kinds["zero mass"] += schedule.scalar == 0.0
        first = min((order.index_of(v) for v in evidence.assignments), default=model.n)
        kinds["observed mid-order"] += any(v not in evidence for v in order.sequence[first:])
        kinds["with a cutset"] += bool(cut) and len(evidence) > 0
    assert kinds["rows"] >= 300 and kinds["zero mass"] > 0, kinds
    assert kinds["observed mid-order"] >= 40 and kinds["with a cutset"] >= 40, kinds


def _long_chain(gen, n=400, seed=3232):
    """perfbench's seeded binary window-6 network of ``n`` variables, the
    shape of the long-chain workload, as factors, with half of its variables
    observed (never variable 0)."""
    rng = np.random.default_rng(seed)
    net = gen.window_network(rng, n, 2, 6)
    return (parse_network(gen.network_text(net)).factor_list(), list(net.cards),
            gen.observe(rng, net, fraction=0.5, exclude=[0]))


@pytest.mark.parametrize("renamed", [False, True], ids=["natural order", "shuffled order"])
def test_a_long_chain_plan_is_the_step_by_step_sweep_bit_for_bit(generators, renamed):
    """A 400-variable window chain with half its variables observed, so that
    hundreds of fixed buckets refile their tables into computing steps: the
    sum, max and belief sweeps of the plan, and each row of a max sweep
    batched over two cutset variables, are the step-by-step sweeps bit for
    bit (scalar, choice tables, decode and leftover tables), and the plan's
    trace is theirs.  The shuffled order eliminates along the same chain
    with the variables renamed at random, so ids no longer follow positions
    while the tables stay narrow."""
    tables, cards, observed = _long_chain(generators)
    n = len(cards)
    name = list(range(n))
    if renamed:
        random.Random(3233).shuffle(name)
        tables = [DiscreteFactor.from_table([name[v] for v in f.scope], f.cards, f.values)
                  for f in tables]
        cards = [cards[v] for v in sorted(range(n), key=name.__getitem__)]
        observed = {name[v]: x for v, x in observed.items()}
    order, evidence = Ordering(tuple(name)), Evidence(observed)
    sweeps = {"sum": dict.fromkeys(order, "sum"), "max": dict.fromkeys(order, "max"),
              "belief": dict.fromkeys(order.sequence[1:], "sum")}
    for ops in sweeps.values():
        _assert_same_sweep(_step_by_step(tables, (), order, evidence, ops),
                           *_planned(tables, (), cards, order, evidence, ops), n)

    ops = sweeps["max"]
    cut = [v for v in order.sequence[n // 2:] if v not in observed][:2]
    planned = plan([f.scope for f in tables], cards, order, observed, ops, varying=cut)
    rows = list(itertools.product(range(2), repeat=2))
    values = {**observed, **{v: np.array([row[j] for row in rows]) for j, v in enumerate(cut)}}
    batch = execute(planned, [f.values for f in tables], values)
    fixed = [s for s in planned.steps if s.op == "assign" and s.run is None]
    assert len(fixed) >= 150 and sum(map(len, (s.inputs for s in fixed))) >= 400
    for r, row in enumerate(rows):
        schedule = _step_by_step(tables, (), order, Evidence({**observed, **dict(zip(cut, row))}),
                                 ops)
        picked = batch.row(r)
        assert planned.trace == tuple(schedule.trace)
        assert picked.scalar.hex() == schedule.scalar.hex() and schedule.scalar > 0.0
        assert picked.arg_tables.keys() == schedule.arg_tables.keys()
        for var, (scope, choices) in schedule.arg_tables.items():
            assert picked.arg_tables[var][0] == scope
            assert picked.arg_tables[var][1].tobytes() == choices.tobytes()
        assert forward_decode(picked, range(n)) == forward_decode(schedule, range(n))


@pytest.mark.parametrize("build, cls, message", [
    (lambda: BucketSchedule(Ordering((0, 1)), Evidence({7: 0})), EvidenceError,
     "unknown variable 7"),
    (lambda: partition([DiscreteFactor((0,), (2,), np.ones(2)),
                        DiscreteFactor((0, 1), (3, 2), np.ones((3, 2)))], Ordering((0, 1))),
     ValueError, "cardinality conflict for variable 0"),
], ids=["evidence variable", "cardinality"])
def test_a_schedule_refuses_what_its_ordering_or_tables_contradict(build, cls, message):
    with pytest.raises(Exception) as info:
        build()
    assert (type(info.value), str(info.value)) == (cls, message)


# -- the scratch memory of a sweep ---------------------------------------------------


def _reference_bucket(op, var, kept, utilities, cards, batched, arrays):
    """The sum or max rule as it was before the scratch, allocating per
    operation: the marginal and choice table of the probability product,
    and the utilities' sum weighted by it, summed out and divided by the
    marginal where it is not zero."""
    k = len(kept) - utilities
    over = tuple(sorted({v for s in kept[:k] for v in s}))
    scope = tuple(v for v in over if v != var)
    shapes = [factor._aligned(s, over, cards) for s in kept[:k]]
    if any(batched):
        shapes = [(-1 if b else 1, *shape) for b, shape in zip(batched, shapes)]
    axis = over.index(var) + any(batched)
    product = reference_fold(arrays[:k], shapes, np.multiply)
    if op == "max":
        marginal, choices = reference_fold_max(product, axis)
    else:
        marginal, choices = reference_fold_sum(product, axis), None
    if not utilities:
        return [marginal], choices
    joint = tuple(sorted({v for s in kept for v in s}))
    rest = tuple(v for v in joint if v != var)
    total = reference_fold(arrays[k:], [factor._aligned(s, joint, cards) for s in kept[k:]],
                            np.add)
    numer = reference_fold_sum(product.reshape(factor._aligned(over, joint, cards)) * total,
                                joint.index(var))
    d = marginal.reshape(factor._aligned(scope, rest, cards))
    return [marginal, np.divide(numer, d, out=np.zeros_like(numer), where=d != 0)], choices


def _random_bucket(rng, wide):
    """A bucket of variable 0: cards of 2 to 4, 1 to 3 probability tables
    and 0 to 3 utility tables, each over 0 and some of variables 1-11.  The
    first table is over the whole product's scope, which in a wide bucket
    has at least ``factor.SCRATCH_CELLS`` cells.
    Values are uniform draws, or from three values (ties and zero maxima),
    and some buckets hold contexts where every probability of variable 0
    is zero under negative utilities (a zero-mass context)."""
    while True:
        cards = {v: int(rng.integers(2, 5)) for v in range(12)}
        over = [0, *sorted(rng.choice(np.arange(1, 12), size=int(rng.integers(3, 12)),
                                      replace=False).tolist())]
        cells = math.prod(cards[v] for v in over)
        if (cells >= factor.SCRATCH_CELLS) == wide and cells <= 1 << 18:
            break
    k, utilities = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    kept = [tuple(over)]
    for _ in range(k - 1 + utilities):
        others = [v for v in range(1, 12) if rng.random() < 0.4]
        kept.append(tuple(sorted({0, *others} & set(over) if rng.random() < 0.6
                                 else {0, *others})))
    kind = rng.integers(3)
    arrays = []
    for i, s in enumerate(kept):
        shape = tuple(cards[v] for v in s)
        if kind == 1:
            a = rng.choice([0.0, 0.5, 1.0], size=shape)
        else:
            a = rng.uniform(size=shape)
        if i >= k:
            a = -1.0 - 10 * a if kind == 2 else 20 * a - 10
        elif kind == 2 and i == 0:  # zero mass where a context is dead
            dead = rng.random(shape[1:]) < 0.3
            a = np.where(dead, 0.0, a)
        arrays.append(a)
    return kept, k, utilities, cards, arrays


def _assert_same_outputs(got, expected):
    (outs, choices), (ref_outs, ref_choices) = got, expected
    assert len(outs) == len(ref_outs)
    for out, ref in zip(outs, ref_outs):
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()  # bitwise, signed zeros included
    assert (choices is None) == (ref_choices is None)
    if choices is not None:
        assert choices.dtype == ref_choices.dtype and choices.tobytes() == ref_choices.tobytes()


def _recorded_buffers(monkeypatch):
    """Every buffer a :class:`Scratch` holds, recorded as views of it are
    taken; the list keeps them alive to be checked."""
    buffers, take = [], Scratch.take

    def recording(self, key, shape, dtype=np.float64):
        view = take(self, key, shape, dtype)
        if key in self and not any(self[key] is b for b in buffers):
            buffers.append(self[key])
        return view
    monkeypatch.setattr(Scratch, "take", recording)
    return buffers


def test_the_bucket_kernels_equal_their_allocate_per_op_forms_byte_for_byte():
    """Sum and max rules, with and without utilities, on random wide
    buckets and on narrow ones run as wide (the threshold lowered to 0):
    results and choice tables are byte for byte those of the rules that
    allocate per operation, though one scratch, left holding the last
    bucket's numbers, serves every bucket.  Nothing returned shares memory
    with the scratch."""
    rng = np.random.default_rng(3030)
    scratch, seen = Scratch(), Counter()
    for case in range(160):
        wide = case % 2 == 0
        kept, k, utilities, cards, arrays = _random_bucket(rng, wide)
        op = "max" if case % 4 < 2 else "sum"
        flags = (False,) * len(kept)
        with pytest.MonkeyPatch.context() as patch:
            if not wide:
                patch.setattr(factor, "SCRATCH_CELLS", 0)
            _, run = buckets._RULES[op](0, [0] * len(kept), kept, utilities, cards, flags)
            got = run(arrays, Context({}, scratch))
        _assert_same_outputs(got, _reference_bucket(op, 0, kept, utilities, cards, flags,
                                                    arrays))
        outs, choices = got
        for a in [*outs, *([choices] if choices is not None else [])]:
            assert not any(np.shares_memory(a, b) for b in scratch.values())
        marginal = outs[0]
        seen[f"{op} {'wide' if wide else 'narrow'}"] += 1
        seen["utilities"] += utilities > 0
        seen["ties"] += op == "max" and len(np.unique(arrays[0])) <= 3
        seen["zero-mass context, negative utilities"] += bool(
            utilities and (marginal == 0).any() and all((a < 0).all() for a in arrays[k:]))
    assert scratch.keys() >= {"product", "better", np.uint8}
    assert min(seen.values()) >= 10, seen


def test_a_batched_max_bucket_equals_its_allocate_per_op_form_byte_for_byte():
    """A max rule with some inputs batched over 2-8 rows, each row's cells
    at most ``factor.SCRATCH_CELLS`` but the batch's product beyond it."""
    rng = np.random.default_rng(3031)
    scratch, seen = Scratch(), Counter()
    for _ in range(40):
        cards = {v: int(rng.integers(2, 4)) for v in range(10)}
        over = [0, *range(1, 10)]
        kept = [tuple(sorted({0, *[v for v in over if rng.random() < 0.7]})) for _ in range(3)]
        kept[0] = tuple(over)
        batched = tuple(bool(b) for b in rng.random(3) < 0.6)
        if not any(batched):
            batched = (True, *batched[1:])
        rows = int(rng.integers(2, 9))
        arrays = [rng.choice([0.0, 0.25, 1.0], size=(rows,) * b + tuple(cards[v] for v in s))
                  for s, b in zip(kept, batched)]
        _, run = buckets._RULES["max"](0, [0] * 3, kept, 0, cards, batched)
        got = run(arrays, Context({}, scratch))
        _assert_same_outputs(got, _reference_bucket("max", 0, kept, 0, cards, batched, arrays))
        seen["wide batch"] += rows * math.prod(cards.values()) >= factor.SCRATCH_CELLS
    assert seen["wide batch"] >= 10, seen


def _wide_window(rng, n=14, window=9, utilities=4):
    """Ternary tables over windows of ``window + 1`` consecutive variables
    (3^10 = 59049 cells, and 3^9 with one of them observed, both past
    ``factor.SCRATCH_CELLS``), the first variable's
    table positive and the others with zeros; the last ``utilities`` tables
    are utilities, of either sign, over windows too."""
    scopes = [tuple(range(max(0, i - window), i + 1)) for i in range(n)]
    scopes += [tuple(range(i - window, i + 1)) for i in rng.choice(
        np.arange(window, n), size=utilities).tolist()]
    arrays = [rng.choice([0.0, 0.5, 1.0, 2.0], size=(3,) * len(s)) for s in scopes]
    arrays[0] = rng.uniform(0.5, 1.0, size=(3,))
    for a in arrays[n:]:
        a *= 10.0 * np.sign(rng.uniform(-1.0, 1.0))
    return scopes, [3] * n, arrays, Ordering(tuple(range(n)))


def _watched(planned, seen):
    """``planned`` with each run wrapped: ``seen`` gets what each returns."""
    def wrapped(step):
        def run(arrays, context):
            outs, choices = step.run(arrays, context)
            seen.extend([*outs, *([choices] if choices is not None else [])])
            return outs, choices
        return step._replace(run=run) if step.run else step
    return planned._replace(steps=tuple(map(wrapped, planned.steps)))


@pytest.mark.parametrize("ops, observed", [
    ("sum", {}), ("max", {}), ("mixed", {5: 1}), ("belief", {6: 2})])
def test_no_array_a_sweep_keeps_shares_memory_with_its_scratch(monkeypatch, ops, observed):
    """Every table a step files or folds, every choice table, the tables
    left unprocessed and a BucketSchedule's slots and snapshot: none shares
    memory with any buffer a scratch held during the sweep."""
    scopes, cards, arrays, order = _wide_window(np.random.default_rng(len(observed) + len(ops)))
    n = len(cards)
    rules = {"sum": dict.fromkeys(range(n), "sum"), "max": dict.fromkeys(range(n), "max"),
             "mixed": {v: "max" if v < 4 else "sum" for v in range(n)},
             "belief": {v: "sum" for v in range(1, n)}}[ops]
    buffers = _recorded_buffers(monkeypatch)
    planned = plan(scopes, cards, order, observed, rules, utilities=len(scopes) - n)
    kept = []
    sweep = execute(_watched(planned, kept), arrays, observed)
    kept += [c for _, c in sweep.arg_tables.values()]
    kept += [sweep.slots[i] for slots in planned.left.values() for i in slots]
    assert any(b.size >= factor.SCRATCH_CELLS for b in buffers)
    assert len(kept) > n
    for a in kept:
        assert not any(np.shares_memory(a, b) for b in buffers)

    tables = [DiscreteFactor(s, (3,) * len(s), a) for s, a in zip(scopes, arrays)]
    schedule = partition(tables[:n], order, Evidence(observed), tables[n:])
    for var in reversed(order.sequence):
        if var in rules:
            schedule.process(var, rules[var])
            held = [a for a in schedule.slots if a is not None]
            held += [c for _, c in schedule.arg_tables.values()]
            held += [f.values for b in schedule.buckets.values()
                     for f in (*b.factors, *b.utilities)]
            for a in held:
                assert not any(np.shares_memory(a, b) for b in buffers)
    assert schedule.scalar.hex() == sweep.scalar.hex()
    assert schedule.util_scalar.hex() == sweep.util_scalar.hex()


def test_threads_executing_one_plan_at_once_get_the_serial_results_bit_for_bit():
    """Each execute call owns its scratch, so three threads sweeping one
    wide plan at once, on two or more cores while numpy's loops release the
    interpreter lock, each get the scalars, choice tables and leftover
    tables of a serial run."""
    scopes, cards, arrays, order = _wide_window(np.random.default_rng(31))
    n = len(cards)
    sweeps = [(dict.fromkeys(range(n), "max"), {}), ({v: "sum" for v in range(1, n)}, {7: 1})]

    def outcome(planned, values):
        sweep = execute(planned, arrays, values)
        return (sweep.scalar.hex(), sweep.util_scalar.hex(),
                {v: (s, c.tobytes()) for v, (s, c) in sweep.arg_tables.items()},
                [sweep.slots[i].tobytes() for slots in planned.left.values() for i in slots])
    for ops, values in sweeps:
        planned = plan(scopes, cards, order, values, ops, utilities=len(scopes) - n)
        expected = outcome(planned, values)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen, ready = [], threading.Barrier(3)

            def sweep():
                ready.wait(timeout=30)
                for _ in range(6):
                    seen.append(outcome(planned, values))
            threads = [threading.Thread(target=sweep) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert seen == [expected] * 18
