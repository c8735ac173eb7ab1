"""Query engines: belief update, most-probable explanation, maximum a
posteriori hypothesis, expected-utility maximization, and the
conditioning/elimination hybrid.

All engines share the bucket sweep from :mod:`bucketforge.buckets`; they
differ only in which operator each bucket applies and in what the forward
pass reads back.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .buckets import BucketSchedule, TraceEntry, forward_decode, partition
from .errors import EvidenceError, OrderingConstraintError, ZeroMassError
from .factor import ArgTable, DiscreteFactor, add, fold_max, multiply
from .graph import Ordering, augmented_graph, constrained_order, moral_graph
from .model import BeliefNetwork, Evidence, InfluenceDiagram
from .oracle import CELL_LIMIT


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One conditioning iteration: the pinned values and what they scored."""

    index: int
    pinned: tuple[tuple[int, int], ...]
    value: float
    max_table_scope: int


@dataclass(frozen=True)
class QueryResult:
    kind: str
    value: float | None = None
    belief: tuple[float, ...] | None = None
    assignment: dict[int, int] | None = None
    evidence_mass: float | None = None
    note: str | None = None
    trace: tuple[TraceEntry, ...] | None = None
    max_table_scope: int | None = None
    iterations: tuple[IterationRecord, ...] | None = None


def _check_evidence(model, evidence: Evidence) -> None:
    for var, val in evidence.items():
        if not 0 <= var < model.n:
            raise EvidenceError(f"unknown variable {var}")
        if not 0 <= val < model.cards[var]:
            raise EvidenceError(f"value {val} out of range for variable {var}")


def _check_ordering(model, ordering: Ordering) -> None:
    if sorted(ordering.sequence) != list(range(model.n)):
        raise OrderingConstraintError(
            f"ordering must list each of the model's {model.n} variables "
            "exactly once")


def solve_belief(net: BeliefNetwork, query: int, evidence: Evidence | None = None,
                 ordering: Ordering | None = None) -> QueryResult:
    """Posterior over ``query`` by a sum sweep; the query bucket is read, not
    eliminated.  The pre-normalization mass is the evidence probability."""
    evidence = evidence if evidence is not None else Evidence.empty()
    _check_evidence(net, evidence)
    if not 0 <= query < net.n:
        raise EvidenceError(f"unknown query variable {query}")
    if ordering is None:
        suffix = [v for v, _ in evidence.items() if v != query]
        ordering = constrained_order(moral_graph(net), "min_fill",
                                     prefix=[query], suffix=suffix)
    _check_ordering(net, ordering)
    if ordering.sequence[0] != query:
        raise OrderingConstraintError(
            f"query variable {query} must sit at position 1 of the ordering")

    schedule = partition(net.factor_list(), ordering, evidence)
    for var in reversed(ordering.sequence[1:]):
        schedule.process(var, "sum")

    card = net.cards[query]
    bucket = schedule.buckets[query]
    if bucket.observed_value is not None:
        schedule.scatter(query)
        mass = schedule.scalar
        if mass == 0.0:
            raise ZeroMassError("evidence has probability zero")
        belief = tuple(1.0 if i == bucket.observed_value else 0.0 for i in range(card))
    else:
        pieces = list(bucket.factors) or [DiscreteFactor((query,), (card,), np.ones(card))]
        pieces.append(DiscreteFactor.scalar(schedule.scalar))
        unnormalized = multiply(pieces)
        normalized, mass = unnormalized.normalized()  # raises on zero mass
        belief = tuple(float(x) for x in normalized.values)
    return QueryResult(kind="bel", belief=belief, evidence_mass=mass,
                       trace=tuple(schedule.trace),
                       max_table_scope=schedule.max_generated_scope)


def solve_mpe(net: BeliefNetwork, evidence: Evidence | None = None,
              ordering: Ordering | None = None) -> QueryResult:
    """Most probable complete assignment; value is the maximal joint mass
    consistent with the evidence."""
    evidence = evidence if evidence is not None else Evidence.empty()
    _check_evidence(net, evidence)
    if ordering is None:
        ordering = constrained_order(moral_graph(net), "min_fill",
                                     suffix=[v for v, _ in evidence.items()])
    _check_ordering(net, ordering)

    schedule = partition(net.factor_list(), ordering, evidence)
    for var in reversed(ordering.sequence):
        schedule.process(var, "max")
    value = schedule.scalar
    assignment = forward_decode(schedule, range(net.n))
    note = None
    if value == 0.0 and len(evidence):
        note = "no positive-probability completion of the evidence"
    return QueryResult(kind="mpe", value=value, assignment=assignment, note=note,
                       trace=tuple(schedule.trace),
                       max_table_scope=schedule.max_generated_scope)


def solve_map(net: BeliefNetwork, hypothesis: Sequence[int],
              evidence: Evidence | None = None,
              ordering: Ordering | None = None) -> QueryResult:
    """Best assignment to the hypothesis variables after summing out the rest.

    The hypothesis set must occupy the first ordering positions, so every
    maximization happens after every summation.
    """
    hyp = [int(v) for v in hypothesis]
    if not hyp:
        raise ValueError("hypothesis set is empty")
    if len(set(hyp)) != len(hyp):
        raise ValueError("hypothesis lists a variable twice")
    for v in hyp:
        if not 0 <= v < net.n:
            raise ValueError(f"unknown hypothesis variable {v}")
    evidence = evidence if evidence is not None else Evidence.empty()
    _check_evidence(net, evidence)
    if ordering is None:
        suffix = [v for v, _ in evidence.items() if v not in set(hyp)]
        ordering = constrained_order(moral_graph(net), "min_fill",
                                     prefix=hyp, suffix=suffix)
    _check_ordering(net, ordering)
    hset = set(hyp)
    if set(ordering.sequence[:len(hyp)]) != hset:
        raise OrderingConstraintError(
            "hypothesis variables must occupy the first ordering positions")

    schedule = partition(net.factor_list(), ordering, evidence)
    for var in reversed(ordering.sequence):
        schedule.process(var, "max" if var in hset else "sum")
    value = schedule.scalar
    assignment = forward_decode(schedule, hyp)
    overlap = sorted(hset & set(schedule.evidence))
    note = f"evidence overrides hypothesis variables {overlap}" if overlap else None
    return QueryResult(kind="map", value=value, assignment=assignment, note=note,
                       trace=tuple(schedule.trace),
                       max_table_scope=schedule.max_generated_scope)


def _divide_where_positive(numer: DiscreteFactor, denom: DiscreteFactor) -> DiscreteFactor:
    # Cells the probability part rules out contribute no utility.
    d = denom.aligned_values(numer.scope)
    d = np.broadcast_to(d, numer.values.shape)
    out = np.divide(numer.values, d, out=np.zeros_like(numer.values), where=d != 0)
    return DiscreteFactor._trusted(numer.scope, numer.cards, out)


def _average_out_chance(schedule: BucketSchedule, var: int) -> None:
    """Chance-bucket rule: emit the marginal of the probability product and
    the probability-weighted average of the bucket's utility sum."""
    bucket = schedule.buckets[var]
    probs, utils = bucket.factors, bucket.utilities
    if not probs and not utils:
        schedule.record(TraceEntry(var, "skip", (), (), 0))
        return
    if not probs:  # unreached for well-formed diagrams
        card = utils[0].card_of(var)
        probs = [DiscreteFactor((var,), (card,), np.ones(card))]
    combined = multiply(probs)
    marginal, _ = combined.eliminate(var, "sum")
    ins = tuple(f.scope for f in bucket.factors) + tuple(u.scope for u in utils)
    outs = [marginal.scope]
    cells = marginal.values.size
    if utils:
        weighted = multiply([combined, add(utils)])
        numer, _ = weighted.eliminate(var, "sum")
        averaged = _divide_where_positive(numer, marginal)
        bucket.generated.append(averaged)
        schedule.place(averaged, utility=True)
        outs.append(averaged.scope)
        cells += averaged.values.size
    bucket.generated.append(marginal)
    schedule.place(marginal)
    schedule.record(TraceEntry(var, "sum", ins, tuple(outs), cells))


def _maximize_decision(schedule: BucketSchedule, var: int) -> None:
    """Decision-bucket rule: maximize the bucket's additive utility sum over
    the decision values its probability factors leave possible.

    Probability magnitudes cancel out of the conditional expected utility,
    but their zeros mark decision values under which the evidence cannot
    occur; those cells are excluded from the maximization.  Contexts with no
    supported value are passed down dead (support 0, utility 0) so later
    buckets exclude them too.
    """
    bucket = schedule.buckets[var]
    if not bucket.factors and not bucket.utilities:
        schedule.record(TraceEntry(var, "skip", (), (), 0))
        return
    cards_map: dict[int, int] = {}
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
    theta_out = DiscreteFactor._trusted(out_scope, out_cards, best)
    support_out = DiscreteFactor._trusted(out_scope, out_cards,
                                          support.astype(np.float64))
    bucket.arg_table = ArgTable._trusted(var, cards_map[var], out_scope, out_cards,
                                         choices)
    bucket.generated.append(theta_out)
    schedule.place(theta_out, utility=True)
    bucket.generated.append(support_out)
    schedule.place(support_out)
    ins = (tuple(f.scope for f in bucket.factors)
           + tuple(u.scope for u in bucket.utilities))
    schedule.record(TraceEntry(var, "max", ins,
                               (theta_out.scope, support_out.scope),
                               theta_out.values.size + support_out.values.size))


def solve_meu(diagram: InfluenceDiagram, evidence: Evidence | None = None,
              ordering: Ordering | None = None) -> QueryResult:
    """Decision assignment maximizing conditional expected utility.

    Chance buckets are summed out; each emits a probability marginal and a
    probability-weighted utility average.  Decision buckets, which come
    first in the ordering and are processed last, maximize the accumulated
    utility components.
    """
    evidence = evidence if evidence is not None else Evidence.empty()
    _check_evidence(diagram, evidence)
    decisions = diagram.decisions
    if ordering is None:
        dset = set(decisions)
        suffix = [v for v, _ in evidence.items() if v not in dset]
        ordering = constrained_order(augmented_graph(diagram), "min_fill",
                                     prefix=list(decisions), suffix=suffix)
    _check_ordering(diagram, ordering)
    k = len(decisions)
    if set(ordering.sequence[:k]) != set(decisions):
        raise OrderingConstraintError(
            "decision variables must occupy the first ordering positions")

    schedule = partition(diagram.chance_factors(), ordering, evidence,
                         utilities=diagram.utilities)
    dset = set(decisions)
    for var in reversed(ordering.sequence):
        bucket = schedule.buckets[var]
        if bucket.observed_value is not None:
            schedule.scatter(var)
        elif var in dset:
            _maximize_decision(schedule, var)
        else:
            _average_out_chance(schedule, var)
    if schedule.scalar == 0.0:
        raise ZeroMassError(
            "the evidence has zero probability under every decision")
    value = schedule.util_scalar
    assignment = forward_decode(schedule, decisions)
    return QueryResult(kind="meu", value=value, assignment=assignment,
                       trace=tuple(schedule.trace),
                       max_table_scope=schedule.max_generated_scope)


def solve_mpe_conditioned(net: BeliefNetwork, cutset: Sequence[int],
                          evidence: Evidence | None = None,
                          ordering: Ordering | None = None,
                          parallel: int = 1) -> QueryResult:
    """Most probable explanation by enumerating cutset assignments.

    Each cutset assignment is added to the evidence and solved by the max
    sweep; assignments are enumerated lexicographically over the cutset
    sorted by variable id, and the first maximum wins.  ``parallel`` runs
    iterations concurrently; the reduction key is unchanged, so output is
    identical to the serial path.  Combinations are generated lazily and
    each iteration's result is dropped once reduced; more than
    ``oracle.CELL_LIMIT`` of them are refused before the first iteration.
    """
    evidence = evidence if evidence is not None else Evidence.empty()
    _check_evidence(net, evidence)
    cut = sorted(set(int(v) for v in cutset))
    for v in cut:
        if not 0 <= v < net.n:
            raise ValueError(f"unknown cutset variable {v}")
    if ordering is None:
        suffix = sorted(set(cut) | {v for v, _ in evidence.items()})
        ordering = constrained_order(moral_graph(net), "min_fill", suffix=suffix)
    _check_ordering(net, ordering)

    ranges = [[evidence.get(v)] if v in evidence else range(net.cards[v]) for v in cut]
    count = math.prod(len(r) for r in ranges)
    if count > CELL_LIMIT:
        raise ValueError(f"cutset has {count} value combinations (cap {CELL_LIMIT})")

    def run_one(combo: tuple[int, ...]) -> QueryResult:
        pinned = dict(evidence.assignments)
        pinned.update(zip(cut, combo))
        return solve_mpe(net, Evidence(pinned), ordering)

    best = None
    records = []
    results = _map_in_order(run_one, product(*ranges), parallel)
    for i, (combo, res) in enumerate(zip(product(*ranges), results)):
        records.append(IterationRecord(i, tuple(zip(cut, combo)), res.value,
                                       res.max_table_scope))
        if best is None or res.value > best.value:
            best = res
    note = None
    if best.value == 0.0 and len(evidence):
        note = "no positive-probability completion of the evidence"
    return QueryResult(kind="cond-mpe", value=best.value, assignment=best.assignment,
                       note=note, trace=best.trace,
                       max_table_scope=max(r.max_table_scope for r in records),
                       iterations=tuple(records))


def _map_in_order(fn, items: Iterator, workers: int) -> Iterator:
    """``map(fn, items)`` on ``workers`` threads.  At most two items per
    worker are queued ahead of the consumer, so a long stream is never
    submitted whole and each result can be dropped once reduced."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
