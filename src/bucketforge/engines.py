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

from .buckets import TraceEntry, forward_decode, partition
from .errors import EvidenceError, OrderingConstraintError, ZeroMassError
# ``add`` is no longer called here, but perfbench/tracing.py wraps
# ``engines.add`` by name and fails to install without it.
from .factor import DiscreteFactor, add, multiply  # noqa: F401
from .graph import (Ordering, augmented_graph, constrained_order, moral_graph,
                    observed_suffix)
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


def _pinned_ends(model, evidence: Evidence | None, ordering: Ordering | None,
                 graph, prefix: Sequence[int] = (), misplaced: str = "",
                 pinned: Sequence[int] = ()) -> tuple[Evidence, Ordering]:
    """Check the evidence and the ordering a query runs on, defaulting both.

    The default ordering is min-fill on ``graph(model)`` with the pinned
    ends: ``prefix`` first, and the observed and ``pinned`` variables
    outside it last, by id.  A given ordering must list every variable once
    and start with the ``prefix`` variables, else ``misplaced`` is raised.
    """
    evidence = evidence if evidence is not None else Evidence.empty()
    _check_evidence(model, evidence)
    if ordering is None:
        observed = sorted(set(pinned) | {v for v, _ in evidence.items()})
        ordering = constrained_order(graph(model), "min_fill", prefix=list(prefix),
                                     suffix=observed_suffix(observed, prefix))
    _check_ordering(model, ordering)
    if set(ordering.sequence[:len(prefix)]) != set(prefix):
        raise OrderingConstraintError(misplaced)
    return evidence, ordering


def solve_belief(net: BeliefNetwork, query: int, evidence: Evidence | None = None,
                 ordering: Ordering | None = None) -> QueryResult:
    """Posterior over ``query`` by a sum sweep; the query bucket is read, not
    eliminated.  The pre-normalization mass is the evidence probability."""
    if not 0 <= query < net.n:
        raise EvidenceError(f"unknown query variable {query}")
    evidence, ordering = _pinned_ends(
        net, evidence, ordering, moral_graph, prefix=[query],
        misplaced=f"query variable {query} must sit at position 1 of the ordering")

    schedule = partition(net.factor_list(), ordering, evidence)
    for var in reversed(ordering.sequence[1:]):
        schedule.process(var, "sum")

    card = net.cards[query]
    bucket = schedule.buckets[query]
    if bucket.observed_value is not None:
        schedule.process(query, "sum")  # scatters into the scalar
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
    evidence, ordering = _pinned_ends(net, evidence, ordering, moral_graph)

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
    evidence, ordering = _pinned_ends(
        net, evidence, ordering, moral_graph, prefix=hyp,
        misplaced="hypothesis variables must occupy the first ordering positions")
    hset = set(hyp)

    schedule = partition(net.factor_list(), ordering, evidence)
    for var in reversed(ordering.sequence):
        schedule.process(var, "max" if var in hset else "sum")
    value = schedule.scalar
    assignment = forward_decode(schedule, hyp)
    overlap = [v for v in sorted(hset) if v in evidence]
    note = f"evidence overrides hypothesis variables {overlap}" if overlap else None
    return QueryResult(kind="map", value=value, assignment=assignment, note=note,
                       trace=tuple(schedule.trace),
                       max_table_scope=schedule.max_generated_scope)


def solve_meu(diagram: InfluenceDiagram, evidence: Evidence | None = None,
              ordering: Ordering | None = None) -> QueryResult:
    """Decision assignment maximizing conditional expected utility.

    Chance buckets are summed out; each emits a probability marginal and a
    probability-weighted utility average.  Decision buckets, which come
    first in the ordering and are processed last, maximize the accumulated
    utility components.
    """
    decisions = diagram.decisions
    evidence, ordering = _pinned_ends(
        diagram, evidence, ordering, augmented_graph, prefix=decisions,
        misplaced="decision variables must occupy the first ordering positions")

    schedule = partition(diagram.chance_factors(), ordering, evidence,
                         utilities=diagram.utilities)
    dset = set(decisions)
    for var in reversed(ordering.sequence):
        schedule.process(var, "decide" if var in dset else "sum")
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
    cut = sorted(set(int(v) for v in cutset))
    for v in cut:
        if not 0 <= v < net.n:
            raise ValueError(f"unknown cutset variable {v}")
    evidence, ordering = _pinned_ends(net, evidence, ordering, moral_graph,
                                      pinned=cut)

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
