"""Query engines: belief update, most-probable explanation, maximum a
posteriori hypothesis, expected-utility maximization, and the
conditioning/elimination hybrid.

All engines share the bucket sweep from :mod:`bucketforge.buckets`; they
differ only in which operator each bucket applies and in what the forward
pass reads back.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

# ``partition``, ``add`` and ``multiply`` are not called here, but
# perfbench/tracing.py wraps them by name on this module and fails to
# install without them.
from .buckets import (Plan, Sweep, TraceEntry, execute, forward_decode,  # noqa: F401
                      partition, plan)
from .errors import EvidenceError, OrderingConstraintError, ZeroMassError
from .factor import _finite, add, multiply  # noqa: F401
from .graph import (Ordering, augmented_graph, constrained_order, moral_graph,
                    observed_suffix)
from .model import BeliefNetwork, Evidence, InfluenceDiagram, Table
from .oracle import CELL_LIMIT


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One conditioning iteration: the pinned values and what they scored."""

    index: int
    pinned: tuple[tuple[int, int], ...]
    value: float
    max_table_scope: int


_RECORD_BLOCK = 1 << 14  # records whose combinations Iterations unravels at once


class Iterations(Sequence):
    """The records of a conditioning run, each built from its combination's
    value when read: combination ``i`` pins the cutset to the values at
    ``np.unravel_index(i, shape)`` in its value ranges."""

    def __init__(self, cut: list[int], ranges: list, values: np.ndarray, scope: int):
        self._cut, self._ranges, self._values, self._scope = cut, ranges, values, scope

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]
        at = np.unravel_index(i, [len(r) for r in self._ranges])
        pinned = tuple((v, int(r[j])) for v, r, j in zip(self._cut, self._ranges, at))
        return IterationRecord(i, pinned, float(self._values[i]), self._scope)

    def __iter__(self):
        """Every record in order, the combinations of a block of records
        unravelled in one call."""
        shape = [len(r) for r in self._ranges]
        ranges = [np.asarray(r) for r in self._ranges]
        for start in range(0, len(self), _RECORD_BLOCK):
            stop = min(start + _RECORD_BLOCK, len(self))
            rows = repeat(())
            if shape:  # an empty cutset's shape takes no array of indices
                at = np.unravel_index(np.arange(start, stop), shape)
                rows = zip(*(r[j].tolist() for r, j in zip(ranges, at)))
            for i, row, value in zip(range(start, stop), rows, self._values[start:stop].tolist()):
                yield IterationRecord(i, tuple(zip(self._cut, row)), value, self._scope)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented


@dataclass(frozen=True)
class QueryResult:
    kind: str
    value: float | None = None
    belief: tuple[float, ...] | None = None
    assignment: dict[int, int] | None = None
    evidence_mass: float | None = None
    note: str | None = None
    max_table_scope: int | None = None
    iterations: Sequence[IterationRecord] | None = None
    plan: Plan | None = field(default=None, repr=False, compare=False)

    @property
    def trace(self) -> tuple[TraceEntry, ...] | None:
        """The sweep's trace entries, built from its plan when read."""
        return None if self.plan is None else self.plan.trace


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


def _plan(model, tables, observed, ordering: Ordering, ops,
          utilities=(), varying=()) -> tuple[Plan, list[np.ndarray]]:
    """The plan of the sweep of ``tables`` and ``utilities`` along
    ``ordering`` with the ``observed`` and ``varying`` buckets scattered,
    and the arrays it runs on.  A table is anything with a sorted ``scope``
    and its ``values``: a model's :class:`Table` or a factor."""
    tables = [*tables, *utilities]
    planned = plan([f.scope for f in tables], model.cards, ordering, observed,
                   ops, len(utilities), varying)
    return planned, [f.values for f in tables]


def _sweep(model, tables, evidence: Evidence, ordering: Ordering, ops,
           utilities=()) -> tuple[Plan, Sweep]:
    """Plan the sweep under ``evidence`` and execute it once."""
    planned, arrays = _plan(model, tables, evidence.assignments, ordering, ops,
                            utilities)
    return planned, execute(planned, arrays, evidence.assignments)


def _ancestral_tables(net: BeliefNetwork, targets: Iterable[int],
                      evidence: Evidence) -> list[Table]:
    """The tables of ``targets``, of the observed variables and of their
    ancestors, in variable order; a variable counts as its own ancestor.

    Every other variable is barren, and so are its descendants: summed
    out, their tables give the constant 1.  Their tables are dropped, and
    their buckets, left empty, are skipped.  This holds for sum buckets
    only; in a max sweep a barren bucket still chooses a value.
    """
    tables = net.table_list()
    keep = [False] * net.n
    stack = [*targets, *(v for v, _ in evidence.items())]
    while stack:
        v = stack.pop()
        if not keep[v]:
            keep[v] = True
            stack.extend(net.parents[v])
    return [f for f, k in zip(tables, keep) if k]


def _result(kind: str, planned: Plan, **fields) -> QueryResult:
    return QueryResult(kind=kind, plan=planned,
                       max_table_scope=planned.max_generated_scope, **fields)


def solve_belief(net: BeliefNetwork, query: int, evidence: Evidence | None = None,
                 ordering: Ordering | None = None) -> QueryResult:
    """Posterior over ``query`` by a sum sweep; the query bucket is read, not
    eliminated.  The pre-normalization mass is the evidence probability."""
    if not 0 <= query < net.n:
        raise EvidenceError(f"unknown query variable {query}")
    evidence, ordering = _pinned_ends(
        net, evidence, ordering, moral_graph, prefix=[query],
        misplaced=f"query variable {query} must sit at position 1 of the ordering")

    # The query bucket is processed only when it is observed: it scatters
    # into the scalar.
    ops = dict.fromkeys(ordering.sequence[1:] if query not in evidence
                        else ordering.sequence, "sum")
    planned, sweep = _sweep(net, _ancestral_tables(net, [query], evidence),
                            evidence, ordering, ops)
    card = net.cards[query]
    if query in evidence:
        mass = sweep.scalar
        if mass == 0.0:
            raise ZeroMassError("evidence has probability zero")
        observed = evidence.get(query)
        belief = tuple(1.0 if i == observed else 0.0 for i in range(card))
    else:
        # The query bucket's leftover tables, left to right, then the scalar.
        tables = [sweep.slots[i] for i in planned.left.get(query, ())] or [np.ones(card)]
        unnormalized = _finite(math.prod(tables) * sweep.scalar)
        mass = float(unnormalized.sum())
        if mass == 0.0:
            raise ZeroMassError("table has zero total mass")
        belief = tuple(float(x) for x in unnormalized / mass)
    return _result("bel", planned, belief=belief, evidence_mass=mass)


def solve_mpe(net: BeliefNetwork, evidence: Evidence | None = None,
              ordering: Ordering | None = None) -> QueryResult:
    """Most probable complete assignment; value is the maximal joint mass
    consistent with the evidence.  This is the conditioned max sweep with an
    empty cutset, without its one iteration record."""
    return replace(_max_sweep(net, [], evidence, ordering), kind="mpe",
                   iterations=None)


def check_hypothesis(net: BeliefNetwork, hypothesis: Sequence[int]) -> list[int]:
    """The hypothesis ids as ints.  ValueError unless there is at least one
    and they are distinct variables of ``net``."""
    hyp = [int(v) for v in hypothesis]
    if not hyp:
        raise ValueError("hypothesis set is empty")
    if len(set(hyp)) != len(hyp):
        raise ValueError("hypothesis lists a variable twice")
    for v in hyp:
        if not 0 <= v < net.n:
            raise ValueError(f"unknown hypothesis variable {v}")
    return hyp


def solve_map(net: BeliefNetwork, hypothesis: Sequence[int],
              evidence: Evidence | None = None,
              ordering: Ordering | None = None) -> QueryResult:
    """Best assignment to the hypothesis variables after summing out the rest.

    The hypothesis set must occupy the first ordering positions, so every
    maximization happens after every summation.  Evidence of probability
    zero raises :class:`ZeroMassError`.
    """
    hyp = check_hypothesis(net, hypothesis)
    evidence, ordering = _pinned_ends(
        net, evidence, ordering, moral_graph, prefix=hyp,
        misplaced="hypothesis variables must occupy the first ordering positions")
    hset = set(hyp)

    planned, sweep = _sweep(net, _ancestral_tables(net, hyp, evidence), evidence,
                            ordering, {v: "max" if v in hset else "sum" for v in ordering})
    # Without evidence, a best value of 0 can only be underflow.
    if sweep.scalar == 0.0 and len(evidence):
        raise ZeroMassError("evidence has probability zero")
    overlap = [v for v in sorted(hset) if v in evidence]
    note = f"evidence overrides hypothesis variables {overlap}" if overlap else None
    return _result("map", planned, value=sweep.scalar, note=note,
                   assignment=forward_decode(sweep, hyp))


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

    dset = set(decisions)
    planned, sweep = _sweep(diagram, diagram.chance_tables(), evidence, ordering,
                            {v: "decide" if v in dset else "sum" for v in ordering},
                            utilities=diagram.utilities)
    if sweep.scalar == 0.0:
        raise ZeroMassError(
            "the evidence has zero probability under every decision")
    return _result("meu", planned, value=sweep.util_scalar,
                   assignment=forward_decode(sweep, decisions))


def solve_mpe_conditioned(net: BeliefNetwork, cutset: Sequence[int],
                          evidence: Evidence | None = None,
                          ordering: Ordering | None = None) -> QueryResult:
    """Most probable explanation by enumerating cutset assignments.

    Each cutset assignment is added to the evidence and solved by the max
    sweep; assignments are enumerated lexicographically over the cutset
    sorted by variable id, and the first maximum wins.  The sweep is planned
    once, with the cutset scattered like the evidence, and executed once
    per batch of assignments; only a new maximum is decoded.  Each batch's
    combinations are made from their indices, and more than
    ``oracle.CELL_LIMIT`` of them are refused before the first batch runs.
    Beyond the sweep, the run keeps one float per combination: the
    result's ``iterations`` builds each record from it when read.
    """
    cut = sorted(set(int(v) for v in cutset))
    for v in cut:
        if not 0 <= v < net.n:
            raise ValueError(f"unknown cutset variable {v}")
    return _max_sweep(net, cut, evidence, ordering)


def _max_sweep(net: BeliefNetwork, cut: list[int], evidence: Evidence | None,
               ordering: Ordering | None) -> QueryResult:
    """The max sweep of :func:`solve_mpe_conditioned` over the sorted,
    checked ``cut``: planned once, executed per batch of cutset combinations.

    An observed cutset variable keeps its observed value; the others vary
    along the batch.  The values, the maximum and its decoding are those
    of one sweep per combination, bit for bit."""
    evidence, ordering = _pinned_ends(net, evidence, ordering, moral_graph,
                                      pinned=cut)

    ranges = [[evidence.get(v)] if v in evidence else range(net.cards[v]) for v in cut]
    shape = [len(r) for r in ranges]
    count = math.prod(shape)
    if count > CELL_LIMIT:
        raise ValueError(f"cutset has {count} value combinations (cap {CELL_LIMIT})")

    varying = [v for v in cut if v not in evidence]
    planned, arrays = _plan(net, net.table_list(), {*evidence.assignments, *cut},
                            ordering, dict.fromkeys(ordering.sequence, "max"),
                            varying=varying)
    # Sizing a batch walks the whole plan, so a single combination skips it.
    size = _batch_size(planned, cut) if count > 1 else 1

    best = assignment = None
    values = np.empty(count)
    for start in range(0, count, size):
        batch = values[start:start + size]
        pinned = dict(evidence.assignments)
        if varying:  # an empty cutset's shape takes no array of indices
            columns = np.unravel_index(np.arange(start, start + len(batch)), shape)
            pinned.update((v, c) for v, c in zip(cut, columns) if v not in evidence)
        sweep = execute(planned, arrays, pinned)
        batch[:] = sweep.scalar
        row = int(batch.argmax())  # the first maximum, as values are finite
        if best is None or batch[row] > best:
            best = float(batch[row])
            assignment = forward_decode(sweep.row(row) if varying else sweep, range(net.n))
    note = ("no positive-probability completion of the evidence"
            if best == 0.0 and len(evidence) else None)
    return _result("cond-mpe", planned, value=best, assignment=assignment, note=note,
                   iterations=Iterations(cut, ranges, values, planned.max_generated_scope))


def _batch_size(planned: Plan, cut: Sequence[int]) -> int:
    """The most cutset combinations one execution of ``planned`` may batch.

    Every batched array of one combination fits the scope union of a step's
    inputs: a product, or a table sliced out of one.  B times the cells of
    the largest union (:meth:`Plan.widest_read`), and B times the cutset's
    size, stay within ``oracle.CELL_LIMIT``; B is at least 1."""
    return max(1, CELL_LIMIT // max(planned.widest_read(), len(cut)))
