"""Ordered factor partitions and the shared backward-sweep machinery.

Every query engine works the same way: factors are filed into the bucket of
their highest-ordered scope variable, buckets are processed from the last
ordering position to the first, and each bucket either scatters restricted
slices (observed variable) or applies the engine's bucket rule to its
contents and files the results further down.  Empty-scope results fold into
running scalars.  A processed bucket drops its tables, so a table lives only
until the bucket it was filed into is processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import EvidenceError
from .factor import (ArgTable, DiscreteFactor, _merged_scope, add, fold_max,
                     multiply)
from .graph import Ordering
from .model import Evidence


@dataclass(frozen=True)
class TraceEntry:
    """What one bucket did: operator, input scopes, output scopes, cells."""

    variable: int
    op: str  # "sum" | "max" | "assign" | "skip"
    input_scopes: tuple[tuple[int, ...], ...]
    output_scopes: tuple[tuple[int, ...], ...]
    cells: int

    def render(self) -> str:
        def scopes(ss):
            return ";".join(",".join(str(v) for v in s) for s in ss) or "-"
        return (f"var={self.variable} op={self.op} in={scopes(self.input_scopes)} "
                f"out={scopes(self.output_scopes)} cells={self.cells}")


@dataclass
class Bucket:
    variable: int
    factors: list[DiscreteFactor] = field(default_factory=list)
    utilities: list[DiscreteFactor] = field(default_factory=list)
    observed_value: int | None = None
    arg_table: ArgTable | None = None


class BucketSchedule:
    """Buckets along one ordering, plus the trace of processing them."""

    def __init__(self, ordering: Ordering, evidence: Evidence | None = None):
        self.ordering = ordering
        self.buckets: dict[int, Bucket] = {v: Bucket(v) for v in ordering}
        if evidence is not None:
            for var, val in evidence.items():
                if var not in self.buckets:
                    raise EvidenceError(f"unknown variable {var}")
                self.buckets[var].observed_value = val
        self.scalar = 1.0       # product of empty-scope probability results
        self.util_scalar = 0.0  # sum of empty-scope utility results
        self.trace: list[TraceEntry] = []
        self.max_generated_scope = 0

    def bucket_of(self, f: DiscreteFactor) -> int:
        return max(f.scope, key=self.ordering.index_of)

    def place(self, f: DiscreteFactor, utility: bool = False) -> None:
        if f.is_scalar:
            if utility:
                self.util_scalar += float(f.values)
            else:
                self.scalar *= float(f.values)
            return
        bucket = self.buckets.get(self.bucket_of(f))
        if bucket is None:
            raise EvidenceError(f"factor scope {f.scope} not covered by the ordering")
        (bucket.utilities if utility else bucket.factors).append(f)

    def record(self, entry: TraceEntry) -> None:
        self.trace.append(entry)
        if entry.op in ("sum", "max"):
            for scope in entry.output_scopes:
                self.max_generated_scope = max(self.max_generated_scope, len(scope))

    def scatter(self, var: int) -> None:
        """Observation rule: restrict each bucket member individually.

        Slices are re-filed one by one; nothing is multiplied first.
        """
        bucket = self.buckets[var]
        value = bucket.observed_value
        ins, outs, cells = [], [], 0
        for utility, group in ((False, bucket.factors), (True, bucket.utilities)):
            for f in group:
                sliced = f.restrict(var, value)
                ins.append(f.scope)
                outs.append(sliced.scope)
                cells += sliced.values.size
                self.place(sliced, utility=utility)
        self.record(TraceEntry(var, "assign", tuple(ins), tuple(outs), cells))

    def process(self, var: int, op: str) -> None:
        """Process the bucket of ``var`` and file what it emits further down.

        An observed bucket scatters its slices and an empty one is skipped,
        whatever ``op`` is.  Otherwise ``op`` names the bucket rule:

        - ``"sum"``: sum ``var`` out of the product of the probability
          tables; a bucket that holds utilities also emits their
          probability-weighted average;
        - ``"max"``: maximize ``var`` out of that product and keep the
          choice table (for buckets without utilities);
        - ``"decide"``: the decision rule of :func:`_decide`, traced as
          ``max``.

        Afterwards the bucket keeps only its observed value and choice table.
        """
        bucket = self.buckets[var]
        if bucket.observed_value is not None:
            self.scatter(var)
        elif not bucket.factors and not bucket.utilities:
            self.record(TraceEntry(var, "skip", (), (), 0))
        else:
            ins = tuple(f.scope for f in (*bucket.factors, *bucket.utilities))
            if op == "decide":
                outputs, bucket.arg_table = _decide(bucket)
                op = "max"
            else:
                outputs, bucket.arg_table = _eliminate(bucket, op)
            for f, utility in outputs:
                self.place(f, utility=utility)
            self.record(TraceEntry(var, op, ins,
                                   tuple(f.scope for f, _ in outputs),
                                   sum(f.values.size for f, _ in outputs)))
        bucket.factors, bucket.utilities = [], []


Outputs = list[tuple[DiscreteFactor, bool]]  # (table, is it a utility)


def _eliminate(bucket: Bucket, op: str) -> tuple[Outputs, ArgTable | None]:
    """Sum or max rule: eliminate the variable from the probability product.

    Under ``"sum"``, the bucket's utilities are averaged out as well: their
    sum weighted by the product, summed over the variable and divided by
    the marginal where it is positive.
    """
    var = bucket.variable
    combined = multiply(bucket.factors)
    marginal, table = combined.eliminate(var, op)
    outputs = [(marginal, False)]
    if bucket.utilities:
        numer, _ = multiply([combined, add(bucket.utilities)]).eliminate(var, "sum")
        outputs.append((_divide_where_positive(numer, marginal), True))
    return outputs, table


def _divide_where_positive(numer: DiscreteFactor, denom: DiscreteFactor) -> DiscreteFactor:
    # Cells the probability part rules out contribute no utility.
    d = denom.aligned_values(numer.scope)
    out = np.divide(numer.values, d, out=np.zeros_like(numer.values), where=d != 0)
    return DiscreteFactor._trusted(numer.scope, numer.cards, out)


def _decide(bucket: Bucket) -> tuple[Outputs, ArgTable]:
    """Decision rule: maximize the bucket's additive utility sum over the
    decision values its probability factors leave possible.

    Probability magnitudes cancel out of the conditional expected utility,
    but their zeros mark decision values under which the evidence cannot
    occur; those cells are excluded from the maximization.  Contexts with no
    supported value are passed down dead (support 0, utility 0) so later
    buckets exclude them too.
    """
    var = bucket.variable
    scope, cards = _merged_scope([*bucket.factors, *bucket.utilities])
    theta = np.zeros(cards)
    if bucket.utilities:
        theta = theta + add(bucket.utilities).aligned_values(scope)
    alive = np.ones(cards, dtype=bool)
    for f in bucket.factors:
        alive &= f.aligned_values(scope) > 0
    axis = scope.index(var)
    best, choices = fold_max(np.where(alive, theta, -np.inf), axis)
    support = alive.any(axis=axis)
    best = np.where(support, best, 0.0)
    out_scope = scope[:axis] + scope[axis + 1:]
    out_cards = cards[:axis] + cards[axis + 1:]
    theta_out = DiscreteFactor._trusted(out_scope, out_cards, best)
    support_out = DiscreteFactor._trusted(out_scope, out_cards,
                                          support.astype(np.float64))
    table = ArgTable._trusted(var, out_scope, out_cards, choices)
    return [(theta_out, True), (support_out, False)], table


def partition(factors: Iterable[DiscreteFactor], ordering: Ordering,
              evidence: Evidence | None = None,
              utilities: Iterable[DiscreteFactor] = ()) -> BucketSchedule:
    """File every factor into the bucket of its highest-ordered variable."""
    schedule = BucketSchedule(ordering, evidence)
    for f in factors:
        schedule.place(f)
    for f in utilities:
        schedule.place(f, utility=True)
    return schedule


def forward_decode(schedule: BucketSchedule, over: Iterable[int]) -> dict[int, int]:
    """Read maximizing values front to back, restricted to ``over``.

    Observed variables take their observed value; a variable whose bucket
    never recorded a choice table defaults to value 0.
    """
    wanted = set(over)
    chosen: dict[int, int] = {}
    for var in schedule.ordering:
        if var not in wanted:
            continue
        bucket = schedule.buckets[var]
        if bucket.observed_value is not None:
            chosen[var] = bucket.observed_value
        elif bucket.arg_table is not None:
            chosen[var] = bucket.arg_table.choice_at(chosen)
        else:
            chosen[var] = 0
    return chosen
