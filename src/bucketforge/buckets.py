"""The bucket machine: a structural plan of the backward sweep, and its executor.

Every query engine works the same way: tables are filed into the bucket of
their highest-ordered scope variable, buckets are processed from the last
ordering position to the first, and each bucket either scatters restricted
slices (observed variable) or applies the engine's bucket rule to its
contents and files the results further down.  Empty-scope results fold into
running scalars.

Which tables meet in which bucket, and every shape along the way, depends
only on the scopes, the ordering, the observed set and each bucket's rule,
never on a table's numbers or an observed value.  :func:`plan` works all of
that out once; :func:`execute` runs the plan on arrays, and can run it again
for other numbers or other observed values.  A table is held in a numbered
slot and dropped once the step that consumes it has run.

A plan records what each step does, not its trace: a step keeps its trace
op, its input slots and the slot of its first result, and its
:class:`TraceEntry` is built from the planner's scopes only when
:attr:`Step.entry` or :attr:`Plan.trace` is read.  A query that prints no
trace builds none.

A plan can also run a batch of observed values at once.  Its ``varying``
variables take one value per combination of the batch, and every array that
depends on them carries a leading batch axis: a slot is batched when it
comes out of a varying variable's bucket or from a step with a batched
input.  Products and slice folds are elementwise, so each row of a batched
sweep is bit for bit the sweep of its combination alone, and a step with no
batched input runs once for the whole batch.

:class:`BucketSchedule` is the same sweep advanced one bucket at a time, for
inspecting it: each ``process`` call plans one bucket with the planner of
:func:`plan` and runs it with the :meth:`Sweep.run` of :func:`execute`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvidenceError
# ``multiply`` is not called here, but perfbench/tracing.py wraps
# ``buckets.multiply`` by name and fails to install without it.
from .factor import (DiscreteFactor, _aligned, _finite, _fold, fold_max,  # noqa: F401
                     fold_sum, multiply)
from .graph import Ordering
from .model import Evidence

FOLD = -1  # the slot of an empty-scope result: it folds into a running scalar


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


def _generated_scope(entry: TraceEntry) -> int:
    """Largest table scope a sum or max entry generated (0 for the others)."""
    if entry.op not in ("sum", "max"):
        return 0
    return max(map(len, entry.output_scopes), default=0)


class Step(NamedTuple):
    """One planned bucket.  ``run(arrays, values) -> (results, choices)`` is
    its rule with the shapes bound; ``choices`` is a maximizing rule's choice
    table, else None.  An empty bucket has no ``run``.  Result ``j`` is over
    ``planner.scopes[first + j]``, a folded one too."""

    variable: int
    inputs: tuple[int, ...]                # slots consumed: probability tables, then utilities
    outputs: tuple[tuple[int, bool], ...]  # (slot or FOLD, is a utility) per result
    op: str                                # trace op: "sum", "max" (decide too), "assign", "skip"
    first: int                             # the slot number of its first result
    run: Callable | None
    planner: "_Planner"

    @property
    def entry(self) -> TraceEntry:
        """This step's trace entry, built from the planner's scopes."""
        scopes, cards = self.planner.scopes, self.planner.cards
        outs = tuple(scopes[self.first:self.first + len(self.outputs)])
        return TraceEntry(self.variable, self.op, tuple([scopes[i] for i in self.inputs]),
                          outs, sum(_cells(s, cards) for s in outs))


class Plan(NamedTuple):
    """The steps of one sweep, in the order they run."""

    ordering: Ordering
    steps: tuple[Step, ...]
    scopes: tuple[tuple[int, ...], ...]   # scope of each slot
    folds: tuple[tuple[int, bool], ...]   # empty-scope inputs: (slot, is a utility)
    left: dict[int, tuple[int, ...]]      # probability slots in unprocessed buckets
    max_generated_scope: int

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        """Each step's trace entry, in the order the steps run."""
        return tuple(step.entry for step in self.steps)


class _Planner:
    """Files slots into the buckets of one ordering and plans one bucket at a time.

    Slot ``i`` holds a table over ``scopes[i]``, filed into the bucket of its
    highest-ordered variable; an empty-scope slot folds into a scalar instead.
    """

    def __init__(self, ordering: Ordering, cards, observed, varying=frozenset()):
        self.ordering = ordering
        self.cards = cards        # cards[v]: the cardinality of variable v
        self.observed = observed  # the variables whose buckets scatter
        self.varying = varying    # the observed variables with one value per batch row
        self.scopes: list[tuple[int, ...]] = []
        self.batched: list[bool] = []  # whether slot i has a leading batch axis
        self.filed: dict[int, tuple[list[int], list[int]]] = {v: ([], []) for v in ordering}
        self.position = {v: i for i, v in enumerate(ordering.sequence)}.__getitem__
        self.widest = 0  # the largest scope a sum or max rule generated

    def file(self, scope: tuple[int, ...], utility: bool, batched: bool = False) -> int:
        """Number a new slot over ``scope`` and file it; returns the slot, or
        ``FOLD`` for an empty scope."""
        try:
            bucket = self.filed[max(scope, key=self.position)] if scope else None
        except KeyError:
            missing = [v for v in scope if v not in self.ordering]
            raise ValueError(f"table over scope {scope} names variables {missing} "
                             "that the ordering lacks") from None
        self.scopes.append(scope)
        self.batched.append(batched)
        if bucket is None:
            return FOLD
        bucket[utility].append(len(self.scopes) - 1)
        return len(self.scopes) - 1

    def step(self, var: int, op: str) -> Step:
        """Plan the bucket of ``var`` by rule ``op`` and file its results.

        The bucket of an observed variable is scattered whatever ``op`` is,
        and an empty one is skipped.  The bucket is emptied only once its
        rule is planned, so a refused step leaves it as it was.
        """
        try:
            probs, utils = self.filed[var]
        except KeyError:
            raise ValueError(f"no bucket for variable {var}: "
                             "the ordering lacks it") from None
        if var in self.observed:
            op = "assign"
        elif op not in _RULES:
            raise ValueError(f"no bucket rule {op!r} for unobserved variable {var}: "
                             f"the rules are {', '.join(map(repr, _RULES))}")
        if not (probs or utils):
            # Most buckets of a pruned belief or MAP sweep are empty, so
            # this path plans no rule.
            return Step(var, (), (), "skip", len(self.scopes), None, self)
        inputs = (*probs, *utils)
        ins = list(map(self.scopes.__getitem__, inputs))
        batched = tuple(map(self.batched.__getitem__, inputs))
        if op == "assign":
            rule = _gather if var in self.varying else _assign
        elif any(batched) and (utils or op == "decide"):
            raise ValueError(f"the bucket of {var} would batch utilities or a decision: "
                             "only probability sweeps run in batches")
        else:
            rule = _RULES[op]
        results, run = rule(var, ins, len(utils), self.cards, batched)
        self.filed[var] = ([], [])
        first = len(self.scopes)
        outputs = tuple([(self.file(scope, utility, b), utility) for scope, utility, b in results])
        if op != "assign":
            op = "max" if op == "decide" else op
            self.widest = max(self.widest, *[len(scope) for scope, _, _ in results])
        return Step(var, inputs, outputs, op, first, run, self)


def plan(scopes: Sequence[tuple[int, ...]], cards, ordering: Ordering,
         observed: Iterable[int], ops: Mapping[int, str],
         utilities: int = 0, varying: Iterable[int] = ()) -> Plan:
    """Plan the sweep of tables with the given sorted ``scopes``.

    The last ``utilities`` scopes belong to utility tables; table ``i`` is
    slot ``i``.  ``cards[v]`` is the cardinality of variable ``v``.  Buckets
    are processed from the last ordering position to the first, those of
    variables in ``ops`` only, by the rule ``ops`` gives; the bucket of an
    ``observed`` variable is scattered whatever its rule.  A ``varying``
    variable is observed too, with one value per combination of a batch:
    ``execute`` then takes an index vector for it, and only a sweep without
    utilities or decisions may have one.
    """
    varying = frozenset(varying)
    planner = _Planner(ordering, cards, frozenset(observed) | varying, varying)
    first_utility = len(scopes) - utilities
    folds = []
    for slot, scope in enumerate(scopes):
        utility = slot >= first_utility
        if planner.file(tuple(scope), utility) == FOLD:
            folds.append((slot, utility))
    steps = tuple([planner.step(var, ops[var])
                   for var in reversed(ordering.sequence) if var in ops])
    return Plan(ordering, steps, tuple(planner.scopes), tuple(folds),
                {v: tuple(probs) for v, (probs, _) in planner.filed.items() if probs},
                planner.widest)


def _cells(scope: Sequence[int], cards) -> int:
    return math.prod(map(cards.__getitem__, scope))


def _without(scope: tuple[int, ...], var: int) -> tuple[int, ...]:
    i = scope.index(var)
    return scope[:i] + scope[i + 1:]


# Each bucket rule is called once per step, at plan time, with the variable,
# the input scopes (the last ``utilities`` of them utilities), the cards and
# whether each input is batched; it returns the results as (scope, is a
# utility, is batched), in filing order, and ``run``.

def _batched_shapes(ins, over, cards, batched) -> list[tuple[int, ...]]:
    """Each input's shape broadcast over the sorted superset ``over``.  When
    an input is batched, every shape gets a leading batch axis: the batch
    (-1) for a batched input, 1 for the others."""
    shapes = [_aligned(s, over, cards) for s in ins]
    if any(batched):
        return [(-1 if b else 1, *shape) for b, shape in zip(batched, shapes)]
    return shapes


def _assign(var, ins, utilities, cards, batched):
    """Observation rule: slice each input at the observed value; nothing is
    multiplied.  A batched input keeps its batch axis."""
    axes = [s.index(var) + b for s, b in zip(ins, batched)]

    def run(arrays, values):
        value = values[var]
        # take copies, so a slice does not keep the table it came from alive.
        return [a.take(value, axis) for a, axis in zip(arrays, axes)], None
    return [(_without(s, var), i >= len(ins) - utilities, b)
            for i, (s, b) in enumerate(zip(ins, batched))], run


def _gather(var, ins, utilities, cards, batched):
    """Observation rule for a varying variable: ``values[var]`` is an index
    vector with one value per batch row, and row ``r`` of each result is its
    input (row ``r`` of it, if batched) sliced at value ``values[var][r]``.
    Every result is batched."""
    axes = [s.index(var) + b for s, b in zip(ins, batched)]

    def run(arrays, values):
        index = values[var]
        rows = np.arange(len(index))
        # Indexing by arrays copies, so no result keeps its table alive.
        return [np.moveaxis(a, axis, 1)[rows, index] if b else np.moveaxis(a, axis, 0)[index]
                for a, axis, b in zip(arrays, axes, batched)], None
    return [(_without(s, var), i >= len(ins) - utilities, True) for i, s in enumerate(ins)], run


def _eliminate(var, ins, utilities, cards, batched, reduce):
    """Sum or max rule: eliminate the variable from the probability product
    by ``reduce(product, axis) -> (marginal, choices)``.

    The bucket's utilities are averaged out as well: their sum weighted by
    the product, summed over the variable and divided by the marginal where
    it is positive.  A bucket with utilities is never batched.
    """
    k = len(ins) - utilities
    if not k:
        raise ValueError("multiply needs at least one factor")
    scope = tuple(sorted({v for s in ins[:k] for v in s}))
    shapes = _batched_shapes(ins[:k], scope, cards, batched[:k])
    lead = any(batched)  # the batch axis comes first
    axis = scope.index(var) + lead
    results = [(_without(scope, var), False, lead)]
    if utilities:
        joint = tuple(sorted({v for s in ins for v in s}))
        rest = _without(joint, var)
        totals = [_aligned(s, joint, cards) for s in ins[k:]]
        shape, joint_axis = _aligned(scope, joint, cards), joint.index(var)
        denom = _aligned(results[0][0], rest, cards)
        results.append((rest, True, False))

    def run(arrays, values):
        product = _fold(arrays[:k], shapes, np.multiply)
        marginal, choices = reduce(product, axis)
        if not utilities:
            return [marginal], choices
        total = _fold(arrays[k:], totals, np.add)
        numer = _finite(fold_sum(_finite(product.reshape(shape) * total), joint_axis))
        # Cells the probability part rules out contribute no utility.
        d = marginal.reshape(denom)
        average = np.divide(numer, d, out=np.zeros_like(numer), where=d != 0)
        return [marginal, _finite(average)], choices
    return results, run


def _decide(var, ins, utilities, cards, batched):
    """Decision rule: maximize the bucket's additive utility sum over the
    decision values its probability factors leave possible.

    Probability magnitudes cancel out of the conditional expected utility,
    but their zeros mark decision values under which the evidence cannot
    occur; those cells are excluded from the maximization.  Contexts with no
    supported value are passed down dead (support 0, utility 0) so later
    buckets exclude them too.  A decision bucket is never batched.
    """
    k = len(ins) - utilities
    scope = tuple(sorted({v for s in ins for v in s}))
    rest = _without(scope, var)
    shapes = [_aligned(s, scope, cards) for s in ins]
    full, axis = tuple(cards[v] for v in scope), scope.index(var)

    def run(arrays, values):
        theta = np.zeros(full)
        if utilities:
            theta = theta + _fold(arrays[k:], shapes[k:], np.add)
        alive = np.ones(full, dtype=bool)
        for a, shape in zip(arrays[:k], shapes[:k]):
            alive &= a.reshape(shape) > 0
        best, choices = fold_max(np.where(alive, theta, -np.inf), axis)
        support = alive.any(axis=axis)
        return [np.where(support, best, 0.0), support.astype(np.float64)], choices
    return [(rest, True, False), (rest, False, False)], run


def _sum_out(product, axis):
    return _finite(fold_sum(product, axis)), None


# The rules an unobserved bucket may apply; an observed one applies _assign.
_RULES = {"sum": partial(_eliminate, reduce=_sum_out),
          "max": partial(_eliminate, reduce=fold_max), "decide": _decide}


class Sweep:
    """The running state of a sweep: each slot's array (None once consumed),
    the observed values, the folded scalars and the choice tables of the
    maximized variables.  :meth:`run` executes one planned step on it."""

    def __init__(self, ordering: Ordering, values: Mapping[int, int], slots: list):
        self.ordering = ordering
        self.values = values      # an in-range value for every observed variable
        self.slots = slots
        self.scalar = 1.0         # product of empty-scope probability results
        self.util_scalar = 0.0    # sum of empty-scope utility results
        self.arg_tables: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}  # var -> (scope, choices)

    def fold(self, value, utility: bool) -> None:
        """Fold an empty-scope result into its running scalar.  A batched
        result, one value per batch row, makes the scalar a vector."""
        value = value if np.ndim(value) else float(value)
        if utility:
            self.util_scalar = self.util_scalar + value
        else:
            self.scalar = self.scalar * value

    def row(self, r: int) -> "Sweep":
        """Row ``r`` of a batched sweep: its observed values, scalars and
        choice tables, as the sweep of that combination alone."""
        def at(x):
            return x[r] if np.ndim(x) else x
        picked = Sweep(self.ordering, {v: int(at(x)) for v, x in self.values.items()}, [])
        picked.scalar, picked.util_scalar = float(at(self.scalar)), float(at(self.util_scalar))
        # A batched choice table has one axis more than its scope.
        picked.arg_tables = {v: (scope, choices[r] if choices.ndim > len(scope) else choices)
                             for v, (scope, choices) in self.arg_tables.items()}
        return picked

    def run(self, step: Step) -> None:
        """Execute ``step``: drop its inputs, run its rule, keep any choice
        table, then file or fold its results."""
        if step.run is None:
            return
        slots = self.slots
        ins = [slots[i] for i in step.inputs]
        for i in step.inputs:
            slots[i] = None
        outs, choices = step.run(ins, self.values)
        if choices is not None:
            self.arg_tables[step.variable] = (step.planner.scopes[step.first], choices)
        for (slot, utility), out in zip(step.outputs, outs):
            if slot == FOLD:
                self.fold(out, utility)
            else:
                slots[slot] = out


def execute(plan: Plan, arrays: Sequence[np.ndarray], values: Mapping[int, int]) -> Sweep:
    """Run ``plan`` on the tables' value arrays, one per input slot.

    ``values`` holds an in-range value for every observed variable the plan
    scatters: for a varying variable, an index vector with one value per
    batch row.  Each step drops its inputs before the next runs, so a table
    lives only until its bucket is processed.
    """
    sweep = Sweep(plan.ordering, values,
                  [*arrays, *[None] * (len(plan.scopes) - len(arrays))])
    for slot, utility in plan.folds:
        sweep.fold(sweep.slots[slot], utility)
        sweep.slots[slot] = None
    for step in plan.steps:
        sweep.run(step)
    return sweep


def forward_decode(sweep, over: Iterable[int]) -> dict[int, int]:
    """Read maximizing values front to back, restricted to ``over``.

    ``sweep`` is a :class:`Sweep` (a :class:`BucketSchedule` is one).  Observed
    variables take their observed value; a variable whose bucket recorded no
    choice table defaults to value 0.
    """
    wanted = set(over)
    values, arg_tables = sweep.values, sweep.arg_tables
    chosen: dict[int, int] = {}
    for var in sweep.ordering:
        if var not in wanted:
            continue
        if var in values:
            chosen[var] = values[var]
        elif var in arg_tables:
            scope, choices = arg_tables[var]
            chosen[var] = int(choices[tuple(chosen[v] for v in scope)])
        else:
            chosen[var] = 0
    return chosen


# -- the step-by-step form -----------------------------------------------------------

@dataclass(frozen=True)
class Bucket:
    """The tables filed into one bucket, as a snapshot."""

    variable: int
    factors: list[DiscreteFactor]
    utilities: list[DiscreteFactor]
    observed_value: int | None = None


class BucketSchedule(Sweep):
    """A sweep along one ordering, advanced one planned bucket at a time.

    :meth:`place` files a table, and each :meth:`process` call plans the one
    bucket it names with the planner of :func:`plan`, runs it with
    :meth:`Sweep.run` and records its trace entry.  :attr:`buckets` shows
    what is filed.
    """

    def __init__(self, ordering: Ordering, evidence: Evidence | None = None):
        values = dict(evidence.items() if evidence is not None else ())
        for var in values:
            if var not in ordering:
                raise EvidenceError(f"unknown variable {var}")
        super().__init__(ordering, values, [])
        self._planner = _Planner(ordering, {}, values)
        self.trace: list[TraceEntry] = []
        self.max_generated_scope = 0

    @property
    def buckets(self) -> dict[int, Bucket]:
        """A snapshot of the tables filed into each bucket, as copies; file
        new ones with :meth:`place`."""
        scopes, slots = self._planner.scopes, self.slots

        def tables(filed):
            return [DiscreteFactor(scopes[i], slots[i].shape, slots[i]) for i in filed]
        return {v: Bucket(v, tables(probs), tables(utils), self.values.get(v))
                for v, (probs, utils) in self._planner.filed.items()}

    def place(self, f: DiscreteFactor, utility: bool = False) -> None:
        """File ``f`` into the bucket of its highest-ordered variable; an
        empty-scope table folds into its running scalar.  A refused table
        leaves the schedule as it was."""
        cards = self._planner.cards
        for v, c in zip(f.scope, f.cards):
            if cards.get(v, c) != c:
                raise ValueError(f"cardinality conflict for variable {v}")
            if not 0 <= self.values.get(v, 0) < c:
                raise ValueError(f"value {self.values[v]} out of range for variable {v}")
        slot = self._planner.file(f.scope, utility)
        cards.update(zip(f.scope, f.cards))
        if slot == FOLD:
            self.fold(f.values, utility)
            self.slots.append(None)
        else:
            self.slots.append(f.values)

    def record(self, entry: TraceEntry) -> None:
        self.trace.append(entry)
        self.max_generated_scope = max(self.max_generated_scope,
                                       _generated_scope(entry))

    def scatter(self, var: int) -> None:
        """Observation rule: re-file a slice of each bucket member, one by
        one; nothing is multiplied first."""
        self._advance(var, "assign")

    def process(self, var: int, op: str) -> None:
        """Process the bucket of ``var`` and file what it emits further down.

        An observed bucket scatters its slices whatever ``op`` is; otherwise
        ``op`` is ``"sum"``, ``"max"`` or ``"decide"``, and an empty bucket
        is skipped.
        """
        if var in self.values:
            self.scatter(var)
        else:
            self._advance(var, op)

    def _advance(self, var: int, op: str) -> None:
        step = self._planner.step(var, op)
        self.slots += [None] * (len(self._planner.scopes) - len(self.slots))
        self.run(step)
        self.record(step.entry)


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
