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

:class:`BucketSchedule` is the same sweep advanced one bucket at a time, for
inspecting it: each ``process`` call plans one bucket with the planner of
:func:`plan` and runs it with the :meth:`Sweep.run` of :func:`execute`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvidenceError
# ``multiply`` is not called here, but perfbench/tracing.py wraps
# ``buckets.multiply`` by name and fails to install without it.
from .factor import DiscreteFactor, fold_max, fold_sum, multiply  # noqa: F401
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
    """One planned bucket.

    ``op`` is the bucket rule: ``"sum"`` or ``"max"`` eliminate the variable
    from the product of the probability inputs (a bucket that holds
    utilities also emits their probability-weighted average), ``"decide"``
    is the decision rule of :func:`_decide`, ``"assign"`` scatters an
    observed bucket and ``"skip"`` passes an empty one.
    """

    variable: int
    op: str
    inputs: tuple[int, ...]               # slots consumed: probability tables, then utilities
    utilities: int                        # how many of the inputs are utilities
    # Each input's broadcast shape: probability tables over the scope of
    # their product, utilities over the whole bucket scope (decide: every
    # input over the bucket scope); the variable's axis in that product.
    shapes: tuple[tuple[int, ...], ...]
    axis: int
    # sum/max with utilities: (the product's shape over the bucket scope, the
    # variable's axis there, the marginal's shape over the rest); decide: the
    # bucket scope's shape.
    mix: tuple
    picks: tuple[tuple[tuple, ...], ...]  # assign: each input's index, per observed value
    outputs: tuple[tuple[int, bool], ...]  # (slot or FOLD, is a utility) per result
    entry: TraceEntry


class Plan(NamedTuple):
    """The steps of one sweep, in the order they run."""

    ordering: Ordering
    steps: tuple[Step, ...]
    scopes: tuple[tuple[int, ...], ...]   # scope of each slot
    folds: tuple[tuple[int, bool], ...]   # empty-scope inputs: (slot, is a utility)
    left: dict[int, tuple[int, ...]]      # probability slots in unprocessed buckets
    trace: tuple[TraceEntry, ...]
    max_generated_scope: int


class _Planner:
    """Files slots into the buckets of one ordering and plans one bucket at a time.

    Slot ``i`` holds a table over ``scopes[i]``, filed into the bucket of its
    highest-ordered variable; an empty-scope slot folds into a scalar instead.
    """

    def __init__(self, ordering: Ordering, cards, observed):
        self.ordering = ordering
        self.cards = cards        # cards[v]: the cardinality of variable v
        self.observed = observed  # the variables whose buckets scatter
        self.scopes: list[tuple[int, ...]] = []
        self.filed: dict[int, tuple[list[int], list[int]]] = {v: ([], []) for v in ordering}

    def file(self, scope: tuple[int, ...], utility: bool) -> int:
        """Number a new slot over ``scope`` and file it; returns the slot, or
        ``FOLD`` for an empty scope."""
        try:
            bucket = self.filed[max(scope, key=self.ordering.index_of)] if scope else None
        except KeyError:
            missing = [v for v in scope if v not in self.ordering]
            raise ValueError(f"table over scope {scope} names variables {missing} "
                             "that the ordering lacks") from None
        self.scopes.append(scope)
        if bucket is None:
            return FOLD
        bucket[utility].append(len(self.scopes) - 1)
        return len(self.scopes) - 1

    def step(self, var: int, op: str) -> Step:
        """Plan the bucket of ``var`` by rule ``op`` and file its results.

        The bucket of an observed variable is scattered whatever ``op`` is,
        and an empty one is skipped.
        """
        try:
            probs, utils = self.filed[var]
        except KeyError:
            raise ValueError(f"no bucket for variable {var}: "
                             "the ordering lacks it") from None
        if var in self.observed:
            op = "assign"
        elif not (probs or utils):
            # Most buckets of a pruned belief or MAP sweep are empty, so
            # this path builds no layout.
            return Step(var, "skip", (), 0, (), 0, (), (), (),
                        TraceEntry(var, "skip", (), (), 0))
        self.filed[var] = ([], [])
        inputs = (*probs, *utils)
        ins = [self.scopes[i] for i in inputs]
        layout, results = _LAYOUTS[op](var, ins, len(utils), self.cards)
        outputs = tuple((self.file(scope, utility), utility) for scope, utility in results)
        entry = TraceEntry(var, "max" if op == "decide" else op, tuple(ins),
                           tuple(scope for scope, _ in results),
                           sum(_cells(scope, self.cards) for scope, _ in results))
        return Step(var, op, inputs, len(utils), *layout, outputs, entry)


def plan(scopes: Sequence[tuple[int, ...]], cards, ordering: Ordering,
         observed: Iterable[int], ops: Mapping[int, str],
         utilities: int = 0) -> Plan:
    """Plan the sweep of tables with the given sorted ``scopes``.

    The last ``utilities`` scopes belong to utility tables; table ``i`` is
    slot ``i``.  ``cards[v]`` is the cardinality of variable ``v``.  Buckets
    are processed from the last ordering position to the first, those of
    variables in ``ops`` only, by the rule ``ops`` gives; the bucket of an
    ``observed`` variable is scattered whatever its rule.
    """
    planner = _Planner(ordering, cards, frozenset(observed))
    first_utility = len(scopes) - utilities
    folds = []
    for slot, scope in enumerate(scopes):
        utility = slot >= first_utility
        if planner.file(tuple(scope), utility) == FOLD:
            folds.append((slot, utility))
    steps = tuple(planner.step(var, ops[var])
                  for var in reversed(ordering.sequence) if var in ops)
    trace = tuple(step.entry for step in steps)
    return Plan(ordering, steps, tuple(planner.scopes), tuple(folds),
                {v: tuple(probs) for v, (probs, _) in planner.filed.items() if probs},
                trace, max(map(_generated_scope, trace), default=0))


def _cells(scope: Sequence[int], cards) -> int:
    return math.prod(cards[v] for v in scope)


def _without(scope: tuple[int, ...], var: int) -> tuple[int, ...]:
    return tuple(v for v in scope if v != var)


def _aligned(scope: Sequence[int], over: Sequence[int], cards) -> tuple[int, ...]:
    """Shape of a table over ``scope`` broadcast over the sorted superset ``over``."""
    own = set(scope)
    return tuple(cards[v] if v in own else 1 for v in over)


# Each layout function returns the step's (shapes, axis, mix, picks) and its
# results as (scope, is a utility), in filing order.

def _assign_layout(var, ins, utilities, cards):
    picks = tuple(tuple((slice(None),) * s.index(var) + (value, Ellipsis)
                        for value in range(cards[var])) for s in ins)
    results = [(_without(s, var), i >= len(ins) - utilities) for i, s in enumerate(ins)]
    return ((), 0, (), picks), results


def _eliminate_layout(var, ins, utilities, cards):
    probs = ins[:len(ins) - utilities]
    if not probs:
        raise ValueError("multiply needs at least one factor")
    scope = tuple(sorted({v for s in probs for v in s}))
    shapes = [_aligned(s, scope, cards) for s in probs]
    results = [(_without(scope, var), False)]
    mix = ()
    if utilities:
        joint = tuple(sorted({v for s in ins for v in s}))
        shapes += [_aligned(s, joint, cards) for s in ins[len(probs):]]
        rest = _without(joint, var)
        mix = (_aligned(scope, joint, cards), joint.index(var),
               _aligned(results[0][0], rest, cards))
        results.append((rest, True))
    return (tuple(shapes), scope.index(var), mix, ()), results


def _decide_layout(var, ins, utilities, cards):
    scope = tuple(sorted({v for s in ins for v in s}))
    rest = _without(scope, var)
    shapes = tuple(_aligned(s, scope, cards) for s in ins)
    mix = tuple(cards[v] for v in scope)
    return (shapes, scope.index(var), mix, ()), [(rest, True), (rest, False)]


_LAYOUTS = {"assign": _assign_layout, "sum": _eliminate_layout,
            "max": _eliminate_layout, "decide": _decide_layout}


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
        """Fold an empty-scope result into its running scalar."""
        if utility:
            self.util_scalar += float(value)
        else:
            self.scalar *= float(value)

    def run(self, step: Step) -> None:
        """Execute ``step``: drop its inputs, then file or fold its results."""
        slots = self.slots
        ins = [slots[i] for i in step.inputs]
        for i in step.inputs:
            slots[i] = None
        op = step.op
        if op == "assign":
            # Copied, so a slice does not keep the table it came from alive.
            value = self.values[step.variable]
            outs = [a[pick[value]].copy() for a, pick in zip(ins, step.picks)]
        elif op == "skip":
            return
        else:
            outs, choices = _KERNELS[op](step, ins)
            if choices is not None:
                self.arg_tables[step.variable] = (step.entry.output_scopes[0], choices)
        del ins
        for (slot, utility), out in zip(step.outputs, outs):
            if slot == FOLD:
                self.fold(out, utility)
            else:
                slots[slot] = out


def execute(plan: Plan, arrays: Sequence[np.ndarray], values: Mapping[int, int]) -> Sweep:
    """Run ``plan`` on the tables' value arrays, one per input slot.

    ``values`` holds an in-range value for every observed variable the plan
    scatters.  Each step drops its inputs before the next runs, so a table
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


def _finite(values: np.ndarray) -> np.ndarray:
    # A product of finite tables can overflow to inf, and inf times 0 is NaN.
    if not np.isfinite(values).all():
        raise ValueError("factor values must be finite")
    return values


def _fold(arrays, shapes, op):
    """Left fold of ``op`` over the arrays, each viewed in its broadcast shape;
    checked for finiteness when it combined anything."""
    acc = arrays[0].reshape(shapes[0])
    for a, shape in zip(arrays[1:], shapes[1:]):
        acc = op(acc, a.reshape(shape))
    return _finite(acc) if len(arrays) > 1 else acc


def _eliminate(step: Step, ins: list) -> tuple[list, np.ndarray | None]:
    """Sum or max rule: eliminate the variable from the probability product.

    Under ``"sum"``, the bucket's utilities are averaged out as well: their
    sum weighted by the product, summed over the variable and divided by
    the marginal where it is positive.
    """
    k = len(ins) - step.utilities
    product = _fold(ins[:k], step.shapes[:k], np.multiply)
    if step.op == "sum":
        marginal, choices = _finite(fold_sum(product, step.axis)), None
    else:
        marginal, choices = fold_max(product, step.axis)
    if not step.utilities:
        return [marginal], choices
    shape, axis, denom = step.mix
    total = _fold(ins[k:], step.shapes[k:], np.add)
    numer = _finite(fold_sum(_finite(product.reshape(shape) * total), axis))
    # Cells the probability part rules out contribute no utility.
    d = marginal.reshape(denom)
    average = np.divide(numer, d, out=np.zeros_like(numer), where=d != 0)
    return [marginal, _finite(average)], choices


def _decide(step: Step, ins: list) -> tuple[list, np.ndarray]:
    """Decision rule: maximize the bucket's additive utility sum over the
    decision values its probability factors leave possible.

    Probability magnitudes cancel out of the conditional expected utility,
    but their zeros mark decision values under which the evidence cannot
    occur; those cells are excluded from the maximization.  Contexts with no
    supported value are passed down dead (support 0, utility 0) so later
    buckets exclude them too.
    """
    k = len(ins) - step.utilities
    theta = np.zeros(step.mix)
    if step.utilities:
        theta = theta + _fold(ins[k:], step.shapes[k:], np.add)
    alive = np.ones(step.mix, dtype=bool)
    for a, shape in zip(ins[:k], step.shapes[:k]):
        alive &= a.reshape(shape) > 0
    best, choices = fold_max(np.where(alive, theta, -np.inf), step.axis)
    support = alive.any(axis=step.axis)
    return [np.where(support, best, 0.0), support.astype(np.float64)], choices


_KERNELS = {"sum": _eliminate, "max": _eliminate, "decide": _decide}


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
        empty-scope table folds into its running scalar."""
        cards = self._planner.cards
        for v, c in zip(f.scope, f.cards):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"cardinality conflict for variable {v}")
            if not 0 <= self.values.get(v, 0) < c:
                raise ValueError(f"value {self.values[v]} out of range for variable {v}")
        if self._planner.file(f.scope, utility) == FOLD:
            self.fold(f.values, utility)
            self.slots.append(None)
        else:
            self.slots.append(f.values)

    def record(self, entry: TraceEntry) -> None:
        self.trace.append(entry)
        self.max_generated_scope = max(self.max_generated_scope,
                                       _generated_scope(entry))

    def scatter(self, var: int) -> None:
        """Observation rule: restrict each bucket member individually.

        Slices are re-filed one by one; nothing is multiplied first.
        """
        self._advance(var, "assign")

    def process(self, var: int, op: str) -> None:
        """Process the bucket of ``var`` and file what it emits further down.

        An observed bucket scatters its slices and an empty one is skipped,
        whatever ``op`` is; otherwise ``op`` names the bucket rule of
        :class:`Step`.
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
