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

:class:`BucketSchedule` is the step-by-step form for inspecting a sweep: each
``process`` call plans and executes the one bucket it names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvidenceError
# ``multiply`` is not called here, but perfbench/tracing.py wraps
# ``buckets.multiply`` by name and fails to install without it.
from .factor import (ArgTable, DiscreteFactor, _merged_scope, fold_max,  # noqa: F401
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
    observed = frozenset(observed)
    index_of = ordering.index_of
    slot_scopes = [tuple(s) for s in scopes]
    filed: dict[int, tuple[list[int], list[int]]] = {v: ([], []) for v in ordering}
    folds = []

    def file(slot: int, utility: bool) -> int:
        scope = slot_scopes[slot]
        if not scope:
            return FOLD
        bucket = filed.get(max(scope, key=index_of))
        if bucket is None:
            raise EvidenceError(f"factor scope {scope} not covered by the ordering")
        bucket[utility].append(slot)
        return slot

    first_utility = len(slot_scopes) - utilities
    for slot in range(len(slot_scopes)):
        utility = slot >= first_utility
        if file(slot, utility) == FOLD:
            folds.append((slot, utility))

    steps = []
    for var in reversed(ordering.sequence):
        if var not in ops:
            continue
        probs, utils = filed[var]
        filed[var] = ([], [])
        ins = [slot_scopes[i] for i in (*probs, *utils)]
        if var in observed:
            op = "assign"
        elif not ins:
            op = "skip"
        else:
            op = ops[var]
        layout, results = _LAYOUTS[op](var, ins, len(utils), cards)
        outputs = []
        for scope, utility in results:
            slot_scopes.append(scope)
            outputs.append((file(len(slot_scopes) - 1, utility), utility))
        entry = TraceEntry(var, "max" if op == "decide" else op, tuple(ins),
                           tuple(scope for scope, _ in results),
                           sum(_cells(scope, cards) for scope, _ in results))
        steps.append(Step(var, op, (*probs, *utils), len(utils), *layout,
                          tuple(outputs), entry))
    trace = tuple(step.entry for step in steps)
    return Plan(ordering, tuple(steps), tuple(slot_scopes), tuple(folds),
                {v: tuple(probs) for v, (probs, _) in filed.items() if probs},
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


def _skip_layout(var, ins, utilities, cards):
    return ((), 0, (), ()), []


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


_LAYOUTS = {"assign": _assign_layout, "skip": _skip_layout,
            "sum": _eliminate_layout, "max": _eliminate_layout,
            "decide": _decide_layout}


class Sweep(NamedTuple):
    """What executing a plan left: the folded scalars, the choice tables of
    the maximized variables, and the slots no step consumed."""

    ordering: Ordering
    values: Mapping[int, int]             # the observed values it ran with
    scalar: float                         # product of empty-scope probability results
    util_scalar: float                    # sum of empty-scope utility results
    slots: list
    arg_tables: dict[int, tuple[tuple[int, ...], np.ndarray]]  # var -> (scope, choices)


def execute(plan: Plan, arrays: Sequence[np.ndarray], values: Mapping[int, int],
            scalar: float = 1.0, util_scalar: float = 0.0) -> Sweep:
    """Run ``plan`` on the tables' value arrays, one per input slot.

    ``values`` holds an in-range value for every observed variable the plan
    scatters; ``scalar`` and ``util_scalar`` are the running scalars the
    empty-scope results fold into.  Each step drops its inputs before the
    next runs, so a table lives only until its bucket is processed.
    """
    slots = list(arrays)
    slots += [None] * (len(plan.scopes) - len(slots))
    for slot, utility in plan.folds:
        if utility:
            util_scalar += float(slots[slot])
        else:
            scalar *= float(slots[slot])
        slots[slot] = None
    arg_tables = {}
    for step in plan.steps:
        ins = [slots[i] for i in step.inputs]
        for i in step.inputs:
            slots[i] = None
        op = step.op
        if op == "assign":
            # Copied, so a slice does not keep the table it came from alive.
            value = values[step.variable]
            outs = [a[pick[value]].copy() for a, pick in zip(ins, step.picks)]
        elif op == "skip":
            continue
        else:
            outs, choices = _KERNELS[op](step, ins)
            if choices is not None:
                arg_tables[step.variable] = (step.entry.output_scopes[0], choices)
        del ins
        for (slot, utility), out in zip(step.outputs, outs):
            if slot != FOLD:
                slots[slot] = out
            elif utility:
                util_scalar += float(out)
            else:
                scalar *= float(out)
    return Sweep(plan.ordering, values, scalar, util_scalar, slots, arg_tables)


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

    ``sweep`` is a :class:`Sweep` or a :class:`BucketSchedule`.  Observed
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

@dataclass
class Bucket:
    variable: int
    factors: list[DiscreteFactor] = field(default_factory=list)
    utilities: list[DiscreteFactor] = field(default_factory=list)
    observed_value: int | None = None
    arg_table: ArgTable | None = None


class BucketSchedule:
    """Buckets along one ordering, plus the trace of processing them.

    The step-by-step form of :func:`plan` and :func:`execute`: tables are
    filed as :class:`~bucketforge.factor.DiscreteFactor` objects, and each
    :meth:`process` call plans the one bucket it names and executes it.
    """

    def __init__(self, ordering: Ordering, evidence: Evidence | None = None):
        self.ordering = ordering
        self.buckets: dict[int, Bucket] = {v: Bucket(v) for v in ordering}
        self.values: dict[int, int] = {}
        if evidence is not None:
            for var, val in evidence.items():
                if var not in self.buckets:
                    raise EvidenceError(f"unknown variable {var}")
                self.buckets[var].observed_value = self.values[var] = val
        self.scalar = 1.0       # product of empty-scope probability results
        self.util_scalar = 0.0  # sum of empty-scope utility results
        self.trace: list[TraceEntry] = []
        self.max_generated_scope = 0

    @property
    def arg_tables(self) -> dict[int, tuple[tuple[int, ...], np.ndarray]]:
        return {v: (b.arg_table.scope, b.arg_table.choices)
                for v, b in self.buckets.items() if b.arg_table is not None}

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
        self.max_generated_scope = max(self.max_generated_scope,
                                       _generated_scope(entry))

    def scatter(self, var: int) -> None:
        """Observation rule: restrict each bucket member individually.

        Slices are re-filed one by one; nothing is multiplied first.
        """
        self._run(var, "assign")

    def process(self, var: int, op: str) -> None:
        """Process the bucket of ``var`` and file what it emits further down.

        An observed bucket scatters its slices and an empty one is skipped,
        whatever ``op`` is; otherwise ``op`` names the bucket rule of
        :class:`Step`.  Afterwards the bucket keeps only its observed value
        and choice table.
        """
        if self.buckets[var].observed_value is not None:
            self.scatter(var)
        else:
            self._run(var, op)

    def _run(self, var: int, op: str) -> None:
        """Plan the one bucket from the tables filed into it, execute that
        plan, and file its results as tables."""
        bucket = self.buckets[var]
        tables = [*bucket.factors, *bucket.utilities]
        utilities = len(bucket.utilities)
        bucket.factors, bucket.utilities = [], []
        cards = dict(zip(*_merged_scope(tables)))
        value = bucket.observed_value
        if value is not None and var in cards and not 0 <= value < cards[var]:
            raise ValueError(f"value {value} out of range for variable {var}")
        one = plan([f.scope for f in tables], cards, self.ordering,
                   () if value is None else (var,), {var: op}, utilities)
        sweep = execute(one, [f.values for f in tables], self.values,
                        self.scalar, self.util_scalar)
        del tables
        self.scalar, self.util_scalar = sweep.scalar, sweep.util_scalar
        (step,) = one.steps
        for slot, utility in step.outputs:
            if slot != FOLD:
                out = sweep.slots[slot]
                self.place(DiscreteFactor._trusted(one.scopes[slot], out.shape, out),
                           utility)
        if var in sweep.arg_tables:
            scope, choices = sweep.arg_tables[var]
            bucket.arg_table = ArgTable._trusted(var, scope, choices.shape, choices)
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
