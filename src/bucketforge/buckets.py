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
slot and dropped once the step that consumes it has run; each table a step
keeps is a fresh array, and the intermediates of its wide buckets live in
one scratch per :func:`execute` call.  The planner files a slot by its
position mask (bit ``p`` for the variable at ordering position ``p``).  A
slot's scope is the variables its table keeps when no variable is fixed;
otherwise every slot's scope is built once, when first read.

The evidence is applied once, before the sweep.  An observed variable with
one value is fixed: :func:`execute` restricts every table at the fixed
variables of its scope, each with one basic index, a view and not a copy,
and each rule runs over the variables its tables keep.  A fixed variable's
bucket is still planned, filed and traced: its ``assign`` trace entry
records the paper's observed-bucket step, which the sweep runs as that
restriction, so the step runs nothing.  Each of its results is the table
it slices, filed where slicing would file it, and one over no variable
folds into its scalar where the step stands.  Slicing commutes with
elementwise products and slice folds, so every product, sum, maximum,
choice table and scalar is the one slicing bucket by bucket gives, bit for
bit.  A cell at an unobserved value of an observed variable is never
computed, so a non-finite one is not refused.

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

A value the sweep keeps is finite: :meth:`Sweep.run` checks each table a
computing step files, and :meth:`Sweep.fold` each running scalar.  Sums and
maxima carry NaN and +inf on to those; a bucket's utility sum, whose cells a
zero probability or a maximum can drop first, is checked where it is formed.
numpy's overflow and invalid-value warnings are silenced for a whole sweep:
these checks refuse such values instead.

:class:`BucketSchedule` is the same sweep advanced one bucket at a time, for
inspecting it: each ``process`` call plans one bucket with the planner of
:func:`plan` and runs it with the :meth:`Sweep.run` of :func:`execute`.  It
fixes no variable, so its observed buckets slice as they are processed, and
its choice tables are restricted at the observed values, as a sweep's are.
A refused ``process`` call leaves it as it was.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvidenceError
# ``multiply`` is not called here, but perfbench/tracing.py wraps
# ``buckets.multiply`` by name and fails to install without it.
from .factor import (DiscreteFactor, Scratch, _aligned, _finite, _fold,  # noqa: F401
                     _narrow, fold_max, fold_sum, multiply)
from .graph import Ordering, _bits
from .model import Evidence

FOLD = -1  # the slot of an empty-scope result: it folds into a running scalar
_EMPTY = ((), ())  # the slots of a bucket that holds none


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


class Context(NamedTuple):
    """What one sweep hands each step it runs: the observed values, and the
    scratch memory the step's kernels write their intermediates in."""

    values: Mapping[int, int]
    scratch: Scratch


class Step(NamedTuple):
    """One planned bucket.  ``run(arrays, context) -> (results, choices)``
    is its rule with the shapes bound, run on the arrays its ``reads`` slots
    hold in a :class:`Context`; ``choices`` is a maximizing rule's choice
    table, else None.  Each result and choice table is a fresh array.
    Result ``j`` is over ``planner.built()[first + j]``, a folded one too.

    An empty bucket has no ``run``, and neither has the bucket of a fixed
    variable: its result ``j`` is the table of input ``j``, already
    restricted, and ``reads`` lists the slots of those it folds."""

    variable: int
    inputs: tuple[int, ...]                # slots consumed: probability tables, then utilities
    reads: tuple[int, ...]                 # the slots holding the tables it consumes
    outputs: tuple[tuple[int, bool], ...]  # (slot or FOLD, is a utility) per result
    op: str                                # trace op: "sum", "max" (decide too), "assign", "skip"
    first: int                             # the slot number of its first result
    run: Callable | None
    planner: "_Planner"

    @property
    def entry(self) -> TraceEntry:
        """This step's trace entry, built from the planner's scopes."""
        scopes, cards = self.planner.built(), self.planner.cards
        outs = tuple(scopes[self.first:self.first + len(self.outputs)])
        return TraceEntry(self.variable, self.op, tuple([scopes[i] for i in self.inputs]),
                          outs, sum(_cells(s, cards) for s in outs))


class Plan(NamedTuple):
    """The steps of one sweep, in the order they run."""

    ordering: Ordering
    steps: tuple[Step, ...]
    planner: "_Planner"                   # the planner of its steps, which holds its slots
    folds: tuple[tuple[int, bool], ...]   # empty-scope inputs: (slot, is a utility)
    left: dict[int, tuple[int, ...]]      # slots holding the probability tables of unprocessed buckets
    max_generated_scope: int
    restricted: dict[int, tuple[int, ...]]  # index template of each input holding a fixed variable

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        """Each step's trace entry, in the order the steps run."""
        return tuple(step.entry for step in self.steps)

    @property
    def scopes(self) -> list[tuple[int, ...]]:
        """The scope of each slot."""
        return self.planner.built()


class _Planner:
    """Files slots into the buckets of one ordering and plans one bucket at a time.

    Slot ``i`` holds a table over the variables of ``masks[i]``, bit ``p``
    standing for the variable at ordering position ``p``; it is filed into
    the bucket of its highest bit, and an empty-scope slot folds into a
    scalar instead.  The ``fixed`` variables are observed, and their values
    are applied to every table before the sweep: slot ``i``'s table is over
    ``kept[i]``, the variables of its scope that are not fixed, in id order,
    and a slice of a fixed variable's bucket is the array of the slot
    ``source`` maps it to.  :meth:`built` gives each slot's scope: ``kept``
    itself when no variable is fixed, else ``kept`` with the fixed bits of
    each mask, built once the planning is done.
    """

    def __init__(self, ordering: Ordering, cards, observed, varying=frozenset(),
                 fixed=frozenset(), given: Sequence[tuple[int, ...]] = ()):
        self.ordering = ordering
        self.cards = cards        # cards[v]: the cardinality of variable v
        self.observed = observed  # the variables whose buckets scatter
        self.varying = varying    # the observed variables with one value per batch row
        self.fixed = fixed        # the observed variables applied before the sweep
        self.bit = {v: 1 << p for p, v in enumerate(ordering.sequence)}
        self.fixed_mask = sum(map(self.bit.__getitem__, fixed))
        self.masks: list[int] = []
        self.kept: list[tuple[int, ...]] = []
        self.source: dict[int, int] = {}
        self.batched: set[int] = set()  # the slots with a leading batch axis
        # The slots in each bucket that holds any: probability tables, then
        # utilities.  A processed bucket is dropped.
        self.filed: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
        self.given = given  # the scope of each input slot
        self._built: list[tuple[int, ...]] | None = None  # every slot's scope, once built
        self.widest = 0  # the largest scope a sum or max rule generated

    def mask(self, scope: Sequence[int]) -> int:
        """The position mask of ``scope``."""
        mask, bit = 0, self.bit
        try:
            for v in scope:
                mask |= bit[v]
            return mask
        except KeyError:
            missing = [v for v in scope if v not in self.bit]
            raise ValueError(f"table over scope {tuple(scope)} names variables {missing} "
                             "that the ordering lacks") from None

    def built(self) -> list[tuple[int, ...]]:
        """Each slot's scope, in id order: the variables it keeps, and the
        fixed ones its mask holds; :attr:`kept` itself when none is fixed.
        Else the planning is done before anything reads it: the list is built
        on the first read and published whole, so threads reading at once
        each build an equal one."""
        if not self.fixed_mask:
            return self.kept
        if self._built is not None:
            return self._built
        kept, given, source, bit, fixed_mask = (self.kept, self.given, self.source, self.bit,
                                                self.fixed_mask)
        sequence, built = self.ordering.sequence, []
        for i, mask in enumerate(self.masks):
            fixed = mask & fixed_mask
            if not fixed:
                built.append(kept[i])
            elif i < len(given):
                built.append(given[i])
            elif i in source:  # a slice: what its mask keeps of the table's scope
                built.append(tuple([v for v in built[source[i]] if bit[v] & mask]))
            else:
                built.append(tuple(sorted((*kept[i], *[sequence[p] for p in _bits(fixed)]))))
        self._built = built
        return built

    def file(self, mask: int, kept: tuple[int, ...], utility: bool, batched: bool = False,
             source: int | None = None) -> int:
        """Number a new slot over ``mask`` and file it; returns the slot, or
        ``FOLD`` for an empty scope.  Its table is over ``kept`` and held by
        slot ``source`` (by default the new slot)."""
        slot = len(self.masks)
        self.masks.append(mask)
        self.kept.append(kept)
        if source is not None:
            self.source[slot] = source
        if batched:
            self.batched.add(slot)
        if not mask:
            return FOLD
        self.filed[self.ordering.sequence[mask.bit_length() - 1]][utility].append(slot)
        return slot

    def step(self, var: int, op: str) -> Step:
        """Plan the bucket of ``var`` by rule ``op`` and file its results.

        The bucket of an observed variable is scattered whatever ``op`` is,
        and an empty one is skipped.  The bucket is emptied only once its
        rule is planned, so a refused step leaves it as it was.
        """
        bucket = self.filed.get(var)
        if bucket is None:
            if var not in self.bit:
                raise ValueError(f"no bucket for variable {var}: the ordering lacks it")
            bucket = _EMPTY
        probs, utils = bucket
        if var in self.observed:
            op = "assign"
        elif op not in _RULES:
            raise ValueError(f"no bucket rule {op!r} for unobserved variable {var}: "
                             f"the rules are {', '.join(map(repr, _RULES))}")
        first = len(self.masks)
        if not (probs or utils):
            # Most buckets of a pruned belief or MAP sweep are empty, so
            # this path plans no rule.
            return Step(var, (), (), (), "skip", first, None, self)
        inputs = (*probs, *utils)
        masks, kept, source, batched = self.masks, self.kept, self.source, self.batched
        bit = self.bit[var]
        if var in self.fixed:
            # Each slice is the table it slices: held by the same slot, with
            # one bit less.
            del self.filed[var]
            k = len(probs)
            outputs = tuple([(self.file(masks[i] ^ bit, kept[i], j >= k, i in batched,
                                        source.get(i, i)), j >= k) for j, i in enumerate(inputs)])
            reads = tuple([source.get(i, i) for i, (slot, _) in zip(inputs, outputs) if slot == FOLD])
            return Step(var, inputs, reads, outputs, op, first, None, self)
        # Only a plan with varying variables has batched slots, and only one
        # with fixed variables has slices held by another slot.
        flags = tuple([i in batched for i in inputs]) if batched else (False,) * len(inputs)
        if op == "assign":
            rule = _gather if var in self.varying else _assign
        elif any(flags) and (utils or op == "decide"):
            raise ValueError(f"the bucket of {var} would batch utilities or a decision: "
                             "only probability sweeps run in batches")
        else:
            rule = _RULES[op]
        results, run = rule(var, [masks[i] ^ bit for i in inputs], [kept[i] for i in inputs],
                            len(utils), self.cards, flags)
        del self.filed[var]
        outputs = tuple([(self.file(mask, scope, utility, b), utility)
                         for mask, scope, utility, b in results])
        if op != "assign":
            op = "max" if op == "decide" else op
            self.widest = max(self.widest, *[mask.bit_count() for mask, _, _, _ in results])
        reads = tuple([source.get(i, i) for i in inputs]) if source else inputs
        return Step(var, inputs, reads, outputs, op, first, run, self)

    def unstep(self, step: Step, filed: tuple[list[int], list[int]], widest: int) -> None:
        """Undo ``step``, the last one planned: take its results out of
        their buckets and refile its bucket's ``filed`` slots.  Only a
        :class:`BucketSchedule` undoes a step, and it fixes and batches no
        variable, so its slots have no ``source`` and none is batched."""
        for slot, utility in step.outputs:
            if slot != FOLD:
                bucket = self.ordering.sequence[self.masks[slot].bit_length() - 1]
                self.filed[bucket][utility].remove(slot)
        for column in (self.masks, self.kept):
            del column[step.first:]
        self.filed[step.variable] = filed
        self.widest = widest


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

    Every other observed variable whose bucket is processed is fixed: its
    value is applied once, before the sweep.  ``execute`` restricts each
    table at the fixed variables of its scope, each rule runs over the
    variables its tables keep, and a fixed variable's bucket runs nothing,
    though it is planned, filed and traced as the scatter it stands for.
    """
    varying = frozenset(varying)
    observed = frozenset(observed) | varying
    fixed = frozenset(v for v in observed if v in ops and v in ordering) - varying
    planner = _Planner(ordering, cards, observed, varying, fixed, scopes)
    first_utility = len(scopes) - utilities
    folds, restricted = [], {}
    for slot, scope in enumerate(scopes):
        scope, utility = tuple(scope), slot >= first_utility
        kept = scope
        if not fixed.isdisjoint(scope):
            restricted[slot] = (*[v if v in fixed else -1 for v in scope], -2)
            kept = tuple([v for v in scope if v not in fixed])
        if planner.file(planner.mask(scope), kept, utility) == FOLD:
            folds.append((slot, utility))
    steps = tuple([planner.step(var, ops[var])
                   for var in reversed(ordering.sequence) if var in ops])
    source = planner.source
    return Plan(ordering, steps, planner, tuple(folds),
                {v: tuple([source.get(i, i) for i in probs])
                 for v, (probs, _) in planner.filed.items() if probs},
                planner.widest, restricted)


def _cells(scope: Sequence[int], cards) -> int:
    return math.prod(map(cards.__getitem__, scope))


def _without(scope: tuple[int, ...], var: int) -> tuple[int, ...]:
    i = scope.index(var)
    return scope[:i] + scope[i + 1:]


def _restricted(scope: tuple[int, ...], array: np.ndarray,
                values: Mapping[int, int]) -> tuple[tuple[int, ...], np.ndarray]:
    """A choice table over ``scope`` once each variable with a value in
    ``values`` takes it: the scope it keeps, and the view of it."""
    if values.keys().isdisjoint(scope):
        return scope, array
    index = tuple([values[v] if v in values else _ALL for v in scope])
    return tuple([v for v in scope if v not in values]), array[(*index, Ellipsis)]


_ALL = slice(None)


# Each bucket rule is called once per step, at plan time, with the variable,
# the position masks of its inputs without the variable's bit (the last
# ``utilities`` of them utilities), the variables each input's array keeps,
# the cards and whether each input is batched; it returns the results as
# (mask, kept variables, is a utility, is batched), in filing order, and
# ``run``, whose shapes are built over the kept variables.

def _batched_shapes(ins, over, cards, batched) -> list[tuple[int, ...]]:
    """Each input's shape broadcast over the sorted superset ``over``.  When
    an input is batched, every shape gets a leading batch axis: the batch
    (-1) for a batched input, 1 for the others."""
    shapes = [_aligned(s, over, cards) for s in ins]
    if any(batched):
        return [(-1 if b else 1, *shape) for b, shape in zip(batched, shapes)]
    return shapes


def _union(scopes) -> tuple[int, ...]:
    return tuple(sorted({v for s in scopes for v in s}))


def _joined(masks, mask: int = 0) -> int:
    """The union of position masks."""
    for m in masks:
        mask |= m
    return mask


def _assign(var, masks, kept, utilities, cards, batched):
    """Observation rule: slice each input at the observed value; nothing is
    multiplied.  A batched input keeps its batch axis."""
    k = len(kept) - utilities
    return ([(m, _without(s, var), i >= k, b)
             for i, (m, s, b) in enumerate(zip(masks, kept, batched))],
            partial(_take, var, [s.index(var) + b for s, b in zip(kept, batched)]))


def _take(var, axes, arrays, context):
    value = context.values[var]
    # take copies, so a slice does not keep the table it came from alive.
    return [a.take(value, axis) for a, axis in zip(arrays, axes)], None


def _gather(var, masks, kept, utilities, cards, batched):
    """Observation rule for a varying variable: ``values[var]`` is an index
    vector with one value per batch row, and row ``r`` of each result is its
    input (row ``r`` of it, if batched) sliced at value ``values[var][r]``.
    Every result is batched."""
    k = len(kept) - utilities
    return ([(m, _without(s, var), i >= k, True) for i, (m, s) in enumerate(zip(masks, kept))],
            partial(_gathered, var, [s.index(var) + b for s, b in zip(kept, batched)], batched))


def _gathered(var, axes, batched, arrays, context):
    index = context.values[var]
    rows = np.arange(len(index))
    # Indexing by arrays copies, so no result keeps its table alive.
    return [np.moveaxis(a, axis, 1)[rows, index] if b else np.moveaxis(a, axis, 0)[index]
            for a, axis, b in zip(arrays, axes, batched)], None


def _eliminate(var, masks, kept, utilities, cards, batched, reduce):
    """Sum or max rule: eliminate the variable from the probability product
    by ``reduce(product, axis) -> (marginal, choices)``.

    The bucket's utilities are averaged out as well: their sum weighted by
    the product, summed over the variable and divided by the marginal where
    it is positive.  A bucket with utilities is never batched.
    """
    k = len(kept) - utilities
    if not k:
        raise ValueError("multiply needs at least one factor")
    over = _union(kept[:k])
    scope = _without(over, var)
    shapes = _batched_shapes(kept[:k], over, cards, batched[:k])
    lead = any(batched)  # the batch axis comes first
    axis = over.index(var) + lead
    mask = _joined(masks[:k])
    probe = batched.index(True) if lead else 0  # see _out
    if not utilities:
        return [(mask, scope, False, lead)], partial(_reduced, shapes, probe, reduce, axis)
    joint = _union(kept)
    rest = _without(joint, var)
    # The weighted product continues in the product's own array where it
    # has its shape (None); the product of one table is that table's view.
    weighted = None if k > 1 and joint == over else _aligned(joint, joint, cards)
    return ([(mask, scope, False, False), (_joined(masks[k:], mask), rest, True, False)],
            partial(_averaged, k, shapes, reduce, axis,
                    [_aligned(s, joint, cards) for s in kept[k:]], _aligned(over, joint, cards),
                    weighted, joint.index(var), _aligned(rest, rest, cards),
                    _aligned(scope, rest, cards)))


def _out(scratch, key, shapes, arrays, probe=0):
    """Where a fold of ``arrays`` viewed in ``shapes`` writes: ``scratch``'s
    buffer ``key``, in the shape they broadcast to, or None (fresh arrays)
    for a single array or when input ``probe``, the first or one with the
    batch axis, has fewer than ``SCRATCH_CELLS`` cells.  The test is made
    as the step runs, since one on the scopes would cost every plan more."""
    if len(arrays) == 1 or _narrow(arrays[probe].size):
        return None
    return scratch.take(key, np.broadcast_shapes(*[a.reshape(s).shape
                                                   for a, s in zip(arrays, shapes)]))


def _reduced(shapes, probe, reduce, axis, arrays, context):
    """The product of the probability tables, reduced over ``axis``."""
    scratch = context.scratch
    product = _fold(arrays, shapes, np.multiply, _out(scratch, "product", shapes, arrays, probe))
    marginal, choices = reduce(product, axis, scratch)
    return [marginal], choices


def _averaged(k, shapes, reduce, axis, totals, shape, weighted, joint_axis, rest, denom,
              arrays, context):
    """The marginal of the first ``k`` tables, and the average of the
    utilities after them weighted by their product."""
    scratch = context.scratch
    probs, utils = arrays[:k], arrays[k:]
    product = _fold(probs, shapes, np.multiply, _out(scratch, "product", shapes, probs))
    marginal, choices = reduce(product, axis, scratch)
    total = _finite(_fold(utils, totals, np.add, _out(scratch, "total", totals, utils)))
    # Cells the probability part rules out contribute no utility; where a
    # product cell is > 0 so is d, so its overflow reaches the average.
    weighted = product if weighted is None else scratch.take("weighted", weighted)
    np.multiply(product.reshape(shape), total, out=weighted)
    numer = fold_sum(weighted, joint_axis, scratch.take("numer", rest))
    d = marginal.reshape(denom)
    return [marginal, np.divide(numer, d, out=np.zeros_like(numer), where=d != 0)], choices


def _decide(var, masks, kept, utilities, cards, batched):
    """Decision rule: maximize the bucket's additive utility sum over the
    decision values its probability factors leave possible.

    Probability magnitudes cancel out of the conditional expected utility,
    but their zeros mark decision values under which the evidence cannot
    occur; those cells are excluded from the maximization.  Contexts with no
    supported value are passed down dead (support 0, utility 0) so later
    buckets exclude them too.  A decision bucket is never batched.
    """
    scope = _union(kept)
    rest, mask = _without(scope, var), _joined(masks)
    return ([(mask, rest, True, False), (mask, rest, False, False)],
            partial(_decided, len(kept) - utilities, [_aligned(s, scope, cards) for s in kept],
                    tuple(cards[v] for v in scope), scope.index(var)))


def _decided(k, shapes, full, axis, arrays, context):
    theta = np.zeros(full)
    if len(arrays) > k:
        theta = _finite(theta + _fold(arrays[k:], shapes[k:], np.add))
    alive = np.ones(full, dtype=bool)
    for a, shape in zip(arrays[:k], shapes[:k]):
        alive &= a.reshape(shape) > 0
    best, choices = fold_max(np.where(alive, theta, -np.inf), axis, context.scratch)
    support = alive.any(axis=axis)
    return [np.where(support, best, 0.0), support.astype(np.float64)], choices


def _sum_out(product, axis, scratch):
    return fold_sum(product, axis), None


# The rules an unobserved bucket may apply; an observed one applies _assign.
_RULES = {"sum": partial(_eliminate, reduce=_sum_out),
          "max": partial(_eliminate, reduce=fold_max), "decide": _decide}


class Sweep:
    """The running state of a sweep: each slot's array (None once consumed),
    the observed values, the folded scalars and the choice tables of the
    maximized variables, each over the scope it keeps once the observed
    variables take their values.  :meth:`run` executes one planned step on
    it."""

    def __init__(self, ordering: Ordering, values: Mapping[int, int], slots: list):
        self.ordering = ordering
        self.values = values      # an in-range value for every observed variable
        self.slots = slots
        self.scalar = 1.0         # product of empty-scope probability results
        self.util_scalar = 0.0    # sum of empty-scope utility results
        self.arg_tables: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}  # var -> (scope, choices)

    def fold(self, value, utility: bool) -> None:
        """Fold an empty-scope result into its running scalar and check it.
        A batched result, one value per batch row, makes the scalar a vector."""
        value = value if np.ndim(value) else float(value)
        if utility:
            self.util_scalar = _finite(self.util_scalar + value)
        else:
            self.scalar = _finite(self.scalar * value)

    def row(self, r: int) -> "Sweep":
        """Row ``r`` of a batched sweep: its observed values, scalars and
        choice tables, as the sweep of that combination alone."""
        def at(x):
            return x[r] if np.ndim(x) else x
        values = {v: int(at(x)) for v, x in self.values.items()}
        picked = Sweep(self.ordering, values, [])
        picked.scalar, picked.util_scalar = float(at(self.scalar)), float(at(self.util_scalar))
        # A batched choice table has one axis more than its scope; a varying
        # variable of its scope takes its value in row r.
        picked.arg_tables = {
            v: _restricted(scope, choices[r] if choices.ndim > len(scope) else choices, values)
            for v, (scope, choices) in self.arg_tables.items()}
        return picked

    def run(self, step: Step, context: Context) -> None:
        """Execute ``step`` in ``context``: drop the tables it reads, run its
        rule, keep any choice table, then file or fold its results.  A
        computed table is checked as it is filed; a slice is of tables
        already checked."""
        slots = self.slots
        ins = [slots[i] for i in step.reads]
        for i in step.reads:
            slots[i] = None
        if step.run is None:  # a fixed variable's bucket folds the tables it empties
            for a, utility in zip(ins, [u for slot, u in step.outputs if slot == FOLD]):
                self.fold(a, utility)
            return
        outs, choices = step.run(ins, context)
        if choices is not None:
            self.arg_tables[step.variable] = (step.planner.kept[step.first], choices)
        for (slot, utility), out in zip(step.outputs, outs):
            if slot == FOLD:
                self.fold(out, utility)
            else:
                slots[slot] = out if step.op == "assign" else _finite(out)


def execute(plan: Plan, arrays: Sequence[np.ndarray], values: Mapping[int, int]) -> Sweep:
    """Run ``plan`` on the tables' value arrays, one per input slot.

    ``values`` holds an in-range value for every observed variable the plan
    scatters: for a varying variable, an index vector with one value per
    batch row.  The fixed variables' values are applied first, each table
    restricted once, as a view; then the steps that do something run.  Each
    step drops its inputs before the next runs, so a table lives only until
    its bucket is processed.  A sum or product that overflows is refused by
    the finiteness checks, not warned about.  The steps' intermediates share
    one :class:`Scratch`, dropped when this call returns, so concurrent
    calls on one plan stay independent.
    """
    slots = [*arrays, *[None] * (len(plan.planner.masks) - len(arrays))]
    # Each index template holds a fixed variable's id at its axis, -1 at a
    # free axis and -2 last, so that a fully indexed table stays an array.
    index = {**values, -1: _ALL, -2: Ellipsis}.__getitem__
    for slot, template in plan.restricted.items():
        slots[slot] = slots[slot][tuple(map(index, template))]
    sweep = Sweep(plan.ordering, values, slots)
    context = Context(values, Scratch())
    with np.errstate(over="ignore", invalid="ignore"):
        for slot, utility in plan.folds:
            sweep.fold(slots[slot], utility)
            slots[slot] = None
        for step in plan.steps:
            if step.reads:  # a skipped bucket, or a fixed one that folds nothing, does nothing
                sweep.run(step, context)
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
        scopes, slots = self._planner.built(), self.slots

        def tables(filed):
            return [DiscreteFactor(scopes[i], slots[i].shape, slots[i]) for i in filed]
        filed = self._planner.filed
        return {v: Bucket(v, *map(tables, filed.get(v, _EMPTY)), self.values.get(v))
                for v in self.ordering}

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
        if not f.scope:
            self.fold(f.values, utility)  # an overflow raises before anything is filed
        slot = self._planner.file(self._planner.mask(f.scope), f.scope, utility)
        cards.update(zip(f.scope, f.cards))
        self.slots.append(None if slot == FOLD else f.values)

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
        """Plan and run one bucket; a refused one leaves the schedule as it
        was.  A choice table is kept over the scope it keeps once the
        observed variables take their values, as :func:`execute` keeps it."""
        planner = self._planner
        filed, widest = planner.filed.get(var), planner.widest
        step = planner.step(var, op)
        saved = [self.slots[i] for i in step.reads], self.scalar, self.util_scalar
        self.slots += [None] * (len(planner.masks) - len(self.slots))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                self.run(step, Context(self.values, Scratch()))
        except BaseException:
            planner.unstep(step, filed, widest)
            del self.slots[step.first:]
            for i, a in zip(step.reads, saved[0]):
                self.slots[i] = a
            self.scalar, self.util_scalar = saved[1:]
            self.arg_tables.pop(var, None)
            raise
        if step.op == "max":
            self.arg_tables[var] = _restricted(*self.arg_tables[var], self.values)
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
