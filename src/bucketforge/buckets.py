"""The bucket machine: a structural plan of the backward sweep, and its executor.

Every query engine works the same way: tables are filed into the bucket of
their highest-ordered scope variable, buckets are processed from the last
ordering position to the first, and each bucket either scatters restricted
slices (observed variable) or applies the engine's bucket rule to its
contents and files the results further down.  Empty-scope results fold into
running scalars.

Which tables meet in which bucket, and every shape along the way, depends
only on the scopes, the ordering, the observed set and each bucket's rule.
:func:`plan` works all of that out once, from integer position masks (bit
``p`` for ordering position ``p``) and the variables each table keeps;
:func:`execute` runs the plan on arrays, again for other numbers or other
observed values.  A table is held in a numbered slot and dropped once the
step that consumes it has run; each table a step keeps is a fresh array,
and the intermediates of wide buckets live in one scratch per
:func:`execute` call.  A step's :class:`TraceEntry` is built only when
:attr:`Step.entry` or :attr:`Plan.trace` is read.

The evidence is applied once, before the sweep.  An observed variable with
one value is fixed: :func:`execute` restricts every table at the fixed
variables of its scope, each with one basic index, a view, and each rule
runs over the variables its tables keep.  A fixed variable's bucket is
still planned and traced as ``assign``, the paper's observed-bucket step,
but runs nothing and numbers no slot: each table it holds is refiled by its
own slot where slicing would file the slice, and one over no variable left
folds into its scalar.  Slicing commutes with elementwise products and
slice folds, so every product, sum, maximum, choice table and scalar is the
one slicing bucket by bucket gives, bit for bit.  A cell at an unobserved
value of an observed variable is never computed, so a non-finite one is not
refused.

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
_new = tuple.__new__  # builds a Step from its fields without NamedTuple's call
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
    variable, which numbers no slot: its result ``j`` is input ``j``'s
    table, already restricted, refiled by the same slot, and ``reads`` lists
    the slots of those it folds."""

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
        return self.traced(self.planner.built())

    def traced(self, scopes) -> TraceEntry:
        """This step's trace entry over the slot scopes ``scopes``.  An input
        that fixed buckets refiled here is over its slot's scope cut at this
        bucket: the variables above it are fixed ones already processed."""
        planner, var = self.planner, self.variable
        bit, masks, cards, top = planner.bit, planner.masks, planner.cards, planner.bit[var] << 1
        ins = []
        for i in self.inputs:
            scope = scopes[i]
            if masks[i] >= top:
                cut = []
                for v in scope:
                    if bit[v] < top:
                        cut.append(v)
                scope = tuple(cut)
            ins.append(scope)
        if self.run is None and ins:  # result j is input j's scope less the variable
            outs = tuple([_without(s, var) for s in ins])
        else:
            outs = tuple(scopes[self.first:self.first + len(self.outputs)])
        cells = 0
        for scope in outs:
            cells += math.prod(map(cards.__getitem__, scope))
        return TraceEntry(var, self.op, tuple(ins), outs, cells)


class Plan(NamedTuple):
    """The steps of one sweep, in the order they run."""

    ordering: Ordering
    steps: tuple[Step, ...]
    planner: "_Planner"                   # the planner of its steps, which holds its slots
    folds: tuple[tuple[int, bool], ...]   # empty-scope inputs: (slot, is a utility)
    left: dict[int, tuple[int, ...]]      # slots holding the probability tables of unprocessed buckets
    max_generated_scope: int
    restricted: tuple[int, ...]           # the input slots whose tables hold a fixed variable

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        """Each step's trace entry, in the order the steps run."""
        scopes = self.planner.built()
        return tuple([step.traced(scopes) for step in self.steps])

    def widest_read(self) -> int:
        """The most cells in the scope union of one step's inputs (1 if
        none), read off their masks up to the step's variable."""
        planner, sequence = self.planner, self.ordering.sequence
        unions = (_joined(map(planner.masks.__getitem__, step.inputs))
                  & ((planner.bit[step.variable] << 1) - 1) for step in self.steps)
        return max((math.prod([planner.cards[sequence[p]] for p in _bits(union)])
                    for union in unions), default=1)


class _Planner:
    """Files slots into the buckets of one ordering and plans one bucket at a time.

    Slot ``i`` holds a table over the variables of ``masks[i]``, bit ``p``
    standing for the variable at ordering position ``p``; it is filed into
    the bucket of its highest bit (an empty-scope slot folds instead), and a
    bucket's inputs are its probability slots, then its utility slots, each
    in filing order.  The ``fixed`` variables' values are applied to every
    table before the sweep: slot ``i``'s table is over ``kept[i]``, the
    unfixed variables of its scope in id order, and a fixed variable's
    bucket refiles each slot it holds by its bits below the variable's.
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
        self.batched: set[int] = set()  # the slots with a leading batch axis
        # The slots in each bucket that holds any: probability tables, then
        # utilities.  A processed bucket is dropped.
        self.filed: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
        self.given = given  # the scope of each input slot
        self._built: list[tuple[int, ...]] | None = None  # every slot's scope, once built
        self.widest = 0  # the largest scope a sum or max rule generated

    def built(self) -> list[tuple[int, ...]]:
        """Each slot's scope as numbered, in id order: the variables it keeps
        (its array is over its ``kept`` entry), and the fixed ones its mask
        holds; :attr:`kept` itself when none is fixed.  A slot that fixed
        buckets refile keeps their variables here; :meth:`Step.traced` cuts
        them off at each bucket.  With a fixed variable the planning is done
        before anything reads it: the list is built on the first read and
        published whole, so threads reading at once each build an equal
        one."""
        if not self.fixed_mask:
            return self.kept
        if self._built is None:  # given inputs, then results
            built, sequence = list(map(tuple, self.given)), self.ordering.sequence
            first = len(built)
            for mask, kept in zip(self.masks[first:], self.kept[first:]):
                fixed = mask & self.fixed_mask
                built.append(tuple(sorted((*kept, *[sequence[p] for p in _bits(fixed)])))
                             if fixed else kept)
            self._built = built
        return self._built

    def file(self, scopes: Sequence[Sequence[int]], first_utility: int):
        """File a new slot for a table over each sorted scope, those from
        ``first_utility`` on utilities.  Returns the (slot, is a utility)
        pairs of the empty scopes, which fold instead, and the slots whose
        tables hold a fixed variable."""
        masks, kept, bit, fixed, filed = self.masks, self.kept, self.bit, self.fixed, self.filed
        fixed_mask, sequence, folds, restricted = self.fixed_mask, self.ordering.sequence, [], []
        for j, scope in enumerate(scopes):
            scope, mask = tuple(scope), 0
            try:
                for v in scope:
                    mask |= bit[v]
            except KeyError:
                raise ValueError(f"table over scope {scope} names variables "
                                 f"{[v for v in scope if v not in bit]} that the ordering "
                                 "lacks") from None
            slot, utility = len(masks), j >= first_utility
            masks.append(mask)
            if mask & fixed_mask:
                restricted.append(slot)
                unfixed = []
                for v in scope:
                    if v not in fixed:
                        unfixed.append(v)
                scope = tuple(unfixed)
            kept.append(scope)
            if not mask:
                folds.append((slot, utility))
            else:
                filed[sequence[mask.bit_length() - 1]][utility].append(slot)
        return folds, restricted

    def step(self, var: int, op: str) -> Step:
        """Plan the bucket of ``var`` by rule ``op`` and file its results.

        The bucket of an observed variable is scattered whatever ``op`` is,
        and an empty one is skipped.  Each result is filed as the rule gives
        it, by its mask's bits below the variable's.  The bucket is emptied
        only once its rule is planned, so a refused step leaves it as it was.
        """
        filed = self.filed
        probs, utils = filed.get(var, _EMPTY)
        if not (probs or utils) and var not in self.bit:
            raise ValueError(f"no bucket for variable {var}: the ordering lacks it")
        if var in self.observed:
            op = "assign"
        elif op not in _RULES:
            raise ValueError(f"no bucket rule {op!r} for unobserved variable {var}: "
                             f"the rules are {', '.join(map(repr, _RULES))}")
        if not (probs or utils):
            # Most buckets of a pruned belief or MAP sweep are empty, so
            # this path plans no rule.
            return Step(var, (), (), (), "skip", len(self.masks), None, self)
        masks, kept, batched = self.masks, self.kept, self.batched
        inputs = (*probs, *utils) if utils else tuple(probs)
        bit, sequence, outputs, first = self.bit[var], self.ordering.sequence, [], len(masks)
        if var in self.fixed:
            # Each slot is refiled as it stands, its table restricted before
            # the sweep; one with no variable left folds where the step stands.
            reads, below, k = [], bit - 1, len(probs)
            for j, i in enumerate(inputs):
                mask, utility = masks[i] & below, j >= k
                if mask:
                    filed[sequence[mask.bit_length() - 1]][utility].append(i)
                    outputs.append((i, utility))
                else:
                    outputs.append((FOLD, utility))
                    reads.append(i)
            del filed[var]
            return _new(Step, (var, inputs, tuple(reads), tuple(outputs), op, first, None, self))
        # Only a plan with varying variables has batched slots.
        flags = [i in batched for i in inputs] if batched else None
        ms, ks = [], []  # loops here and in the rules: a comprehension is a call in Python 3.11
        for i in inputs:
            ms.append(masks[i])
            ks.append(kept[i])
        if op == "assign":
            results, run = _assign(var, ms, ks, len(utils), flags, var in self.varying)
        elif flags and any(flags) and (utils or op == "decide"):
            raise ValueError(f"the bucket of {var} would batch utilities or a decision: "
                             "only probability sweeps run in batches")
        else:
            results, run = _RULES[op](var, ms, ks, len(utils), self.cards, flags)
        del filed[var]
        widest, below = self.widest, bit - 1
        for mask, scope, utility, lead in results:
            mask &= below  # less the variable, and the fixed ones above it
            slot = len(masks)
            masks.append(mask)
            kept.append(scope)
            if lead:
                batched.add(slot)
            if mask:
                filed[sequence[mask.bit_length() - 1]][utility].append(slot)
                if mask.bit_count() > widest:
                    widest = mask.bit_count()
            else:
                slot = FOLD
            outputs.append((slot, utility))
        if op != "assign":
            op, self.widest = "max" if op == "decide" else op, widest
        return _new(Step, (var, inputs, inputs, tuple(outputs), op, first, run, self))

    def unstep(self, step: Step, filed: tuple[list[int], list[int]], widest: int) -> None:
        """Undo ``step``, the last one planned: take its results out of their
        buckets and refile its bucket's ``filed`` slots.  Only a schedule,
        which fixes and batches no variable, undoes a step."""
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
    value is applied to each table before the sweep, and its bucket refiles
    its tables and runs nothing, though it is traced as the scatter it is.
    """
    varying = frozenset(varying)
    observed = frozenset(observed) | varying
    fixed = observed.intersection(ops, ordering.sequence) - varying
    planner = _Planner(ordering, cards, observed, varying, fixed, scopes)
    folds, restricted = planner.file(scopes, len(scopes) - utilities)
    step = planner.step
    steps = tuple([step(var, ops[var]) for var in reversed(ordering.sequence) if var in ops])
    return Plan(ordering, steps, planner, tuple(folds),
                {v: tuple(probs) for v, (probs, _) in planner.filed.items() if probs},
                planner.widest, tuple(restricted))


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
# the position masks of its inputs (the last ``utilities`` of them
# utilities), the variables each input's array keeps, the cards, and whether
# each input is batched, or None when none is.  It returns the results as
# (mask, kept variables, is a utility, is batched), in filing order, each
# mask its inputs' union, which the step files by its bits below the
# variable's; and ``run``, whose shapes are built over the kept variables.

def _union(scopes) -> tuple[int, ...]:
    return tuple(sorted(set().union(*scopes))) if len(scopes) > 1 else scopes[0]


def _joined(masks, mask: int = 0) -> int:
    """The union of position masks."""
    for m in masks:
        mask |= m
    return mask


def _assign(var, masks, kept, utilities, batched, gather):
    """Observation rule: slice each input at the observed value; nothing is
    multiplied.  A batched input keeps its batch axis.  A varying variable
    ``gather``s: ``values[var]`` is an index vector with one value per batch
    row, row ``r`` of each result is its input (row ``r`` of it, if batched)
    sliced at value ``values[var][r]``, and every result is batched."""
    k, batched = len(kept) - utilities, batched or [False] * len(kept)
    axes = [s.index(var) + b for s, b in zip(kept, batched)]
    return ([(m, _without(s, var), i >= k, gather or b)
             for i, (m, s, b) in enumerate(zip(masks, kept, batched))],
            partial(_gathered, var, axes, batched) if gather else partial(_take, var, axes))


def _take(var, axes, arrays, context):
    value = context.values[var]
    # take copies, so a slice does not keep the table it came from alive.
    return [a.take(value, axis) for a, axis in zip(arrays, axes)], None


def _gathered(var, axes, batched, arrays, context):
    index = context.values[var]
    rows = np.arange(len(index))
    # Indexing by arrays copies, so no result keeps its table alive.
    return [np.moveaxis(a, axis, 1)[rows, index] if b else np.moveaxis(a, axis, 0)[index]
            for a, axis, b in zip(arrays, axes, batched)], None


def _eliminate(reduce, var, masks, kept, utilities, cards, batched):
    """Sum or max rule: eliminate the variable from the probability product
    by ``reduce(product, axis) -> (marginal, choices)``.

    The bucket's utilities are averaged out as well: their sum weighted by
    the product, summed over the variable and divided by the marginal where
    it is positive.  A bucket with utilities is never batched.
    """
    k = len(kept) - utilities
    if not k:
        raise ValueError("multiply needs at least one factor")
    probs = kept[:k] if utilities else kept
    over = _union(probs)
    axis = over.index(var)
    scope, mask, shapes = over[:axis] + over[axis + 1:], 0, []
    for m, s in zip(masks, probs):  # each input's shape broadcast over the product's scope
        mask |= m
        shape = []
        for v in over:
            shape.append(cards[v] if v in s else 1)
        shapes.append(tuple(shape))
    if batched and any(batched):  # a leading batch axis: -1 on a batched input, else 1
        return ([(mask, scope, False, True)],
                partial(_reduced, [(-1 if b else 1, *shape) for b, shape in zip(batched, shapes)],
                        batched.index(True), reduce, axis + 1))  # see _out for the probe
    if not utilities:
        return [(mask, scope, False, False)], partial(_reduced, shapes, 0, reduce, axis)
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
_RULES = {"sum": partial(_eliminate, _sum_out), "max": partial(_eliminate, fold_max),
          "decide": _decide}


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
    if plan.restricted:  # each axis at its fixed variable's value, or whole
        index = dict.fromkeys(plan.ordering.sequence, _ALL)
        index.update({v: values[v] for v in plan.planner.fixed})
        for slot in plan.restricted:  # Ellipsis last keeps a fully indexed table an array
            slots[slot] = slots[slot][(*map(index.__getitem__, plan.planner.given[slot]), ...)]
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
        folds, _ = self._planner.file([f.scope], 0 if utility else 1)
        cards.update(zip(f.scope, f.cards))
        self.slots.append(None if folds else f.values)

    def record(self, entry: TraceEntry) -> None:
        self.trace.append(entry)
        if entry.op in ("sum", "max"):  # the largest table scope a rule generated
            self.max_generated_scope = max(self.max_generated_scope,
                                           *map(len, entry.output_scopes))

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
