"""Dense tables over discrete variable scopes, and the kernels on them.

The kernels are the one home of the table rules: ``_fold`` combines arrays
viewed in their broadcast shapes (``_aligned``), ``fold_sum`` and
``fold_max`` eliminate an axis, and ``_finite`` rejects a non-finite value.
The bucket sweep runs them on bare arrays; the factor algebra
(``multiply``, ``add``, ``eliminate``, ``restrict``) runs them on factors.
Only the factor constructor, the sweep and ``engines.solve_belief`` call
``_finite``, on what they keep.

A table a kernel returns to be kept is a fresh array.  Its intermediates
(a fold that goes on past two arrays, ``fold_max``'s per-slice comparison,
a sum written where its caller says) can live in a :class:`Scratch`, whose
buffers one sweep reuses from bucket to bucket for intermediates of
``SCRATCH_CELLS`` cells or more; smaller ones are fresh arrays.  A fold
continues in its own output, so every cell goes through the same
operations in the same order as with a fresh array per operation, and
gives the same bits.

A wide operation runs with long inner loops.  numpy runs a broadcast
operation as one inner loop over the trailing axes on which every operand
is contiguous, and an outer loop over the rest.  A small table broadcast
over a bucket's middle axes is contiguous only over its own innermost few
cells, so its product with a wide message would run an inner loop of 3 to
9 cells some 20 000 times.  So when a fold is written in an output of
``SCRATCH_CELLS`` cells or more, which the bucket rules give it when its
widest array has that many cells, each other array is first copied, in C
order, broadcast over a run of trailing axes on which the widest array is
full: the longest run over which no copy passes ``STRETCH_CELLS`` cells
(:func:`_stretched`).  Each copy holds at most a few thousand cells, and
the inner loop then spans the whole run, hundreds of cells.  Copying and
broadcasting move values unchanged, so every cell is the same product or
sum of the same numbers in the same order, and the same bits.

A factor holds one real value per joint assignment of its scope.  The scope
is always kept sorted by variable id, so factors over the same variables are
comparable entrywise, and ``values`` carries one axis per scope variable in
that order.  Empty-scope factors are ordinary scalars and participate in
every operation.

Every factor, an algebra result included, is built by the validating
constructor, which copies its values and write-locks the copy.  The copy is
skipped only for a float64 array of the factor's shape that no writable
array shares memory with: a read-only array whose bases are read-only down
to the array that owns the memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


def _locked(values: np.ndarray) -> bool:
    """Whether ``values`` and every array it views are read-only, down to
    the array that owns the memory.  Memory from another kind of buffer
    does not count as locked.  A writable view taken before its owner was
    locked is not seen."""
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        if values.base is None:
            return True
        values = values.base
    return False


def _frozen(values, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``values`` as a finite, read-only float64 array, of ``shape`` if one
    is given.  An array that already is one, with read-only bases down to
    the array that owns the memory, is kept; anything else is copied and
    the copy, which owns its memory, is write-locked before it is reshaped."""
    if not (type(values) is np.ndarray and values.dtype == np.float64
            and shape in (None, values.shape) and _locked(values)):
        values = np.array(values, dtype=np.float64)
        values.setflags(write=False)
        if shape is not None:
            values = values.reshape(shape)
    return _finite(values)


@dataclass(frozen=True, eq=False)
class DiscreteFactor:
    """Immutable real-valued table over a sorted tuple of variable ids."""

    scope: tuple[int, ...]
    cards: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        scope = tuple(map(int, self.scope))
        cards = tuple(map(int, self.cards))
        if len(scope) != len(cards):
            raise ValueError("scope and cardinalities differ in length")
        if len(set(scope)) != len(scope):
            raise ValueError(f"duplicate variables in scope {scope}")
        if list(scope) != sorted(scope):
            raise ValueError(f"scope must be sorted by variable id, got {scope}")
        if cards and min(cards) < 1:
            raise ValueError("cardinalities must be >= 1")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "values", _frozen(self.values, cards))

    @classmethod
    def from_table(cls, scope: Sequence[int], cards: Sequence[int],
                   values: Sequence[float]) -> "DiscreteFactor":
        """Build a factor from a row-major table in the given scope order.

        The scope may be unsorted (file order); the table is transposed into
        the canonical ascending-id layout.
        """
        scope = [int(v) for v in scope]
        cards = [int(c) for c in cards]
        arr = np.asarray(values, dtype=np.float64).reshape(tuple(cards))
        order = sorted(range(len(scope)), key=lambda i: scope[i])
        return cls(tuple(scope[i] for i in order),
                   tuple(cards[i] for i in order),
                   arr.transpose(tuple(order)))

    def value_at(self, assignment: Mapping[int, int]) -> float:
        return float(self.values[tuple(assignment[v] for v in self.scope)])

    def aligned_values(self, scope: Sequence[int]) -> np.ndarray:
        """View of the table broadcastable over a sorted superset scope."""
        own = dict(zip(self.scope, self.cards))
        return self.values.reshape(tuple(own.get(v, 1) for v in scope))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteFactor):
            return NotImplemented
        return (self.scope == other.scope and self.cards == other.cards
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:  # compact, for traces and assertion messages
        return f"DiscreteFactor(scope={self.scope}, cards={self.cards})"

    # -- algebra ---------------------------------------------------------------

    def restrict(self, var: int, value: int) -> "DiscreteFactor":
        """Slice of the table with ``var`` pinned to ``value``."""
        axis = self.scope.index(var)
        if not 0 <= value < self.cards[axis]:
            raise ValueError(f"value {value} out of range for variable {var}")
        rest = self.scope[:axis] + self.scope[axis + 1:]
        cards = self.cards[:axis] + self.cards[axis + 1:]
        return DiscreteFactor(rest, cards, np.take(self.values, value, axis=axis))

    def eliminate(self, var: int, op: str) -> tuple["DiscreteFactor", np.ndarray | None]:
        """Remove ``var`` by summing or maximizing over its values.

        For ``op == "max"`` also returns the write-locked table of maximizing
        values, as :func:`fold_max` gives it; ties go to the lowest value
        index.
        """
        axis = self.scope.index(var)
        rest = self.scope[:axis] + self.scope[axis + 1:]
        cards = self.cards[:axis] + self.cards[axis + 1:]
        if op == "sum":
            return DiscreteFactor(rest, cards, fold_sum(self.values, axis)), None
        if op == "max":
            reduced, choices = fold_max(self.values, axis)
            choices.setflags(write=False)
            return DiscreteFactor(rest, cards, reduced), choices
        raise ValueError(f"unknown elimination operator {op!r}")


# Below this many cells an intermediate is a fresh array: numpy's and
# malloc's caches hand back warm memory for it, and a scratch view costs
# more to make than it saves.  At 2^14 float64 cells (128 KiB, malloc's
# default threshold for mapping a block from the OS) a fresh array's pages
# can be new ones, and each first touch of a new page is a page fault.
SCRATCH_CELLS = 1 << 14


def _narrow(cells: int) -> bool:
    """Whether an intermediate of ``cells`` cells is made fresh."""
    return cells < SCRATCH_CELLS


def _wide(arrays) -> bool:
    """Whether any of ``arrays`` has ``SCRATCH_CELLS`` cells or more.  A
    loop, since it runs once per bucket step and ``max(map(...))`` over a
    few arrays costs about twice as much."""
    for a in arrays:
        if a.size >= SCRATCH_CELLS:
            return True
    return False


class Scratch(dict):
    """Memory reused for the intermediates of the kernels: ``take(key,
    shape, dtype)`` is a view of the first cells of the buffer ``key``
    names, which grows to the largest shape asked of it.  A key is taken
    with one dtype only, and a view is valid until its key is taken again."""

    def take(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buffer = self.get(key)
        if buffer is None or buffer.size < n:
            buffer = self[key] = np.empty(n, dtype)
        return buffer[:n].reshape(shape)


def _slices(values: np.ndarray, axis: int) -> list[np.ndarray]:
    # The trailing Ellipsis keeps 0-d slices arrays rather than scalars.
    head = (slice(None),) * axis
    return [values[head + (i, Ellipsis)] for i in range(values.shape[axis])]


def fold_sum(values: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """``values.sum(axis)`` as k - 1 additions of whole slices, written in
    ``out`` if given, else in a fresh array.

    numpy reduces a short axis with a length-k inner loop per output cell;
    adding whole slices runs one output-sized loop per value instead.  The
    additions run in index order, as numpy's do except along a contiguous
    last axis with k >= 8, where numpy sums pairwise and the two can differ
    in the last bit.
    """
    slices = _slices(values, axis)
    out = np.empty(slices[0].shape) if out is None else out
    if len(slices) == 1:
        out[...] = slices[0]
        return out
    np.add(slices[0], slices[1], out=out)
    for s in slices[2:]:
        np.add(out, s, out=out)
    return out


# Below this many cells, numpy's max and argmax, two calls, cost less than
# the slice fold's four calls per slice; above it, argmax along an axis that
# is not the last one costs more than the whole slice fold.
REDUCE_CELLS = 256


def fold_max(values: np.ndarray, axis: int,
             scratch: Scratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``values.max(axis)`` and the lowest index attaining it, the index in
    the smallest unsigned integer type that holds it; both are fresh
    arrays.  The slice fold's per-slice arrays are made once for all the
    slices after the second, or taken from ``scratch`` if one is given and
    they have ``SCRATCH_CELLS`` cells or more.

    Below ``REDUCE_CELLS`` cells, numpy's max and argmax reduce the axis at
    once.  Otherwise, or when a maximum is zero, the axis is folded slice by
    slice: a strictly greater slice value moves the choice to that slice's
    index, so ties keep the lowest value, and since the index grows with
    each slice the running choice is updated by a maximum instead of a
    masked write.  The fold starts from the first two slices: their
    maximum, and whether the second is greater, which is the choice between
    index 0 and 1.  Both give the same values, bit for bit, and the same
    choices: the maximum of finite or infinite values is exact, and both
    break ties at the lowest index.  Only the sign of a zero maximum tied
    between +0 and -0 depends on the order numpy visits the cells in, and
    so a zero maximum always takes the slice fold.
    """
    index = np.min_scalar_type(values.shape[axis] - 1).type
    if values.size < REDUCE_CELLS:
        best = np.maximum.reduce(values, axis)
        if best.all():
            return np.asarray(best), np.asarray(values.argmax(axis), dtype=index)
    slices = _slices(values, axis)
    if len(slices) == 1:
        return np.array(slices[0]), np.zeros(slices[0].shape, dtype=index)
    # Each written in an array of its own, so that a 0-d one stays an array.
    first, second = slices[0], slices[1]
    best = np.maximum(first, second, out=np.empty(first.shape, values.dtype))
    choices = np.greater(second, first, out=np.empty(first.shape, index))
    if len(slices) == 2:
        return best, choices
    if scratch is None or _narrow(best.size):
        better, moved = np.empty(best.shape, bool), np.empty(best.shape, index)
    else:
        better, moved = (scratch.take("better", best.shape, bool),
                         scratch.take(index, best.shape, index))
    for i, s in enumerate(slices[2:], 2):
        np.greater(s, best, out=better)
        np.maximum(best, s, out=best)
        np.maximum(choices, np.multiply(better, index(i), out=moved), out=choices)
    return best, choices


def _aligned(scope: Sequence[int], over: Sequence[int], cards) -> tuple[int, ...]:
    """Shape of a table over ``scope`` broadcast over the sorted superset ``over``."""
    return tuple([cards[v] if v in scope else 1 for v in over])


def _finite(values):
    # A product of finite tables can overflow to inf, and inf times 0 is NaN.
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise ValueError("factor values must be finite")
    return values


def _fold(arrays, shapes, op, out=None):
    """Left fold of ``op`` over the arrays, each viewed in its broadcast
    shape; unchecked, since only what is kept is checked for finiteness.
    Two or more arrays are folded in ``out``, an array of the shape they
    broadcast to, if one is given: the first operation writes it and each
    later one continues in it.  A fold written in an ``out`` of
    ``SCRATCH_CELLS`` cells or more first stretches the arrays over the
    widest one's trailing axes (:func:`_stretched`); the bucket rules give
    an ``out`` only to a fold whose widest array has that many cells, so a
    narrow fold makes no test of its own."""
    if out is not None and not _narrow(out.size):
        arrays = _stretched([a.reshape(shape) for a, shape in zip(arrays, shapes)], out.shape)
        shapes = [a.shape for a in arrays]
    acc = arrays[0].reshape(shapes[0])
    for a, shape in zip(arrays[1:], shapes[1:]):
        acc = op(acc, a.reshape(shape), out=out)
    return acc


# The most cells a stretched copy of a wide fold's smaller array holds: a
# few thousand, so making the copy costs a few microseconds and the inner
# loop over it spans hundreds of cells.  Alternated in-process rounds on
# recorded dense buckets gave 1 << 10 a slower product than 1 << 12, and
# 1 << 14 no faster.
STRETCH_CELLS = 1 << 12


def _stretched(views, full: tuple[int, ...]) -> list[np.ndarray]:
    """``views``, arrays in their broadcast shapes over ``full``, with each
    but the widest copied in C order, broadcast over the trailing axes from
    some ``start`` on: the longest run of trailing axes on which the widest
    is full and no copy holds more than ``STRETCH_CELLS`` cells.  An array
    already full on those axes is kept as it is.  Each operand of a fold
    over the views is then contiguous over the whole run, which numpy's
    inner loop spans."""
    wide = max(views, key=np.size)
    heads = [v.size for v in views]  # each array's cells on the axes before ``start``
    spread = [False] * len(views)   # whether it is broadcast on an axis from ``start`` on
    start, run = len(full), 1
    while start and wide.shape[start - 1] == full[start - 1]:
        n = full[start - 1]
        run *= n
        for j, v in enumerate(views):
            k = v.shape[start - 1]
            heads[j] //= k
            spread[j] = spread[j] or k != n
        if any(s and h * run > STRETCH_CELLS for s, h in zip(spread, heads)):
            break
        start -= 1
    tail = full[start:]
    return [v if v.shape[start:] == tail
            else np.broadcast_to(v, v.shape[:start] + tail).copy() for v in views]


def _merged_scope(factors: Sequence[DiscreteFactor]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cards: dict[int, int] = {}
    for f in factors:
        for v, c in zip(f.scope, f.cards):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"cardinality conflict for variable {v}")
    scope = tuple(sorted(cards))
    return scope, tuple(cards[v] for v in scope)


def _combine(factors: Sequence[DiscreteFactor], op, name: str) -> DiscreteFactor:
    """``op`` folded over the factors on the sorted union of their scopes."""
    if not factors:
        raise ValueError(f"{name} needs at least one factor")
    scope, cards = _merged_scope(factors)
    by_var = dict(zip(scope, cards))
    # Every scope variable has its full extent in some factor, so the
    # broadcast result already has the full shape.
    return DiscreteFactor(scope, cards, _fold([f.values for f in factors],
                                              [_aligned(f.scope, scope, by_var)
                                               for f in factors], op))


def multiply(factors: Sequence[DiscreteFactor]) -> DiscreteFactor:
    """Pointwise product; output scope is the sorted union of input scopes."""
    return _combine(factors, np.multiply, "multiply")


def add(factors: Sequence[DiscreteFactor]) -> DiscreteFactor:
    """Pointwise sum over the sorted union of input scopes."""
    return _combine(factors, np.add, "add")
