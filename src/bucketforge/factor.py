"""Dense table algebra over discrete variable scopes.

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

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ZeroMassError


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
        values = self.values
        if not (type(values) is np.ndarray and values.dtype == np.float64
                and values.shape == cards and _locked(values)):
            values = np.array(values, dtype=np.float64).reshape(cards)
            values.setflags(write=False)
        if not np.isfinite(values).all():
            raise ValueError("factor values must be finite")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "values", values)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def scalar(cls, value: float) -> "DiscreteFactor":
        return cls((), (), np.asarray(float(value)))

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

    # -- basic queries ---------------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return not self.scope

    def card_of(self, var: int) -> int:
        return self.cards[self.scope.index(var)]

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

    def eliminate(self, var: int, op: str) -> tuple["DiscreteFactor", "ArgTable | None"]:
        """Remove ``var`` by summing or maximizing over its values.

        For ``op == "max"`` also returns the table of maximizing values;
        ties go to the lowest value index.
        """
        axis = self.scope.index(var)
        rest = self.scope[:axis] + self.scope[axis + 1:]
        cards = self.cards[:axis] + self.cards[axis + 1:]
        if op == "sum":
            return DiscreteFactor(rest, cards, fold_sum(self.values, axis)), None
        if op == "max":
            reduced, choices = fold_max(self.values, axis)
            return DiscreteFactor(rest, cards, reduced), ArgTable(var, rest, cards, choices)
        raise ValueError(f"unknown elimination operator {op!r}")

    def normalized(self) -> tuple["DiscreteFactor", float]:
        """Scale entries to total mass one; returns (factor, original mass)."""
        if np.any(self.values < 0):
            raise ValueError("cannot normalize a table with negative entries")
        mass = float(self.values.sum())
        if mass == 0.0:
            raise ZeroMassError("table has zero total mass")
        return DiscreteFactor(self.scope, self.cards, self.values / mass), mass


@dataclass(frozen=True, eq=False)
class ArgTable:
    """Maximizing value of one eliminated variable, per remaining cell."""

    variable: int
    scope: tuple[int, ...]
    cards: tuple[int, ...]
    choices: np.ndarray

    def __post_init__(self):
        choices = np.array(self.choices, dtype=np.int64).reshape(self.cards)
        choices.setflags(write=False)
        object.__setattr__(self, "choices", choices)

    def choice_at(self, assignment: Mapping[int, int]) -> int:
        return int(self.choices[tuple(assignment[v] for v in self.scope)])


def _slices(values: np.ndarray, axis: int) -> list[np.ndarray]:
    # The trailing Ellipsis keeps 0-d slices arrays rather than scalars.
    head = (slice(None),) * axis
    return [values[head + (i, Ellipsis)] for i in range(values.shape[axis])]


def fold_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """``values.sum(axis)`` as k - 1 additions of whole slices.

    numpy reduces a short axis with a length-k inner loop per output cell;
    adding whole slices runs one output-sized loop per value instead.  The
    additions run in index order, as numpy's do except along a contiguous
    last axis with k >= 8, where numpy sums pairwise and the two can differ
    in the last bit.
    """
    slices = _slices(values, axis)
    if len(slices) == 1:
        return np.array(slices[0])
    out = np.add(slices[0], slices[1], out=np.empty(slices[0].shape))
    for s in slices[2:]:
        np.add(out, s, out=out)
    return out


def fold_max(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``values.max(axis)`` and the lowest index attaining it, by slices.

    A strictly greater slice value moves the choice to that slice's index,
    so ties keep the lowest value.  The index grows with each slice, so the
    running choice is updated by a maximum instead of a masked write, in
    the smallest integer type that holds it, which is also the type
    returned.
    """
    slices = _slices(values, axis)
    best = np.array(slices[0])
    index = np.min_scalar_type(len(slices) - 1).type
    choices = np.zeros(best.shape, dtype=index)
    for i, s in enumerate(slices[1:], 1):
        better = s > best
        np.maximum(best, s, out=best)
        np.maximum(choices, better * index(i), out=choices)
    return best, choices


def _merged_scope(factors: Sequence[DiscreteFactor]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cards: dict[int, int] = {}
    for f in factors:
        for v, c in zip(f.scope, f.cards):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"cardinality conflict for variable {v}")
    scope = tuple(sorted(cards))
    return scope, tuple(cards[v] for v in scope)


def multiply(factors: Sequence[DiscreteFactor]) -> DiscreteFactor:
    """Pointwise product; output scope is the sorted union of input scopes."""
    if not factors:
        raise ValueError("multiply needs at least one factor")
    scope, cards = _merged_scope(factors)
    acc = factors[0].aligned_values(scope)
    for f in factors[1:]:
        acc = acc * f.aligned_values(scope)
    # Every scope variable has its full extent in some factor, so the
    # broadcast product already has the full shape.
    return DiscreteFactor(scope, cards, acc)


def add(factors: Sequence[DiscreteFactor]) -> DiscreteFactor:
    """Pointwise sum over the sorted union of input scopes."""
    if not factors:
        raise ValueError("add needs at least one factor")
    scope, cards = _merged_scope(factors)
    acc = factors[0].aligned_values(scope)
    for f in factors[1:]:
        acc = acc + f.aligned_values(scope)
    return DiscreteFactor(scope, cards, acc)
