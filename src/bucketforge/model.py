"""Model types and the plain-text formats they travel in.

Network format (whitespace-separated tokens):

    line 1: ``BAYES`` or ``ID``
    line 2: variable count n
    line 3: n cardinalities
    BAYES:  a count line (must equal n), then n scope lines ``k id_1 .. id_k``
            with id_k the child, then n table blocks, each an entry count
            followed by that many values, row-major in the scope-line order.
    ID:     after the cardinalities a line ``k d_1 .. d_k`` naming the
            decision variables, then the BAYES-style table section covering
            the chance variables only, then a line ``m`` and m utility
            blocks (scope line, entry count, values).

The reader converts and checks each section in one array pass: the
cardinalities, all scope lines, all entry counts, then all entries.  A section
whose pass finds a fault is read again token by token, so the error raised, its
line and column, and which of two faults comes first are those of a reader
that goes one token at a time.

Evidence files start with a pair count followed by ``variable value`` pairs.
CNF theories use standard DIMACS (``p cnf V C``).
"""

from __future__ import annotations

import math
import re
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (CycleError, EvidenceError, ModelError, NormalizationError,
                     ParseError)
from .factor import DiscreteFactor, _finite, _frozen

ROW_SUM_TOLERANCE = 1e-9


def _negative_entry(child: int) -> NormalizationError:
    return NormalizationError(f"table for variable {child} has a negative entry")


def _row_faults(block: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row sums of a group of conditional tables, one table per leading
    index of ``block`` with its child along ``axis``, and per table whether
    a row is off 1 by more than ``ROW_SUM_TOLERANCE`` and whether an entry
    is negative."""
    g = len(block)
    sums = block.sum(axis=axis)
    off = np.abs(sums - 1.0).reshape(g, -1).max(axis=1) > ROW_SUM_TOLERANCE
    negative = (block < 0).reshape(g, -1).any(axis=1)
    return sums, off, negative


class Table(NamedTuple):
    """One table of a model: its scope, sorted by variable id, and its
    values, one axis per scope variable in that order."""

    scope: tuple[int, ...]
    values: np.ndarray


class Tables(Sequence):
    """A network's conditional tables, held as write-locked blocks.

    A block is ``(variables, scopes, values)``: ``values[k]`` is the table of
    variable ``variables[k]`` over the sorted scope ``scopes[k]``, so the
    tables of one block share a shape; variables and scopes are int arrays.
    A block is frozen by the rule for a factor's values, :func:`factor._frozen`:
    kept if it is a read-only float64 array with read-only bases, else
    copied and the copy write-locked, and it must be finite.  ``tables[i]``
    is variable i's :class:`Table`, a view into its block, or None.  Item i is
    that table as a :class:`DiscreteFactor`, built by its validating
    constructor on each access; the engines read :attr:`tables` and build none.
    """

    def __init__(self, n: int, blocks: Iterable[tuple]):
        tables: list[Table | None] = [None] * n
        self.blocks = []
        for variables, scopes, values in blocks:
            values = _frozen(values)
            variables, scopes = np.asarray(variables, np.intp), np.asarray(scopes, np.intp)
            if scopes.shape != (len(values), values.ndim - 1) or variables.shape != (len(values),):
                raise ValueError("a block needs one variable and one scope per table")
            for v, scope, table in zip(variables.tolist(), scopes.tolist(), values):
                if not 0 <= v < n or tables[v] is not None:
                    raise ValueError(f"no place for a table of variable {v}")
                tables[v] = Table(tuple(scope), table)
            self.blocks.append((variables, scopes, values))
        self.tables = tuple(tables)

    @classmethod
    def of(cls, factors: Sequence[DiscreteFactor | None]) -> "Tables":
        """The factors' tables, one per variable or None, stacked into one
        block per shape, with -0 entries made +0 as the reader makes them."""
        groups: dict[tuple, list[int]] = {}
        for i, f in enumerate(factors):
            if f is not None:
                groups.setdefault(f.cards, []).append(i)
        return cls(len(factors), [(members, [factors[i].scope for i in members],
                                   np.stack([factors[i].values for i in members]) + 0.0)
                                  for members in groups.values()])

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, i):
        table = self.tables[i]
        return None if table is None else DiscreteFactor(table.scope, table.values.shape,
                                                         table.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class BeliefNetwork:
    """A DAG of discrete variables with one conditional table per variable.

    The i-th variable has ``cards[i]`` values and the name ``X{i}``.
    ``cpts[i]`` may be None only when the network underlies an influence
    diagram and variable i is a decision.  The constructor takes the tables
    as factors or as :class:`Tables`, and keeps them as :class:`Tables`:
    ``cpts[i]`` builds variable i's factor when asked, and :attr:`tables`
    gives the (scope, values) pairs the engines sweep.
    """

    cards: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    cpts: Sequence[DiscreteFactor | None]

    def __post_init__(self):
        n = len(self.cards)
        if len(self.parents) != n or len(self.cpts) != n:
            raise ModelError("cardinalities, parents, and tables must align")
        for i, c in enumerate(self.cards):
            if c < 1:
                raise ModelError(f"variable {i} has cardinality {c}")
        # Each family as sorted keys i * n + member, one family after another.
        counts = np.fromiter(map(len, self.parents), np.intp, n)
        child = np.repeat(np.arange(n), counts)
        try:
            parents = np.fromiter(chain.from_iterable(self.parents), np.int64, len(child))
            family = np.sort(np.concatenate([child * n + parents, np.arange(n) * (n + 1)]))
            fits = ((0 <= parents) & (parents < n)).all() and np.diff(family).all()
        except OverflowError:
            fits = False
        if not fits:  # name the first fault
            for i, ps in enumerate(self.parents):
                if len(set(ps)) != len(ps):
                    raise ModelError(f"variable {i} lists a parent twice")
                for p in ps:
                    if not 0 <= p < n:
                        raise ModelError(f"variable {i} has unknown parent {p}")
                    if p == i:
                        raise ModelError(f"variable {i} is its own parent")
        if not isinstance(self.cpts, Tables):
            object.__setattr__(self, "cpts", Tables.of(self.cpts))
        self._check_tables(counts, family - np.repeat(np.arange(n) * n, counts + 1))
        if not (parents < child).all():  # else the ids themselves are a topological order
            self._check_acyclic()  # after the tables: an off row is named before a cycle

    def _check_tables(self, counts: np.ndarray, family: np.ndarray) -> None:
        """Each table's scope and cardinalities, then its rows and signs, all
        once per block; ``family`` holds the sorted families, of ``counts[i]
        + 1`` variables each, one after another.  The lowest failing variable
        is named; for one variable, a wrong scope or cardinality comes first,
        then a row that does not sum to 1, then a negative entry."""
        cards, starts = np.asarray(self.cards), np.cumsum(counts + 1) - counts - 1
        wrong: list[int] = []  # the variables with a wrong scope or cardinality
        first = failing = None  # the lowest variable with an off row or a negative entry
        for variables, scopes, values in self.cpts.blocks:
            k = scopes.shape[1]
            fits = family.take(starts[variables, np.newaxis] + np.arange(k), mode="clip") == scopes
            fits &= cards.take(scopes, mode="clip") == values.shape[1:]
            wrong += variables[(counts[variables] != k - 1) | ~fits.all(axis=1)].tolist()
            child = scopes == variables[:, np.newaxis]
            axes = np.where(child.any(axis=1), child.argmax(axis=1), -1)  # -1: no child axis
            for axis in set(axes.tolist()) - {-1}:
                rows = (axes == axis).nonzero()[0]  # the tables whose child is on this axis
                block = values if len(rows) == len(values) else values[rows]
                _, off, negative = _row_faults(block, 1 + axis)
                for b in np.flatnonzero(off | negative).tolist():
                    if first is None or variables[rows[b]] < first:
                        first, failing = int(variables[rows[b]]), off[b]
        i = min(wrong, default=None)  # the lowest variable with a wrong scope or cardinality
        if first is not None and (i is None or first < i):
            if failing:
                raise NormalizationError(f"rows of the table for variable {first} do not sum to 1")
            raise _negative_entry(first)
        if i is not None:
            scope, values = self.tables[i]
            if scope != self.family(i):
                raise ModelError(f"table scope {scope} differs from the family of variable {i}")
            v = next(v for v, c in zip(scope, values.shape) if c != self.cards[v])
            raise ModelError(f"table for variable {i} disagrees on cardinality of {v}")

    def _check_acyclic(self) -> None:
        children: list[list[int]] = [[] for _ in range(self.n)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        indeg = [len(ps) for ps in self.parents]
        order = [i for i in range(self.n) if indeg[i] == 0]
        for v in order:  # Kahn's walk: a variable joins once its last parent has
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != self.n:
            stuck = sorted(i for i in range(self.n) if indeg[i] > 0)
            raise CycleError(f"parent relation is cyclic through variables {stuck}")

    @property
    def n(self) -> int:
        return len(self.cards)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"X{i}" for i in range(self.n))

    def family(self, i: int) -> tuple[int, ...]:
        return tuple(sorted((*self.parents[i], i)))

    def roots(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self.parents[i])

    @property
    def tables(self) -> tuple[Table | None, ...]:
        return self.cpts.tables

    def table_list(self) -> list[Table]:
        """Every variable's table, in variable order."""
        missing = [i for i, t in enumerate(self.tables) if t is None]
        if missing:
            raise ModelError(f"variables {missing} have no conditional table")
        return list(self.tables)

    def factor_list(self) -> list[DiscreteFactor]:
        """:meth:`table_list` as factors, built on each call."""
        self.table_list()  # refuses a missing table
        return list(self.cpts)


@dataclass(frozen=True)
class InfluenceDiagram:
    """A belief network over chance variables plus decisions and utilities."""

    network: BeliefNetwork
    decisions: tuple[int, ...]
    utilities: tuple[DiscreteFactor, ...]

    def __post_init__(self):
        net = self.network
        dset = set(self.decisions)
        if len(dset) != len(self.decisions):
            raise ModelError("duplicate decision variable")
        for d in self.decisions:
            if not 0 <= d < net.n:
                raise ModelError(f"unknown decision variable {d}")
            if net.parents[d]:
                raise ModelError(f"decision variable {d} has parents")
            if net.tables[d] is not None:
                raise ModelError(f"decision variable {d} has a conditional table")
        for i in range(net.n):
            if i not in dset and net.tables[i] is None:
                raise ModelError(f"chance variable {i} has no conditional table")
        for f in self.utilities:
            for v, c in zip(f.scope, f.cards):
                if not 0 <= v < net.n:
                    raise ModelError(f"utility mentions unknown variable {v}")
                if c != net.cards[v]:
                    raise ModelError(f"utility disagrees on cardinality of variable {v}")

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def cards(self) -> tuple[int, ...]:
        return self.network.cards

    @property
    def names(self) -> tuple[str, ...]:
        return self.network.names

    def chance(self) -> tuple[int, ...]:
        dset = set(self.decisions)
        return tuple(i for i in range(self.n) if i not in dset)

    def chance_tables(self) -> list[Table]:
        return [self.network.tables[i] for i in self.chance()]

    def chance_factors(self) -> list[DiscreteFactor]:
        """:meth:`chance_tables` as factors, built on each call."""
        return [self.network.cpts[i] for i in self.chance()]


@dataclass(frozen=True)
class Evidence:
    """Observed values, one per variable."""

    assignments: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for var, val in self.assignments.items():
            if val < 0:
                raise EvidenceError(f"negative value for variable {var}")

    @classmethod
    def empty(cls) -> "Evidence":
        return cls({})

    def __len__(self) -> int:
        return len(self.assignments)

    def __contains__(self, var: int) -> bool:
        return var in self.assignments

    def get(self, var: int):
        return self.assignments.get(var)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.assignments.items())


@dataclass(frozen=True)
class CnfTheory:
    """Propositional clauses over propositions 1..num_props (DIMACS signs)."""

    num_props: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_props:
                    raise ModelError(f"literal {lit} out of range")
            if any(-lit in clause for lit in clause):
                raise ModelError(f"clause {sorted(clause)} is tautological")


# -- tokenizer --------------------------------------------------------------------

def _column(line: str, j: int) -> int:
    """Column (from 1) of the j-th whitespace-separated token of ``line``."""
    return [m.start() for m in re.finditer(r"\S+", line)][j] + 1


class _TokenStream:
    """The whitespace-separated tokens of one text, split once.

    ``toks`` is that list and ``position`` the index of the next token, set
    back to read a section again.  ``error`` works out a token's line and
    column from its index, counting lines as ``str.splitlines`` does.
    """

    def __init__(self, text: str):
        self._text = text
        self.toks = text.split()
        self.position = 0

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token ``index``, by default the last one read."""
        index = self.position - 1 if index is None else index
        for ln, line in enumerate(self._text.splitlines(), start=1):
            k = len(line.split())
            if index < k:
                return ParseError(message, ln, _column(line, index))
            index -= k

    def next(self, expect: str) -> str:
        if self.position >= len(self.toks):
            raise ParseError(f"unexpected end of input, expected {expect}")
        self.position += 1
        return self.toks[self.position - 1]

    def ints(self, count: int) -> np.ndarray | None:
        """The next ``count`` tokens as int64s, converted at once; None, and
        nothing read, unless all are there and are integers that fit."""
        try:
            values = np.array(self.toks[self.position:self.position + count], dtype=np.int64)
        except (ValueError, OverflowError):
            return None
        if len(values) < count:
            return None
        self.position += count
        return values

    def floats(self, start: int, stop: int) -> tuple[np.ndarray, int | None]:
        """Tokens ``start`` to ``stop`` as floats, and the index of the first
        one that is not a float (None if there is none), before which the
        conversion stops."""
        toks = self.toks[start:stop]
        try:
            return np.array(toks, dtype=np.float64), None
        except ValueError:
            for j, tok in enumerate(toks):
                try:
                    float(tok)
                except ValueError:
                    return np.array(toks[:j], dtype=np.float64), start + j
            raise

    def next_int(self, expect: str, minimum: int | None = None) -> int:
        tok = self.next(expect)
        try:
            value = int(tok)
        except ValueError:
            raise self.error(f"expected {expect}, found {tok!r}")
        if minimum is not None and value < minimum:
            raise self.error(f"{expect} must be >= {minimum}, found {value}")
        return value

    @property
    def overran(self) -> bool:
        return self.position > len(self.toks)

    def expect_end(self) -> None:
        if self.position < len(self.toks):
            raise self.error(f"unexpected trailing token {self.next('end of input')!r}")


# -- network parsing ----------------------------------------------------------------

def _read_scope(ts: _TokenStream, n: int, what: str, minimum: int = 1) -> list[int]:
    k = ts.next_int(f"{what} scope size", minimum=minimum)
    ids = []
    for _ in range(k):
        v = ts.next_int(f"{what} scope variable")
        if not 0 <= v < n:
            raise ParseError(f"{what} scope names unknown variable {v}")
        ids.append(v)
    if len(set(ids)) != len(ids):
        raise ParseError(f"{what} scope lists a variable twice: {ids}")
    return ids


def _read_scopes(ts: _TokenStream, n: int, count: int, decisions: list[int]):
    """The ``count`` scope lines of the conditional tables, as one array of
    all their ids and one of their lengths.  Only the lengths are read one
    by one, to find the lines; the ids are checked as one array: in range,
    none twice on a line, no child (last id) on two lines or a decision.  On
    a fault the lines are read again one id at a time, raising the first."""
    toks, start = ts.toks, ts.position
    stop, lengths = start, []
    try:
        for _ in range(count):
            lengths.append(int(toks[stop]))
            stop += lengths[-1] + 1
    except (ValueError, IndexError):
        lengths.append(0)  # no line there
    tokens = ts.ints(stop - start) if min(lengths, default=1) >= 1 else None
    if tokens is not None:
        lengths = np.array(lengths, dtype=np.intp)
        ids = np.delete(tokens, np.cumsum(lengths + 1) - lengths - 1)
        keys = np.repeat(np.arange(count), lengths) * n + ids  # no id twice on a line
        children = np.concatenate([ids[np.cumsum(lengths) - 1], np.array(decisions, np.int64)])
        if ((0 <= ids) & (ids < n)).all() and np.diff(np.sort(keys)).all() \
                and np.diff(np.sort(children)).all():
            return ids, lengths
    ts.position = start
    seen_children: set[int] = set()
    for _ in range(count):
        child = _read_scope(ts, n, "table")[-1]
        if child in decisions:
            raise ModelError(f"decision variable {child} has parents "
                             "(a conditional table names it as child)")
        if child in seen_children:
            raise ParseError(f"two conditional tables for variable {child}")
        seen_children.add(child)
    raise AssertionError("scope lines refused by the array checks were read without fault")


def _read_tables(ts: _TokenStream, n: int, cards: Sequence[int], sizes: np.ndarray,
                 ids: np.ndarray, lengths: np.ndarray, diagram: bool):
    """Every table block after the scope lines ``ids`` and ``lengths``,
    then a diagram's utility section, then the end of the text.  The entry
    counts are checked first, which places every table unread: the
    conditional tables' in one pass against the products of ``sizes`` over
    their scopes (one at a time on a fault).  The region the tables span is
    then converted to floats at once.  The error raised is the first one a
    table-by-table reader meets: in the first table that has one, a bad
    entry count, then a malformed entry, then the end of the text, then a
    non-finite entry; after the tables, a bad utility section or a trailing
    token.  Returns the utilities' scopes, each table's first entry in the
    values (the utilities' last), and the values.
    """
    toks, first = ts.toks, ts.position
    # Float64 products do not wrap round; cut to the text's length, they fit no text.
    cells = np.minimum(np.multiply.reduceat(sizes[ids], np.cumsum(lengths) - lengths,
                                            dtype=np.float64), len(toks) + 1).astype(np.int64)
    ends = first + np.cumsum(cells + 1)
    # Each count, where the counts before it put it, spells its cells as str() does.
    placed = not len(ends) or ends[-1] <= len(toks) and list(map(str, cells.tolist())) == [
        toks[i] for i in (ends - cells - 1).tolist()]
    starts, ends = ((ends - cells).tolist(), ends.tolist()) if placed else ([], [])
    ts.position = ends[-1] if ends else first
    utilities: list[list[int]] = []
    # A problem is (table, rank, error), and the least one is raised.  The
    # ranks within a table: 0 its entry count (or utility scope), 1 a
    # malformed entry, 2 the text ending inside it, 3 a non-finite entry.
    failure = None

    def table(scope):
        expected = math.prod(map(cards.__getitem__, scope))
        count = ts.next_int("entry count", minimum=1)
        if count != expected:
            raise ParseError(f"table over scope {list(scope)} needs {expected} entries, "
                             f"file declares {count}")
        starts.append(ts.position)
        ts.position += count
        ends.append(ts.position)
        if ts.overran:
            raise ParseError("unexpected end of input, expected table entry")

    try:
        if not placed:
            for scope in np.split(ids, np.cumsum(lengths)[:-1]):
                table(scope.tolist())
        if diagram:
            for _ in range(ts.next_int("utility count", minimum=0)):
                utilities.append(_read_scope(ts, n, "utility", minimum=0))
                table(utilities[-1])
        ts.expect_end()
    except ParseError as exc:
        failure = (len(starts) - 1, 2, exc) if ts.overran else (len(starts), 0, exc)

    values, bad = ts.floats(first, ends[-1] if ends else first)
    problems = [] if failure is None else [failure]
    if bad is not None:
        problems.append((bisect_right(starts, bad) - 1, 1,
                         ts.error(f"expected table entry, found {toks[bad]!r}", bad)))
    try:
        _finite(values)
    except ValueError:  # locate the first non-finite entry
        for j in (j for j, x in enumerate(values.tolist()) if not math.isfinite(x)):
            t = bisect_right(starts, first + j) - 1
            if t >= 0 and first + j < ends[t]:  # an entry, not a count or scope token
                problems.append((t, 3, ts.error("table entry must be finite, found "
                                                f"{toks[first + j]!r}", first + j)))
                break
    if problems:
        raise min(problems, key=lambda p: p[:2])[2]
    values += 0.0  # -0 + 0 is +0, so no -0 entry reaches a sweep
    return utilities, np.asarray(starts, dtype=np.intp) - first, values


def _tables(ids: np.ndarray, lengths: np.ndarray, sizes: np.ndarray, starts: np.ndarray,
            values: np.ndarray, lax: bool = False):
    """The tables of ``values`` over the scope lines ``ids`` and ``lengths``
    (as :func:`_read_scopes` gives them) as blocks, one per file shape and
    permutation to sorted scope: lines grouped by length, then by their rows
    of cardinalities and argsort.  Each block is ``(members, lines, values)``:
    the indices of its tables, their scope lines as rows, and their entries
    gathered by one index, write-locked and transposed into canonical
    layout, not copied.  With ``lax``, the tables are conditional ones and
    each block is first passed through :func:`_renormalize`, whose flags
    are returned per table (all false without ``lax``).
    """
    blocks = []
    flags = np.zeros((len(lengths), 3), dtype=bool)
    inside = np.arange(lengths.max(initial=0)) < lengths[:, np.newaxis]
    lines = np.full(inside.shape, len(sizes))  # padded with n, which sorts last
    lines[inside] = ids
    shapes, orders = np.append(sizes, 0)[lines], np.argsort(lines, axis=1, kind="stable")
    keys = np.concatenate([lengths[:, np.newaxis], shapes, orders], axis=1)
    sort = np.lexsort(keys.T)  # equal keys next to each other, in file order
    cuts = 1 + np.flatnonzero((keys[sort[1:]] != keys[sort[:-1]]).any(axis=1))
    for group in filter(len, np.split(sort, cuts)):
        k = lengths[group[0]]
        shape, order = shapes[group[0], :k].tolist(), orders[group[0], :k]
        at = starts[group, np.newaxis] + np.arange(math.prod(shape))
        block = values[at.reshape(len(group), *shape)]
        if lax:
            flags[group] = _renormalize(block)
        block.setflags(write=False)
        blocks.append((group, lines[group, :k], block.transpose(0, *(1 + order))))
    return blocks, flags


def _renormalize(block: np.ndarray) -> np.ndarray:
    """Divide the off rows of each conditional table in ``block`` (one
    table per leading index, in file layout) by their sums, unless the
    table has a negative entry or an all-zero row: renormalizing would
    turn an all-negative row positive.  Returns per table whether it has
    a negative entry, an off row and an all-zero row."""
    sums, off, negative = _row_faults(block, -1)  # the child runs fastest
    zero = (sums == 0.0).reshape(len(block), -1).any(axis=1)
    fix = off & ~negative & ~zero
    block[fix] /= sums[fix][..., np.newaxis]
    return np.stack([negative, off, zero], axis=1)


def parse_network(text: str, kind: str | None = None, strict: bool = True):
    """Parse ``BAYES``/``ID`` text into a BeliefNetwork or InfluenceDiagram.

    Under ``strict`` (the default) BeliefNetwork rejects a table row that does
    not sum to one; otherwise rows are renormalized with a warning.  Either
    way, a syntax error anywhere in the text is reported before any table's
    contents.
    """
    ts = _TokenStream(text)
    tok = ts.next("model header")
    if tok not in ("BAYES", "ID"):
        raise ts.error(f"unknown model header {tok!r}")
    header = "bayes" if tok == "BAYES" else "id"
    if kind is not None and kind != header:
        raise ts.error(f"expected a {kind.upper()} model, found {tok}")
    n = ts.next_int("variable count", minimum=1)
    sizes = ts.ints(n)
    if sizes is None or sizes.min() < 1:  # read again one at a time: raise the first fault,
        ts.position -= 0 if sizes is None else n  # or keep a cardinality past int64
        sizes = np.array([ts.next_int("cardinality", minimum=1) for _ in range(n)], object)
    cards, sizes = sizes.tolist(), np.minimum(sizes, len(text)).astype(np.int64)  # cut to fit

    decisions: list[int] = []
    if header == "id":
        k = ts.next_int("decision count", minimum=0)
        for _ in range(k):
            d = ts.next_int("decision id")
            if not 0 <= d < n:
                raise ParseError(f"unknown decision variable {d}")
            if d in decisions:
                raise ParseError(f"decision variable {d} listed twice")
            decisions.append(d)

    table_count = ts.next_int("table count", minimum=0)
    expected_tables = n - len(decisions)
    if table_count != expected_tables:
        raise ParseError(f"expected {expected_tables} conditional tables, "
                         f"file declares {table_count}")
    # Then table_count distinct children, none a decision, leave no variable out.
    lines = _read_scopes(ts, n, table_count, decisions)

    utilities, starts, values = _read_tables(ts, n, cards, sizes, *lines, header == "id")
    blocks, flags = _tables(*lines, sizes, starts[:table_count], values, lax=not strict)
    faulty = flags.any(axis=1)
    for child, (negative, off, zero) in zip(lines[0][np.cumsum(lines[1]) - 1][faulty].tolist(),
                                            flags[faulty].tolist()):
        if negative:  # BeliefNetwork makes the strict checks
            raise _negative_entry(child)
        if off:
            if zero:
                raise NormalizationError(f"table for variable {child} has an all-zero row")
            warnings.warn(f"renormalized conditional table of variable {child}",
                          stacklevel=2)
    parents: list[tuple[int, ...]] = [()] * n
    for _, rows, _ in blocks:
        for child, ps in zip(rows[:, -1].tolist(), np.sort(rows[:, :-1]).tolist()):
            parents[child] = tuple(ps)
    tables = Tables(n, [(rows[:, -1], np.sort(rows), block) for _, rows, block in blocks])
    net = BeliefNetwork(tuple(cards), tuple(parents), tables)
    if header == "bayes":
        return net
    factors: list[DiscreteFactor | None] = [None] * len(utilities)
    for members, rows, block in _tables(np.fromiter(chain.from_iterable(utilities), np.int64),
                                        np.fromiter(map(len, utilities), np.intp), sizes,
                                        starts[table_count:], values)[0]:
        for t, scope, table in zip(members.tolist(), np.sort(rows).tolist(), block):
            factors[t] = DiscreteFactor(tuple(scope), table.shape, table)
    return InfluenceDiagram(net, tuple(decisions), tuple(factors))


def _table_lines(values: np.ndarray) -> list[str]:
    return [str(values.size), " ".join(repr(float(x)) for x in values.ravel())]


def serialize_network(model) -> str:
    """Render a model back into the network format, full precision."""
    diagram = model if isinstance(model, InfluenceDiagram) else None
    net = diagram.network if diagram else model
    out = ["ID" if diagram else "BAYES", str(net.n), " ".join(str(c) for c in net.cards)]
    if diagram:
        out.append(" ".join(str(t) for t in [len(diagram.decisions), *diagram.decisions]))
    children = [i for i in range(net.n) if net.tables[i] is not None]
    file_scopes = [[*net.parents[i], i] for i in children]
    out.append(str(len(children)))
    out += [" ".join(str(t) for t in [len(fs), *fs]) for fs in file_scopes]
    for child, fs in zip(children, file_scopes):
        scope, values = net.tables[child]
        out += _table_lines(values.transpose([scope.index(v) for v in fs]))
    if diagram:
        out.append(str(len(diagram.utilities)))
        for f in diagram.utilities:
            out.append(" ".join(str(t) for t in [len(f.scope), *f.scope]))
            out += _table_lines(f.values)
    return "\n".join(out) + "\n"


# -- evidence ------------------------------------------------------------------------

def _read_pairs(text: str, noun: str, cards: Sequence[int], base: int) -> dict[int, int]:
    """``count  id value ...`` pairs in file order, ids counted from ``base``
    and each value below its variable's cardinality."""
    ts = _TokenStream(text)
    count = ts.next_int("assignment count", minimum=0)
    start, found = ts.position, ts.ints(2 * count)  # on a fault, read one pair at a time
    if found is not None:
        var, val = found[0::2] - base, found[1::2]
        if ((0 <= var) & (var < len(cards))).all() and (0 <= val).all() \
                and (val < np.asarray(cards)[var]).all() and np.diff(np.sort(var)).all():
            ts.expect_end()
            return dict(zip((var + base).tolist(), val.tolist()))
    ts.position = start
    pairs: dict[int, int] = {}
    for _ in range(count):
        var = ts.next_int(f"observed {noun}")
        val = ts.next_int("observed value")
        if not base <= var < base + len(cards):
            raise EvidenceError(f"unknown {noun} {var}")
        if not 0 <= val < cards[var - base]:
            raise EvidenceError(f"value {val} out of range for {noun} {var}")
        if var in pairs:
            raise EvidenceError(f"{noun} {var} observed twice")
        pairs[var] = val
    ts.expect_end()
    return pairs


def parse_evidence(text: str, net) -> Evidence:
    """Parse ``count  var value ...`` pairs and range-check them against a model."""
    return Evidence(_read_pairs(text, "variable", net.cards, 0))


def serialize_evidence(ev: Evidence) -> str:
    return " ".join([str(len(ev)), *(f"{var} {val}" for var, val in ev.items())]) + "\n"


def parse_cnf_evidence(text: str, num_props: int) -> list[int]:
    """Observed propositions as unit literals (1-based, sign = truth value)."""
    pairs = _read_pairs(text, "proposition", (2,) * num_props, 1)
    return [var if val else -var for var, val in pairs.items()]


# -- DIMACS --------------------------------------------------------------------------

def parse_cnf(text: str) -> CnfTheory:
    """Parse DIMACS text; tautological clauses are dropped with a warning."""
    num_props: int | None = None
    clauses: list[frozenset[int]] = []
    pending: list[int] = []

    def flush(ln: int) -> None:
        if not pending:
            return
        clause = frozenset(pending)
        pending.clear()
        if any(-lit in clause for lit in clause):
            warnings.warn(f"dropped tautological clause near line {ln}", stacklevel=3)
            return
        clauses.append(clause)

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s[0] in ("c", "%"):
            continue
        if s[0] == "p":
            if num_props is not None:
                raise ParseError("duplicate DIMACS header", ln, 1)
            parts = s.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed DIMACS header {s!r}", ln, 1)
            try:
                num_props, _declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed DIMACS header {s!r}", ln, 1)
            if num_props < 0:
                raise ParseError("negative proposition count", ln, 1)
            continue
        if num_props is None:
            raise ParseError("clause data before the DIMACS header", ln, 1)
        for j, tok in enumerate(s.split()):  # columns count from the first non-blank
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"expected a literal, found {tok!r}", ln, _column(s, j))
            if lit == 0:
                flush(ln)
            else:
                if abs(lit) > num_props:
                    raise ParseError(f"literal {lit} out of range", ln, _column(s, j))
                pending.append(lit)
    if num_props is None:
        raise ParseError("missing DIMACS header")
    flush(len(lines))
    return CnfTheory(num_props, tuple(clauses))


def sorted_clause(clause: Iterable[int]) -> list[int]:
    return sorted(clause, key=lambda lit: (abs(lit), lit < 0))


def serialize_cnf(theory: CnfTheory) -> str:
    lines = [f"p cnf {theory.num_props} {len(theory.clauses)}"]
    for clause in theory.clauses:
        lines.append(" ".join(str(lit) for lit in sorted_clause(clause)) + " 0")
    return "\n".join(lines) + "\n"
