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

Evidence files start with a pair count followed by ``variable value`` pairs.
CNF theories use standard DIMACS (``p cnf V C``).
"""

from __future__ import annotations

import math
import re
import warnings
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
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
    tables of one block share a shape.  A block is frozen by the rule for a
    factor's values, :func:`factor._frozen`: kept if it is a read-only
    float64 array with read-only bases, else copied and the copy
    write-locked, and it must be finite.  ``tables[i]`` is variable i's
    :class:`Table`, a view into its block, or None.  Item i is that table as
    a :class:`DiscreteFactor`, built by its validating constructor on each
    access; the engines read :attr:`tables` and build none.
    """

    def __init__(self, n: int, blocks: Iterable[tuple]):
        tables: list[Table | None] = [None] * n
        self.blocks = []
        for variables, scopes, values in blocks:
            values = _frozen(values)
            variables, scopes = tuple(variables), tuple(map(tuple, scopes))
            if not len(variables) == len(scopes) == len(values):
                raise ValueError("a block needs one variable and one scope per table")
            for k, (v, scope) in enumerate(zip(variables, scopes)):
                if not 0 <= v < n or tables[v] is not None:
                    raise ValueError(f"no place for a table of variable {v}")
                tables[v] = Table(scope, values[k, ...])
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
        self._check_tables()
        self._check_acyclic()  # after the tables: an off row is named before a cycle

    def _check_tables(self) -> None:
        """Each table's scope and cardinalities, then its rows and signs.

        Rows and signs are checked once per block of tables that share a
        child axis.  The lowest failing variable is named; for one variable,
        a wrong scope or cardinality comes first, then a row that does not
        sum to 1, then a negative entry.
        """
        failure = None  # (variable, error) for the first wrong scope or cardinality
        for i, table in enumerate(self.tables):
            if table is None:
                continue
            if table.scope != self.family(i):
                failure = i, ModelError(
                    f"table scope {table.scope} differs from the family of variable {i}")
                break
            if table.values.shape != tuple(map(self.cards.__getitem__, table.scope)):
                v = next(v for v, c in zip(table.scope, table.values.shape)
                         if c != self.cards[v])
                failure = i, ModelError(f"table for variable {i} disagrees on cardinality of {v}")
                break
        first = failing = None  # the lowest variable with an off row or a negative entry
        for variables, scopes, values in self.cpts.blocks:
            members: dict[int, list[int]] = {}  # child axis -> rows of the block
            for k, (v, scope) in enumerate(zip(variables, scopes)):
                if v in scope:  # else its scope check fails
                    members.setdefault(scope.index(v), []).append(k)
            for axis, rows in members.items():
                block = values if len(rows) == len(values) else values[rows]
                _, off, negative = _row_faults(block, 1 + axis)
                for b in np.flatnonzero(off | negative).tolist():
                    if first is None or variables[rows[b]] < first:
                        first, failing = variables[rows[b]], off[b]
        if first is not None and (failure is None or first < failure[0]):
            if failing:
                raise NormalizationError(f"rows of the table for variable {first} do not sum to 1")
            raise _negative_entry(first)
        if failure is not None:
            raise failure[1]

    def _check_acyclic(self) -> None:
        n = self.n
        children: dict[int, list[int]] = {i: [] for i in range(n)}
        indeg = [len(ps) for ps in self.parents]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        queue = deque(i for i in range(n) if indeg[i] == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != n:
            stuck = sorted(i for i in range(n) if indeg[i] > 0)
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

    No positions are kept: ``error`` works out a token's line and column
    from its index, counting lines as ``str.splitlines`` does.  Every line
    boundary is whitespace, so no token spans two lines.
    """

    def __init__(self, text: str):
        self._text = text
        self._toks = text.split()
        self._i = 0

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token ``index``, by default the last one read."""
        index = self._i - 1 if index is None else index
        for ln, line in enumerate(self._text.splitlines(), start=1):
            k = len(line.split())
            if index < k:
                return ParseError(message, ln, _column(line, index))
            index -= k

    def next(self, expect: str) -> str:
        if self._i >= len(self._toks):
            raise ParseError(f"unexpected end of input, expected {expect}")
        self._i += 1
        return self._toks[self._i - 1]

    def next_ids(self, count: int, n: int) -> list[int] | None:
        """The next ``count`` tokens as integers in ``0 .. n - 1``; None, and
        nothing read, unless all ``count`` are there and are such integers."""
        try:
            ids = list(map(int, self._toks[self._i:self._i + count]))
        except ValueError:
            return None
        if len(ids) < count or not all(0 <= v < n for v in ids):
            return None
        self._i += count
        return ids

    @property
    def position(self) -> int:
        """Index of the next token."""
        return self._i

    def token(self, index: int) -> str:
        return self._toks[index]

    def floats(self, start: int, stop: int) -> tuple[np.ndarray, int | None]:
        """Tokens ``start`` to ``stop`` as floats, and the index of the first
        one that is not a float (None if there is none), before which the
        conversion stops."""
        toks = self._toks[start:stop]
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

    def skip_table(self, scope: Sequence[int], cards: Sequence[int]) -> int:
        """Read a table's entry count, check it against ``scope``, and step
        over the entries unread.  Returns the index of the first entry; the
        stream may end inside the table, which ``overran`` then reports."""
        expected = math.prod(map(cards.__getitem__, scope))
        count = self.next_int("entry count", minimum=1)
        if count != expected:
            raise ParseError(f"table over scope {list(scope)} needs {expected} entries, "
                             f"file declares {count}")
        self._i += count
        return self._i - count

    @property
    def overran(self) -> bool:
        return self._i > len(self._toks)

    def expect_end(self) -> None:
        if self._i < len(self._toks):
            raise self.error(f"unexpected trailing token {self._toks[self._i]!r}", self._i)


# -- network parsing ----------------------------------------------------------------

def _read_scope(ts: _TokenStream, n: int, what: str, minimum: int = 1) -> list[int]:
    k = ts.next_int(f"{what} scope size", minimum=minimum)
    ids = ts.next_ids(k, n)
    if ids is None:  # read one id at a time, to raise the error met first
        ids = []
        for _ in range(k):
            v = ts.next_int(f"{what} scope variable")
            if not 0 <= v < n:
                raise ParseError(f"{what} scope names unknown variable {v}")
            ids.append(v)
    if len(set(ids)) != len(ids):
        raise ParseError(f"{what} scope lists a variable twice: {ids}")
    return ids


def _read_tables(ts: _TokenStream, n: int, cards: Sequence[int],
                 scopes: list[list[int]], diagram: bool):
    """Every table block after the scope lines, then a diagram's utility
    section, then the end of the text.

    The entry counts are walked first, which places every table without
    reading its entries; the region they span is then converted to floats
    at once.  The error raised is the first one a table-by-table reader
    meets: in the first table that has one, a bad entry count, then a
    malformed entry, then the end of the text, then a non-finite entry;
    after the tables, a bad utility section or a trailing token.

    Returns the scopes of all tables in file order (the utilities' last),
    the index of each table's first entry in the values, and the values.
    """
    scopes = list(scopes)
    first = ts.position
    starts: list[int] = []
    ends: list[int] = []
    # A problem is (table, rank, error), and the least one is raised.  The
    # ranks within a table: 0 its entry count (or utility scope), 1 a
    # malformed entry, 2 the text ending inside it, 3 a non-finite entry.
    failure = None

    def table(ids):
        starts.append(ts.skip_table(ids, cards))
        ends.append(ts.position)
        if ts.overran:
            raise ParseError("unexpected end of input, expected table entry")

    try:
        for ids in scopes:
            table(ids)
        if diagram:
            for _ in range(ts.next_int("utility count", minimum=0)):
                scopes.append(_read_scope(ts, n, "utility", minimum=0))
                table(scopes[-1])
        ts.expect_end()
    except ParseError as exc:
        failure = (len(starts) - 1, 2, exc) if ts.overran else (len(starts), 0, exc)

    values, bad = ts.floats(first, ends[-1] if ends else first)
    problems = [] if failure is None else [failure]
    if bad is not None:
        problems.append((bisect_right(starts, bad) - 1, 1,
                         ts.error(f"expected table entry, found {ts.token(bad)!r}", bad)))
    try:
        _finite(values)
    except ValueError:  # locate the first non-finite entry
        for j in (j for j, x in enumerate(values.tolist()) if not math.isfinite(x)):
            t = bisect_right(starts, first + j) - 1
            if t >= 0 and first + j < ends[t]:  # an entry, not a count or scope token
                problems.append((t, 3, ts.error("table entry must be finite, found "
                                                f"{ts.token(first + j)!r}", first + j)))
                break
    if problems:
        raise min(problems, key=lambda p: p[:2])[2]
    values += 0.0  # -0 + 0 is +0, so no -0 entry reaches a sweep
    return scopes, np.asarray(starts, dtype=np.intp) - first, values


def _tables(scopes: list[list[int]], cards: Sequence[int], starts: np.ndarray,
            values: np.ndarray, lax: bool = False):
    """The tables of ``values`` as blocks, one per file shape and
    permutation to sorted scope.

    Each block is ``(members, sorted scopes, values)``: the indices of its
    tables in ``scopes``, their scopes sorted, and their entries gathered by
    one index, write-locked and transposed into canonical layout, not
    copied.  With ``lax``, the tables are conditional ones and each block is
    first passed through :func:`_renormalize`, whose flags are returned per
    table (all false without ``lax``).
    """
    groups: dict[tuple, list[int]] = {}
    for t, ids in enumerate(scopes):
        order = tuple(sorted(range(len(ids)), key=ids.__getitem__))
        groups.setdefault((tuple(map(cards.__getitem__, ids)), order), []).append(t)
    blocks = []
    flags = np.zeros((len(scopes), 3), dtype=bool)
    for (shape, order), members in groups.items():
        at = starts[members][:, np.newaxis] + np.arange(math.prod(shape))
        block = values[at.reshape(len(members), *shape)]
        if lax:
            flags[members] = _renormalize(block)
        block.setflags(write=False)
        blocks.append((members, [tuple(sorted(scopes[t])) for t in members],
                       block.transpose(0, *(1 + a for a in order))))
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
    cards = [ts.next_int("cardinality", minimum=1) for _ in range(n)]

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

    scopes: list[list[int]] = []
    seen_children: set[int] = set()
    for _ in range(table_count):
        ids = _read_scope(ts, n, "table")
        child = ids[-1]
        if child in decisions:
            raise ModelError(f"decision variable {child} has parents "
                             "(a conditional table names it as child)")
        if child in seen_children:
            raise ParseError(f"two conditional tables for variable {child}")
        seen_children.add(child)
        scopes.append(ids)
    missing = [i for i in range(n) if i not in seen_children and i not in decisions]
    if missing:
        raise ParseError(f"no conditional table for variables {missing}")

    scopes, starts, values = _read_tables(ts, n, cards, scopes, header == "id")
    blocks, flags = _tables(scopes[:table_count], cards, starts[:table_count], values,
                            lax=not strict)
    parents: list[tuple[int, ...]] = [()] * n
    for ids, (negative, off, zero) in zip(scopes[:table_count], flags.tolist()):
        child = ids[-1]
        if negative:  # BeliefNetwork makes the strict checks
            raise _negative_entry(child)
        if off:
            if zero:
                raise NormalizationError(f"table for variable {child} has an all-zero row")
            warnings.warn(f"renormalized conditional table of variable {child}",
                          stacklevel=2)
        parents[child] = tuple(sorted(ids[:-1]))
    tables = Tables(n, [([scopes[t][-1] for t in members], sorted_scopes, block)
                        for members, sorted_scopes, block in blocks])
    net = BeliefNetwork(tuple(cards), tuple(parents), tables)
    if header == "bayes":
        return net
    utilities: list[DiscreteFactor | None] = [None] * (len(scopes) - table_count)
    for members, sorted_scopes, block in _tables(scopes[table_count:], cards,
                                                 starts[table_count:], values)[0]:
        for k, (t, scope) in enumerate(zip(members, sorted_scopes)):
            utilities[t] = DiscreteFactor(scope, block.shape[1:], block[k, ...])
    return InfluenceDiagram(net, tuple(decisions), tuple(utilities))


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
