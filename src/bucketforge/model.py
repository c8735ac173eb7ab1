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

import re
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (CycleError, EvidenceError, ModelError, NormalizationError,
                     ParseError)
from .factor import DiscreteFactor

ROW_SUM_TOLERANCE = 1e-9


def _check_nonnegative(values: np.ndarray, child: int) -> None:
    if (values < 0).any():
        raise NormalizationError(f"table for variable {child} has a negative entry")


@dataclass(frozen=True)
class BeliefNetwork:
    """A DAG of discrete variables with one conditional table per variable.

    The i-th variable has ``cards[i]`` values and the name ``X{i}``.
    ``cpts[i]`` may be None only when the network underlies an influence
    diagram and variable i is a decision.
    """

    cards: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    cpts: tuple[DiscreteFactor | None, ...]

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
        for i, cpt in enumerate(self.cpts):
            if cpt is None:
                continue
            if cpt.scope != self.family(i):
                raise ModelError(
                    f"table scope {cpt.scope} differs from the family of variable {i}")
            for v, c in zip(cpt.scope, cpt.cards):
                if c != self.cards[v]:
                    raise ModelError(f"table for variable {i} disagrees on cardinality of {v}")
            sums = cpt.values.sum(axis=cpt.scope.index(i))
            if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOLERANCE:
                raise NormalizationError(f"rows of the table for variable {i} do not sum to 1")
            _check_nonnegative(cpt.values, i)
        self._check_acyclic()  # after the tables: an off row is named before a cycle

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

    def factor_list(self) -> list[DiscreteFactor]:
        missing = [i for i, c in enumerate(self.cpts) if c is None]
        if missing:
            raise ModelError(f"variables {missing} have no conditional table")
        return [c for c in self.cpts if c is not None]


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
            if net.cpts[d] is not None:
                raise ModelError(f"decision variable {d} has a conditional table")
        for i in range(net.n):
            if i not in dset and net.cpts[i] is None:
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

    def chance_factors(self) -> list[DiscreteFactor]:
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

    def next_int(self, expect: str, minimum: int | None = None) -> int:
        tok = self.next(expect)
        try:
            value = int(tok)
        except ValueError:
            raise self.error(f"expected {expect}, found {tok!r}")
        if minimum is not None and value < minimum:
            raise self.error(f"{expect} must be >= {minimum}, found {value}")
        return value

    def next_table(self, count: int) -> np.ndarray:
        """The next ``count`` tokens as finite floats, read as one slice.  Errors
        come as a token-by-token reader meets them: bad token, end, non-finite."""
        start = self._i
        toks = self._toks[start:start + count]
        try:
            values = np.fromiter(map(float, toks), dtype=np.float64, count=len(toks))
        except ValueError:
            for j, tok in enumerate(toks):
                try:
                    float(tok)
                except ValueError:
                    raise self.error(f"expected table entry, found {tok!r}", start + j)
        if len(toks) < count:
            raise ParseError("unexpected end of input, expected table entry")
        if not np.isfinite(values).all():
            j = int(np.argmin(np.isfinite(values)))
            raise self.error(f"table entry must be finite, found {toks[j]!r}", start + j)
        self._i += count
        return values

    def expect_end(self) -> None:
        if self._i < len(self._toks):
            raise self.error(f"unexpected trailing token {self._toks[self._i]!r}", self._i)


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


def _read_table(ts: _TokenStream, scope: Sequence[int], cards: Sequence[int]) -> np.ndarray:
    shape = tuple(cards[v] for v in scope)
    expected = int(np.prod(shape)) if shape else 1
    count = ts.next_int("entry count", minimum=1)
    if count != expected:
        raise ParseError(f"table over scope {list(scope)} needs {expected} entries, "
                         f"file declares {count}")
    return ts.next_table(count).reshape(shape)


def parse_network(text: str, kind: str | None = None, strict: bool = True):
    """Parse ``BAYES``/``ID`` text into a BeliefNetwork or InfluenceDiagram.

    Under ``strict`` (the default) BeliefNetwork rejects a table row that does
    not sum to one; otherwise rows are renormalized with a warning.
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

    cpts: list[DiscreteFactor | None] = [None] * n
    parents: list[tuple[int, ...]] = [()] * n
    for ids in scopes:
        child = ids[-1]
        raw = _read_table(ts, ids, cards)
        if not strict:  # BeliefNetwork makes the strict check
            # Renormalizing would turn an all-negative row positive.
            _check_nonnegative(raw, child)
            row_sums = raw.sum(axis=-1)  # the child is the fastest-running axis
            if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOLERANCE:
                if np.any(row_sums == 0.0):
                    raise NormalizationError(
                        f"table for variable {child} has an all-zero row")
                raw = raw / row_sums[..., np.newaxis]
                warnings.warn(f"renormalized conditional table of variable {child}",
                              stacklevel=2)
        parents[child] = tuple(sorted(ids[:-1]))
        cpts[child] = DiscreteFactor.from_table(ids, [cards[v] for v in ids], raw)

    utilities: list[DiscreteFactor] = []
    if header == "id":
        m = ts.next_int("utility count", minimum=0)
        for _ in range(m):
            ids = _read_scope(ts, n, "utility", minimum=0)
            raw = _read_table(ts, ids, cards)
            utilities.append(DiscreteFactor.from_table(ids, [cards[v] for v in ids], raw))
    ts.expect_end()

    net = BeliefNetwork(tuple(cards), tuple(parents), tuple(cpts))
    if header == "bayes":
        return net
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
    children = [i for i in range(net.n) if net.cpts[i] is not None]
    file_scopes = [[*net.parents[i], i] for i in children]
    out.append(str(len(children)))
    out += [" ".join(str(t) for t in [len(fs), *fs]) for fs in file_scopes]
    for child, fs in zip(children, file_scopes):
        cpt = net.cpts[child]
        out += _table_lines(cpt.values.transpose([cpt.scope.index(v) for v in fs]))
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
