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
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (CycleError, EvidenceError, ModelError, NormalizationError,
                     ParseError)
from .factor import DiscreteFactor

ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    cardinality: int

    def __post_init__(self):
        if self.cardinality < 1:
            raise ModelError(f"variable {self.name!r} has cardinality {self.cardinality}")


@dataclass(frozen=True)
class BeliefNetwork:
    """A DAG of discrete variables with one conditional table per variable.

    ``cpts[i]`` may be None only when the network underlies an influence
    diagram and variable i is a decision.
    """

    variables: tuple[Variable, ...]
    parents: tuple[tuple[int, ...], ...]
    cpts: tuple[DiscreteFactor | None, ...]

    def __post_init__(self):
        n = len(self.variables)
        if len(self.parents) != n or len(self.cpts) != n:
            raise ModelError("variables, parents, and tables must align")
        for i, v in enumerate(self.variables):
            if v.id != i:
                raise ModelError(f"variable ids must be dense 0..n-1, found {v.id} at {i}")
        names = [v.name for v in self.variables]
        if len(set(names)) != n:
            raise ModelError("variable names are not unique")
        for i, ps in enumerate(self.parents):
            if len(set(ps)) != len(ps):
                raise ModelError(f"variable {i} lists a parent twice")
            for p in ps:
                if not 0 <= p < n:
                    raise ModelError(f"variable {i} has unknown parent {p}")
                if p == i:
                    raise ModelError(f"variable {i} is its own parent")
        self._check_acyclic()
        for i, cpt in enumerate(self.cpts):
            if cpt is None:
                continue
            if cpt.scope != self.family(i):
                raise ModelError(
                    f"table scope {cpt.scope} differs from the family of variable {i}")
            for v, c in zip(cpt.scope, cpt.cards):
                if c != self.cards[v]:
                    raise ModelError(f"table for variable {i} disagrees on cardinality of {v}")
            axis = cpt.scope.index(i)
            sums = cpt.values.sum(axis=axis)
            if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOLERANCE:
                raise NormalizationError(
                    f"rows of the table for variable {self.variables[i].name} do not sum to 1")

    def _check_acyclic(self) -> None:
        n = len(self.variables)
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
        return len(self.variables)

    @cached_property
    def cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

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
    def variables(self) -> tuple[Variable, ...]:
        return self.network.variables

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

class _TokenStream:
    def __init__(self, text: str):
        self._toks: list[tuple[str, int, int]] = []
        for ln, line in enumerate(text.splitlines(), start=1):
            for m in re.finditer(r"\S+", line):
                self._toks.append((m.group(), ln, m.start() + 1))
        self._i = 0

    def at_end(self) -> bool:
        return self._i >= len(self._toks)

    def next(self, expect: str) -> tuple[str, int, int]:
        if self.at_end():
            raise ParseError(f"unexpected end of input, expected {expect}")
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def next_int(self, expect: str, minimum: int | None = None) -> int:
        tok, ln, col = self.next(expect)
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"expected {expect}, found {tok!r}", ln, col)
        if minimum is not None and value < minimum:
            raise ParseError(f"{expect} must be >= {minimum}, found {value}", ln, col)
        return value

    def next_float(self, expect: str) -> float:
        tok, ln, col = self.next(expect)
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected {expect}, found {tok!r}", ln, col)

    def expect_end(self) -> None:
        if not self.at_end():
            tok, ln, col = self._toks[self._i]
            raise ParseError(f"unexpected trailing token {tok!r}", ln, col)


# -- network parsing ----------------------------------------------------------------

def _default_variables(cards: Sequence[int]) -> tuple[Variable, ...]:
    return tuple(Variable(i, f"X{i}", c) for i, c in enumerate(cards))


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
    values = [ts.next_float("table entry") for _ in range(count)]
    return np.asarray(values, dtype=np.float64).reshape(shape)


def parse_network(text: str, kind: str | None = None, strict: bool = True):
    """Parse ``BAYES``/``ID`` text into a BeliefNetwork or InfluenceDiagram.

    Under ``strict`` (the default) a conditional-table row that does not sum
    to one is an error; otherwise rows are renormalized with a warning.
    """
    ts = _TokenStream(text)
    tok, ln, col = ts.next("model header")
    if tok not in ("BAYES", "ID"):
        raise ParseError(f"unknown model header {tok!r}", ln, col)
    header = "bayes" if tok == "BAYES" else "id"
    if kind is not None and kind != header:
        raise ParseError(f"expected a {kind.upper()} model, found {tok}", ln, col)
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
        row_sums = raw.sum(axis=-1)  # the child is the fastest-running axis
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOLERANCE:
            if strict:
                raise NormalizationError(
                    f"rows of the table for variable {child} do not sum to 1")
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

    net = BeliefNetwork(_default_variables(cards), tuple(parents), tuple(cpts))
    if header == "bayes":
        return net
    return InfluenceDiagram(net, tuple(decisions), tuple(utilities))


def _num(x: float) -> str:
    return repr(float(x))


def serialize_network(model) -> str:
    """Render a model back into the network format, full precision."""
    diagram = model if isinstance(model, InfluenceDiagram) else None
    net = diagram.network if diagram else model
    out = ["ID" if diagram else "BAYES", str(net.n),
           " ".join(str(c) for c in net.cards)]
    if diagram:
        out.append(" ".join([str(len(diagram.decisions)),
                             *[str(d) for d in diagram.decisions]]).strip())
    children = [i for i in range(net.n) if net.cpts[i] is not None]
    out.append(str(len(children)))
    for child in children:
        file_scope = [*net.parents[child], child]
        out.append(" ".join(str(t) for t in [len(file_scope), *file_scope]))
    for child in children:
        cpt = net.cpts[child]
        file_scope = [*net.parents[child], child]
        axes = tuple(cpt.scope.index(v) for v in file_scope)
        table = cpt.values.transpose(axes)
        out.append(str(table.size))
        out.append(" ".join(_num(x) for x in table.ravel()))
    if diagram:
        out.append(str(len(diagram.utilities)))
        for f in diagram.utilities:
            out.append(" ".join(str(t) for t in [len(f.scope), *f.scope]))
            out.append(str(f.values.size))
            out.append(" ".join(_num(x) for x in f.values.ravel()))
    return "\n".join(out) + "\n"


# -- evidence ------------------------------------------------------------------------

def parse_evidence(text: str, net) -> Evidence:
    """Parse ``count  var value ...`` pairs and range-check them against a model."""
    ts = _TokenStream(text)
    count = ts.next_int("assignment count", minimum=0)
    assignments: dict[int, int] = {}
    for _ in range(count):
        var = ts.next_int("observed variable")
        val = ts.next_int("observed value")
        if not 0 <= var < net.n:
            raise EvidenceError(f"unknown variable {var}")
        if not 0 <= val < net.cards[var]:
            raise EvidenceError(f"value {val} out of range for variable {var}")
        if var in assignments:
            raise EvidenceError(f"variable {var} observed twice")
        assignments[var] = val
    ts.expect_end()
    return Evidence(assignments)


def serialize_evidence(ev: Evidence) -> str:
    parts = [str(len(ev))]
    for var, val in ev.items():
        parts.append(f"{var} {val}")
    return " ".join(parts) + "\n"


def parse_cnf_evidence(text: str, num_props: int) -> list[int]:
    """Observed propositions as unit literals (1-based, sign = truth value)."""
    ts = _TokenStream(text)
    count = ts.next_int("assignment count", minimum=0)
    literals: list[int] = []
    seen: set[int] = set()
    for _ in range(count):
        var = ts.next_int("observed proposition")
        val = ts.next_int("observed value")
        if not 1 <= var <= num_props:
            raise EvidenceError(f"unknown proposition {var}")
        if val not in (0, 1):
            raise EvidenceError(f"value {val} out of range for proposition {var}")
        if var in seen:
            raise EvidenceError(f"proposition {var} observed twice")
        seen.add(var)
        literals.append(var if val else -var)
    ts.expect_end()
    return literals


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

    for ln, raw in enumerate(text.splitlines(), start=1):
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
        for m in re.finditer(r"\S+", s):
            try:
                lit = int(m.group())
            except ValueError:
                raise ParseError(f"expected a literal, found {m.group()!r}",
                                 ln, m.start() + 1)
            if lit == 0:
                flush(ln)
            else:
                if abs(lit) > num_props:
                    raise ParseError(f"literal {lit} out of range", ln, m.start() + 1)
                pending.append(lit)
    if num_props is None:
        raise ParseError("missing DIMACS header")
    flush(len(text.splitlines()))
    return CnfTheory(num_props, tuple(clauses))


def sorted_clause(clause: Iterable[int]) -> list[int]:
    return sorted(clause, key=lambda lit: (abs(lit), lit < 0))


def serialize_cnf(theory: CnfTheory) -> str:
    lines = [f"p cnf {theory.num_props} {len(theory.clauses)}"]
    for clause in theory.clauses:
        lines.append(" ".join(str(lit) for lit in sorted_clause(clause)) + " 0")
    return "\n".join(lines) + "\n"
