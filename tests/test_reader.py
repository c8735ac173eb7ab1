"""The network reader against the table-by-table reader it replaced.

``reference_parse_network`` is that reader, kept here as the reference:
it reads each table block in turn, converts and checks its entries, under
``strict=False`` renormalizes it, and transposes it into a factor, before
it moves to the next.  The reader in ``bucketforge.model`` must give the
same models, errors and warnings, with one declared difference: under
``strict=False`` a syntax error anywhere in the text now comes before any
table's negative entry, all-zero row or renormalization warning, as under
``strict=True``.  The reference keeps the token stream and scope reader
it was written against, copied here unchanged, so that a change to the
reader's own helpers cannot change the reference.

The same holds for ``parse_evidence`` against the pair-by-pair reader
``reference_read_pairs``, and for the constructor's parent checks
against ``reference_check_parents``.
"""

import math
import random
import re
import warnings
from typing import Sequence

import numpy as np
import pytest

from bucketforge import (BeliefNetwork, CycleError, DiscreteFactor, EvidenceError,
                         InfluenceDiagram, ModelError, NormalizationError, ParseError,
                         parse_network, serialize_network)
from bucketforge.model import (ROW_SUM_TOLERANCE, Evidence, parse_cnf_evidence,
                               parse_evidence)
from bucketforge.randgen import random_influence_diagram, random_network


# -- the token stream and scope reader the reference was written against ------------

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


# -- the reference reader ----------------------------------------------------------

def _next_table(ts, count):
    start = ts._i
    toks = ts._toks[start:start + count]
    try:
        values = np.fromiter(map(float, toks), dtype=np.float64, count=len(toks))
    except ValueError:
        for j, tok in enumerate(toks):
            try:
                float(tok)
            except ValueError:
                raise ts.error(f"expected table entry, found {tok!r}", start + j)
    if len(toks) < count:
        raise ParseError("unexpected end of input, expected table entry")
    if not np.isfinite(values).all():
        j = int(np.argmin(np.isfinite(values)))
        raise ts.error(f"table entry must be finite, found {toks[j]!r}", start + j)
    ts._i += count
    return values


def _read_table(ts, scope, cards):
    shape = tuple(cards[v] for v in scope)
    expected = int(np.prod(shape)) if shape else 1
    count = ts.next_int("entry count", minimum=1)
    if count != expected:
        raise ParseError(f"table over scope {list(scope)} needs {expected} entries, "
                         f"file declares {count}")
    return _next_table(ts, count).reshape(shape)


def reference_parse_network(text, kind=None, strict=True):
    ts = _TokenStream(text)
    tok = ts.next("model header")
    if tok not in ("BAYES", "ID"):
        raise ts.error(f"unknown model header {tok!r}")
    header = "bayes" if tok == "BAYES" else "id"
    if kind is not None and kind != header:
        raise ts.error(f"expected a {kind.upper()} model, found {tok}")
    n = ts.next_int("variable count", minimum=1)
    cards = [ts.next_int("cardinality", minimum=1) for _ in range(n)]
    decisions = []
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
    scopes, seen_children = [], set()
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
    cpts, parents = [None] * n, [()] * n
    for ids in scopes:
        child = ids[-1]
        raw = _read_table(ts, ids, cards)
        if not strict:
            if (raw < 0).any():
                raise NormalizationError(f"table for variable {child} has a negative entry")
            row_sums = raw.sum(axis=-1)
            if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOLERANCE:
                if np.any(row_sums == 0.0):
                    raise NormalizationError(
                        f"table for variable {child} has an all-zero row")
                raw = raw / row_sums[..., np.newaxis]
                warnings.warn(f"renormalized conditional table of variable {child}",
                              stacklevel=2)
        parents[child] = tuple(sorted(ids[:-1]))
        cpts[child] = DiscreteFactor.from_table(ids, [cards[v] for v in ids], raw)
    utilities = []
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


def reference_check_tables(net):
    """BeliefNetwork's table checks, one table at a time."""
    for i, cpt in enumerate(net.cpts):
        if cpt is None:
            continue
        if cpt.scope != net.family(i):
            raise ModelError(f"table scope {cpt.scope} differs from the family of variable {i}")
        for v, c in zip(cpt.scope, cpt.cards):
            if c != net.cards[v]:
                raise ModelError(f"table for variable {i} disagrees on cardinality of {v}")
        sums = cpt.values.sum(axis=cpt.scope.index(i))
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOLERANCE:
            raise NormalizationError(f"rows of the table for variable {i} do not sum to 1")
        if (cpt.values < 0).any():
            raise NormalizationError(f"table for variable {i} has a negative entry")


# -- seeded files -----------------------------------------------------------------

def _factor_key(f):
    return (f.scope, f.cards, f.values.tobytes())


def _outcome(parse, text, strict):
    """What ``parse`` makes of ``text``: the model's cards, parents, tables
    (by bytes), decisions and utilities, or the error's class, message,
    line and column; and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = parse(text, strict=strict)
        except ModelError as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None),
                      getattr(exc, "column", None))
        else:
            diagram = model if isinstance(model, InfluenceDiagram) else None
            net = diagram.network if diagram else model
            result = (net.cards, net.parents,
                      [None if c is None else _factor_key(c) for c in net.cpts],
                      diagram and diagram.decisions,
                      diagram and [_factor_key(u) for u in diagram.utilities])
    return result, [(w.category, str(w.message)) for w in caught]


def _is_read_error(result):
    """An error of reading the text, not of the model it describes."""
    return isinstance(result[0], type) and result[0] not in (NormalizationError, CycleError)


def _model_rows(model, rng):
    """Token rows of ``model`` in the network format, its variables
    relabelled, its tables in shuffled order and the parents of each scope
    line shuffled, so tables reach the reader in every layout."""
    diagram = model if isinstance(model, InfluenceDiagram) else None
    net = diagram.network if diagram else model
    label = list(range(net.n))
    rng.shuffle(label)
    old = {label[i]: i for i in range(net.n)}
    rows = [["ID" if diagram else "BAYES"], [str(net.n)],
            [str(net.cards[old[j]]) for j in range(net.n)]]
    if diagram:
        rows.append([str(len(diagram.decisions))] + [str(label[d]) for d in diagram.decisions])
    children = [i for i in range(net.n) if net.cpts[i] is not None]
    rng.shuffle(children)
    blocks = []
    for i in children:
        ps = list(net.parents[i])
        rng.shuffle(ps)
        blocks.append(([*ps, i], net.cpts[i]))
    if diagram:
        utilities = []
        for f in diagram.utilities:
            scope = list(f.scope)
            rng.shuffle(scope)
            utilities.append((scope, f))
    rows.append([str(len(blocks))])
    rows += [[str(len(s)), *(str(label[v]) for v in s)] for s, _ in blocks]
    rows += [_entries(s, f, rng) for s, f in blocks]
    if diagram:
        rows.append([str(len(utilities))])
        for s, f in utilities:
            rows += [[str(len(s)), *(str(label[v]) for v in s)], _entries(s, f)]
    return rows


def _entries(scope, f, rng=None):
    """A table block; a conditional table (given ``rng``) is sometimes
    scaled off its rows, or given an all-zero row or a negative entry."""
    values = [repr(float(x)) for x in f.values.transpose([f.scope.index(v) for v in scope]).ravel()]
    draw = rng.random() if rng else 1.0
    if draw < 0.15:
        values = [repr(float(x) * 3.0) for x in values]
    elif draw < 0.18:
        values[0] = "-0.25"
    elif draw < 0.21:
        k = f.cards[f.scope.index(scope[-1])]
        values[:k] = ["0.0"] * k
    return [str(len(values)), *values]


def _text(rows):
    return "".join(" ".join(row) + "\n" for row in rows)


def _mutants(rows, rng, count):
    """Copies of ``rows`` with one of ``count`` sampled tokens replaced by
    ``x``, ``-1``, ``1.5`` or ``nan``, deleted, or with the text cut after
    it; and, where the token has a successor on its line, with the two
    changed together (``nan`` then ``x``, ``x`` then ``nan``, or ``x``
    with the text cut after the successor), so that one table holds two
    faults."""
    places = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    for r, c in rng.sample(places, min(count, len(places))):
        changes = [[(c, change)] for change in ("x", "-1", "1.5", "nan", None, "cut")]
        if c + 1 < len(rows[r]):
            changes += [[(c, a), (c + 1, b)] for a, b in
                        (("nan", "x"), ("x", "nan"), ("x", "cut"))]
        for change in changes:
            copy = [list(row) for row in rows]
            for k, to in reversed(change):
                if to == "cut":
                    copy = copy[:r] + [copy[r][:k + 1]]
                elif to is None:
                    del copy[r][k]
                else:
                    copy[r][k] = to
            yield _text(copy)


def _models(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            model = random_influence_diagram(rng, max_vars=6)
        else:
            model = random_network(rng, max_vars=rng.choice([4, 7]),
                                   max_card=rng.choice([2, 3, 10]),
                                   hard_rows=rng.choice([0.0, 0.4]))
        yield rng, _model_rows(model, rng)


def _assert_same_as_reference(text):
    for strict in (True, False):
        expected = _outcome(reference_parse_network, text, strict)
        if not strict:
            read_error, _ = _outcome(reference_parse_network, text, True)
            if _is_read_error(read_error):  # the declared difference
                expected = (read_error, [])
        assert _outcome(parse_network, text, strict) == expected, (strict, text)


@pytest.mark.parametrize("seed", range(4))
def test_valid_files_give_the_reference_models(seed):
    valid = 0
    for _, rows in _models(seed, 12):
        text = _text(rows)
        _assert_same_as_reference(text)
        valid += not isinstance(_outcome(parse_network, text, True)[0][0], type)
    assert valid  # some files had no tweak that makes them invalid


@pytest.mark.parametrize("seed", range(4))
def test_each_token_change_gives_the_reference_error(seed):
    for rng, rows in _models(100 + seed, 6):
        for text in _mutants(rows, rng, 12):
            _assert_same_as_reference(text)


def test_lax_reports_a_later_syntax_error_before_a_negative_entry():
    text = "BAYES 2 2 2 2 1 0 2 0 1 2 -0.5 1.5 4 0.5 0.5 x 0.5\n"
    with pytest.raises(NormalizationError, match="negative"):
        reference_parse_network(text, strict=False)
    with pytest.raises(ParseError, match=r"^expected table entry, found 'x' \(line 1, column 46\)"):
        parse_network(text, strict=False)
    with pytest.raises(ParseError, match=r"^expected table entry, found 'x' \(line 1, column 46\)"):
        parse_network(text)


def test_renormalization_warnings_keep_file_order_and_the_callers_place():
    # Tables 0 and 2 are of one shape, table 1 of another.
    text = "BAYES 3 2 2 2 3 1 0 2 0 1 1 2  2 1.0 3.0  4 1 1 1 1  2 2.0 2.0\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_network(text, strict=False)
    assert [str(w.message) for w in caught] == [
        f"renormalized conditional table of variable {i}" for i in (0, 1, 2)]
    assert {w.filename for w in caught} == {__file__}


# -- grouped table checks -----------------------------------------------------------

def _broken(net, rng):
    """``net``'s tables, one or two of them scaled to just inside or just
    outside the row tolerance, made negative, or over the wrong scope or
    cardinalities."""
    cpts = list(net.cpts)
    for i in rng.sample(range(net.n), rng.randint(1, 2)):
        f = cpts[i]
        draw = rng.random()
        if draw < 0.5:
            scale = 1.0 + ROW_SUM_TOLERANCE * rng.choice([0.5, 0.99, 1.01, 2.0, 1e3])
            cpts[i] = DiscreteFactor(f.scope, f.cards, f.values * scale)
        elif draw < 0.7:
            values = f.values.copy()
            values.flat[rng.randrange(values.size)] = -1e-3
            cpts[i] = DiscreteFactor(f.scope, f.cards, values)
        elif draw < 0.85:
            cpts[i] = cpts[(i + 1) % net.n]
        else:
            cards = tuple(c + 1 for c in f.cards)
            cpts[i] = DiscreteFactor(f.scope, cards, np.full(cards, 1.0 / cards[-1]))
    return cpts


def _check(build):
    try:
        build()
    except ModelError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", range(3))
def test_grouped_table_checks_name_what_one_table_at_a_time_names(seed):
    rng = random.Random(seed)
    failures = 0
    for _ in range(150):
        net = random_network(rng, max_vars=9, max_card=rng.choice([3, 12]))
        cpts = _broken(net, rng)
        shell = BeliefNetwork.__new__(BeliefNetwork)  # skips __post_init__
        object.__setattr__(shell, "cards", net.cards)
        object.__setattr__(shell, "parents", net.parents)
        object.__setattr__(shell, "cpts", tuple(cpts))
        expected = _check(lambda: reference_check_tables(shell))
        failures += expected is not None
        assert _check(lambda: BeliefNetwork(net.cards, net.parents, tuple(cpts))) == expected
    assert failures > 50


def test_tables_of_one_shape_share_one_locked_block():
    net = parse_network("BAYES 3 2 2 2 3 1 0 2 0 1 2 1 2  2 0.5 0.5"
                        "  4 0.5 0.5 0.5 0.5  4 0.2 0.8 0.3 0.7\n")
    a, b = net.cpts[1].values, net.cpts[2].values
    assert a.base is b.base and a.base.shape == (2, 2, 2)
    assert not a.flags.writeable and not a.base.flags.writeable


# -- many tables per block --------------------------------------------------------

# An id or a count past int64: int() reads it, numpy's int64 conversion overflows.
PAST_INT64 = "99999999999999999999"


def _large_network(rng, n=320):
    """A seeded network of ``n`` variables, binary and ternary, each with up
    to three parents among the eight variables before it, so that many
    tables share a shape and a scope-line permutation."""
    cards = tuple(rng.choice([2, 2, 3]) for _ in range(n))
    parents, cpts = [], []
    for i in range(n):
        ps = tuple(sorted(rng.sample(range(max(0, i - 8), i), min(i, rng.randint(0, 3)))))
        shape = tuple(cards[v] for v in (*ps, i))
        raw = np.array([rng.uniform(0.05, 1.0) for _ in range(math.prod(shape))]).reshape(shape)
        parents.append(ps)
        cpts.append(DiscreteFactor.from_table([*ps, i], shape, raw / raw.sum(axis=-1, keepdims=True)))
    return BeliefNetwork(cards, tuple(parents), tuple(cpts))


def _single_token_mutants(rows, rng, per_section):
    """Copies of ``rows`` with one token changed: ``per_section`` sampled
    tokens each among the cardinalities, the scope lines, the entry counts
    and the entries, each replaced by a value past int64, ``x``, ``-1``,
    ``0``, ``nan``, another token of the text, the same token spelt with a
    leading zero, or deleted, or with the text cut after it."""
    m = int(rows[3][0])
    sections = [[(2, c) for c in range(len(rows[2]))],
                [(r, c) for r in range(4, 4 + m) for c in range(len(rows[r]))],
                [(r, 0) for r in range(4 + m, 4 + 2 * m)],
                [(r, c) for r in range(4 + m, 4 + 2 * m) for c in range(1, len(rows[r]))]]
    tokens = [tok for row in rows for tok in row]
    for places in sections:
        for r, c in rng.sample(places, per_section):
            to = rng.choice([PAST_INT64, "x", "-1", "0", "nan", rng.choice(tokens),
                             "0" + rows[r][c], None, "cut"])
            copy = [list(row) for row in rows]
            if to == "cut":
                copy = copy[:r] + [copy[r][:c + 1]]
            elif to is None:
                del copy[r][c]
            else:
                copy[r][c] = to
            yield _text(copy)


@pytest.mark.parametrize("seed", range(2))
def test_a_large_network_and_its_mutants_give_the_reference_outcomes(seed):
    rng = random.Random(200 + seed)
    model = _large_network(rng)
    net = parse_network(serialize_network(model))
    assert net == model and max(len(variables) for variables, _, _ in net.cpts.blocks) >= 20
    rows = _model_rows(model, rng)
    _assert_same_as_reference(_text(rows))
    messages = set()  # the kinds of error met, numbers left out
    for mutant in _single_token_mutants(rows, rng, per_section=10):
        _assert_same_as_reference(mutant)
        messages.add(re.sub(r"\d+", "#", _outcome(parse_network, mutant, True)[0][1]))
    assert len(messages) >= 10


def test_a_value_past_int64_is_read_as_the_table_by_table_reader_reads_it():
    texts = [f"BAYES 2 2 2 2 1 0 2 0 1 {PAST_INT64} 0.5 0.5 4 0.5 0.5 0.5 0.5\n",
             f"BAYES 2 2 2 2 1 {PAST_INT64} 2 0 1 2 0.5 0.5 4 0.5 0.5 0.5 0.5\n",
             f"BAYES 2 2 {PAST_INT64} 2 1 0 2 0 1 2 0.5 0.5 4 0.5 0.5 0.5 0.5\n",
             f"BAYES 2 2 2 2 {PAST_INT64} 0 2 0 1 2 0.5 0.5 4 0.5 0.5 0.5 0.5\n",
             f"ID 2 {PAST_INT64} 2 1 0 1 2 0 1 4 0.5 0.5 0.5 0.5 0\n",
             f"ID 2 {PAST_INT64} 2 1 0 1 1 1 2 0.5 0.5 0\n"]
    for text in texts:
        _assert_same_as_reference(text)
    # A decision variable in no table may have a cardinality past int64.
    diagram = parse_network(texts[-1])
    assert diagram.cards[0] == int(PAST_INT64)


# -- evidence ---------------------------------------------------------------------

def reference_read_pairs(text, noun, cards, base):
    ts = _TokenStream(text)
    count = ts.next_int("assignment count", minimum=0)
    pairs = {}
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


def _pairs_outcome(read):
    try:
        found = read()
    except ModelError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return list(found.assignments.items()) if isinstance(found, Evidence) else found


def test_evidence_and_its_mutants_give_the_reference_outcomes():
    rng = random.Random(7)
    net = _large_network(rng)
    observed = rng.sample(range(net.n), 120)
    tokens = [str(len(observed))]
    for v in observed:
        tokens += [str(v), str(rng.randrange(net.cards[v]))]
    texts = [" ".join(tokens) + "\n"]
    for k in rng.sample(range(len(tokens)), 40):
        copy = list(tokens)
        to = rng.choice([PAST_INT64, "x", "-1", str(net.n), "2", "0" + copy[k],
                         rng.choice(tokens), None, "cut", "trail"])
        if to == "cut":
            copy = copy[:k + 1]
        elif to == "trail":
            copy.append("0")
        elif to is None:
            del copy[k]
        else:
            copy[k] = to
        texts.append(" ".join(copy) + "\n")
    outcomes = set()
    for text in texts:
        expected = _pairs_outcome(lambda: Evidence(reference_read_pairs(text, "variable",
                                                                        net.cards, 0)))
        assert _pairs_outcome(lambda: parse_evidence(text, net)) == expected, text
        outcomes.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert {"ok", ParseError, EvidenceError} <= outcomes
    for text in ("3 1 1 2 0 3 1\n", "2 1 1 1 0\n", f"1 {PAST_INT64} 1\n", "1 0 1\n"):
        expected = _pairs_outcome(lambda: [v if b else -v for v, b in
                                           reference_read_pairs(text, "proposition",
                                                                (2,) * 3, 1).items()])
        assert _pairs_outcome(lambda: parse_cnf_evidence(text, 3)) == expected, text


# -- the constructor's parent checks ------------------------------------------------

def reference_check_parents(n, parents):
    for i, ps in enumerate(parents):
        if len(set(ps)) != len(ps):
            raise ModelError(f"variable {i} lists a parent twice")
        for p in ps:
            if not 0 <= p < n:
                raise ModelError(f"variable {i} has unknown parent {p}")
            if p == i:
                raise ModelError(f"variable {i} is its own parent")


def test_parent_checks_name_what_one_variable_at_a_time_names():
    rng = random.Random(3)
    failures = 0
    for _ in range(200):
        net = random_network(rng, max_vars=9)
        parents = [list(ps) for ps in net.parents]
        for i in rng.sample(range(net.n), rng.randint(1, 2)):
            fault = rng.choice([i, -1, net.n, 2 ** 70, "twice"])
            if fault == "twice" and parents[i]:
                parents[i].append(parents[i][0])
            elif fault != "twice":
                parents[i].insert(rng.randint(0, len(parents[i])), fault)
        parents = tuple(map(tuple, parents))
        expected = _check(lambda: reference_check_parents(net.n, parents))
        failures += expected is not None
        assert _check(lambda: BeliefNetwork(net.cards, parents, net.cpts)) == expected
    assert failures > 100
