"""File formats: parsing, validation, serialization round trips."""

import math
import random
import warnings

import numpy as np
import pytest

from bucketforge import (BeliefNetwork, CnfTheory, CycleError, DiscreteFactor,
                         Evidence, EvidenceError, InfluenceDiagram, ModelError,
                         NormalizationError, ParseError, parse_cnf, parse_cnf_evidence,
                         parse_evidence, parse_network, serialize_cnf,
                         serialize_evidence, serialize_network)
from bucketforge.randgen import (random_cnf, random_evidence,
                                 random_influence_diagram, random_network)

CHILD = DiscreteFactor.from_table([0, 1], [2, 2], [0.5, 0.5, 0.5, 0.5])


def _diagram(decisions, prior=None, utilities=()):
    """Binary 0 -> 1, variable 0 with ``prior`` as its table."""
    return InfluenceDiagram(BeliefNetwork((2, 2), ((), (0,)), (prior, CHILD)),
                            decisions, utilities)


TWO_NODE = """BAYES
2
2 3
2
1 0
2 0 1
2 0.4 0.6
6 0.1 0.2 0.7 0.5 0.25 0.25
"""


def test_parse_reads_tables_child_fastest():
    net = parse_network(TWO_NODE)
    assert net.n == 2
    assert net.cards == (2, 3)
    assert net.cards is net.cards  # built once: validation indexes it per entry
    assert net.parents == ((), (0,))
    cpt = net.cpts[1]
    assert cpt.value_at({0: 0, 1: 2}) == 0.7
    assert cpt.value_at({0: 1, 1: 0}) == 0.5


def test_tables_become_factors_only_when_asked():
    net = parse_network(TWO_NODE)
    assert net.tables[1].scope == (0, 1)
    cpt = net.cpts[1]
    assert isinstance(cpt, DiscreteFactor) and not cpt.values.flags.writeable
    assert cpt == DiscreteFactor.from_table([0, 1], [2, 3], [0.1, 0.2, 0.7, 0.5, 0.25, 0.25])
    assert np.shares_memory(cpt.values, net.tables[1].values)  # a view of the block
    assert net.factor_list() == [net.cpts[0], cpt]
    assert BeliefNetwork(net.cards, net.parents, net.factor_list()) == net


def test_parse_sorts_parents_in_scope():
    text = """BAYES
3
2 2 2
3
1 0
1 1
3 1 0 2
2 0.5 0.5
2 0.5 0.5
8 0.1 0.9 0.2 0.8 0.3 0.7 0.4 0.6
"""
    net = parse_network(text)
    assert net.parents[2] == (0, 1)
    cpt = net.cpts[2]
    assert cpt.scope == (0, 1, 2)
    # Scope line listed parent 1 before parent 0, child fastest: the entry
    # for (x1=1, x0=0, x2=0) sits third in the file.
    assert cpt.value_at({1: 1, 0: 0, 2: 0}) == 0.3


def test_network_roundtrip_is_exact():
    rng = random.Random(3)
    for _ in range(25):
        net = random_network(rng)
        text = serialize_network(net)
        again = parse_network(text)
        assert again.parents == net.parents
        assert again.cards == net.cards
        for a, b in zip(again.cpts, net.cpts):
            assert a.scope == b.scope
            assert (a.values == b.values).all()
        assert serialize_network(again) == text


def test_diagram_roundtrip_is_exact():
    rng = random.Random(5)
    for _ in range(25):
        diagram = random_influence_diagram(rng)
        text = serialize_network(diagram)
        again = parse_network(text)
        assert isinstance(again, InfluenceDiagram)
        assert again.decisions == diagram.decisions
        assert len(again.utilities) == len(diagram.utilities)
        for a, b in zip(again.utilities, diagram.utilities):
            assert a.scope == b.scope
            assert (a.values == b.values).all()
        assert serialize_network(again) == text


def test_strict_mode_rejects_bad_rows():
    bad = TWO_NODE.replace("0.4 0.6", "0.4 0.7")
    with pytest.raises(NormalizationError):
        parse_network(bad)


def test_lax_mode_renormalizes_with_a_warning():
    bad = TWO_NODE.replace("0.4 0.6", "0.8 1.2")
    with pytest.warns(UserWarning):
        net = parse_network(bad, strict=False)
    assert math.isclose(net.cpts[0].value_at({0: 0}), 0.4, rel_tol=1e-12)


def test_lax_mode_still_rejects_zero_rows():
    bad = TWO_NODE.replace("0.4 0.6", "0.0 0.0")
    with pytest.raises(NormalizationError):
        parse_network(bad, strict=False)


def test_kind_mismatch_is_rejected():
    with pytest.raises(ParseError):
        parse_network(TWO_NODE, kind="id")


def test_unknown_header_is_rejected():
    with pytest.raises(ParseError):
        parse_network("MARKOV\n1\n2\n")


def test_error_positions_are_line_and_column():
    try:
        parse_network("BAYES\n2\n2 x\n")
    except ParseError as exc:
        assert exc.line == 3
        assert exc.column == 3
    else:
        raise AssertionError("expected a parse error")


def test_missing_table_is_rejected():
    text = """BAYES
2
2 2
1
1 0
2 0.5 0.5
"""
    with pytest.raises(ParseError):
        parse_network(text)


def test_cycle_is_rejected():
    text = """BAYES
2
2 2
2
2 1 0
2 0 1
4 0.5 0.5 0.5 0.5
4 0.5 0.5 0.5 0.5
"""
    with pytest.raises(CycleError):
        parse_network(text)


def test_a_network_is_its_cards_parents_and_tables():
    prior = DiscreteFactor.from_table([0], [2], [0.4, 0.6])
    net = BeliefNetwork((2, 3), ((), ()), (prior, None))
    assert net.n == 2 and net.cards == (2, 3)
    assert net.names == ("X0", "X1")
    with pytest.raises(ModelError, match="variable 1 has cardinality 0"):
        BeliefNetwork((2, 0), ((), ()), (prior, None))
    with pytest.raises(ModelError, match="must align"):
        BeliefNetwork((2,), ((), ()), (prior, None))


def test_a_negative_conditional_entry_is_rejected():
    tables = [DiscreteFactor.from_table([0], [2], [0.5, 0.5]),
              DiscreteFactor.from_table([0, 1], [2, 2], [1.5, -0.5, 0.5, 0.5])]
    with pytest.raises(NormalizationError, match="table for variable 1 has a negative entry"):
        BeliefNetwork((2, 2), ((), (0,)), tuple(tables))


def test_negative_zero_entries_become_positive_zero_at_the_model_boundary():
    text = TWO_NODE.replace("0.4 0.6", "-0 1").replace("0.1 0.2 0.7", "-0 0.3 0.7")
    prior = DiscreteFactor.from_table([0], [2], [-0.0, 1.0])
    built = BeliefNetwork((2,), ((),), (prior,))
    assert np.signbit(prior.values).any()
    for net in (parse_network(text), built):
        for _, _, values in net.cpts.blocks:
            assert not np.signbit(values).any()
    assert parse_network(text).tables[1].values[0, 0] == 0.0


def test_decision_with_parents_is_rejected():
    text = """ID
2
2 2
1 1
2
1 0
2 0 1
2 0.5 0.5
4 0.5 0.5 0.5 0.5
0
"""
    with pytest.raises(ModelError):
        parse_network(text)


def test_trailing_tokens_are_rejected():
    with pytest.raises(ParseError):
        parse_network(TWO_NODE + "99\n")


def test_evidence_roundtrip_and_validation():
    net = parse_network(TWO_NODE)
    ev = parse_evidence("2\n0 1\n1 2\n", net)
    assert ev.get(0) == 1 and ev.get(1) == 2
    assert parse_evidence(serialize_evidence(ev), net).assignments == ev.assignments
    with pytest.raises(EvidenceError):
        parse_evidence("1\n5 0\n", net)
    with pytest.raises(EvidenceError):
        parse_evidence("1\n1 3\n", net)
    with pytest.raises(EvidenceError):
        parse_evidence("2\n0 1\n0 0\n", net)


def test_evidence_items_come_out_sorted():
    ev = Evidence({4: 1, 0: 0, 2: 1})
    assert [v for v, _ in ev.items()] == [0, 2, 4]


def test_cnf_roundtrip():
    rng = random.Random(9)
    for _ in range(25):
        theory = random_cnf(rng)
        text = serialize_cnf(theory)
        again = parse_cnf(text)
        assert again.num_props == theory.num_props
        assert set(again.clauses) == set(theory.clauses)


def test_cnf_comments_and_percent_are_skipped():
    theory = parse_cnf("c hello\np cnf 3 2\n1 -2 0\nc mid\n2 3 0\n%\n0\n")
    assert theory.num_props == 3
    assert set(theory.clauses) == {frozenset({1, -2}), frozenset({2, 3})}


def test_cnf_tautologies_are_dropped_with_warning():
    with pytest.warns(UserWarning):
        theory = parse_cnf("p cnf 2 2\n1 -1 0\n2 0\n")
    assert set(theory.clauses) == {frozenset({2})}


def test_cnf_out_of_range_literal_is_rejected():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1\n3 0\n")


def test_cnf_missing_header_is_rejected():
    with pytest.raises(ParseError):
        parse_cnf("1 2 0\n")


def test_cnf_evidence_becomes_unit_literals():
    units = parse_cnf_evidence("2\n1 1\n3 0\n", 3)
    assert units == [1, -3]
    with pytest.raises(EvidenceError):
        parse_cnf_evidence("1\n4 1\n", 3)


def test_theory_constructor_validates_literals():
    with pytest.raises(ModelError):
        CnfTheory(2, (frozenset({0}),))
    with pytest.raises(ModelError):
        CnfTheory(2, (frozenset({3}),))
    with pytest.raises(ModelError):
        CnfTheory(2, (frozenset({1, -1}),))


def test_random_evidence_respects_exclusions():
    rng = random.Random(21)
    for _ in range(20):
        net = random_network(rng)
        ev = random_evidence(rng, net, exclude=(0,))
        assert 0 not in ev
        for var, val in ev.items():
            assert 0 <= val < net.cards[var]


ID_TEXT = """ID
2
2 2
1 0
1
2 0 1
4 0.2 0.8 0.9 0.1
1
1 1
2 10.0 inf
"""


@pytest.mark.parametrize("text, strict, token, line, column", [
    (TWO_NODE.replace("0.4 0.6", "nan 0.6"), True, "nan", 7, 3),
    (TWO_NODE.replace("0.4 0.6", "0.4 inf"), False, "inf", 7, 7),
    (ID_TEXT, True, "inf", 10, 8),
], ids=["cpt-strict", "cpt-lax", "utility"])
def test_non_finite_table_entries_are_parse_errors(text, strict, token, line, column):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as info:
            parse_network(text, strict=strict)
    assert str(info.value) == (f"table entry must be finite, found {token!r} "
                               f"(line {line}, column {column})")
    assert (info.value.line, info.value.column) == (line, column)


def test_an_off_row_is_named_after_the_whole_text_is_read():
    off = TWO_NODE.replace("0.4 0.6", "0.4 0.7")
    with pytest.raises(NormalizationError, match="^rows of the table for variable 0 do "):
        parse_network(off)
    with pytest.raises(ParseError, match=r"^unexpected trailing token '99' \(line 9, "):
        parse_network(off + "99\n")


# Irregular whitespace for the position tests: separators inside a line,
# indents, and line ends with the number of line breaks each holds (a form
# feed ends a line, as str.splitlines counts lines).
SEPARATORS = [" ", "\t", "   ", " \t "]
INDENTS = ["", "  ", "\t", " \t"]
LINE_ENDS = [("\n", 1), ("\r\n", 1), ("\n\n", 2), ("\f", 1), (" \n\t\n", 2)]


def _layout(rows, replace=None):
    """Text of token rows laid out irregularly (token ``replace`` as ``x``),
    and per token its line, its column, and its column counted from the
    line's first token."""
    text, line, places = "", 1, []
    for r, row in enumerate(rows):
        start = len(text)
        indent = INDENTS[r % len(INDENTS)]
        text += indent
        for j, tok in enumerate(row):
            if j:
                text += SEPARATORS[(r + j) % len(SEPARATORS)]
            column = len(text) - start + 1
            places.append((line, column, column - len(indent)))
            text += "x" if len(places) - 1 == replace else tok
        end, breaks = LINE_ENDS[r % len(LINE_ENDS)]
        text += end
        line += breaks
    return text, places


NETWORK_ROWS = [["ID"], ["3"], ["2", "2", "2"], ["1", "0"], ["2"], ["2", "0", "1"],
                ["2", "1", "2"], ["4", "0.2", "0.8", "0.9", "0.1"],
                ["4", "0.7", "0.3", "0.4", "0.6"], ["1"], ["2", "0", "2"],
                ["4", "1.0", "-2.5", "0", "3e1"]]
EVIDENCE_ROWS = [["4"], ["1", "1"], ["2", "0"], ["4", "1"], ["3", "0"]]
DIMACS_ROWS = [["c", "a", "comment"], ["p", "cnf", "3", "2"], ["1", "-2", "0"],
               ["2", "3"], ["0"]]


def _assert_each_token_is_located(rows, parse, first_data_token=0, from_line_start=True):
    text, places = _layout(rows)
    parse(text)  # the unmutated text is valid
    assert "\f" in text and "\r\n" in text and "\t" in text and "\n\n" in text
    for k in range(first_data_token, len(places)):
        mutated, _ = _layout(rows, replace=k)
        with pytest.raises(ParseError) as info:
            parse(mutated)
        line, column, in_line = places[k]
        expected = (line, column if from_line_start else in_line)
        assert (info.value.line, info.value.column) == expected, (k, mutated)
        assert str(info.value).endswith(f"(line {expected[0]}, column {expected[1]})")


def test_network_errors_carry_each_tokens_position():
    _assert_each_token_is_located(NETWORK_ROWS, parse_network)


def test_evidence_errors_carry_each_tokens_position():
    net = parse_network("BAYES 5 2 2 2 2 2 5 1 0 1 1 1 2 1 3 1 4"
                        + " 2 0.5 0.5" * 5)
    _assert_each_token_is_located(EVIDENCE_ROWS, lambda t: parse_evidence(t, net))
    _assert_each_token_is_located(EVIDENCE_ROWS, lambda t: parse_cnf_evidence(t, 4))


def test_dimacs_errors_carry_each_literals_position():
    # Clause data starts at token 7, after the comment and header lines; its
    # columns count from the line's first non-blank character.
    _assert_each_token_is_located(DIMACS_ROWS, parse_cnf, first_data_token=7,
                                  from_line_start=False)


@pytest.mark.parametrize("build, cls, message", [
    (lambda: _diagram((0,)).network.table_list(), ModelError,
     "variables [0] have no conditional table"),
    (lambda: _diagram((0, 0)), ModelError, "duplicate decision variable"),
    (lambda: _diagram((5,)), ModelError, "unknown decision variable 5"),
    (lambda: _diagram((1,)), ModelError, "decision variable 1 has parents"),
    (lambda: _diagram((0,), DiscreteFactor((0,), (2,), [0.5, 0.5])), ModelError,
     "decision variable 0 has a conditional table"),
    (lambda: _diagram(()), ModelError, "chance variable 0 has no conditional table"),
    (lambda: _diagram((0,), utilities=(DiscreteFactor((7,), (2,), np.zeros(2)),)),
     ModelError, "utility mentions unknown variable 7"),
    (lambda: _diagram((0,), utilities=(DiscreteFactor((1,), (3,), np.zeros(3)),)),
     ModelError, "utility disagrees on cardinality of variable 1"),
    (lambda: Evidence({0: -1}), EvidenceError, "negative value for variable 0"),
], ids=["missing table", "duplicate decision", "unknown decision", "decision parents",
        "decision table", "chance table", "utility variable", "utility cardinality",
        "negative evidence"])
def test_models_and_evidence_built_in_the_library_are_checked(build, cls, message):
    with pytest.raises(ModelError) as info:
        build()
    assert (type(info.value), str(info.value)) == (cls, message)
