"""Directional resolution: extensions, model generation, unsatisfiability."""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import bucketforge
import bucketforge.resolution

from bucketforge import (CnfTheory, Ordering, UnsatisfiableError,
                         directional_resolution, generate_model, induced_width,
                         interaction_graph, order_heuristic, parse_cnf)
from bucketforge.oracle import oracle_sat, truth_table_models
from bucketforge.randgen import random_cnf, shuffled_ordering


def clauses(*lits_groups):
    return tuple(frozenset(g) for g in lits_groups)


def satisfies(theory, model):
    return all(any((lit > 0) == model[abs(lit)] for lit in clause)
               for clause in theory.clauses)


def test_three_clause_chain_resolves_through_the_top_bucket():
    # (~C | A) (~A | B | D) (~B | C | D) along A,B,D,C: bucket C holds the
    # first and third clauses, and resolving on C adds (A | ~B | D) below.
    theory = CnfTheory(4, clauses({-3, 1}, {-1, 2, 4}, {-2, 3, 4}))
    extension = directional_resolution(theory, Ordering((0, 1, 3, 2)))
    assert extension.satisfiable
    assert set(extension.buckets[3]) == {frozenset({-3, 1}), frozenset({-2, 3, 4})}
    assert frozenset({1, -2, 4}) in extension.buckets[4]
    assert truth_table_models(extension.to_theory()) == truth_table_models(theory)


def test_opposing_units_are_unsatisfiable():
    theory = CnfTheory(1, clauses({1}, {-1}))
    extension = directional_resolution(theory, Ordering((0,)))
    assert not extension.satisfiable
    assert extension.clause_count() == 0
    with pytest.raises(UnsatisfiableError):
        generate_model(extension)


def test_unsatisfiable_core_needs_two_steps():
    theory = CnfTheory(2, clauses({1, 2}, {1, -2}, {-1, 2}, {-1, -2}))
    extension = directional_resolution(theory, Ordering((0, 1)))
    assert not extension.satisfiable
    assert extension.clause_count() == 0


def test_a_theory_with_an_empty_clause_has_an_unsatisfiable_extension():
    theory = CnfTheory(2, clauses({1, 2}, set()))
    extension = directional_resolution(theory, Ordering((1, 0)))
    assert not extension.satisfiable
    assert extension.clause_count() == 0
    with pytest.raises(UnsatisfiableError):
        generate_model(extension)


def test_model_generation_walks_the_ordering():
    theory = CnfTheory(3, clauses({1, -2}, {2, 3}))
    extension = directional_resolution(theory, Ordering((0, 1, 2)))
    model = generate_model(extension)
    assert satisfies(theory, model)
    # Values are tried false first along the ordering, so the unconstrained
    # leading propositions settle on false.
    assert model == {1: False, 2: False, 3: True}


def test_unit_buckets_do_unit_resolution_only():
    # Bucket of proposition 3 holds a unit clause; processing it must keep
    # the extension backtrack-free without generating the full pairwise set.
    theory = CnfTheory(3, clauses({3}, {-3, 1}, {-3, 2}, {1, 2, -3}))
    extension = directional_resolution(theory, Ordering((0, 1, 2)))
    assert extension.satisfiable
    model = generate_model(extension)
    assert satisfies(theory, model)
    assert model[3] is True


def test_empty_theory_generates_the_all_false_model():
    theory = CnfTheory(3, ())
    extension = directional_resolution(theory, Ordering((0, 1, 2)))
    model = generate_model(extension)
    assert model == {1: False, 2: False, 3: False}


def test_ordering_must_cover_every_proposition():
    theory = CnfTheory(3, clauses({1, 2}, {-2, 3}))
    with pytest.raises(ValueError):
        directional_resolution(theory, Ordering((0, 1)))
    # Right length, but proposition 3 is missing and 5 is not in the theory.
    with pytest.raises(ValueError, match=r"propositions \[5\] outside 1..3"):
        directional_resolution(theory, Ordering((0, 1, 4)))


def test_extension_buckets_key_by_highest_position():
    theory = CnfTheory(3, clauses({1, -2}, {2, 3}))
    extension = directional_resolution(theory, Ordering((2, 1, 0)))
    # Along 3,2,1 the clause (1 | ~2) files under proposition 1 and the
    # clause (2 | 3) under proposition 2.
    assert frozenset({1, -2}) in extension.buckets[1]
    assert frozenset({2, 3}) in extension.buckets[2]


def test_extension_roundtrips_through_dimacs():
    theory = CnfTheory(3, clauses({1, -2}, {2, 3}))
    extension = directional_resolution(theory, Ordering((0, 1, 2)))
    text = extension.to_dimacs()
    assert text.startswith("c order 1 2 3")
    again = parse_cnf(text)
    assert set(again.clauses) == set(extension.all_clauses())


def test_random_theories_match_truth_tables():
    rng = random.Random(2024)
    unsat_seen = 0
    for _ in range(120):
        theory = random_cnf(rng, max_props=9)
        ordering = shuffled_ordering(rng, theory.num_props)
        extension = directional_resolution(theory, ordering)
        if not extension.satisfiable:
            unsat_seen += 1
            assert not oracle_sat(theory)
            continue
        assert truth_table_models(extension.to_theory()) == \
            truth_table_models(theory)
        model = generate_model(extension)
        assert satisfies(theory, model)
    assert unsat_seen > 0  # the corpus exercises both outcomes


def _orderings(rng, theory):
    g = interaction_graph(theory)
    return [order_heuristic(g, "min_fill"), order_heuristic(g, "min_degree"),
            shuffled_ordering(rng, theory.num_props)]


def test_the_model_is_the_first_one_along_the_ordering():
    # The extension is backtrack-free, so trying false before true along the
    # ordering lands on the least model in that order, whatever clauses the
    # sweep kept.
    rng = random.Random(19)
    sat_seen = 0
    for _ in range(80):
        theory = random_cnf(rng, max_props=12)
        models = truth_table_models(theory)
        for ordering in _orderings(rng, theory):
            extension = directional_resolution(theory, ordering)
            assert extension.satisfiable == bool(models)
            if not models:
                continue
            sat_seen += 1
            model = generate_model(extension)
            first = min(models, key=lambda m: [m[node] for node in ordering])
            assert tuple(model[p] for p in range(1, theory.num_props + 1)) == first
    assert sat_seen > 0


def test_no_kept_clause_contains_one_listed_before_it_in_its_bucket():
    rng = random.Random(23)
    for _ in range(80):
        theory = random_cnf(rng, max_props=12)
        for ordering in _orderings(rng, theory):
            extension = directional_resolution(theory, ordering)
            for bucket in extension.buckets.values():
                for k, clause in enumerate(bucket):
                    assert not any(earlier <= clause for earlier in bucket[:k])


def test_a_clause_containing_a_filed_one_is_not_filed():
    # (1 | 2) is filed before (1 | 2 | 3), in an earlier bucket along 1,2,3;
    # the duplicate (1 | 2) is dropped as well.
    theory = CnfTheory(3, clauses({1, 2}, {1, 2, 3}, {1, 2}, {-2, 3}))
    extension = directional_resolution(theory, Ordering((0, 1, 2)))
    assert extension.buckets == {1: (), 2: (frozenset({1, 2}),),
                                 3: (frozenset({-2, 3}),)}
    assert extension.clause_count() == 2


def test_extension_clause_width_respects_the_induced_width():
    rng = random.Random(4)
    for _ in range(60):
        theory = random_cnf(rng, max_props=8)
        ordering = shuffled_ordering(rng, theory.num_props)
        extension = directional_resolution(theory, ordering)
        if not extension.satisfiable:
            continue
        g = interaction_graph(theory)
        bound = induced_width(g, ordering).induced_width + 1
        assert all(len(c) <= bound for c in extension.all_clauses())


# A three-literal clause whose interaction graph (a triangle) has induced
# width 2, so the true bound admits it and a bound of 1 does not.
_WIDE_THEORY = (3, ((1, 2, 3), (-1, 2)))


def _understated_width(real):
    def fake(g, order):
        return dataclasses.replace(real(g, order), induced_width=0)
    return fake


def test_width_bound_violation_raises(monkeypatch):
    props, groups = _WIDE_THEORY
    theory = CnfTheory(props, clauses(*groups))
    ordering = Ordering(tuple(range(props)))
    assert directional_resolution(theory, ordering).satisfiable
    monkeypatch.setattr(bucketforge.resolution, "induced_width",
                        _understated_width(bucketforge.resolution.induced_width))
    with pytest.raises(AssertionError, match="induced-width bound"):
        directional_resolution(theory, ordering)


def test_width_bound_violation_raises_under_python_O(tmp_path):
    props, groups = _WIDE_THEORY
    script = textwrap.dedent(f"""
        import dataclasses, sys
        import bucketforge.resolution as resolution
        from bucketforge import CnfTheory, Ordering
        assert False, "asserts must be stripped in this interpreter"
        real = resolution.induced_width
        resolution.induced_width = lambda g, order: dataclasses.replace(
            real(g, order), induced_width=0)
        theory = CnfTheory({props}, tuple(frozenset(c) for c in {groups!r}))
        try:
            resolution.directional_resolution(theory, Ordering(tuple(range({props}))))
        except AssertionError as exc:
            print("raised", sys.flags.optimize, exc)
        else:
            print("passed", sys.flags.optimize)
    """)
    src = Path(bucketforge.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised 1 "), proc.stdout


def _band_cnf(rng, props, band, count):
    """A seeded 3-CNF whose clauses each lie in ``band`` consecutive
    propositions."""
    out = []
    for _ in range(count):
        low = rng.randint(1, props - band + 1)
        out.append(frozenset(p if rng.random() < 0.5 else -p
                             for p in rng.sample(range(low, low + band), 3)))
    return CnfTheory(props, tuple(out))


def test_a_passed_interaction_graph_gives_the_extension_built_without_it():
    rng = random.Random(2027)
    sat = 0
    for case in range(40):
        props = rng.randint(6, 40)
        theory = _band_cnf(rng, props, rng.randint(3, min(6, props)),
                           rng.randint(props, 3 * props))
        graph = interaction_graph(theory)
        for ordering in (order_heuristic(graph, "min_fill"), shuffled_ordering(rng, props)):
            built = directional_resolution(theory, ordering)
            passed = directional_resolution(theory, ordering, graph)
            assert passed == built
            assert passed.to_dimacs() == built.to_dimacs()
            sat += built.satisfiable
    assert 0 < sat < 80


@pytest.mark.parametrize("order", [None, "min-degree", "given:3,1,2,4"], ids=str)
def test_dr_builds_the_interaction_graph_once(tmp_path, capsys, monkeypatch, order):
    import bucketforge.cli as cli
    path = tmp_path / "band.cnf"
    path.write_text("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n", encoding="utf-8")
    argv = ["dr", str(path), *([] if order is None else ["--order", order])]
    assert cli.run(argv) == 0
    expected = capsys.readouterr()
    built = []

    def counted(theory):
        built.append(theory)
        return interaction_graph(theory)
    monkeypatch.setattr(cli, "interaction_graph", counted)
    monkeypatch.setattr(bucketforge.resolution, "interaction_graph", counted)
    assert cli.run(argv) == 0
    assert capsys.readouterr() == expected
    assert len(built) == 1


def test_an_understated_width_passed_in_still_raises(monkeypatch):
    """A caller's width replaces the check's own elimination, not the check:
    the true width of ``_WIDE_THEORY``'s triangle (2) passes without
    building or eliminating a graph, and an understated one still raises."""
    props, groups = _WIDE_THEORY
    theory = CnfTheory(props, clauses(*groups))
    ordering = Ordering(tuple(range(props)))

    def unused(*args):
        raise AssertionError("the width check eliminated a graph")
    monkeypatch.setattr(bucketforge.resolution, "interaction_graph", unused)
    monkeypatch.setattr(bucketforge.resolution, "induced_width", unused)
    assert directional_resolution(theory, ordering, width=2).satisfiable
    for width in (0, 1):
        with pytest.raises(AssertionError, match=f"induced-width bound {width + 1}$"):
            directional_resolution(theory, ordering, width=width)


@pytest.mark.parametrize("order", [None, "min-degree", "given:3,1,2,4"], ids=str)
def test_dr_eliminates_the_graph_once(tmp_path, capsys, monkeypatch, order):
    """A heuristic ordering's greedy gives the width bound, so the check runs
    no second elimination; a given ordering's check runs one."""
    import bucketforge.cli as cli
    path = tmp_path / "band.cnf"
    path.write_text("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n", encoding="utf-8")
    argv = ["dr", str(path), *([] if order is None else ["--order", order])]
    assert cli.run(argv) == 0
    expected = capsys.readouterr()
    eliminated = []
    real = bucketforge.resolution.induced_width

    def counted(g, ordering):
        eliminated.append(ordering)
        return real(g, ordering)
    monkeypatch.setattr(bucketforge.resolution, "induced_width", counted)
    assert cli.run(argv) == 0
    assert capsys.readouterr() == expected
    assert len(eliminated) == (order is not None and order.startswith("given:"))


def reference_model(extension):
    """Model generation as the paper states it: along the ordering, try
    false, then true, and keep the first value that satisfies every clause
    of the proposition's bucket."""
    assignment = {}
    for node in extension.ordering:
        prop = node + 1
        for value in (False, True):
            assignment[prop] = value
            if all(any((lit > 0) == assignment[abs(lit)] for lit in clause)
                   for clause in extension.buckets.get(prop, ())):
                break
        else:
            raise AssertionError(f"dead end at proposition {prop}")
    return assignment


def test_generate_model_matches_trying_false_then_true():
    """On 200 seeded satisfiable theories, band and random, some with unit
    clauses as ``--evidence`` adds them, under min-fill, min-degree and
    shuffled orderings."""
    rng = random.Random(3401)
    seen = with_units = 0
    while seen < 200:
        props = rng.randint(3, 30)
        if rng.random() < 0.5:
            theory = _band_cnf(rng, props, rng.randint(3, min(6, props)),
                               rng.randint(props, 3 * props))
        else:
            theory = random_cnf(rng, max_props=12)
            props = theory.num_props
        units = tuple(frozenset({p if rng.random() < 0.5 else -p})
                      for p in rng.sample(range(1, props + 1), rng.randint(0, 3)))
        theory = CnfTheory(props, theory.clauses + units)
        for ordering in _orderings(rng, theory):
            extension = directional_resolution(theory, ordering)
            if not extension.satisfiable:
                continue
            model = generate_model(extension)
            assert model == reference_model(extension)
            assert list(model) == [node + 1 for node in ordering]
            assert satisfies(theory, model)
            seen += 1
            with_units += bool(units)
    assert with_units > 50


def test_an_extension_that_is_not_backtrack_free_hits_a_dead_end():
    # Along 1, 2: proposition 1 settles on false, and then bucket 2 needs 2
    # both true (1 | 2) and false (1 | ~2).
    extension = bucketforge.resolution.DirectionalExtension(
        Ordering((0, 1)), 2, {1: (), 2: clauses({1, 2}, {1, -2})}, True)
    with pytest.raises(AssertionError, match="dead end at proposition 2; "
                       "the extension is not backtrack-free"):
        generate_model(extension)
    with pytest.raises(AssertionError, match="dead end at proposition 2"):
        reference_model(extension)


def test_a_sweep_past_the_filing_cap_is_refused(tmp_path, capsys, monkeypatch, generators):
    """The cap counts every clause filed, the theory's own included; past
    it the sweep raises TooLargeError and dr exits 1 with one error line
    naming the count.  Checked on a benchmark band CNF with the cap
    lowered, not on a wide theory."""
    import bucketforge.cli as cli
    cnf = generators.planted_banded_cnf(np.random.default_rng(3402), 200, 8, 2.5)
    path = tmp_path / "band.cnf"
    path.write_text(generators.cnf_text(cnf), encoding="utf-8")
    theory = CnfTheory(200, tuple(map(frozenset, cnf.clauses)))
    ordering = order_heuristic(interaction_graph(theory), "min_fill")
    assert cli.run(["dr", str(path)]) == 0
    answer = capsys.readouterr()

    def sweep(cap):
        monkeypatch.setattr(bucketforge.resolution, "FILING_CAP", cap)
        try:
            directional_resolution(theory, ordering)
        except bucketforge.TooLargeError as exc:
            assert str(exc) == (f"directional resolution tried to file {cap + 1} clauses, "
                                f"past the cap of {cap}")
            return False
        return True

    # The least cap that passes is the number of clauses the sweep files.
    real = bucketforge.resolution.FILING_CAP
    low, high = len(theory.clauses) - 1, real
    assert not sweep(low) and sweep(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if sweep(mid) else (mid, high)
    assert len(theory.clauses) < high < real // 100
    for cap in (low, len(theory.clauses) - 1):
        monkeypatch.setattr(bucketforge.resolution, "FILING_CAP", cap)
        assert cli.run(["dr", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: directional resolution tried to file "
                                           f"{cap + 1} clauses, past the cap of {cap}\n")
    monkeypatch.setattr(bucketforge.resolution, "FILING_CAP", high)
    assert cli.run(["dr", str(path)]) == 0
    assert capsys.readouterr() == answer
