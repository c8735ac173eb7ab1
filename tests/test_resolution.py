"""Directional resolution: extensions, model generation, unsatisfiability."""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

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
