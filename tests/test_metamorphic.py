"""Metamorphic relations between the engines at sizes the oracle cannot
enumerate.

Each relation holds exactly in real arithmetic, so none needs a joint
table: ``map`` over every variable is ``mpe``, an assignment's product of
table entries is its ``mpe`` value, evidence masses add up over the values
of one more observed variable, conditioning on a cutset changes no ``mpe``
value, and the ordering changes no ``bel`` or ``mpe`` value.  The networks
are the benchmark's seeded window-6 binary networks of 200, 500 and 1000
variables, where every value stays in float64's normal range.  Where the
summation order differs the tolerance is 1e-12 relative; ``map`` and
``mpe`` run the same max-product sweep and must agree bit for bit.
"""

import functools
import math

import numpy as np
import pytest

from bucketforge import Evidence, Ordering, parse_network
from bucketforge.engines import (solve_belief, solve_map, solve_mpe,
                                 solve_mpe_conditioned)
from bucketforge.graph import constrained_order, induced_width, moral_graph
from bucketforge.oracle import score_assignment

# (variables, observed variables): every size, with and without evidence.
CASES = [(200, 0), (500, 3), (1000, 2)]
IDS = [f"n{n}-o{k}" for n, k in CASES]
REL = 1e-12


@functools.cache
def _case(gen, n, observed):
    """A seeded network, its evidence, and two unobserved variables: a
    query and another to observe next."""
    rng = np.random.default_rng(2200 + n)
    window = gen.window_network(rng, n, 2, 6)
    net = parse_network(gen.network_text(window))
    evidence = Evidence(gen.observe(rng, window, count=observed))
    free = [v for v in range(n) if v not in evidence]
    query, extra = (int(v) for v in rng.choice(free, size=2, replace=False))
    return net, evidence, query, extra


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("n, observed", CASES, ids=IDS)
def test_map_over_every_variable_is_mpe(generators, n, observed):
    net, evidence, *_ = _case(generators, n, observed)
    mpe = solve_mpe(net, evidence)
    whole = solve_map(net, range(n), evidence, mpe.plan.ordering)
    assert whole.value == mpe.value
    assert whole.assignment == mpe.assignment


@pytest.mark.parametrize("n, observed", CASES, ids=IDS)
def test_the_mpe_assignment_scores_its_value(generators, n, observed):
    net, evidence, *_ = _case(generators, n, observed)
    mpe = solve_mpe(net, evidence)
    assert sorted(mpe.assignment) == list(range(n))
    assert all(mpe.assignment[v] == x for v, x in evidence.items())
    assert _close(score_assignment(net, mpe.assignment), mpe.value)


@pytest.mark.parametrize("n, observed", CASES, ids=IDS)
def test_evidence_masses_add_up_over_one_more_observation(generators, n, observed):
    net, evidence, query, extra = _case(generators, n, observed)
    whole = solve_belief(net, query, evidence).evidence_mass
    parts = [solve_belief(net, query, Evidence({**evidence.assignments, extra: x}))
             .evidence_mass for x in range(net.cards[extra])]
    assert _close(math.fsum(parts), whole)


@pytest.mark.parametrize("n, observed", CASES, ids=IDS)
def test_conditioning_on_a_cutset_keeps_the_mpe_value(generators, n, observed):
    net, evidence, *_ = _case(generators, n, observed)
    rng = np.random.default_rng(2201 + n)
    free = [v for v in range(n) if v not in evidence]
    cut = [int(v) for v in rng.choice(free, size=int(rng.integers(1, 9)), replace=False)]
    conditioned = solve_mpe_conditioned(net, cut, evidence)
    assert len(conditioned.iterations) == 2 ** len(cut)
    assert _close(conditioned.value, solve_mpe(net, evidence).value)


def _orderings(net, prefix, observed):
    """Min-fill, min-degree and the natural order, each with ``prefix``
    first and the observed variables last, checked to stay narrow."""
    graph = moral_graph(net)
    suffix = [v for v in observed if v not in prefix]
    pinned = set(prefix) | set(suffix)
    natural = Ordering((*prefix, *(v for v in range(net.n) if v not in pinned), *suffix))
    out = [constrained_order(graph, kind, prefix=prefix, suffix=suffix)
           for kind in ("min_fill", "min_degree")] + [natural]
    for ordering in out:
        assert induced_width(graph, ordering).induced_width <= 12
    return out


@pytest.mark.parametrize("n, observed", CASES, ids=IDS)
def test_bel_and_mpe_values_do_not_depend_on_the_ordering(generators, n, observed):
    net, evidence, query, *_ = _case(generators, n, observed)
    observed_vars = [v for v, _ in evidence.items()]
    beliefs = [solve_belief(net, query, evidence, ordering)
               for ordering in _orderings(net, [query], observed_vars)]
    first = beliefs[0]
    for other in beliefs[1:]:
        assert _close(other.evidence_mass, first.evidence_mass)
        assert all(map(_close, other.belief, first.belief))
    values = [solve_mpe(net, evidence, ordering).value
              for ordering in _orderings(net, [], observed_vars)]
    assert all(_close(value, values[0]) for value in values)
