"""Seeded fixture generators for tests and the acceptance sweeps."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .factor import DiscreteFactor
from .graph import Ordering
from .model import BeliefNetwork, CnfTheory, Evidence, InfluenceDiagram


def _random_cpt(rng: random.Random, scope: Sequence[int], cards: Sequence[int],
                hard_rows: float = 0.0) -> DiscreteFactor:
    # Positive rows keep every piece of evidence possible; with ``hard_rows``
    # some rows become one-hot, putting zero-probability branches in play.
    shape = tuple(cards[v] for v in scope)
    raw = np.array([rng.uniform(0.05, 1.0) for _ in range(int(np.prod(shape)))])
    raw = raw.reshape(shape)
    if hard_rows:
        flat = raw.reshape(-1, shape[-1])
        for row in flat:
            if rng.random() < hard_rows:
                row[:] = 0.0
                row[rng.randrange(shape[-1])] = 1.0
    raw = raw / raw.sum(axis=-1, keepdims=True)
    return DiscreteFactor.from_table(scope, shape, raw)


def random_network(rng: random.Random, max_vars: int = 8, max_card: int = 3,
                   hard_rows: float = 0.0) -> BeliefNetwork:
    n = rng.randint(2, max_vars)
    cards = tuple(rng.randint(2, max_card) for _ in range(n))
    parents = []
    cpts = []
    for i in range(n):
        pool = list(range(i))
        count = rng.randint(0, min(len(pool), 3))
        ps = tuple(sorted(rng.sample(pool, count)))
        parents.append(ps)
        cpts.append(_random_cpt(rng, [*ps, i], cards, hard_rows))
    return BeliefNetwork(cards, tuple(parents), tuple(cpts))


def uniform_network(cards: Sequence[int]) -> BeliefNetwork:
    """Independent variables, every value equally likely: the all-ties model."""
    cpts = tuple(
        DiscreteFactor.from_table([i], [c], np.full(c, 1.0 / c))
        for i, c in enumerate(cards))
    return BeliefNetwork(tuple(cards), tuple(() for _ in cards), cpts)


def random_tree_network(rng: random.Random, max_vars: int = 30) -> BeliefNetwork:
    n = rng.randint(2, max_vars)
    cards = tuple(rng.randint(2, 3) for _ in range(n))
    parents: list[tuple[int, ...]] = [()]
    cpts = [_random_cpt(rng, [0], cards)]
    for i in range(1, n):
        p = rng.randrange(i)
        parents.append((p,))
        cpts.append(_random_cpt(rng, [p, i], cards))
    return BeliefNetwork(cards, tuple(parents), tuple(cpts))


def random_evidence(rng: random.Random, net, max_observed: int = 2,
                    exclude: Sequence[int] = ()) -> Evidence:
    pool = [v for v in range(net.n) if v not in set(exclude)]
    count = rng.randint(0, min(max_observed, len(pool)))
    observed = rng.sample(pool, count)
    return Evidence({v: rng.randrange(net.cards[v]) for v in observed})


def random_influence_diagram(rng: random.Random, max_vars: int = 8,
                             max_card: int = 3,
                             hard_rows: float = 0.0) -> InfluenceDiagram:
    base = random_network(rng, max_vars, max_card, hard_rows)
    roots = list(base.roots())
    k = rng.randint(1, min(2, len(roots)))
    decisions = tuple(sorted(rng.sample(roots, k)))
    cpts = tuple(None if i in decisions else base.cpts[i] for i in range(base.n))
    net = BeliefNetwork(base.cards, base.parents, cpts)
    utilities = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, min(3, net.n))
        scope = sorted(rng.sample(range(net.n), size))
        shape = tuple(net.cards[v] for v in scope)
        vals = [rng.uniform(-5.0, 10.0) for _ in range(int(np.prod(shape)))]
        utilities.append(DiscreteFactor.from_table(scope, shape, vals))
    return InfluenceDiagram(net, decisions, tuple(utilities))


def random_cnf(rng: random.Random, max_props: int = 12) -> CnfTheory:
    n = rng.randint(3, max_props)
    m = rng.randint(2, int(4.5 * n))
    clauses = []
    for _ in range(m):
        size = min(3, n)
        props = rng.sample(range(1, n + 1), size)
        clauses.append(frozenset(p if rng.random() < 0.5 else -p for p in props))
    return CnfTheory(n, tuple(clauses))


def shuffled_ordering(rng: random.Random, n: int, prefix: Sequence[int] = (),
                      suffix: Sequence[int] = ()) -> Ordering:
    """Random permutation with pinned ends; prefix/suffix keep their order."""
    pinned = set(prefix) | set(suffix)
    middle = [v for v in range(n) if v not in pinned]
    rng.shuffle(middle)
    return Ordering((*prefix, *middle, *suffix))
