"""Seeded instance generators and writers for the bucketforge file formats.

Every network here is a *window* network: variable i draws its parents from
the ``window`` variables just before it, and every utility scope lies inside
``window + 1`` consecutive variables.  The references in ``references.py``
rely on that guarantee; nothing here imports bucketforge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WindowNet:
    """Window network; ``tables[i]`` has axes (*parents[i], i), child last."""

    cards: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]
    decisions: tuple[int, ...] = ()
    utilities: tuple[tuple[tuple[int, ...], np.ndarray], ...] = ()

    @property
    def n(self) -> int:
        return len(self.cards)


@dataclass(frozen=True)
class Cnf:
    num_props: int
    clauses: tuple[tuple[int, ...], ...]


def _rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # Rows drawn like the package's own fixtures: positive, renormalised.
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def window_network(rng: np.random.Generator, n: int, card: int, window: int,
                   max_parents: int = 3, anchored: bool = False,
                   decisions: int = 0) -> WindowNet:
    """Variable i takes min(i, max_parents) parents from [i - window, i - 1].

    ``anchored`` always includes i - 1 and i - window among them, which fixes
    the induced width of the natural ordering at ``window`` so that table
    sizes, and with them run times, do not depend on the seed.  The first
    ``decisions`` variables become decision roots without tables.
    """
    parents, tables = [], []
    for i in range(n):
        if i < decisions:
            parents.append(())
            tables.append(None)
            continue
        pool = list(range(max(0, i - window), i))
        k = min(len(pool), max_parents)
        if anchored and k >= 2 and i >= window:
            inner = pool[1:-1]
            chosen = {pool[0], pool[-1]}
            chosen.update(int(v) for v in rng.choice(inner, size=k - 2, replace=False))
        else:
            chosen = {int(v) for v in rng.choice(pool, size=k, replace=False)} if k else set()
        ps = tuple(sorted(chosen))
        parents.append(ps)
        tables.append(_rows(rng, (card,) * (len(ps) + 1)))
    return WindowNet((card,) * n, tuple(parents), tuple(tables), tuple(range(decisions)))


def offset_network(rng: np.random.Generator, n: int, card: int,
                   offsets: tuple[int, ...]) -> WindowNet:
    """Variable i has the parents i - o for every offset o that stays >= 0:
    one fixed graph for every seed, with seeded tables."""
    parents = [tuple(sorted(i - o for o in offsets if i - o >= 0)) for i in range(n)]
    tables = [_rows(rng, (card,) * (len(ps) + 1)) for ps in parents]
    return WindowNet((card,) * n, tuple(parents), tuple(tables))


def window_diagram(rng: np.random.Generator, n: int, card: int, window: int,
                   decisions: int, utilities: int, utility_scope: int = 3,
                   anchored: bool = False) -> WindowNet:
    """Window influence diagram: decisions are the roots 0..decisions-1 and
    every utility scope lies within ``window + 1`` consecutive variables.
    ``anchored`` is as for ``window_network``."""
    net = window_network(rng, n, card, window, anchored=anchored, decisions=decisions)
    utils = []
    for _ in range(utilities):
        top = int(rng.integers(utility_scope - 1, n))
        pool = list(range(max(0, top - window), top))
        scope = tuple(sorted({top, *(int(v) for v in rng.choice(
            pool, size=min(len(pool), utility_scope - 1), replace=False))}))
        # Positive utilities keep expected utilities away from zero, so a
        # relative tolerance on them is meaningful.
        utils.append((scope, rng.uniform(0.0, 10.0, size=(card,) * len(scope))))
    return WindowNet(net.cards, net.parents, net.tables, net.decisions, tuple(utils))


def observe(rng: np.random.Generator, net: WindowNet, fraction: float = 0.0,
            count: int | None = None, exclude=()) -> dict[int, int]:
    """Observed values for a random subset of the non-excluded variables."""
    pool = [v for v in range(net.n) if v not in set(exclude) and v not in net.decisions]
    k = count if count is not None else int(round(fraction * net.n))
    chosen = sorted(int(v) for v in rng.choice(pool, size=min(k, len(pool)), replace=False))
    return {v: int(rng.integers(net.cards[v])) for v in chosen}


def observe_blocks(rng: np.random.Generator, net: WindowNet, fraction: float,
                   block: int = 10, exclude=()) -> dict[int, int]:
    """Observed values for round(fraction * block) random variables out of
    every ``block`` consecutive ones, so evidence density is even along the
    chain."""
    chosen = []
    for lo in range(0, net.n, block):
        pool = [v for v in range(lo, min(lo + block, net.n)) if v not in set(exclude)]
        k = min(len(pool), int(round(fraction * block)))
        chosen += [int(v) for v in rng.choice(pool, size=k, replace=False)]
    return {v: int(rng.integers(net.cards[v])) for v in sorted(chosen)}


def planted_banded_cnf(rng: np.random.Generator, n: int, band: int,
                       ratio: float) -> Cnf:
    """3-CNF whose clauses each lie in ``band`` consecutive propositions and
    are all satisfied by a hidden assignment, so the theory is satisfiable."""
    hidden = rng.integers(0, 2, size=n + 1).astype(bool)
    clauses = []
    while len(clauses) < int(round(ratio * n)):
        lo = int(rng.integers(1, n - band + 2))
        props = rng.choice(np.arange(lo, lo + band), size=3, replace=False)
        signs = rng.integers(0, 2, size=3).astype(bool)
        if any(hidden[p] == s for p, s in zip(props, signs)):
            clauses.append(tuple(int(p) if s else -int(p) for p, s in zip(props, signs)))
    return Cnf(n, tuple(clauses))


def random_3cnf(rng: np.random.Generator, n: int, ratio: float) -> Cnf:
    clauses = []
    for _ in range(int(round(ratio * n))):
        props = rng.choice(np.arange(1, n + 1), size=3, replace=False)
        signs = rng.integers(0, 2, size=3)
        clauses.append(tuple(int(p) if s else -int(p) for p, s in zip(props, signs)))
    return Cnf(n, tuple(clauses))


# -- writers -----------------------------------------------------------------------

def _values(arr: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in arr.ravel())


def network_text(net: WindowNet) -> str:
    """BAYES text, or ID text when the network has decisions or utilities."""
    is_id = bool(net.decisions or net.utilities)
    out = ["ID" if is_id else "BAYES", str(net.n), " ".join(map(str, net.cards))]
    if is_id:
        out.append(" ".join(map(str, [len(net.decisions), *net.decisions])))
    chance = [i for i in range(net.n) if i not in net.decisions]
    out.append(str(len(chance)))
    for i in chance:
        scope = [*net.parents[i], i]
        out.append(" ".join(map(str, [len(scope), *scope])))
    for i in chance:
        out.append(str(net.tables[i].size))
        out.append(_values(net.tables[i]))
    if is_id:
        out.append(str(len(net.utilities)))
        for scope, table in net.utilities:
            out.append(" ".join(map(str, [len(scope), *scope])))
            out.append(str(table.size))
            out.append(_values(table))
    return "\n".join(out) + "\n"


def evidence_text(evidence: dict[int, int]) -> str:
    return " ".join([str(len(evidence)), *(f"{v} {x}" for v, x in sorted(evidence.items()))]) + "\n"


def order_text(sequence) -> str:
    return " ".join(map(str, sequence)) + "\n"


def cnf_text(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_props} {len(cnf.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in cnf.clauses]
    return "\n".join(lines) + "\n"
