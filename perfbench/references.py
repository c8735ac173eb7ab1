"""Independent reference answers for window networks and CNF theories.

Every table of a window network lies within ``window + 1`` consecutive
variables, so one pass over the variables from the last to the first needs
a state over at most ``window + 1`` of them (plus any kept variables).  The
pass rescales its state by the maximum after every step and accumulates the
logarithm of the scale, so answers far below the float64 range stay exact
in log space.  Nothing here imports bucketforge.
"""

from __future__ import annotations

import math

import numpy as np

from generators import Cnf, WindowNet

# Below this natural log a probability is not a normal float64.
LOG_DBL_MIN = math.log(np.finfo(np.float64).tiny)


def _expand(table: np.ndarray, axes: list[int], target: list[int]) -> np.ndarray:
    """View of ``table`` broadcastable over ``target`` (a superset of axes)."""
    order = sorted(range(len(axes)), key=lambda k: target.index(axes[k]))
    moved = table.transpose(order)
    present = [axes[k] for k in order]
    shape, it = [], iter(moved.shape)
    for v in target:
        shape.append(next(it) if v in present else 1)
    return moved.reshape(shape)


class _State:
    """Rescaled table over labelled axes, with its accumulated log scale."""

    def __init__(self):
        self.axes: list[int] = []
        self.table = np.ones(())
        self.log_scale = 0.0

    def multiply(self, table: np.ndarray, axes: list[int]) -> None:
        target = self.axes + [v for v in axes if v not in self.axes]
        self.table = _expand(self.table, self.axes, target) * _expand(table, axes, target)
        self.axes = target

    def reduce(self, var: int, op: str, value: int | None = None) -> None:
        if var not in self.axes:
            return
        k = self.axes.index(var)
        if value is not None:
            self.table = np.take(self.table, value, axis=k)
        elif op == "sum":
            self.table = self.table.sum(axis=k)
        else:
            self.table = self.table.max(axis=k)
        del self.axes[k]

    def rescale(self) -> None:
        top = float(self.table.max())
        if top > 0.0:
            self.table = self.table / top
            self.log_scale += math.log(top)


def window_pass(net: WindowNet, evidence: dict[int, int], op: str,
                keep=()) -> tuple[list[int], np.ndarray]:
    """Sum or max out every variable except ``keep``, last variable first.

    Observed variables are fixed to their values.  Returns the kept axes and
    the natural log of the reduced table (``-inf`` where it is zero).
    """
    keep = set(keep)
    state = _State()
    for i in range(net.n - 1, -1, -1):
        if net.tables[i] is not None:
            state.multiply(net.tables[i], [*net.parents[i], i])
        if i in evidence:
            state.reduce(i, op, evidence[i])
        elif i not in keep:
            state.reduce(i, op)
        state.rescale()
    with np.errstate(divide="ignore"):
        return state.axes, np.log(state.table) + state.log_scale


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    if top == -math.inf:
        return top
    return top + math.log(float(np.exp(x - top).sum()))


def mpe_log_value(net: WindowNet, evidence: dict[int, int]) -> float:
    """Natural log of the most probable completion of the evidence."""
    _, log_table = window_pass(net, evidence, "max")
    return float(log_table)


def belief(net: WindowNet, query: int, evidence: dict[int, int]) -> tuple[list[float], float]:
    """Posterior over ``query`` and the natural log of the evidence mass."""
    if query in evidence:
        _, log_table = window_pass(net, evidence, "sum")
        post = [1.0 if v == evidence[query] else 0.0 for v in range(net.cards[query])]
        return post, float(log_table)
    _, log_table = window_pass(net, evidence, "sum", keep=[query])
    log_mass = _logsumexp(log_table)
    return [float(x) for x in np.exp(log_table - log_mass)], log_mass


def map_table(net: WindowNet, hyp: list[int], evidence: dict[int, int]) -> dict[tuple, float]:
    """Log mass of every hypothesis assignment (in ``hyp`` order) with the
    evidence, everything else summed out: the enumeration MAP maximises."""
    free = [v for v in hyp if v not in evidence]
    axes, log_table = window_pass(net, evidence, "sum", keep=free)
    log_table = _expand(log_table, axes, free) if free else log_table
    log_table = np.broadcast_to(log_table, tuple(net.cards[v] for v in free))
    out = {}
    for idx in np.ndindex(*log_table.shape):
        values = dict(zip(free, idx))
        values.update({v: evidence[v] for v in hyp if v in evidence})
        out[tuple(values[v] for v in hyp)] = float(log_table[idx])
    return out


def meu_table(net: WindowNet, evidence: dict[int, int]) -> dict[tuple, float]:
    """Conditional expected utility of every decision tuple (decision order).

    Carries a probability table P and an expected-utility table Q = sum of
    P times the utilities met so far; both are rescaled by the same factor,
    so their ratio at the end is the conditional expectation.
    """
    decisions = list(net.decisions)
    by_top: dict[int, list] = {}
    for scope, table in net.utilities:
        by_top.setdefault(max(scope), []).append((list(scope), table))
    p, q = _State(), _State()
    q.table = np.zeros(())
    for i in range(net.n - 1, -1, -1):
        if net.tables[i] is not None:
            p.multiply(net.tables[i], [*net.parents[i], i])
            q.multiply(net.tables[i], [*net.parents[i], i])
        for scope, util in by_top.get(i, ()):
            target = q.axes + [v for v in p.axes + scope if v not in q.axes]
            q.table = (_expand(q.table, q.axes, target)
                       + _expand(p.table, p.axes, target) * _expand(util, scope, target))
            q.axes = target
        for state in (p, q):
            if i in evidence:
                state.reduce(i, "sum", evidence[i])
            elif i not in decisions:
                state.reduce(i, "sum")
        top = float(p.table.max())
        if top > 0.0:
            p.table, q.table = p.table / top, q.table / top
    shape = tuple(net.cards[d] for d in decisions)
    pt = np.broadcast_to(_expand(p.table, p.axes, decisions), shape)
    qt = np.broadcast_to(_expand(q.table, q.axes, decisions), shape)
    return {idx: float(qt[idx] / pt[idx]) for idx in np.ndindex(*shape) if pt[idx] > 0}


def log_joint(net: WindowNet, assignment: dict[int, int]) -> float:
    """Natural log of the joint probability of one complete assignment."""
    total = 0.0
    for i in range(net.n):
        if net.tables[i] is None:
            continue
        p = float(net.tables[i][tuple(assignment[v] for v in (*net.parents[i], i))])
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def satisfies(cnf: Cnf, model: dict[int, bool]) -> bool:
    return all(any(model.get(abs(lit)) == (lit > 0) for lit in clause)
               for clause in cnf.clauses)
