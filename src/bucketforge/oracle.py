"""Reference answers by exhaustive enumeration.

Everything here builds the full joint table, so instances are capped at
2**20 cells (2**20 rows for truth tables).  Tie-breaking mirrors the
engines exactly: argmax scans run in the engine's ordering coordinates and
numpy's first-occurrence rule picks the lexicographically smallest winner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import TooLargeError, ZeroMassError
from .model import BeliefNetwork, CnfTheory, Evidence, InfluenceDiagram

CELL_LIMIT = 1 << 20


def _guard(cards: Sequence[int]) -> None:
    cells = 1
    for c in cards:
        cells *= c
    if cells > CELL_LIMIT:
        raise TooLargeError(f"joint table would hold {cells} cells (cap {CELL_LIMIT})")


def check_cap(model) -> None:
    """Raise :class:`TooLargeError`, as the oracle over ``model`` would, when
    its table would pass the cap: the joint table of a network or diagram,
    or the truth table of a CNF theory.  The caps are read off the
    cardinalities or the proposition count alone, so a query can be refused
    before any work is done."""
    if isinstance(model, CnfTheory):
        if model.num_props > 20:
            raise TooLargeError(f"truth table over {model.num_props} propositions "
                                "exceeds the cap")
    else:
        _guard(model.cards)


def _table(model, factors, op: np.ufunc) -> np.ndarray:
    """``op`` (``np.multiply`` or ``np.add``) folded over the tables, from its
    identity, with one axis per variable id of ``model``."""
    _guard(model.cards)
    scope = list(range(model.n))
    acc = np.full(model.cards, float(op.identity))
    for f in factors:
        acc = op(acc, f.aligned_values(scope))
    return acc


def joint_table(net: BeliefNetwork) -> np.ndarray:
    """Product of all conditional tables, one axis per variable id."""
    return _table(net, net.factor_list(), np.multiply)


def _sliced(arr: np.ndarray, evidence) -> tuple[np.ndarray, list[int]]:
    """``arr``, one axis per variable id, with each observed variable's axis
    taken at its value; and the variables of the axes that remain."""
    remaining = list(range(arr.ndim))
    for var, val in evidence.items():
        if var in remaining:
            arr = arr.take(val, axis=remaining.index(var))
            remaining.remove(var)
    return arr, remaining


def _meu_tables(diagram: InfluenceDiagram, evidence: Evidence):
    """The joint probability and the summed utility, both sliced by
    ``evidence``, and the variables of their remaining axes."""
    probs, remaining = _sliced(_table(diagram, diagram.chance_factors(), np.multiply),
                               evidence)
    utils, _ = _sliced(_table(diagram, diagram.utilities, np.add), evidence)
    return probs, utils, remaining


def _lex_argmax(arr: np.ndarray, remaining: list[int],
                coord_order: Sequence[int]) -> dict[int, int]:
    """First maximizing cell when axes are scanned in ``coord_order``."""
    axes_vars = [v for v in coord_order if v in remaining]
    assert sorted(axes_vars) == sorted(remaining)
    view = arr.transpose(tuple(remaining.index(v) for v in axes_vars))
    flat = int(np.argmax(view))
    values = np.unravel_index(flat, view.shape) if view.shape else ()
    return {v: int(x) for v, x in zip(axes_vars, values)}


def oracle_belief(net: BeliefNetwork, query: int,
                  evidence: Evidence | None = None) -> tuple[tuple[float, ...], float]:
    """Posterior over ``query`` and the evidence mass."""
    evidence = evidence if evidence is not None else Evidence.empty()
    arr, remaining = _sliced(joint_table(net), evidence)
    mass = float(arr.sum())
    if mass == 0.0:
        raise ZeroMassError("evidence has probability zero")
    if query in evidence:
        belief = tuple(1.0 if i == evidence.get(query) else 0.0
                       for i in range(net.cards[query]))
        return belief, mass
    others = tuple(i for i, v in enumerate(remaining) if v != query)
    marginal = arr.sum(axis=others)
    return tuple(float(x) for x in marginal / mass), mass


def oracle_mpe(net: BeliefNetwork, evidence: Evidence | None = None,
               tie_order: Sequence[int] | None = None) -> tuple[float, dict[int, int]]:
    """Maximal joint mass consistent with the evidence, plus its assignment:
    :func:`oracle_map` with every variable, in ``tie_order``, as the
    hypothesis."""
    return oracle_map(net, tie_order if tie_order is not None else range(net.n),
                      evidence)


def oracle_map(net: BeliefNetwork, hypothesis: Sequence[int],
               evidence: Evidence | None = None) -> tuple[float, dict[int, int]]:
    """Best hypothesis assignment after summing out everything else.

    ``hypothesis`` order doubles as the tie-break coordinate order.
    Observed hypothesis variables are pinned to their observed value.
    """
    evidence = evidence if evidence is not None else Evidence.empty()
    arr, remaining = _sliced(joint_table(net), evidence)
    hset = set(hypothesis)
    others = tuple(i for i, v in enumerate(remaining) if v not in hset)
    summed = arr.sum(axis=others) if others else arr
    rest = [v for v in remaining if v in hset]
    assignment = {v: evidence.get(v) for v in hypothesis if v in evidence}
    assignment.update(_lex_argmax(summed, rest, hypothesis))
    return float(summed.max()), assignment


def oracle_meu(diagram: InfluenceDiagram, evidence: Evidence | None = None,
               decision_order: Sequence[int] | None = None) -> tuple[float, dict[int, int]]:
    """Decisions maximizing conditional expected utility.

    For each decision tuple the score is the utility expectation given the
    evidence; tuples whose evidence probability is zero are excluded from
    the maximization, and if none remain the evidence is impossible.
    """
    evidence = evidence if evidence is not None else Evidence.empty()
    decision_order = (decision_order if decision_order is not None
                      else diagram.decisions)
    probs, utils, remaining = _meu_tables(diagram, evidence)
    dset = set(diagram.decisions)
    chance_axes = tuple(i for i, v in enumerate(remaining) if v not in dset)
    mass = probs.sum(axis=chance_axes) if chance_axes else probs
    weighted = (probs * utils).sum(axis=chance_axes) if chance_axes else probs * utils
    supported = mass > 0
    if not supported.any():
        raise ZeroMassError("the evidence has zero probability under every decision")
    scored = np.divide(weighted, mass, out=np.zeros_like(weighted), where=supported)
    scored = np.where(supported, scored, -np.inf)

    rest = [v for v in remaining if v in dset]
    assignment = {d: evidence.get(d) for d in diagram.decisions if d in evidence}
    assignment.update(_lex_argmax(scored, rest, decision_order))
    return float(scored.max()), assignment


def score_assignment(net: BeliefNetwork, assignment: dict[int, int]) -> float:
    """Joint probability of one complete assignment, factor by factor."""
    total = 1.0
    for f in net.factor_list():
        total *= f.value_at(assignment)
    return total


def score_hypothesis(net: BeliefNetwork, pinned: dict[int, int],
                     evidence: Evidence | None = None) -> float:
    """Mass of (pinned, evidence) with all other variables summed out."""
    evidence = evidence if evidence is not None else Evidence.empty()
    arr = joint_table(net)
    if any(v in evidence and evidence.get(v) != val for v, val in pinned.items()):
        return 0.0
    arr, _ = _sliced(arr, {**pinned, **evidence.assignments})
    return float(arr.sum())


def score_decisions(diagram: InfluenceDiagram, decisions: dict[int, int],
                    evidence: Evidence | None = None) -> float:
    """Conditional expected utility of one decision tuple."""
    evidence = evidence if evidence is not None else Evidence.empty()
    probs, utils, _ = _meu_tables(diagram, Evidence({**evidence.assignments,
                                                     **decisions}))
    mass = probs.sum()
    if mass == 0.0:
        raise ZeroMassError("the decision tuple gives the evidence zero probability")
    return float((probs * utils).sum() / mass)


def truth_table_models(theory: CnfTheory) -> set[tuple[bool, ...]]:
    """All satisfying assignments as tuples ordered proposition 1..n."""
    check_cap(theory)
    n = theory.num_props
    count = 1 << n
    idx = np.arange(count)
    cols = [(idx >> (n - 1 - j)) & 1 for j in range(n)]  # prop 1 most significant
    sat = np.ones(count, dtype=bool)
    for clause in theory.clauses:
        clause_sat = np.zeros(count, dtype=bool)
        for lit in clause:
            col = cols[abs(lit) - 1]
            clause_sat |= (col == 1) if lit > 0 else (col == 0)
        sat &= clause_sat
    rows = np.nonzero(sat)[0]
    return {tuple(bool((int(r) >> (n - 1 - j)) & 1) for j in range(n)) for r in rows}


def oracle_sat(theory: CnfTheory) -> bool:
    return bool(truth_table_models(theory))
