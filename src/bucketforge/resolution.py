"""Bucket-structured clause resolution with backtrack-free model generation.

Clauses are filed by their highest-ordered proposition and buckets are
processed from the last ordering position to the first.  Each bucket
resolves every opposing pair of its clauses on its proposition, except
that its first unit clause, if it has one, stands for its whole side
(unit resolution).  A clause that contains a clause already filed is
dropped.  The union of all buckets afterwards (originals plus resolvents)
admits model generation along the ordering with no dead ends.

Propositions are 1-based with DIMACS literal signs; ordering positions use
0-based node ids (proposition p is node p - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .errors import TooLargeError, UnsatisfiableError
from .graph import Ordering, induced_width, interaction_graph
from .model import CnfTheory, sorted_clause

# The most clauses one sweep may try to file: the theory's own and every
# resolvent, kept or dropped as subsumed.  A sweep past it is refused: on
# dense theories the resolvents grow exponentially in the induced width.
FILING_CAP = 2 ** 20


@dataclass(frozen=True)
class DirectionalExtension:
    """Per-proposition clause buckets after the resolution sweep."""

    ordering: Ordering
    num_props: int
    buckets: dict[int, tuple[frozenset[int], ...]]
    satisfiable: bool

    def all_clauses(self) -> list[frozenset[int]]:
        out: list[frozenset[int]] = []
        for node in self.ordering:
            out.extend(self.buckets.get(node + 1, ()))
        return out

    def clause_count(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def to_theory(self) -> CnfTheory:
        return CnfTheory(self.num_props, tuple(self.all_clauses()))

    def to_dimacs(self) -> str:
        order_line = " ".join(str(node + 1) for node in self.ordering)
        lines = [f"c order {order_line}".rstrip(),
                 f"p cnf {self.num_props} {self.clause_count()}"]
        for clause in self.all_clauses():
            lines.append(" ".join(str(lit) for lit in sorted_clause(clause)) + " 0")
        return "\n".join(lines) + "\n"


def directional_resolution(theory: CnfTheory, ordering: Ordering, *,
                           width: int | None = None) -> DirectionalExtension:
    """Resolution sweep over buckets; empty resolvent means unsatisfiable.

    A clause that contains a clause already filed is not filed: the smaller
    clause sits in the same or an earlier bucket, so model generation has
    satisfied it first, and every resolvent of the larger one contains it
    or a resolvent of it.  On an unsatisfiable theory the returned
    extension is empty.

    Every kept clause must have at most the ordering's induced width plus
    one literals.  ``width`` is that induced width on the theory's
    interaction graph, if the caller knows it (``graph.order_and_width``
    returns it with a greedy ordering); without it the check builds the
    interaction graph and eliminates it once along the ordering.  Raises
    TooLargeError once the sweep has tried to file more than
    ``FILING_CAP`` clauses.
    """
    n = theory.num_props
    if len(ordering) != n:
        raise ValueError(f"ordering covers {len(ordering)} propositions, theory has {n}")
    # Ordering ids are distinct and non-negative, so n of them below n list
    # each proposition exactly once.
    outside = [v + 1 for v in ordering if v >= n]
    if outside:
        raise ValueError(f"ordering names propositions {outside} outside 1..{n}")
    unsat = DirectionalExtension(ordering, theory.num_props, {}, False)
    if any(not clause for clause in theory.clauses):
        return unsat

    buckets: dict[int, list[frozenset[int]]] = {node + 1: [] for node in ordering}
    rank: dict[int, int] = {}  # literal -> ordering position of its proposition
    for position, node in enumerate(ordering):
        rank[node + 1] = rank[-node - 1] = position

    filed = 0

    def file_clause(clause: frozenset[int]) -> None:
        nonlocal filed
        filed += 1
        if filed > FILING_CAP:
            raise TooLargeError(f"directional resolution tried to file {filed} clauses, "
                                f"past the cap of {FILING_CAP}")
        # A subset of the clause has its highest proposition among the
        # clause's, so it is filed in the bucket of one of them.
        for lit in clause:
            for other in buckets[abs(lit)]:
                if other <= clause:
                    return
        buckets[abs(max(clause, key=rank.__getitem__))].append(clause)

    for clause in theory.clauses:
        file_clause(clause)

    for node in reversed(ordering.sequence):
        prop = node + 1
        bucket = buckets[prop]
        # No filed clause is tautological, so a resolvent is one exactly when
        # the positive side holds the negation of a literal of the negative
        # side.  A unit clause is its side whole, its rest empty; a second
        # unit in the bucket is its opposite, whose resolvent is empty.
        unit = next((c for c in bucket if len(c) == 1), frozenset())
        positive = ([frozenset()] if prop in unit else
                    [c - {prop} for c in bucket if prop in c])
        negative = ([(frozenset(), frozenset({prop}))] if -prop in unit else
                    [(c - {-prop}, frozenset(map(neg, c)))
                     for c in bucket if -prop in c])
        for a_rest in positive:
            for b_rest, b_negated in negative:
                if a_rest.isdisjoint(b_negated):
                    resolvent = a_rest | b_rest
                    if not resolvent:
                        return unsat
                    file_clause(resolvent)

    extension = DirectionalExtension(ordering, theory.num_props,
                                     {p: tuple(cs) for p, cs in buckets.items()}, True)
    # Resolvent size is capped by the interaction graph's induced width.
    if width is None:
        width = induced_width(interaction_graph(theory), ordering).induced_width
    bound = width + 1
    longest = max(map(len, extension.all_clauses()), default=0)
    if longest > bound:
        raise AssertionError(f"a clause of {longest} literals exceeded the "
                             f"induced-width bound {bound}")
    return extension


def generate_model(extension: DirectionalExtension) -> dict[int, bool]:
    """Assign propositions along the ordering, satisfying each bucket in turn.

    Unconstrained propositions default to false.  A dead end is impossible
    after the resolution sweep, so hitting one is reported loudly.
    """
    if not extension.satisfiable:
        raise UnsatisfiableError("theory has no models")
    assignment: dict[int, bool] = {}
    # The literals made true so far.  A bucket's clauses hold no literal of
    # a proposition assigned later, so one is satisfied exactly when it
    # meets this set: the bucket is satisfied when no clause is disjoint
    # from it, which is tried with the proposition false, then true.
    true: set[int] = set()
    unsatisfied = true.isdisjoint
    for node in extension.ordering:
        prop = node + 1
        bucket = extension.buckets.get(prop, ())
        true.add(-prop)
        if any(map(unsatisfied, bucket)):
            true.remove(-prop)
            true.add(prop)
            if any(map(unsatisfied, bucket)):
                raise AssertionError(f"dead end at proposition {prop}; "
                                     "the extension is not backtrack-free")
        assignment[prop] = prop in true
    return assignment
