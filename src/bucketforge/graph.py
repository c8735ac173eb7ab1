"""Undirected graph views, elimination orderings, and width machinery."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .errors import ParseError


class GraphView:
    """Simple undirected graph over integer node ids.

    Built once by the constructors below and then treated as read-only;
    the mutating methods exist for the working copies the cutset heuristic
    shrinks.
    """

    __slots__ = ("_adj",)

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, set[int]] = {int(v): set() for v in nodes}
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    @property
    def n(self) -> int:
        return len(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self._adj for v in self._adj[u] if u < v)

    def add_edge(self, u: int, v: int) -> None:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self loop at node {u}")
        if u not in self._adj or v not in self._adj:
            raise ValueError(f"edge ({u}, {v}) uses an unknown node")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_node(self, v: int) -> None:
        for u in self._adj.pop(v):
            self._adj[u].discard(v)

    def copy(self) -> "GraphView":
        g = GraphView()
        g._adj = {v: set(nb) for v, nb in self._adj.items()}
        return g

    def without(self, removed: Iterable[int]) -> "GraphView":
        removed = set(removed)
        g = GraphView()
        g._adj = {v: set(nb) - removed for v, nb in self._adj.items() if v not in removed}
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphView):
            return NotImplemented
        return self._adj == other._adj


@dataclass(frozen=True)
class Ordering:
    """Distinct node ids by position; position 1 is eliminated last.

    Query engines require an ordering covering a model's variables exactly;
    orderings over node-deleted graphs may cover any id subset.
    """

    sequence: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(int(v) for v in self.sequence)
        if len(set(seq)) != len(seq):
            raise ValueError(f"ordering repeats a node: {seq}")
        if any(v < 0 for v in seq):
            raise ValueError(f"ordering contains a negative id: {seq}")
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(seq)})

    def index_of(self, var: int) -> int:
        return self._pos[var]

    def __iter__(self):
        return iter(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def __contains__(self, var: int) -> bool:
        return var in self._pos

    def reversed(self) -> "Ordering":
        return Ordering(tuple(reversed(self.sequence)))

    def serialize(self) -> str:
        return " ".join(str(v) for v in self.sequence) + "\n"

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Ordering":
        try:
            seq = tuple(int(t) for t in text.split())
        except ValueError as exc:
            raise ParseError(f"ordering must be whitespace-separated integers: {exc}")
        if n is not None and sorted(seq) != list(range(n)):
            raise ParseError(f"ordering must list each of the {n} variables "
                             f"exactly once, got {seq}")
        try:
            return cls(seq)
        except ValueError as exc:
            raise ParseError(str(exc))


@dataclass(frozen=True)
class WidthReport:
    """Widths of one ordering: plain, induced, and the fill-in that induced it."""

    order: tuple[int, ...]
    node_width: dict[int, int]
    node_induced_width: dict[int, int]
    width: int
    induced_width: int
    fill_edges: tuple[tuple[int, int], ...]

    def render(self) -> str:
        return f"w={self.width} wstar={self.induced_width} fill={len(self.fill_edges)}"


def _restrict_sequence(g: GraphView, order: Sequence[int] | Ordering) -> list[int]:
    seq = [v for v in order if v in g]
    if len(set(seq)) != len(seq):
        raise ValueError(f"ordering repeats a node: {seq}")
    if set(seq) != set(g.nodes):
        missing = sorted(set(g.nodes) - set(seq))
        raise ValueError(f"ordering does not cover nodes {missing}")
    return seq


# -- the elimination kernel -----------------------------------------------------
#
# Every width and ordering question is answered by eliminating nodes from a
# working copy of the adjacency sets: connect the node's remaining neighbours,
# then delete it.  Its neighbour count at that moment is its induced width.

def _eliminate(adj: dict[int, set[int]], v: int) -> tuple[set[int], list[tuple[int, int]]]:
    """Remove ``v`` and connect its neighbours; returns the neighbours and
    the fill edges added, ordered by (lower end, higher end)."""
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u].discard(v)
    added = []
    for a in sorted(nbrs):
        # Pairs with a lower first end are already connected, so what is
        # missing here lies above a.
        missing = nbrs - adj[a]
        missing.discard(a)
        for b in sorted(missing):
            adj[a].add(b)
            adj[b].add(a)
            added.append((a, b))
    return nbrs, added


def _degree(adj: dict[int, set[int]], v: int) -> int:
    return len(adj[v])


def _fill(adj: dict[int, set[int]], v: int) -> int:
    """Missing edges among v's neighbours: C(d, 2) minus the present ones."""
    nbrs = adj[v]
    d = len(nbrs)
    present = sum(len(nbrs & adj[u]) for u in nbrs) // 2
    return d * (d - 1) // 2 - present


_SCORES = {"min_degree": _degree, "min_fill": _fill}


def _greedy(g: GraphView, kind: str, candidates: Iterable[int] | None = None,
            bound: int | None = None) -> list[int] | None:
    """Greedy elimination of ``candidates`` (default: every node), lowest
    (score, id) first; nodes outside ``candidates`` stay in the graph.

    Returns the nodes in elimination order, or None as soon as a node would
    be eliminated with more than ``bound`` neighbours.  Scores are cached and
    recomputed only where an elimination can change them: at the node's
    neighbours, and for min-fill also at the common neighbours of each fill
    edge, whose neighbourhoods gain that edge.
    """
    score_of = _SCORES.get(kind)
    if score_of is None:
        raise ValueError(f"unknown ordering heuristic {kind!r}")
    adj = g.copy()._adj
    score = {v: score_of(adj, v) for v in (adj if candidates is None else candidates)}
    heap = sorted((s, v) for v, s in score.items())
    taken: list[int] = []
    while heap:
        s, v = heappop(heap)
        if score.get(v) != s:
            continue  # eliminated, or rescored since this entry was pushed
        if bound is not None and len(adj[v]) > bound:
            return None
        del score[v]
        taken.append(v)
        touched, added = _eliminate(adj, v)
        if kind == "min_fill":
            touched = touched.union(*(adj[a] & adj[b] for a, b in added))
        for u in touched:
            if u in score:
                s = score_of(adj, u)
                if s != score[u]:
                    score[u] = s
                    heappush(heap, (s, u))
    return taken


def induced_width(g: GraphView, order: Sequence[int] | Ordering) -> WidthReport:
    """Eliminate nodes last to first, connecting each node's earlier neighbors.

    Entries of ``order`` outside the graph are skipped, so a full-model
    ordering can be reused on a node-deleted graph.
    """
    seq = _restrict_sequence(g, order)
    pos = {v: i for i, v in enumerate(seq)}
    node_width = {v: sum(1 for u in g.neighbors(v) if pos[u] < pos[v]) for v in seq}
    adj = g.copy()._adj
    node_induced: dict[int, int] = {}
    fill: list[tuple[int, int]] = []
    for v in reversed(seq):
        earlier, added = _eliminate(adj, v)
        node_induced[v] = len(earlier)
        fill.extend(added)
    return WidthReport(
        order=tuple(seq),
        node_width=node_width,
        node_induced_width=node_induced,
        width=max(node_width.values(), default=0),
        induced_width=max(node_induced.values(), default=0),
        fill_edges=tuple(fill),
    )


def conditional_induced_width(g: GraphView, order: Sequence[int] | Ordering,
                              removed: Iterable[int]) -> WidthReport:
    """Induced width along ``order`` after deleting ``removed`` from the graph."""
    return induced_width(g.without(removed), order)


# -- greedy ordering construction ----------------------------------------------

def order_heuristic(g: GraphView, kind: str) -> Ordering:
    """Greedy elimination ordering; ties always break toward the lowest id."""
    return Ordering(tuple(reversed(_greedy(g, kind))))


def constrained_order(g: GraphView, kind: str = "min_fill",
                      prefix: Sequence[int] = (), suffix: Sequence[int] = ()) -> Ordering:
    """Heuristic ordering with pinned first and last regions.

    ``prefix`` occupies positions 1..k in the given order (eliminated last);
    ``suffix`` occupies the final positions in the given order.  Suffix nodes
    are observed or conditioned on, so their buckets scatter and connect
    nothing: the free middle region is filled greedily on the graph with the
    suffix deleted, the prefix nodes staying in it uneliminated.
    """
    prefix = [int(v) for v in prefix]
    suffix = [int(v) for v in suffix]
    if len(set(prefix)) != len(prefix) or len(set(suffix)) != len(suffix):
        raise ValueError("prefix/suffix contain duplicates")
    if set(prefix) & set(suffix):
        raise ValueError("prefix and suffix overlap")
    for v in prefix + suffix:
        if v not in g:
            raise ValueError(f"constrained node {v} is not in the graph")
    rest = g.without(suffix)
    free = set(rest.nodes) - set(prefix)
    middle = _greedy(rest, kind, candidates=free)
    return Ordering((*prefix, *reversed(middle), *suffix))


def cutset_heuristic(g: GraphView, bound: int, kind: str = "min_degree") -> list[int]:
    """Greedy node set whose deletion brings the heuristic width within bound.

    Repeatedly removes the highest-degree node (ties toward the lowest id)
    until the remaining graph's induced width along a fresh heuristic
    ordering is at most ``bound``.  Returned sorted by id.
    """
    if bound < 0:
        raise ValueError("width bound must be >= 0")
    work = g.copy()
    cut: set[int] = set()
    while _greedy(work, kind, bound=bound) is None:
        v = min(work.nodes, key=lambda u: (-work.degree(u), u))
        cut.add(v)
        work.remove_node(v)
    return sorted(cut)


# -- graph constructions from models ---------------------------------------------

def moral_graph(net) -> GraphView:
    """Undirected family cliques: each child married to and among its parents."""
    g = GraphView(range(net.n))
    for child, parents in enumerate(net.parents):
        for p in parents:
            g.add_edge(child, p)
        for i, a in enumerate(parents):
            for b in parents[i + 1:]:
                if not g.has_edge(a, b):
                    g.add_edge(a, b)
    return g


def augmented_graph(diagram) -> GraphView:
    """Moral graph of the diagram plus a clique over each utility scope."""
    g = moral_graph(diagram.network)
    for f in diagram.utilities:
        scope = f.scope
        for i, a in enumerate(scope):
            for b in scope[i + 1:]:
                if not g.has_edge(a, b):
                    g.add_edge(a, b)
    return g


def interaction_graph(theory) -> GraphView:
    """One node per proposition, a clique per clause scope (0-based nodes)."""
    g = GraphView(range(theory.num_props))
    for clause in theory.clauses:
        scope = sorted({abs(l) - 1 for l in clause})
        for i, a in enumerate(scope):
            for b in scope[i + 1:]:
                if not g.has_edge(a, b):
                    g.add_edge(a, b)
    return g
