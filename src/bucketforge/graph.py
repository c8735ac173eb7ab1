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
    def parse(cls, text: str, n: int | None = None, base: int = 0) -> "Ordering":
        """Ordering file: whitespace-separated ids counted from ``base``
        (1 for DIMACS propositions), each of ``base .. base + n - 1`` once
        when ``n`` is given.  The sequence is stored 0-based."""
        try:
            ids = tuple(int(t) for t in text.split())
        except ValueError as exc:
            raise ParseError(f"ordering must be whitespace-separated integers: {exc}")
        if n is not None and sorted(ids) != list(range(base, base + n)):
            raise ParseError(f"ordering must list each of the {n} variables "
                             f"exactly once, got {ids}")
        try:
            return cls(tuple(v - base for v in ids))
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
# working copy of the graph held as Python-int bitmasks: bit i of mask[j]
# says that the i-th and j-th smallest node ids are adjacent, so increasing
# bit order is increasing id order however sparse the ids.  Eliminating a
# node connects its remaining neighbours, then deletes it; its neighbour
# count at that moment is its induced width.

def _masks(g: GraphView) -> tuple[tuple[int, ...], dict[int, int], list[int]]:
    """The graph's ids in increasing order, each id's bit position, and
    one neighbour mask per position."""
    ids = g.nodes
    index = {v: i for i, v in enumerate(ids)}
    bit = {v: 1 << i for v, i in index.items()}
    return ids, index, [sum(map(bit.__getitem__, g._adj[v])) for v in ids]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, highest first."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return out


def _eliminate(mask: list[int], v: int) -> tuple[int, list[tuple[int, int]]]:
    """Remove position ``v`` and connect its neighbours; returns their mask
    and the fill edges added, ordered by (lower end, higher end)."""
    nbrs = mask[v]
    mask[v] = 0
    keep = ~(1 << v)
    added = []  # collected highest pair first, then reversed
    for a in _bits(nbrs):
        had = mask[a] & keep
        # Only pairs above a are new here: lower ones were counted at their
        # own lower end.
        missing = nbrs & ~had & -(2 << a)
        if missing:
            added.extend((a, b) for b in _bits(missing))
        mask[a] = had | nbrs ^ (1 << a)
    added.reverse()
    return nbrs, added


def _score(mask: list[int], v: int, fill: bool) -> int:
    """Min-degree: v's neighbour count.  Min-fill: the missing edges among
    them, C(d, 2) minus half the neighbour-to-neighbour adjacencies."""
    nbrs = rest = mask[v]
    d = nbrs.bit_count()
    if not fill:
        return d
    twice_present = 0
    while rest:  # _bits, inlined: this loop is the heuristic's hot spot
        top = rest.bit_length() - 1
        rest ^= 1 << top
        twice_present += (mask[top] & nbrs).bit_count()
    return (d * (d - 1) - twice_present) // 2


def _greedy(g: GraphView, kind: str, candidates: Iterable[int] | None = None,
            bound: int | None = None) -> tuple[list[int], int] | None:
    """Greedy elimination of ``candidates`` (default: every node), lowest
    (score, id) first; nodes outside ``candidates`` stay in the graph.

    Returns the nodes in elimination order and the largest neighbour count
    one of them was eliminated with, or None as soon as a node would be
    eliminated with more than ``bound`` neighbours.  With every node a
    candidate, that count is the induced width along the reversed
    elimination order: :func:`induced_width` eliminates the same nodes in
    the same order.

    Scores are cached and recomputed only where an elimination can change
    them: at the node's neighbours, and for min-fill also at the common
    neighbours of each fill edge, whose neighbourhoods gain that edge.
    """
    if kind not in ("min_degree", "min_fill"):
        raise ValueError(f"unknown ordering heuristic {kind!r}")
    fill = kind == "min_fill"
    ids, index, mask = _masks(g)
    score = {v: _score(mask, v, fill)
             for v in (range(len(ids)) if candidates is None else map(index.__getitem__, candidates))}
    heap = sorted((s, v) for v, s in score.items())
    taken: list[int] = []
    width = 0
    while heap:
        s, v = heappop(heap)
        if score.get(v) != s:
            continue  # eliminated, or rescored since this entry was pushed
        d = mask[v].bit_count()
        if bound is not None and d > bound:
            return None
        if d > width:
            width = d
        del score[v]
        taken.append(ids[v])
        touched, added = _eliminate(mask, v)
        if fill:
            for a, b in added:
                touched |= mask[a] & mask[b]
        for u in _bits(touched):
            if u in score:
                s = _score(mask, u, fill)
                if s != score[u]:
                    score[u] = s
                    heappush(heap, (s, u))
    return taken, width


def induced_width(g: GraphView, order: Sequence[int] | Ordering) -> WidthReport:
    """Eliminate nodes last to first, connecting each node's earlier neighbors.

    Entries of ``order`` outside the graph are skipped, so a full-model
    ordering can be reused on a node-deleted graph.
    """
    seq = _restrict_sequence(g, order)
    ids, index, mask = _masks(g)
    node_width: dict[int, int] = {}
    placed = 0
    for v in seq:
        node_width[v] = (mask[index[v]] & placed).bit_count()
        placed |= 1 << index[v]
    node_induced: dict[int, int] = {}
    fill: list[tuple[int, int]] = []
    for v in reversed(seq):
        earlier, added = _eliminate(mask, index[v])
        node_induced[v] = earlier.bit_count()
        fill.extend((ids[a], ids[b]) for a, b in added)
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
    return order_and_width(g, kind)[0]


def order_and_width(g: GraphView, kind: str) -> tuple[Ordering, int]:
    """:func:`order_heuristic`'s ordering and its induced width, which is
    ``induced_width(g, ordering).induced_width``, read off the one
    elimination that built the ordering."""
    taken, width = _greedy(g, kind)
    return Ordering(tuple(reversed(taken))), width


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
    middle, _ = _greedy(rest, kind, candidates=free)
    return Ordering((*prefix, *reversed(middle), *suffix))


def observed_suffix(observed: Iterable[int], prefix: Iterable[int] = ()) -> list[int]:
    """The pinned-ends rule for a query ordering's suffix.

    The query, hypothesis or decision variables form the ``prefix`` and go
    first; the observed variables outside it go last, in the given order.
    """
    front = set(prefix)
    return [v for v in observed if v not in front]


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

def _add_cliques(g: GraphView, cliques: Iterable[Sequence[int]]) -> GraphView:
    """Connect each clique's members: each member's set takes the whole
    clique once, and the self entries are dropped at the end."""
    adj = g._adj
    for clique in cliques:
        members = set(clique)
        try:
            for v in members:
                adj[v] |= members
        except KeyError:
            raise ValueError(f"clique {tuple(clique)} uses an unknown node") from None
    for v, nbrs in adj.items():
        nbrs.discard(v)
    return g


def moral_graph(net) -> GraphView:
    """Undirected family cliques: each child married to and among its parents."""
    return _add_cliques(GraphView(range(net.n)),
                        ((child, *parents) for child, parents in enumerate(net.parents)))


def augmented_graph(diagram) -> GraphView:
    """Moral graph of the diagram plus a clique over each utility scope."""
    return _add_cliques(moral_graph(diagram.network), (f.scope for f in diagram.utilities))


def interaction_graph(theory) -> GraphView:
    """One node per proposition, a clique per clause scope (0-based nodes)."""
    return _add_cliques(GraphView(range(theory.num_props)),
                        ([abs(l) - 1 for l in clause] for clause in theory.clauses))
