"""Graph views, orderings, width accounting, and ordering heuristics."""

import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bucketforge import (CnfTheory, GraphView, Ordering, ParseError,
                         augmented_graph, conditional_induced_width,
                         constrained_order, cutset_heuristic, induced_width,
                         interaction_graph, moral_graph, order_heuristic,
                         parse_network)
from bucketforge.graph import WidthReport, order_and_width
from bucketforge.randgen import (random_cnf, random_evidence, random_influence_diagram,
                                 random_network, random_tree_network, shuffled_ordering)

from conftest import DIAG_BAD_ORDER, DIAG_GOOD_ORDER, DIAG_MORAL_EDGES
from test_acceptance import ORDERINGS_PER_CASE, SWEEP_CASES, SWEEP_SEED


def complete_graph(n):
    g = GraphView(range(n))
    for a, b in itertools.combinations(range(n), 2):
        g.add_edge(a, b)
    return g


def star_graph(leaves):
    g = GraphView(range(leaves + 1))
    for leaf in range(1, leaves + 1):
        g.add_edge(0, leaf)
    return g


def test_moral_graph_marries_parents(diag_net):
    g = moral_graph(diag_net)
    assert set(g.edges()) == DIAG_MORAL_EDGES


def test_good_ordering_has_width_two(diag_net):
    report = induced_width(moral_graph(diag_net), Ordering(DIAG_GOOD_ORDER))
    assert report.width == 2
    assert report.induced_width == 2
    assert report.fill_edges == ()
    assert report.render() == "w=2 wstar=2 fill=0"


def test_reversed_ordering_has_width_three(diag_net):
    report = induced_width(moral_graph(diag_net), Ordering(DIAG_BAD_ORDER))
    assert report.width == 3
    assert report.induced_width == 3
    assert set(report.fill_edges) == {(2, 3), (3, 4), (3, 5)}


def test_exhaustive_minimum_width_is_two(diag_net):
    g = moral_graph(diag_net)
    best = min(induced_width(g, Ordering(p)).induced_width
               for p in itertools.permutations(range(6)))
    assert best == 2
    for kind in ("min_fill", "min_degree"):
        order = order_heuristic(g, kind)
        assert induced_width(g, order).induced_width == best


def test_star_graph_orderings():
    g = star_graph(4)
    order = order_heuristic(g, "min_degree")
    # Leaves are eliminated first (lowest id breaks ties) until only the
    # hub and the last leaf remain; every elimination touches one neighbor.
    assert tuple(order) == (4, 0, 3, 2, 1)
    assert induced_width(g, order).induced_width == 1
    hub_last = Ordering((1, 2, 3, 4, 0))
    assert induced_width(g, hub_last).induced_width == 4


def test_heuristic_width_never_beats_exhaustive_minimum():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(3, 6)
        g = GraphView(range(n))
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.45:
                g.add_edge(a, b)
        best = min(induced_width(g, Ordering(p)).induced_width
                   for p in itertools.permutations(range(n)))
        for kind in ("min_fill", "min_degree"):
            got = induced_width(g, order_heuristic(g, kind)).induced_width
            assert got >= best


def test_trees_always_have_induced_width_one():
    rng = random.Random(77)
    for _ in range(30):
        net = random_tree_network(rng, max_vars=20)
        g = moral_graph(net)
        order = order_heuristic(g, "min_degree")
        assert induced_width(g, order).induced_width <= 1


def test_constrained_order_pins_both_ends(diag_net):
    g = moral_graph(diag_net)
    order = constrained_order(g, "min_fill", prefix=[3, 1], suffix=[5, 0])
    seq = tuple(order)
    assert seq[:2] == (3, 1)
    assert seq[-2:] == (5, 0)
    assert sorted(seq) == list(range(6))


def test_constrained_order_rejects_overlap(diag_net):
    g = moral_graph(diag_net)
    with pytest.raises(ValueError):
        constrained_order(g, "min_fill", prefix=[1], suffix=[1])


def test_conditional_width_matches_deleted_graph(diag_net):
    g = moral_graph(diag_net)
    order = Ordering(DIAG_GOOD_ORDER)
    for removed in ([], [5], [1, 4], [0, 2, 3]):
        direct = induced_width(g.without(removed), order)
        report = conditional_induced_width(g, order, removed)
        assert report.induced_width == direct.induced_width
        assert report.width == direct.width


def test_cutset_heuristic_on_complete_graph():
    g = complete_graph(4)
    cut = cutset_heuristic(g, 1)
    assert cut == [0, 1]
    # Exhaustive: no single vertex leaves a width-one remainder.
    for v in range(4):
        rest = g.without([v])
        order = order_heuristic(rest, "min_degree")
        assert induced_width(rest, order).induced_width > 1


def test_cutset_heuristic_bound_zero_leaves_no_edges():
    g = complete_graph(3)
    cut = cutset_heuristic(g, 0)
    rest = g.without(cut)
    assert not list(rest.edges())


def test_cutset_heuristic_is_empty_when_bound_already_met(diag_net):
    g = moral_graph(diag_net)
    assert cutset_heuristic(g, 2) == []
    cut = cutset_heuristic(g, 1)
    rest = g.without(cut)
    order = order_heuristic(rest, "min_degree")
    assert induced_width(rest, order).induced_width <= 1


def test_interaction_graph_connects_clause_mates():
    theory = CnfTheory(4, (frozenset({1, -2}), frozenset({2, 3, -4})))
    g = interaction_graph(theory)
    assert set(g.edges()) == {(0, 1), (1, 2), (1, 3), (2, 3)}


def test_ordering_parse_serialize_roundtrip():
    order = Ordering((2, 0, 1))
    text = order.serialize()
    assert tuple(Ordering.parse(text, 3)) == (2, 0, 1)
    with pytest.raises(ParseError):
        Ordering.parse("0 1 1", 3)
    with pytest.raises(ParseError):
        Ordering.parse("0 1", 3)


def test_ordering_positions():
    order = Ordering((2, 0, 1))
    assert order.index_of(2) == 0
    assert order.index_of(1) == 2
    assert tuple(order.reversed()) == (1, 0, 2)
    assert 2 in order and 5 not in order


def test_graph_view_rejects_self_loops_and_unknown_nodes():
    g = GraphView(range(3))
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 7)


def test_width_report_skips_nodes_outside_the_graph(diag_net):
    g = moral_graph(diag_net).without([5])
    report = induced_width(g, Ordering(DIAG_GOOD_ORDER))
    assert report.induced_width <= 2


# -- the incremental kernel against the rescan-everything greedy it replaced ------
#
# The reference below rescores every remaining node at every step and adds
# fill edges pair by pair.  The kernel must reproduce it exactly: same
# sequences, same cutsets, same width reports down to the fill-edge order.

def _ref_adj(g):
    return {v: set(g.neighbors(v)) for v in g.nodes}


def _ref_connect_and_remove(adj, v):
    nbrs = sorted(adj[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
    for u in adj.pop(v):
        adj[u].discard(v)


def _ref_fill_count(adj, v):
    nbrs = sorted(adj[v])
    return sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:] if b not in adj[a])


def _ref_pick(adj, kind, candidates):
    if kind == "min_degree":
        return min(candidates, key=lambda v: (len(adj[v]), v))
    return min(candidates, key=lambda v: (_ref_fill_count(adj, v), v))


def ref_greedy(g, kind, prefix=()):
    """Greedy over the non-prefix nodes, then the prefix pinned in front."""
    adj = _ref_adj(g)
    free = set(adj) - set(prefix)
    taken = []
    while free:
        v = _ref_pick(adj, kind, free)
        free.discard(v)
        taken.append(v)
        _ref_connect_and_remove(adj, v)
    return (*prefix, *reversed(taken))


def ref_induced_width(g, order):
    seq = [v for v in order if v in g]
    pos = {v: i for i, v in enumerate(seq)}
    node_width = {v: sum(1 for u in g.neighbors(v) if pos[u] < pos[v]) for v in seq}
    adj = _ref_adj(g)
    node_induced, fill = {}, []
    for v in reversed(seq):
        earlier = sorted(u for u in adj[v] if pos[u] < pos[v])
        node_induced[v] = len(earlier)
        for i, a in enumerate(earlier):
            for b in earlier[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill.append((a, b))
    return WidthReport(order=tuple(seq), node_width=node_width,
                       node_induced_width=node_induced,
                       width=max(node_width.values(), default=0),
                       induced_width=max(node_induced.values(), default=0),
                       fill_edges=tuple(fill))


def ref_cutset(g, bound, kind="min_degree"):
    work = g.copy()
    cut = set()
    while ref_induced_width(work, ref_greedy(work, kind)).induced_width > bound:
        v = min(work.nodes, key=lambda u: (-work.degree(u), u))
        cut.add(v)
        work.remove_node(v)
    return sorted(cut)


def random_graphs(count, seed, max_n=40):
    """Empty, complete, banded and random graphs; some with deleted nodes so
    ids are not contiguous.  Bands and sparse graphs tie on most scores."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_n)
        shape = i % 5
        g = GraphView(range(n))
        if shape == 1:
            pairs = itertools.combinations(range(n), 2)
        elif shape == 2:
            k = rng.randint(1, 4)
            pairs = ((a, b) for a in range(n) for b in range(a + 1, min(n, a + k + 1)))
        elif shape in (3, 4):
            p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.6])
            pairs = (e for e in itertools.combinations(range(n), 2) if rng.random() < p)
        else:
            pairs = ()
        for a, b in pairs:
            g.add_edge(a, b)
        if n > 3 and rng.random() < 0.25:
            g = g.without(rng.sample(range(n), rng.randint(1, n // 3)))
        yield g


@pytest.mark.parametrize("kind", ["min_degree", "min_fill"])
def test_order_heuristic_matches_the_rescanning_greedy(kind):
    for g in random_graphs(320, seed=4101):
        assert order_heuristic(g, kind).sequence == ref_greedy(g, kind)


def test_induced_width_matches_the_reference_field_for_field():
    rng = random.Random(4102)
    for g in random_graphs(320, seed=4103):
        nodes = list(g.nodes)
        for order in (nodes, nodes[::-1], rng.sample(nodes, len(nodes)),
                      ref_greedy(g, "min_fill")):
            got = induced_width(g, order)
            want = ref_induced_width(g, order)
            assert got == want
            assert list(got.node_induced_width) == list(want.node_induced_width)


def test_cutset_heuristic_matches_the_reference():
    rng = random.Random(4104)
    for g in random_graphs(300, seed=4105, max_n=20):
        bound = rng.randint(0, 4)
        kind = rng.choice(["min_degree", "min_fill"])
        assert cutset_heuristic(g, bound, kind) == ref_cutset(g, bound, kind)


@pytest.mark.parametrize("kind", ["min_degree", "min_fill"])
def test_constrained_order_orders_the_free_region_without_the_suffix(kind):
    rng = random.Random(4106)
    for g in random_graphs(300, seed=4107):
        nodes = list(g.nodes)
        pinned = rng.sample(nodes, rng.randint(0, len(nodes)))
        cut = rng.randint(0, len(pinned))
        prefix, suffix = pinned[:cut], pinned[cut:]
        got = constrained_order(g, kind, prefix=prefix, suffix=suffix).sequence
        assert got == (*ref_greedy(g.without(suffix), kind, prefix), *suffix)
        # With no pinned ends it is the plain heuristic, as `dr` relies on.
        assert (constrained_order(g, kind).sequence
                == order_heuristic(g, kind).sequence)


def criterion_1_graphs():
    """The moral graph of each network and the augmented graph of each
    diagram of criterion 1's sweep (tests/test_acceptance.py): its draws
    from its seed, in its order."""
    rng = random.Random(SWEEP_SEED)
    for _ in range(SWEEP_CASES):
        net = random_network(rng, max_vars=8, max_card=3)
        query = rng.randrange(net.n)
        observed = [v for v, _ in random_evidence(rng, net, exclude=[query]).items()]
        free = [v for v in range(net.n) if v not in set(observed)]
        hyp = sorted(rng.sample(free, rng.randint(1, len(free))))
        diagram = random_influence_diagram(rng, max_vars=8, max_card=3)
        d_observed = [v for v, _ in random_evidence(rng, diagram,
                                                    exclude=diagram.decisions).items()]
        for _ in range(ORDERINGS_PER_CASE):  # the sweep's orderings, drawn and dropped
            shuffled_ordering(rng, net.n, prefix=[query], suffix=observed)
            shuffled_ordering(rng, net.n, suffix=observed)
            hyp_prefix = list(hyp)
            rng.shuffle(hyp_prefix)
            shuffled_ordering(rng, net.n, prefix=hyp_prefix, suffix=observed)
            d_prefix = list(diagram.decisions)
            rng.shuffle(d_prefix)
            shuffled_ordering(rng, diagram.n, prefix=d_prefix, suffix=d_observed)
        yield moral_graph(net)
        yield augmented_graph(diagram)


@pytest.mark.parametrize("kind", ["min_degree", "min_fill"])
def test_the_greedy_width_is_the_induced_width_of_its_ordering(kind, generators):
    """``order_and_width`` reads the width off the greedy elimination that
    builds the ordering; a second elimination along the ordering must give
    the same number.  Graphs: seeded band and random CNFs' interaction
    graphs, criterion 1's moral and augmented graphs, and random graphs."""
    rng = random.Random(4110)
    np_rng = np.random.default_rng(4111)
    theories = [random_cnf(rng, max_props=12) for _ in range(100)]
    for n, band in ((40, 4), (120, 8), (200, 8)):
        cnf = generators.planted_banded_cnf(np_rng, n, band, 2.5)
        theories.append(CnfTheory(n, tuple(map(frozenset, cnf.clauses))))
    for n in (10, 20, 30):
        cnf = generators.random_3cnf(np_rng, n, 4.26)
        theories.append(CnfTheory(n, tuple(map(frozenset, cnf.clauses))))
    graphs = [*map(interaction_graph, theories), *criterion_1_graphs(),
              *random_graphs(200, seed=4112)]
    widths = []
    for g in graphs:
        ordering, width = order_and_width(g, kind)
        assert ordering == order_heuristic(g, kind)
        assert width == induced_width(g, ordering).induced_width
        widths.append(width)
    assert max(widths) >= 8


def test_unknown_heuristic_is_rejected():
    with pytest.raises(ValueError):
        order_heuristic(complete_graph(3), "min_width")


def test_induced_width_rejects_a_repeated_node():
    with pytest.raises(ValueError):
        induced_width(complete_graph(3), [0, 0, 1, 2])


# -- ids the kernel's bit positions stand for, and the graph constructions ------

def _relabelled(g, ids):
    """``g`` with its i-th smallest node renamed ``ids[i]``, and the renaming."""
    new = dict(zip(g.nodes, ids))
    return GraphView(ids, [(new[a], new[b]) for a, b in g.edges()]), new


def test_large_sparse_ids_order_and_measure_as_their_ranks():
    """Bit i of a working mask is the i-th smallest id, not the id itself:
    ids spread up to 2**40 give the results of ids 0..n-1, renamed, in
    little memory.  The renaming keeps id order, so ties break alike."""
    rng = random.Random(4108)
    for g in random_graphs(40, seed=4109, max_n=24):
        compact, _ = _relabelled(g, range(g.n))
        spread, new = _relabelled(compact, sorted(rng.sample(range(2 ** 40), g.n)))
        nodes = list(compact.nodes)
        pinned = rng.sample(nodes, rng.randint(0, len(nodes)))
        cut = rng.randint(0, len(pinned))
        order = rng.sample(nodes, len(nodes))
        bound = rng.randint(0, 3)
        tracemalloc.start()
        try:
            results = {
                kind: (order_heuristic(spread, kind).sequence,
                       constrained_order(spread, kind, prefix=[new[v] for v in pinned[:cut]],
                                         suffix=[new[v] for v in pinned[cut:]]).sequence,
                       cutset_heuristic(spread, bound, kind))
                for kind in ("min_degree", "min_fill")}
            report = induced_width(spread, [new[v] for v in order])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
        for kind, (heuristic, constrained, cutset) in results.items():
            assert heuristic == tuple(new[v] for v in order_heuristic(compact, kind))
            want = constrained_order(compact, kind, prefix=pinned[:cut], suffix=pinned[cut:])
            assert constrained == tuple(new[v] for v in want)
            assert cutset == [new[v] for v in cutset_heuristic(compact, bound, kind)]
        want = induced_width(compact, order)
        assert report == WidthReport(
            order=tuple(new[v] for v in want.order),
            node_width={new[v]: w for v, w in want.node_width.items()},
            node_induced_width={new[v]: w for v, w in want.node_induced_width.items()},
            width=want.width, induced_width=want.induced_width,
            fill_edges=tuple((new[a], new[b]) for a, b in want.fill_edges))
        assert list(report.node_induced_width) == [new[v] for v in want.node_induced_width]


def _pairwise(nodes, cliques):
    """The graph built one ``add_edge`` per pair of each clique."""
    g = GraphView(nodes)
    for clique in cliques:
        for a, b in itertools.combinations(sorted(set(clique)), 2):
            g.add_edge(a, b)
    return g


def test_graph_constructions_equal_their_pairwise_builds():
    """Criterion 1's random networks and diagrams, larger networks, and
    seeded CNFs: each construction equals adding its cliques' edges pair by
    pair."""
    rng = random.Random(4110)
    for _ in range(200):
        net = random_network(rng, max_vars=rng.choice([8, 20]), max_card=3)
        assert moral_graph(net) == _pairwise(range(net.n), ((child, *parents)
                                             for child, parents in enumerate(net.parents)))
        diagram = random_influence_diagram(rng, max_vars=8, max_card=3)
        net = diagram.network
        assert augmented_graph(diagram) == _pairwise(
            range(net.n), [*((child, *parents) for child, parents in enumerate(net.parents)),
                           *(f.scope for f in diagram.utilities)])
        theory = random_cnf(rng, max_props=30)
        assert interaction_graph(theory) == _pairwise(
            range(theory.num_props), ([abs(l) - 1 for l in clause] for clause in theory.clauses))


def test_graph_constructions_reject_a_clique_over_an_unknown_node():
    with pytest.raises(ValueError, match="unknown node"):
        interaction_graph(SimpleNamespace(num_props=2, clauses=[frozenset({1, 3})]))
    with pytest.raises(ValueError, match="unknown node"):
        moral_graph(SimpleNamespace(n=2, parents=[(), (0,), (5,)]))


@pytest.mark.parametrize("call, message", [
    (lambda g: Ordering((0, -1)), "ordering contains a negative id: (0, -1)"),
    (lambda g: induced_width(g, Ordering((0, 1))), "ordering does not cover nodes [2]"),
    (lambda g: constrained_order(g, prefix=(0, 0)), "prefix/suffix contain duplicates"),
    (lambda g: constrained_order(g, suffix=(2, 2)), "prefix/suffix contain duplicates"),
    (lambda g: constrained_order(g, prefix=(7,)), "constrained node 7 is not in the graph"),
    (lambda g: cutset_heuristic(g, -1), "width bound must be >= 0"),
], ids=["negative id", "uncovered node", "duplicate prefix", "duplicate suffix",
        "unknown node", "negative bound"])
def test_orderings_and_width_bounds_outside_the_graph_are_refused(call, message):
    g = GraphView(range(3))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    with pytest.raises(Exception) as info:
        call(g)
    assert (type(info.value), str(info.value)) == (ValueError, message)
