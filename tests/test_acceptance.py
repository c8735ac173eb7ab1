"""Acceptance gate: seven binding criteria, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see the verdict lines as they
print; under default capture they still appear for any failing criterion.
"""

import contextlib
import math
import random
import time

import pytest

from bucketforge import CnfTheory, Evidence, Ordering
from bucketforge.buckets import partition
from bucketforge.cli import run
from bucketforge.engines import (solve_belief, solve_map, solve_meu, solve_mpe,
                                 solve_mpe_conditioned)
from bucketforge.graph import (augmented_graph, conditional_induced_width,
                               induced_width, interaction_graph, moral_graph,
                               order_heuristic)
from bucketforge.model import parse_network
from bucketforge.oracle import (oracle_belief, oracle_map, oracle_meu,
                                oracle_mpe, score_assignment, score_decisions,
                                score_hypothesis, truth_table_models)
from bucketforge.randgen import (random_cnf, random_evidence,
                                 random_influence_diagram, random_network,
                                 random_tree_network, shuffled_ordering)
from bucketforge.resolution import directional_resolution, generate_model

from conftest import DIAG_BAD_ORDER, DIAG_GOOD_ORDER, DIAG_MORAL_EDGES, DIAG_TEXT


@contextlib.contextmanager
def verdict(label):
    """Prints exactly one pass/fail line for a criterion."""
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# -- criteria 1 and 3 share one seeded sweep -----------------------------------------

SWEEP_SEED = 20260815
SWEEP_CASES = 500
ORDERINGS_PER_CASE = 3


@pytest.fixture(scope="module")
def sweep():
    """500 random networks/diagrams, 3 valid orderings each, all four queries.

    Each record carries the engine answer, the oracle answer, the largest
    recorded-table scope, and the induced width of the evidence-deleted
    moral (or utility-augmented) graph along the ordering used.
    """
    rng = random.Random(SWEEP_SEED)
    runs = []
    started = time.perf_counter()
    for case in range(SWEEP_CASES):
        net = random_network(rng, max_vars=8, max_card=3)
        moral = moral_graph(net)
        query = rng.randrange(net.n)
        evidence = random_evidence(rng, net, exclude=[query])
        observed = [v for v, _ in evidence.items()]
        free = [v for v in range(net.n) if v not in set(observed)]
        hyp = sorted(rng.sample(free, rng.randint(1, len(free))))

        diagram = random_influence_diagram(rng, max_vars=8, max_card=3)
        augmented = augmented_graph(diagram)
        d_evidence = random_evidence(rng, diagram, exclude=diagram.decisions)
        d_observed = [v for v, _ in d_evidence.items()]

        for _ in range(ORDERINGS_PER_CASE):
            order = shuffled_ordering(rng, net.n, prefix=[query], suffix=observed)
            result = solve_belief(net, query, evidence, order)
            belief, mass = oracle_belief(net, query, evidence)
            runs.append({
                "kind": "bel", "case": case,
                "engine": (result.belief, result.evidence_mass),
                "oracle": (belief, mass),
                "scope": result.max_table_scope,
                "bound": conditional_induced_width(moral, order,
                                                   observed).induced_width,
            })

            order = shuffled_ordering(rng, net.n, suffix=observed)
            result = solve_mpe(net, evidence, order)
            value, assignment = oracle_mpe(net, evidence, list(order))
            runs.append({
                "kind": "mpe", "case": case,
                "engine": (result.value, result.assignment),
                "oracle": (value, assignment),
                "scope": result.max_table_scope,
                "bound": conditional_induced_width(moral, order,
                                                   observed).induced_width,
                "rescore": lambda a, net=net: score_assignment(net, a),
            })

            hyp_prefix = list(hyp)
            rng.shuffle(hyp_prefix)
            order = shuffled_ordering(rng, net.n, prefix=hyp_prefix,
                                      suffix=observed)
            result = solve_map(net, hyp, evidence, order)
            value, assignment = oracle_map(net, hyp, evidence)
            runs.append({
                "kind": "map", "case": case,
                "engine": (result.value, result.assignment),
                "oracle": (value, assignment),
                "scope": result.max_table_scope,
                "bound": conditional_induced_width(moral, order,
                                                   observed).induced_width,
                "rescore": lambda a, net=net, ev=evidence: score_hypothesis(
                    net, a, ev),
            })

            d_prefix = list(diagram.decisions)
            rng.shuffle(d_prefix)
            order = shuffled_ordering(rng, diagram.n, prefix=d_prefix,
                                      suffix=d_observed)
            result = solve_meu(diagram, d_evidence, order)
            value, assignment = oracle_meu(diagram, d_evidence, d_prefix)
            runs.append({
                "kind": "meu", "case": case,
                "engine": (result.value, result.assignment),
                "oracle": (value, assignment),
                "scope": result.max_table_scope,
                "bound": conditional_induced_width(augmented, order,
                                                   d_observed).induced_width,
                "rescore": lambda a, dg=diagram, ev=d_evidence: score_decisions(
                    dg, a, ev),
            })
    return {"runs": runs, "elapsed": time.perf_counter() - started}


def test_criterion_1_oracle_equivalence(sweep):
    with verdict("criterion 1: oracle-equivalence sweep "
                 f"({SWEEP_CASES} cases x {ORDERINGS_PER_CASE} orderings, "
                 f"{sweep['elapsed']:.1f}s)"):
        assert sweep["elapsed"] < 60.0
        assert len(sweep["runs"]) == SWEEP_CASES * ORDERINGS_PER_CASE * 4
        tied_decodes = 0
        for entry in sweep["runs"]:
            if entry["kind"] == "bel":
                (belief, mass), (want_belief, want_mass) = (entry["engine"],
                                                            entry["oracle"])
                assert close(mass, want_mass), entry
                assert all(close(a, b) for a, b in zip(belief, want_belief)), entry
            else:
                (value, assignment), (want_value, want_assignment) = (
                    entry["engine"], entry["oracle"])
                assert close(value, want_value), entry
                if assignment != want_assignment:
                    # Exact equality is required except on degenerate optima,
                    # where both sides apply the same lowest-value rule but
                    # last-ulp noise decides which tied optimum each argmax
                    # sees first.  The decode must still achieve the optimum.
                    assert close(entry["rescore"](assignment), want_value), entry
                    tied_decodes += 1
        assert tied_decodes <= len(sweep["runs"]) // 100


def test_criterion_3_width_bound_witness(sweep):
    with verdict("criterion 3: recorded scopes within the conditioned "
                 "induced width on every sweep run"):
        for entry in sweep["runs"]:
            assert entry["scope"] <= entry["bound"], entry


# -- criterion 2: the six-variable diagnostic fixture --------------------------------

LETTERS = {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "G": 5}


def ids(letters):
    return tuple(LETTERS[x] for x in letters)


def placed(schedule, var):
    """(var, scope, target bucket) for each table the bucket of ``var`` just
    emitted, read from its trace entry; each table must sit in its target."""
    entry = schedule.trace[-1]
    assert entry.variable == var
    out = []
    for scope in entry.output_scopes:
        target = max(scope, key=schedule.ordering.index_of)
        assert scope in [f.scope for f in schedule.buckets[target].factors]
        out.append((var, scope, target))
    return out


def test_criterion_2_diagnostic_fixture():
    with verdict("criterion 2: diagnostic fixture moral graph, widths, and "
                 "bucket placements"):
        net = parse_network(DIAG_TEXT)
        moral = moral_graph(net)
        assert {tuple(sorted(e)) for e in moral.edges()} == DIAG_MORAL_EDGES

        good = induced_width(moral, Ordering(DIAG_GOOD_ORDER))
        assert good.induced_width == 2
        assert good.width == 2  # equal on this ordering
        assert induced_width(moral, Ordering(DIAG_BAD_ORDER)).induced_width == 3

        # First worked ordering, with the last variable observed.  The initial
        # partition files each conditional table under its highest variable,
        # and processing routes every result to the bucket of its own highest
        # variable.
        order = Ordering(ids("ACBEDG"))
        schedule = partition(net.factor_list(), order, Evidence({ids("G")[0]: 1}))
        initial = {v: [f.scope for f in schedule.buckets[v].factors]
                   for v in order}
        assert initial == {
            ids("G")[0]: [ids("EG")],
            ids("E")[0]: [ids("BCE")],
            ids("D")[0]: [ids("ABD")],
            ids("B")[0]: [ids("AB")],
            ids("C")[0]: [ids("AC")],
            ids("A")[0]: [ids("A")],
        }
        placements = []
        for var in order.reversed():
            if var == order.sequence[0]:
                break
            schedule.process(var, "sum")
            placements += placed(schedule, var)
        assert placements == [
            (ids("G")[0], ids("E"), ids("E")[0]),
            (ids("D")[0], ids("AB"), ids("B")[0]),
            (ids("E")[0], ids("BC"), ids("B")[0]),
            (ids("B")[0], ids("AC"), ids("C")[0]),
            (ids("C")[0], ids("A"), ids("A")[0]),
        ]

        # Second worked ordering: the observed variable sits last, its bucket
        # holds every table mentioning it, and the observation rule restricts
        # each table separately instead of multiplying first.  Processing then
        # never records anything beyond one dimension.
        order = Ordering(ids("ACEGDB"))
        schedule = partition(net.factor_list(), order, Evidence({ids("B")[0]: 1}))
        b = ids("B")[0]
        assert [f.scope for f in schedule.buckets[b].factors] == [
            ids("AB"), ids("ABD"), ids("BCE")]
        schedule.process(b, "sum")
        scattered = [(scope, target) for _, scope, target in placed(schedule, b)]
        assert scattered == [
            (ids("A"), ids("A")[0]),
            (ids("AD"), ids("D")[0]),
            (ids("CE"), ids("E")[0]),
        ]
        for var in order.reversed():
            if var in (b, order.sequence[0]):
                continue
            schedule.process(var, "sum")
        assert schedule.max_generated_scope <= 1


# -- criterion 4: conditioning matches plain elimination ------------------------------

def test_criterion_4_conditioning_tradeoff():
    rng = random.Random(44001)
    started = time.perf_counter()
    with verdict("criterion 4: cutset conditioning equals plain elimination "
                 "with the promised iteration count and width"):
        for _ in range(50):
            net = random_network(rng, max_vars=7)
            evidence = random_evidence(rng, net)
            observed = [v for v, _ in evidence.items()]
            free = [v for v in range(net.n) if v not in set(observed)]
            cut = sorted(rng.sample(free, rng.randint(0, min(3, len(free)))))
            order = shuffled_ordering(rng, net.n,
                                      suffix=sorted(set(cut) | set(observed)))
            conditioned = solve_mpe_conditioned(net, cut, evidence, order)
            plain = solve_mpe(net, evidence, order)
            assert close(conditioned.value, plain.value)
            expected_iterations = math.prod(net.cards[c] for c in cut)
            assert len(conditioned.iterations) == expected_iterations
            bound = conditional_induced_width(
                moral_graph(net), order, set(cut) | set(observed)).induced_width
            for record in conditioned.iterations:
                assert record.max_table_scope <= bound
            if not conditioned.note:
                assert close(score_assignment(net, conditioned.assignment),
                             conditioned.value)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0


# -- criterion 5: width-1 orderings keep every recorded table at one variable --------

def test_criterion_5_tree_reduction():
    rng = random.Random(55001)
    with verdict("criterion 5: tree networks record only single-variable "
                 "tables under min-degree orderings"):
        for _ in range(100):
            net = random_tree_network(rng, max_vars=30)
            g = moral_graph(net)
            order = order_heuristic(g, "min_degree")
            assert induced_width(g, order).induced_width <= 1
            belief = solve_belief(net, order.sequence[0], None, order)
            assert belief.max_table_scope <= 1
            best = solve_mpe(net, None, order)
            assert best.max_table_scope <= 1


# -- criterion 6: directional resolution -----------------------------------------------

def test_criterion_6_directional_resolution():
    rng = random.Random(66001)
    started = time.perf_counter()
    sat_seen = unsat_seen = 0
    with verdict("criterion 6: directional extensions preserve models and "
                 "generate them without dead ends"):
        for index in range(200):
            theory = random_cnf(rng, max_props=12)
            if index % 2:
                order = order_heuristic(interaction_graph(theory), "min_fill")
            else:
                seq = list(range(theory.num_props))
                rng.shuffle(seq)
                order = Ordering(tuple(seq))
            extension = directional_resolution(theory, order)
            models = truth_table_models(theory)
            if not extension.satisfiable:
                unsat_seen += 1
                assert models == set()
                assert extension.clause_count() == 0
                continue
            sat_seen += 1
            all_clauses = [c for bucket in extension.buckets.values()
                           for c in bucket]
            assert truth_table_models(
                CnfTheory(theory.num_props, tuple(all_clauses))) == models

            # Walk the ordering front to back; at every step some value must
            # satisfy the bucketed clauses outright (no dead ends), and the
            # walk must land on a model of the original theory.
            assign = {}
            for node in extension.ordering:
                prop = node + 1
                viable = []
                for value in (False, True):
                    assign[prop] = value
                    if all(any(assign[abs(lit)] == (lit > 0) for lit in clause)
                           for clause in extension.buckets.get(prop, ())):
                        viable.append(value)
                assert viable, f"dead end at proposition {prop}"
                assign[prop] = viable[0]
            assert tuple(assign[p] for p in range(1, theory.num_props + 1)) in models
            assert generate_model(extension) == assign
        assert sat_seen and unsat_seen
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0


# -- criterion 7: CLI determinism -----------------------------------------------------

DIAGRAM_TEXT = """ID
2
2 2
1 0
1
2 0 1
4 0.2 0.8 0.9 0.1
1
1 1
2 10.0 1.0
"""

CNF_TEXT = """p cnf 4 4
1 2 0
-1 3 0
-3 -2 4 0
2 4 0
"""


def test_criterion_7_cli_determinism(tmp_path, capsys):
    net = tmp_path / "net.txt"
    net.write_text(DIAG_TEXT)
    ev = tmp_path / "ev.txt"
    ev.write_text("1 5 1\n")
    diagram = tmp_path / "diagram.txt"
    diagram.write_text(DIAGRAM_TEXT)
    cnf = tmp_path / "theory.cnf"
    cnf.write_text(CNF_TEXT)
    commands = [
        ["bel", str(net), "--query", "2", "--evidence", str(ev), "--trace",
         "--oracle"],
        ["bel", str(net), "--query", "2", "--json"],
        ["mpe", str(net), "--evidence", str(ev), "--trace"],
        ["map", str(net), "--hyp", "1,3", "--evidence", str(ev)],
        ["meu", str(diagram), "--trace", "--oracle"],
        ["cond-mpe", str(net), "--wbound", "1", "--trace"],
        ["cond-mpe", str(net), "--cutset", "1,2", "--json"],
        ["dr", str(cnf), "--trace", "--oracle"],
        ["dr", str(cnf), "--json"],
        ["stats", str(net)],
        ["stats", str(cnf)],
    ]
    with verdict("criterion 7: every CLI command byte-identical across "
                 "reruns, parallel conditioning included"):
        for argv in commands:
            assert run(argv) == 0, argv
            first = capsys.readouterr().out
            assert first
            assert run(argv) == 0, argv
            assert capsys.readouterr().out == first, argv
        serial = ["cond-mpe", str(net), "--wbound", "1", "--parallel", "1",
                  "--trace"]
        parallel = ["cond-mpe", str(net), "--wbound", "1", "--parallel", "4",
                    "--trace"]
        assert run(serial) == 0
        serial_out = capsys.readouterr().out
        assert run(parallel) == 0
        assert capsys.readouterr().out == serial_out
