"""Batch command-line front end.

Line-oriented ``key=value`` output, decimals at 12 significant digits,
byte-identical across repeated runs.  Exit codes: 0 success, 1 usage error,
2 model error, 3 impossible evidence or unsatisfiable theory.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engines, oracle
from .errors import (ModelError, TooLargeError, UnsatisfiableError,
                     ZeroMassError)
from .graph import (Ordering, augmented_graph, constrained_order,
                    cutset_heuristic, induced_width, interaction_graph,
                    moral_graph, observed_suffix, order_heuristic)
from .model import (CnfTheory, InfluenceDiagram, parse_cnf, parse_cnf_evidence,
                    parse_evidence, parse_network)
from .resolution import directional_resolution, generate_model

HEURISTICS = {"min-fill": "min_fill", "min-degree": "min_degree"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _jnum(x: float) -> float:
    return float(fmt(x))


def build_parser() -> _Parser:
    parser = _Parser(prog="bucketforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle_flag=True):
        p.add_argument("--evidence", metavar="FILE", help="evidence file")
        p.add_argument("--order", metavar="SPEC",
                       help="ordering file, min-fill, min-degree, or given:ids")
        p.add_argument("--trace", action="store_true", help="print bucket traces")
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.add_argument("--lax", action="store_true",
                       help="renormalize off rows instead of rejecting them")
        if oracle_flag:
            p.add_argument("--oracle", action="store_true",
                           help="also print enumeration-oracle results")

    p = sub.add_parser("bel", help="posterior belief for one variable")
    p.add_argument("network")
    p.add_argument("--query", type=int, required=True, metavar="VAR")
    common(p)

    p = sub.add_parser("mpe", help="most probable complete assignment")
    p.add_argument("network")
    common(p)

    p = sub.add_parser("map", help="best assignment to a hypothesis set")
    p.add_argument("network")
    p.add_argument("--hyp", required=True, metavar="V1,V2,...")
    common(p)

    p = sub.add_parser("meu", help="maximum-expected-utility decisions")
    p.add_argument("diagram")
    common(p)

    p = sub.add_parser("cond-mpe", help="most probable assignment via conditioning")
    p.add_argument("network")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cutset", metavar="V1,V2,...")
    group.add_argument("--wbound", type=int, metavar="K")
    p.add_argument("--parallel", type=int, default=1, metavar="N")
    common(p)

    p = sub.add_parser("dr", help="directional resolution over a DIMACS theory")
    p.add_argument("cnf")
    p.add_argument("--extension", metavar="FILE",
                   help="write the resulting clause set as DIMACS")
    common(p)

    p = sub.add_parser("stats", help="graph widths per ordering heuristic")
    p.add_argument("path")
    common(p, oracle_flag=False)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_id_list(spec: str, names) -> list[int]:
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in names:
            out.append(names.index(tok))
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise _UsageError(f"not a variable id or name: {tok!r}")
    if not out:
        raise _UsageError(f"empty id list {spec!r}")
    return out


def _resolve_ordering(spec, model, graph, prefix=(), observed=()):
    """Ordering from a file, a heuristic name, or an inline given: list.

    A heuristic ordering pins ``prefix`` first and the ``observed``
    variables outside it last (``graph.observed_suffix``).
    """
    if spec is None:
        spec = "min-fill"
    if spec in HEURISTICS:
        return constrained_order(graph, HEURISTICS[spec], prefix=prefix,
                                 suffix=observed_suffix(observed, prefix))
    if spec.startswith("given:"):
        names = [v.name for v in model.variables]
        return Ordering(tuple(_parse_id_list(spec[len("given:"):], names)))
    return Ordering.parse(_read(spec), model.n)


def _resolve_cnf_ordering(spec, theory):
    g = interaction_graph(theory)
    if spec is None:
        spec = "min-fill"
    if spec in HEURISTICS:
        return order_heuristic(g, HEURISTICS[spec])
    if spec.startswith("given:"):
        props = _parse_id_list(spec[len("given:"):], [])
        return Ordering(tuple(p - 1 for p in props))
    return Ordering.parse(_read(spec), theory.num_props, base=1)


def _load_evidence(args, model):
    if not args.evidence:
        return None
    return parse_evidence(_read(args.evidence), model)


def _observed(evidence) -> list[int]:
    return [] if evidence is None else [v for v, _ in evidence.items()]


class _Output:
    """Collects key/value pairs once, renders as lines or as one JSON object."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: list[str] = []
        self.obj: dict = {}

    def put(self, key: str, rendered: str, value=None) -> None:
        self.lines.append(f"{key}={rendered}")
        self.obj[key] = rendered if value is None else value

    def raw(self, line: str, key: str, value) -> None:
        self.lines.append(line)
        self.obj.setdefault(key, []).append(value)

    def flush(self) -> None:
        if self.as_json:
            print(json.dumps(self.obj, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _assignment_text(assignment: dict[int, int], offset: int = 0) -> str:
    return " ".join(f"{v + offset}={val}" for v, val in sorted(assignment.items()))


def _emit_trace(out: _Output, result) -> None:
    if result.iterations is not None:
        for rec in result.iterations:
            pinned = " ".join(f"{v}={val}" for v, val in rec.pinned) or "-"
            line = (f"trace iter={rec.index} pinned={pinned} value={fmt(rec.value)} "
                    f"scope={rec.max_table_scope}")
            out.raw(line, "iterations_trace",
                    {"iter": rec.index, "pinned": dict(rec.pinned),
                     "value": _jnum(rec.value), "scope": rec.max_table_scope})
    if result.trace is not None:
        for entry in result.trace:
            out.raw("trace " + entry.render(), "trace", entry.render())


def _emit_common(out: _Output, result, args) -> None:
    if args.trace:
        _emit_trace(out, result)
    if result.value is not None:
        out.put("value", fmt(result.value), _jnum(result.value))
    if result.assignment is not None:
        out.put("assignment", _assignment_text(result.assignment),
                {str(v): val for v, val in sorted(result.assignment.items())})
    if result.belief is not None:
        out.put("belief", " ".join(fmt(p) for p in result.belief),
                [_jnum(p) for p in result.belief])
    if result.evidence_mass is not None:
        out.put("evidence_mass", fmt(result.evidence_mass), _jnum(result.evidence_mass))
    if result.note:
        out.put("note", result.note)


def _run_bel(args) -> int:
    net = parse_network(_read(args.network), kind="bayes", strict=not args.lax)
    evidence = _load_evidence(args, net)
    ordering = _resolve_ordering(args.order, net, moral_graph(net),
                                 prefix=[args.query], observed=_observed(evidence))
    result = engines.solve_belief(net, args.query, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        belief, mass = oracle.oracle_belief(net, args.query, evidence)
        out.put("oracle_belief", " ".join(fmt(p) for p in belief),
                [_jnum(p) for p in belief])
        out.put("oracle_evidence_mass", fmt(mass), _jnum(mass))
    out.flush()
    return 0


def _run_mpe(args) -> int:
    net = parse_network(_read(args.network), kind="bayes", strict=not args.lax)
    evidence = _load_evidence(args, net)
    ordering = _resolve_ordering(args.order, net, moral_graph(net),
                                 observed=_observed(evidence))
    result = engines.solve_mpe(net, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        value, assignment = oracle.oracle_mpe(net, evidence, list(ordering))
        out.put("oracle_value", fmt(value), _jnum(value))
        out.put("oracle_assignment", _assignment_text(assignment),
                {str(v): val for v, val in sorted(assignment.items())})
    out.flush()
    return 3 if result.note else 0


def _run_map(args) -> int:
    net = parse_network(_read(args.network), kind="bayes", strict=not args.lax)
    hyp = _parse_id_list(args.hyp, list(net.names))
    evidence = _load_evidence(args, net)
    ordering = _resolve_ordering(args.order, net, moral_graph(net), prefix=hyp,
                                 observed=_observed(evidence))
    result = engines.solve_map(net, hyp, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        value, assignment = oracle.oracle_map(net, hyp, evidence)
        out.put("oracle_value", fmt(value), _jnum(value))
        out.put("oracle_assignment", _assignment_text(assignment),
                {str(v): val for v, val in sorted(assignment.items())})
    out.flush()
    return 0


def _run_meu(args) -> int:
    diagram = parse_network(_read(args.diagram), kind="id", strict=not args.lax)
    evidence = _load_evidence(args, diagram)
    dset = set(diagram.decisions)
    ordering = _resolve_ordering(args.order, diagram, augmented_graph(diagram),
                                 prefix=list(diagram.decisions),
                                 observed=_observed(evidence))
    result = engines.solve_meu(diagram, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        value, assignment = oracle.oracle_meu(diagram, evidence,
                                              [v for v in ordering
                                               if v in dset])
        out.put("oracle_value", fmt(value), _jnum(value))
        out.put("oracle_assignment", _assignment_text(assignment),
                {str(v): val for v, val in sorted(assignment.items())})
    out.flush()
    return 0


def _run_cond_mpe(args) -> int:
    net = parse_network(_read(args.network), kind="bayes", strict=not args.lax)
    evidence = _load_evidence(args, net)
    observed = _observed(evidence)
    graph = moral_graph(net)
    if args.cutset is not None:
        cut = sorted(set(_parse_id_list(args.cutset, list(net.names))))
    else:
        if args.wbound < 0:
            raise _UsageError("--wbound must be >= 0")
        cut = sorted(cutset_heuristic(graph.without(observed), args.wbound))
    if args.parallel < 1:
        raise _UsageError("--parallel must be >= 1")
    ordering = _resolve_ordering(args.order, net, graph,
                                 observed=sorted(set(cut) | set(observed)))
    result = engines.solve_mpe_conditioned(net, cut, evidence, ordering,
                                           parallel=args.parallel)
    out = _Output(args.json)
    out.put("cutset", " ".join(str(v) for v in cut), list(cut))
    out.put("iterations", str(len(result.iterations)), len(result.iterations))
    _emit_common(out, result, args)
    if args.oracle:
        value, assignment = oracle.oracle_mpe(net, evidence, list(ordering))
        out.put("oracle_value", fmt(value), _jnum(value))
        out.put("oracle_assignment", _assignment_text(assignment),
                {str(v): val for v, val in sorted(assignment.items())})
    out.flush()
    return 3 if result.note else 0


def _run_dr(args) -> int:
    theory = parse_cnf(_read(args.cnf))
    if args.evidence:
        units = parse_cnf_evidence(_read(args.evidence), theory.num_props)
        theory = CnfTheory(theory.num_props,
                           theory.clauses + tuple(frozenset({lit}) for lit in units))
    ordering = _resolve_cnf_ordering(args.order, theory)
    extension = directional_resolution(theory, ordering)
    if not extension.satisfiable:
        if args.json:
            print(json.dumps({"sat": 0}, sort_keys=True))
        else:
            print("UNSAT")
        return 3
    model = generate_model(extension)
    out = _Output(args.json)
    if args.trace:
        for node in reversed(extension.ordering.sequence):
            clauses = extension.buckets.get(node + 1, ())
            width = max((len(c) for c in clauses), default=0)
            line = f"trace prop={node + 1} clauses={len(clauses)} width={width}"
            out.raw(line, "trace", line[len("trace "):])
    out.put("sat", "1", 1)
    out.put("model", " ".join(f"{p}={int(val)}" for p, val in sorted(model.items())),
            {str(p): int(val) for p, val in sorted(model.items())})
    out.put("clauses", str(extension.clause_count()), extension.clause_count())
    if args.oracle:
        out.put("oracle_sat", str(int(oracle.oracle_sat(theory))),
                int(oracle.oracle_sat(theory)))
    out.flush()
    if args.extension:
        with open(args.extension, "w", encoding="utf-8") as fh:
            fh.write(extension.to_dimacs())
    return 0


def _stats_block(out: _Output, label: str, g, order, offset: int = 0) -> None:
    report = induced_width(g, order)
    out.put("order", label)
    out.put("sequence", " ".join(str(v + offset) for v in report.order),
            [v + offset for v in report.order])
    out.raw(report.render(), "width_reports",
            {"w": report.width, "wstar": report.induced_width,
             "fill": len(report.fill_edges)})


def _run_stats(args) -> int:
    text = _read(args.path)
    head = text.split(None, 1)[0] if text.split() else ""
    out = _Output(args.json)
    cnf = head not in ("BAYES", "ID")
    if not cnf:
        model = parse_network(text, strict=not args.lax)
        removed = _observed(_load_evidence(args, model))
        g = (augmented_graph(model) if isinstance(model, InfluenceDiagram)
             else moral_graph(model))
        g = g.without(removed)
        out.put("kind", "id" if isinstance(model, InfluenceDiagram) else "bayes")
        out.put("variables", str(model.n), model.n)
    else:
        theory = parse_cnf(text)
        g = interaction_graph(theory)
        out.put("kind", "cnf")
        out.put("propositions", str(theory.num_props), theory.num_props)
    offset = 1 if cnf else 0  # propositions print 1-based
    if args.order in (None, "min-fill", "min-degree"):
        for kind in [args.order] if args.order else ["min-degree", "min-fill"]:
            _stats_block(out, kind, g, order_heuristic(g, HEURISTICS[kind]), offset)
    else:
        label = "given" if args.order.startswith("given:") else "file"
        if cnf:
            order = _resolve_cnf_ordering(args.order, theory)
        elif label == "given":
            names = [v.name for v in model.variables]
            order = _parse_id_list(args.order[len("given:"):], names)
        else:
            order = Ordering.parse(_read(args.order), model.n)
        _stats_block(out, label, g, order, offset)
    out.flush()
    return 0


_COMMANDS = {
    "bel": _run_bel,
    "mpe": _run_mpe,
    "map": _run_map,
    "meu": _run_meu,
    "cond-mpe": _run_cond_mpe,
    "dr": _run_dr,
    "stats": _run_stats,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, TooLargeError) as exc:
        # ValueError covers OrderingConstraintError; TooLargeError is an
        # --oracle query past the enumeration cap.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroMassError:
        print("IMPOSSIBLE EVIDENCE")
        return 3
    except UnsatisfiableError:
        print("UNSAT")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
