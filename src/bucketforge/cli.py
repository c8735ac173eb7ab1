"""Batch command-line front end.

Line-oriented ``key=value`` output, decimals at 12 significant digits,
byte-identical across repeated runs.  Exit codes: 0 success, 1 usage error
or out of memory, 2 model error, 3 impossible evidence or unsatisfiable
theory.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import threading
import warnings

from . import engines, oracle
from .errors import ModelError, TooLargeError, ZeroMassError
from .graph import (Ordering, augmented_graph, constrained_order,
                    cutset_heuristic, induced_width, interaction_graph,
                    moral_graph, observed_suffix, order_and_width,
                    order_heuristic)
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


@functools.cache  # parsing leaves a parser as it was, so run reuses one
def build_parser() -> _Parser:
    parser = _Parser(prog="bucketforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace=True, lax=True, oracle_flag=True):
        """The common flags, less those the command does not read."""
        p.add_argument("--evidence", metavar="FILE", help="evidence file")
        p.add_argument("--order", metavar="SPEC",
                       help="ordering file, min-fill, min-degree, or given:ids")
        if trace:
            p.add_argument("--trace", action="store_true", help="print bucket traces")
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if lax:
            p.add_argument("--lax", action="store_true",
                           help="renormalize off rows instead of rejecting them")
        if oracle_flag:
            p.add_argument("--oracle", action="store_true",
                           help="also print enumeration-oracle results")

    p = sub.add_parser("bel", help="posterior belief for one variable")
    p.add_argument("network")
    p.add_argument("--query", required=True, metavar="VAR")
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
    common(p, lax=False)

    p = sub.add_parser("stats", help="graph widths per ordering heuristic")
    p.add_argument("path")
    common(p, trace=False, oracle_flag=False)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:  # a ValueError, which run() reports as a usage error
            raise ModelError(f"{path} is not UTF-8 text: {exc}") from None


def _parse_id_list(spec: str, n: int, model=None, base: int = 0) -> list[int]:
    """The one id rule for ``--query``, ``--hyp``, ``--cutset`` and
    ``given:`` lists.

    Each comma-separated token is an integer in ``base .. base + n - 1`` or
    a variable name; the ids are returned 0-based.  The names are
    ``model.names``, read only for a token that is not an integer (no name
    is one); a CNF theory's propositions have none (``model`` None).
    """
    index = None
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = int(tok) - base
        except ValueError:
            if index is None:
                index = {name: i for i, name in enumerate(() if model is None
                                                          else model.names)}
            v = index.get(tok, -1)
        if not 0 <= v < n:
            raise _UsageError(f"not a variable id or name: {tok!r}")
        out.append(v)
    if not out:
        raise _UsageError(f"empty id list {spec!r}")
    return out


def _resolve_ordering(spec, n, graph, model=None, base=0, prefix=(), observed=()):
    """Ordering from a file, a heuristic name, or an inline given: list,
    and its induced width on ``graph()`` when that comes free, else None.

    Ids in a file or a list count from ``base`` (1 for DIMACS propositions);
    the ordering holds them 0-based, and a list may name ``model``'s
    variables.  A heuristic ordering runs on the graph ``graph()``
    returns, called only then, and pins ``prefix`` first and the
    ``observed`` variables outside it last (``graph.observed_suffix``).
    With nothing pinned, its greedy elimination gives the width too.
    """
    if spec is None:
        spec = "min-fill"
    if spec in HEURISTICS:
        suffix = observed_suffix(observed, prefix)
        if not prefix and not suffix:
            return order_and_width(graph(), HEURISTICS[spec])
        return constrained_order(graph(), HEURISTICS[spec], prefix=prefix,
                                 suffix=suffix), None
    if spec.startswith("given:"):
        return Ordering(tuple(_parse_id_list(spec[len("given:"):], n, model, base))), None
    return Ordering.parse(_read(spec), n, base=base), None


def _load_evidence(args, model):
    if not args.evidence:
        return None
    return parse_evidence(_read(args.evidence), model)


def _load(args, path: str, kind: str):
    """A network command's model and its evidence (None without --evidence)."""
    model = parse_network(_read(path), kind=kind, strict=not args.lax)
    return model, _load_evidence(args, model)


def _load_cnf(args, text: str) -> CnfTheory:
    """A DIMACS theory plus one unit clause per ``--evidence`` observation."""
    theory = parse_cnf(text)
    if not args.evidence:
        return theory
    units = parse_cnf_evidence(_read(args.evidence), theory.num_props)
    return CnfTheory(theory.num_props,
                     theory.clauses + tuple(frozenset({lit}) for lit in units))


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


def _refuse(args, line: str, obj: dict) -> int:
    """Print a refusal, as its plain line or under ``--json`` as one object;
    exit code 3."""
    print(json.dumps(obj, sort_keys=True) if args.json else line)
    return 3


def _put_choice(out: _Output, prefix: str, value, assignment) -> None:
    """The value and assignment lines of an engine or ``--oracle`` answer."""
    if value is not None:
        out.put(prefix + "value", fmt(value), _jnum(value))
    if assignment is not None:
        out.put(prefix + "assignment",
                " ".join(f"{v}={val}" for v, val in sorted(assignment.items())),
                {str(v): val for v, val in sorted(assignment.items())})


def _emit_trace(out: _Output, result) -> None:
    if result.iterations is not None:
        for rec in result.iterations:
            pinned = " ".join(f"{v}={val}" for v, val in rec.pinned) or "-"
            line = (f"trace iter={rec.index} pinned={pinned} value={fmt(rec.value)} "
                    f"scope={rec.max_table_scope}")
            out.raw(line, "iterations_trace",
                    {"iter": rec.index, "pinned": dict(rec.pinned),
                     "value": _jnum(rec.value), "scope": rec.max_table_scope})
    for entry in result.trace or ():  # read once: each read builds the entries
        line = entry.render()
        out.raw("trace " + line, "trace", line)


def _emit_common(out: _Output, result, args) -> None:
    if args.trace:
        _emit_trace(out, result)
    _put_choice(out, "", result.value, result.assignment)
    if result.belief is not None:
        out.put("belief", " ".join(fmt(p) for p in result.belief),
                [_jnum(p) for p in result.belief])
    if result.evidence_mass is not None:
        out.put("evidence_mass", fmt(result.evidence_mass), _jnum(result.evidence_mass))
    if result.note:
        out.put("note", result.note)


def _run_bel(args) -> int:
    net, evidence = _load(args, args.network, "bayes")
    query = _parse_id_list(args.query, net.n, net)
    if len(query) != 1:
        raise _UsageError(f"--query takes one variable, got {args.query!r}")
    ordering, _ = _resolve_ordering(args.order, net.n, lambda: moral_graph(net), net,
                                    prefix=query, observed=_observed(evidence))
    result = engines.solve_belief(net, query[0], evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        belief, mass = oracle.oracle_belief(net, query[0], evidence)
        out.put("oracle_belief", " ".join(fmt(p) for p in belief),
                [_jnum(p) for p in belief])
        out.put("oracle_evidence_mass", fmt(mass), _jnum(mass))
    out.flush()
    return 0


def _run_mpe(args) -> int:
    net, evidence = _load(args, args.network, "bayes")
    ordering, _ = _resolve_ordering(args.order, net.n, lambda: moral_graph(net), net,
                                    observed=_observed(evidence))
    result = engines.solve_mpe(net, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        _put_choice(out, "oracle_", *oracle.oracle_mpe(net, evidence, list(ordering)))
    out.flush()
    return 3 if result.note else 0


def _run_map(args) -> int:
    net, evidence = _load(args, args.network, "bayes")
    # Checked before the ordering, whose resolver has its own duplicate check.
    hyp = engines.check_hypothesis(net, _parse_id_list(args.hyp, net.n, net))
    ordering, _ = _resolve_ordering(args.order, net.n, lambda: moral_graph(net), net,
                                    prefix=hyp, observed=_observed(evidence))
    result = engines.solve_map(net, hyp, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        _put_choice(out, "oracle_", *oracle.oracle_map(net, hyp, evidence))
    out.flush()
    return 0


def _run_meu(args) -> int:
    diagram, evidence = _load(args, args.diagram, "id")
    ordering, _ = _resolve_ordering(args.order, diagram.n, lambda: augmented_graph(diagram),
                                    diagram, prefix=list(diagram.decisions),
                                    observed=_observed(evidence))
    result = engines.solve_meu(diagram, evidence, ordering)
    out = _Output(args.json)
    _emit_common(out, result, args)
    if args.oracle:
        dset = set(diagram.decisions)
        _put_choice(out, "oracle_", *oracle.oracle_meu(
            diagram, evidence, [v for v in ordering if v in dset]))
    out.flush()
    return 0


def _run_cond_mpe(args) -> int:
    if args.wbound is not None and args.wbound < 0:
        raise _UsageError("--wbound must be >= 0")
    if args.parallel < 1:
        raise _UsageError("--parallel must be >= 1")
    net, evidence = _load(args, args.network, "bayes")
    observed = _observed(evidence)
    graph = moral_graph(net)
    if args.cutset is not None:
        cut = sorted(set(_parse_id_list(args.cutset, net.n, net)))
    else:
        cut = sorted(cutset_heuristic(graph.without(observed), args.wbound))
    ordering, _ = _resolve_ordering(args.order, net.n, lambda: graph, net,
                                    observed=sorted(set(cut) | set(observed)))
    result = engines.solve_mpe_conditioned(net, cut, evidence, ordering)
    out = _Output(args.json)
    out.put("cutset", " ".join(str(v) for v in cut), list(cut))
    out.put("iterations", str(len(result.iterations)), len(result.iterations))
    _emit_common(out, result, args)
    if args.oracle:  # ties go first to the cutset, as the engine breaks them
        tie_order = [*cut, *(v for v in ordering if v not in cut)]
        _put_choice(out, "oracle_", *oracle.oracle_mpe(net, evidence, tie_order))
    out.flush()
    return 3 if result.note else 0


def _run_dr(args) -> int:
    theory = _load_cnf(args, _read(args.cnf))
    # A heuristic ordering's greedy gives its width, so the width check
    # eliminates no graph of its own.
    ordering, width = _resolve_ordering(args.order, theory.num_props,
                                        lambda: interaction_graph(theory), base=1)
    extension = directional_resolution(theory, ordering, width=width)
    if not extension.satisfiable:
        return _refuse(args, "UNSAT", {"sat": 0})
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
        sat = int(oracle.oracle_sat(theory))
        out.put("oracle_sat", str(sat), sat)
    if args.extension:  # written first, so a failed write prints no answer
        with open(args.extension, "w", encoding="utf-8") as fh:
            fh.write(extension.to_dimacs())
    out.flush()
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
    out = _Output(args.json)
    if (text.split(None, 1) or [""])[0] in ("BAYES", "ID"):
        model = parse_network(text, strict=not args.lax)
        kind = "id" if isinstance(model, InfluenceDiagram) else "bayes"
        g = augmented_graph(model) if kind == "id" else moral_graph(model)
        g = g.without(_observed(_load_evidence(args, model)))
        out.put("kind", kind)
        out.put("variables", str(model.n), model.n)
        n, named, base = model.n, model, 0
    else:
        theory = _load_cnf(args, text)
        g = interaction_graph(theory)
        out.put("kind", "cnf")
        out.put("propositions", str(theory.num_props), theory.num_props)
        n, named, base = theory.num_props, None, 1  # propositions print 1-based
    if args.order is None:
        for spec in ("min-degree", "min-fill"):
            _stats_block(out, spec, g, order_heuristic(g, HEURISTICS[spec]), base)
    else:
        label = (args.order if args.order in HEURISTICS else
                 "given" if args.order.startswith("given:") else "file")
        _stats_block(out, label, g,
                     _resolve_ordering(args.order, n, lambda: g, named, base)[0], base)
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


# The cyclic collector is one switch per process, so calls of run on several
# threads share one pause: the first to start records whether the collector
# was enabled and disables it, and the last to return enables it again if so.
_pause_lock = threading.Lock()
_pausing = 0  # calls of run in progress
_resume = False  # whether the first of them found the collector enabled


def run(argv) -> int:
    """Run one command line and return its exit code, with the cyclic
    collector paused for the whole command, its refusal handlers included:
    a command makes no reference cycles, so reference counting frees all
    it allocates, and no pass rescans the objects a long plan keeps alive
    meanwhile."""
    global _pausing, _resume
    with _pause_lock:
        if not _pausing:
            _resume = gc.isenabled()
            gc.disable()
        _pausing += 1
    try:
        return _run(argv)
    finally:
        with _pause_lock:
            _pausing -= 1
            if not _pausing and _resume:
                gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        # Each warning the command raises prints as one stderr line, every
        # time; a library UserWarning never becomes an error here.
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                         file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            return _COMMANDS[args.command](args)
        except (_UsageError, ValueError, TooLargeError) as exc:
            # ValueError covers OrderingConstraintError; TooLargeError is an
            # --oracle query past the enumeration cap, or a dr sweep past
            # its filing cap.
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            raise  # stdout was closed, not an input file: see main
        except MemoryError as exc:  # numpy's _ArrayMemoryError included
            detail = f": {exc}" if str(exc) else ""
            print(f"error: out of memory{detail}", file=sys.stderr)
            return 1
        except (ModelError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ZeroMassError:
            return _refuse(args, "IMPOSSIBLE EVIDENCE", {"impossible_evidence": 1})


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
    except BrokenPipeError:
        # The reader closed stdout: send the rest to devnull, so that the
        # flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
