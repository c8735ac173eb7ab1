"""Spans and counts around the public functions of each bucketforge layer.

The tracer replaces functions at the names their callers use (a module
attribute, or a method on its class) with a wrapper that records a span:
name, start, end, parent span and query id.  Spans stay in memory until
the pass ends.  A layer's self time is its span's duration minus the part
of that interval its child spans cover; children that ran concurrently on
``cond-mpe --parallel`` worker threads are merged before subtracting.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# (module, attribute or Class.method, span name).  Each entry is the name a
# caller on the query path looks up; cli binds most functions into its own
# namespace at import, so those are wrapped there.
TARGETS = [
    ("cli", "run", "cli.run"),
    ("cli", "parse_network", "model.parse"),
    ("cli", "parse_evidence", "model.parse"),
    ("cli", "parse_cnf", "model.parse"),
    ("cli", "parse_cnf_evidence", "model.parse"),
    ("model", "BeliefNetwork.__post_init__", "model.validate"),
    ("model", "InfluenceDiagram.__post_init__", "model.validate"),
    ("model", "CnfTheory.__post_init__", "model.validate"),
    ("cli", "moral_graph", "graph.build"),
    ("cli", "augmented_graph", "graph.build"),
    ("cli", "interaction_graph", "graph.build"),
    ("graph", "GraphView.without", "graph.build"),
    ("cli", "constrained_order", "graph.order"),
    ("cli", "order_heuristic", "graph.order"),
    ("cli", "cutset_heuristic", "graph.cutset"),
    ("cli", "induced_width", "graph.width"),
    ("graph", "induced_width", "graph.width"),
    ("engines", "solve_belief", "engines.solve"),
    ("engines", "solve_mpe", "engines.solve"),
    ("engines", "solve_map", "engines.solve"),
    ("engines", "solve_meu", "engines.solve"),
    ("engines", "solve_mpe_conditioned", "engines.cond"),
    ("engines", "partition", "buckets.partition"),
    ("buckets", "BucketSchedule.process", "buckets.process"),
    ("buckets", "BucketSchedule.scatter", "buckets.scatter"),
    ("engines", "forward_decode", "buckets.decode"),
    ("buckets", "multiply", "factor.multiply"),
    ("engines", "multiply", "factor.multiply"),
    ("engines", "add", "factor.add"),
    ("factor", "DiscreteFactor.eliminate", "factor.eliminate"),
    ("factor", "DiscreteFactor.restrict", "factor.restrict"),
    ("factor", "DiscreteFactor.__post_init__", "factor.construct"),
    ("cli", "directional_resolution", "resolution.dr"),
    ("resolution", "interaction_graph", "resolution.width_check"),
    ("resolution", "induced_width", "resolution.width_check"),
    ("cli", "generate_model", "resolution.generate"),
]

# Per-layer metric -> (unit, span name whose self time it sums, or None).
LAYER_METRICS = {
    "model.parse_s": ("s", "model.parse"),
    "model.validate_s": ("s", "model.validate"),
    "model.parse_calls": ("count", None),
    "model.input_tokens": ("count", None),
    "graph.build_s": ("s", "graph.build"),
    "graph.order_s": ("s", "graph.order"),
    "graph.cutset_s": ("s", "graph.cutset"),
    "graph.width_s": ("s", "graph.width"),
    "graph.nodes_ordered": ("count", None),
    "graph.wstar_max": ("count", None),
    "graph.fill_edges": ("count", None),
    "buckets.partition_s": ("s", "buckets.partition"),
    "buckets.process_s": ("s", "buckets.process"),
    "buckets.scatter_s": ("s", "buckets.scatter"),
    "buckets.decode_s": ("s", "buckets.decode"),
    "buckets.processed": ("count", None),
    "buckets.scattered": ("count", None),
    "buckets.cells": ("count", None),
    "buckets.max_scope": ("count", None),
    "factor.multiply_s": ("s", "factor.multiply"),
    "factor.add_s": ("s", "factor.add"),
    "factor.eliminate_s": ("s", "factor.eliminate"),
    "factor.restrict_s": ("s", "factor.restrict"),
    "factor.construct_s": ("s", "factor.construct"),
    "factor.constructed": ("count", None),
    "factor.cells_out": ("count", None),
    "factor.bytes_out_computed": ("B", None),
    "engines.solve_self_s": ("s", "engines.solve"),
    "engines.cond_loop_s": ("s", "engines.cond"),
    "engines.cond_iterations": ("count", None),
    "engines.cond_parallel_efficiency": ("ratio", None),
    "resolution.dr_s": ("s", "resolution.dr"),
    "resolution.width_check_s": ("s", "resolution.width_check"),
    "resolution.generate_s": ("s", "resolution.generate"),
    "resolution.clauses_out": ("count", None),
    "cli.self_s": ("s", "cli.run"),
    "cli.output_bytes": ("B", None),
    "tracing.overhead_ratio": ("ratio", None),
}


def _zero() -> float:
    return 0.0


class Tracer:
    """Installs wrappers, records spans and counts, and restores on exit."""

    def __init__(self, package):
        self.package = package
        # [name, start, end, parent span, query id, thread CPU seconds]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.max_scope = 0
        self.orderings: dict[str, list] = {}  # query id -> [(graph, ordering)]
        self.keep_orderings = True
        self.query: str | None = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._saved: list[tuple] = []
        # Pool threads of cond-mpe --parallel update the counts concurrently.
        self._lock = threading.Lock()

    # -- installing ------------------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[list]):
        # A pool thread's first span hangs under the span the main thread is
        # blocked in (the conditioning loop).
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, fn, name, after=None):
        tracer = self
        # Conditioning iterations also record their thread's CPU time: on
        # pool threads, wall time includes waiting for the interpreter lock.
        clock = time.thread_time if name == "engines.solve" else _zero

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = [name, time.perf_counter(), 0.0, tracer._parent(stack), tracer.query, clock()]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[5] = clock() - rec[5]
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        afters = {
            "model.parse": self._count("model.parse_calls"),
            "graph.order": self._after_order,
            "engines.solve": self._after_solve,
            "buckets.process": self._count("buckets.processed"),
            "buckets.scatter": self._count("buckets.scattered"),
            "factor.construct": self._after_construct,
            "resolution.dr": self._after_dr,
        }
        for module, attr, name in TARGETS:
            owner = getattr(self.package, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, afters.get(name)))
        record = self.package.buckets.BucketSchedule.record

        def counted_record(schedule, entry):
            with self._lock:
                self.counts["buckets.cells"] += entry.cells
                if entry.op in ("sum", "max"):
                    self.max_scope = max([self.max_scope, *map(len, entry.output_scopes)])
            return record(schedule, entry)
        self._patch(self.package.buckets.BucketSchedule, "record", counted_record)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counts taken after a call returns ----------------------------------------

    def _count(self, key):
        def after(args, result):
            self._add(key, 1)
        return after

    def _after_order(self, args, ordering) -> None:
        self._add("graph.nodes_ordered", len(ordering))
        if self.keep_orderings:
            self.orderings.setdefault(self.query, []).append((args[0], ordering))

    def _after_solve(self, args, result) -> None:
        parent = self._parent(self._stack())
        if parent is not None and parent[0] == "engines.cond":
            self._add("engines.cond_iterations", 1)

    def _after_construct(self, args, result) -> None:
        self._add("factor.constructed", 1)
        self._add("factor.cells_out", args[0].values.size)

    def _after_dr(self, args, extension) -> None:
        self._add("resolution.clauses_out", extension.clause_count())


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children[id(parent)].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for rec in spans:
        name, start, end = rec[0], rec[1], rec[2]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(id(rec), ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        totals[name] += (end - start) - covered
    return totals


def parallel_efficiency(spans: list[list], workers: dict[str, int]) -> float:
    """Sum of per-iteration solve CPU time over (loop wall time x workers),
    over the conditioning loops of queries that ran with more than one
    worker."""
    busy, capacity = 0.0, 0.0
    loops = {id(r): r for r in spans if r[0] == "engines.cond" and workers.get(r[4], 1) > 1}
    for name, _, _, parent, _, cpu in spans:
        if parent is not None and id(parent) in loops and name == "engines.solve":
            busy += cpu
    for rec in loops.values():
        capacity += (rec[2] - rec[1]) * workers[rec[4]]
    return busy / capacity if capacity else 0.0


def write_spans(spans: list[list], path: str) -> None:
    index = {id(rec): i for i, rec in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart\tend\tparent\tquery\tcpu\n")
        for i, (name, start, end, parent, query, cpu) in enumerate(spans):
            parent_id = index[id(parent)] if parent is not None else -1
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent_id}\t{query}\t{cpu:.9f}\n")
