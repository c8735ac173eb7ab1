"""Workload definitions: seeded inputs, the query cycle, and answer checks.

A workload is a *cycle*: a fixed list of CLI queries over inputs generated
from the seed.  A pass repeats whole cycles, so every pass of one seed sends
the same mix of queries.  Why each workload exists, and which layers it
loads and bypasses, is recorded in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import generators as gen
import references as ref

# Bump when the inputs or the reference computations change meaning, so
# that cached references from an older benchmark are not reused.
CACHE_VERSION = "2"


@dataclass
class Query:
    id: str
    argv: list[str]
    kind: str                      # bel | mpe | map | meu | cond-mpe | dr
    net: gen.WindowNet | None = None
    evidence: dict[int, int] = field(default_factory=dict)
    cnf: gen.Cnf | None = None
    planted: bool = False
    query: int | None = None
    hyp: list[int] = field(default_factory=list)


@dataclass
class Inputs:
    queries: list[Query]
    warmup: list[list[str]]


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def put(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _net_queries(w: _Writer, tag: str, net: gen.WindowNet, evidence: dict[int, int],
                 kinds, order: bool = False, query: int = 0, hyp=(0, 1)) -> list[Query]:
    path = w.put(f"{tag}.net", gen.network_text(net))
    common = []
    if evidence:
        common += ["--evidence", w.put(f"{tag}.ev", gen.evidence_text(evidence))]
    if order:
        common += ["--order", w.put(f"{tag}.order", gen.order_text(range(net.n)))]
    out = []
    for kind in kinds:
        extra = {"bel": ["--query", str(query)],
                 "map": ["--hyp", ",".join(map(str, hyp))]}.get(kind, [])
        out.append(Query(f"{tag}.{kind}", [kind, path, *extra, *common], kind, net,
                         evidence, query=query, hyp=list(hyp)))
    return out


def _sparse_order(rng, w: _Writer) -> list[Query]:
    queries = []
    for i in range(4):
        net = gen.window_network(rng, 150, 2, 6)
        picks = [int(v) for v in rng.choice(net.n, size=4, replace=False)]
        evidence = gen.observe(rng, net, count=3, exclude=picks)
        queries += _net_queries(w, f"s{i}", net, evidence, ("mpe", "bel", "map"),
                                query=picks[0], hyp=picks[1:])
    # Band 8 rather than 12: at band 12 the resolution cost of one instance
    # ranges over a factor of six between seeds.  At n=200 ordering makes a
    # dr query about 1.6 times as long as a network query, so the three of
    # them hold the tail of the cycle's times and it does not rest on noise.
    for i in range(3):
        cnf = gen.planted_banded_cnf(rng, 200, 8, 2.5)
        path = w.put(f"band{i}.cnf", gen.cnf_text(cnf))
        queries.append(Query(f"band{i}.dr", ["dr", path], "dr", cnf=cnf, planted=True))
    return queries


def _evidence_cond(rng, w: _Writer) -> list[Query]:
    queries = []
    for i in range(3):
        # Anchored parents and evenly spread evidence: eliminating the
        # observed suffix chains fill edges across the whole network, and
        # gaps in a random pattern would make that cost vary tenfold by seed.
        net = gen.window_network(rng, 200, 2, 6, anchored=True)
        query = int(rng.integers(net.n))
        evidence = gen.observe_blocks(rng, net, 0.7, exclude=[query])
        queries += _net_queries(w, f"e{i}", net, evidence, ("bel", "mpe"), query=query)
    # Fixed parent offsets give every seed the same graph, hence the same
    # 7-variable cutset and 128 conditioning iterations under --wbound 4.
    net = gen.offset_network(rng, 24, 2, (1, 5, 10))
    path = w.put("cond.net", gen.network_text(net))
    workers = str(min(2, len(os.sched_getaffinity(0))))
    for parallel in ("1", workers):
        queries.append(Query(f"cond.p{parallel}", ["cond-mpe", path, "--wbound", "4",
                                                   "--parallel", parallel],
                             "cond-mpe", net))
    return queries


def _dense_sweep(rng, w: _Writer) -> list[Query]:
    queries = []
    for i in range(3):
        net = gen.window_network(rng, 60, 3, 10, anchored=True)
        queries += _net_queries(w, f"d{i}", net, {}, ("mpe", "bel", "map"), order=True)
    diagram = gen.window_diagram(rng, 60, 3, 10, decisions=2, utilities=20, anchored=True)
    queries += _net_queries(w, "id", diagram, {}, ("meu",), order=True)
    # Resolution time near the threshold is heavy-tailed (0.03-0.36 s at
    # n=12, up to 0.24 s at n=11); at n=10 it stays short (at most 0.06 s
    # over 100 seeds), so the cycle's total is steady.
    for i in range(3):
        cnf = gen.random_3cnf(rng, 10, 4.26)
        path = w.put(f"rand{i}.cnf", gen.cnf_text(cnf))
        queries.append(Query(f"rand{i}.dr", ["dr", path], "dr", cnf=cnf))
    return queries


def _long_chain(rng, w: _Writer) -> list[Query]:
    # One size, so the five queries cost about the same and the median does
    # not sit on a boundary between sizes.
    queries = []
    # Commands without evidence, then with half the variables observed.
    for i, (plain, observed) in enumerate(((("bel", "mpe"), ("bel",)), (("bel",), ("mpe",)))):
        net = gen.window_network(rng, 2500, 2, 6)
        half = gen.observe(rng, net, fraction=0.5, exclude=[0])
        queries += _net_queries(w, f"l{i}.o0", net, {}, plain, order=True)
        queries += _net_queries(w, f"l{i}.o50", net, half, observed, order=True)
    return queries


WORKLOADS = {
    "sparse-order": _sparse_order,
    "evidence-cond": _evidence_cond,
    "dense-sweep": _dense_sweep,
    "long-chain": _long_chain,
}

# The calibration kernel (speed.py) that does the kind of work the
# workload's queries do: wide-table elimination on dense-sweep, ordering,
# parsing and per-call overhead everywhere else.
SPEED_KERNEL = {
    "sparse-order": "interpreter",
    "evidence-cond": "interpreter",
    "dense-sweep": "arrays",
    "long-chain": "interpreter",
}


def _warmup(w: _Writer, queries: list[Query]) -> list[list[str]]:
    """One tiny query per distinct command shape, so imports and first-call
    costs are paid before timing."""
    rng = np.random.default_rng(0)
    net = gen.window_network(rng, 12, 2, 3)
    diagram = gen.window_diagram(rng, 12, 2, 3, decisions=2, utilities=3)
    files = {
        "net": w.put("warm.net", gen.network_text(net)),
        "id": w.put("warm.id", gen.network_text(diagram)),
        "ev": w.put("warm.ev", gen.evidence_text({5: 1})),
        "order": w.put("warm.order", gen.order_text(range(12))),
        "cnf": w.put("warm.cnf", gen.cnf_text(gen.random_3cnf(rng, 8, 3.0))),
    }
    out, seen = [], set()
    for q in queries:
        shape = (q.kind, "--evidence" in q.argv, "--order" in q.argv,
                 tuple(a for a in q.argv if a.isdigit() and q.kind == "cond-mpe"))
        if shape in seen:
            continue
        seen.add(shape)
        argv = [q.kind, files["cnf" if q.kind == "dr" else "id" if q.kind == "meu" else "net"]]
        argv += {"bel": ["--query", "0"], "map": ["--hyp", "0,1"],
                 "cond-mpe": q.argv[2:]}.get(q.kind, [])
        if "--evidence" in q.argv:
            argv += ["--evidence", files["ev"]]
        if "--order" in q.argv:
            argv += ["--order", files["order"]]
        out.append(argv)
    return out


def build_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's input files for ``seed`` and return its cycle."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    w = _Writer(workdir)
    queries = WORKLOADS[workload](rng, w)
    return Inputs(queries, _warmup(w, queries))


# -- references ------------------------------------------------------------------------

def _reference(q: Query) -> dict:
    if q.kind in ("mpe", "cond-mpe"):
        return {"log_opt": ref.mpe_log_value(q.net, q.evidence)}
    if q.kind == "bel":
        post, log_mass = ref.belief(q.net, q.query, q.evidence)
        return {"post": post, "log_mass": log_mass}
    if q.kind == "map":
        table = ref.map_table(q.net, q.hyp, q.evidence)
        return {"table": {",".join(map(str, k)): v for k, v in table.items()}}
    if q.kind == "meu":
        table = ref.meu_table(q.net, q.evidence)
        return {"table": {",".join(map(str, k)): v for k, v in table.items()}}
    if q.kind == "dr":
        if q.planted:
            return {"sat": True}
        # Small random theories are decided by the package's truth-table
        # oracle, which shares no code with directional resolution.
        from bucketforge.model import CnfTheory
        from bucketforge.oracle import truth_table_models
        theory = CnfTheory(q.cnf.num_props, tuple(frozenset(c) for c in q.cnf.clauses))
        return {"sat": bool(truth_table_models(theory))}
    raise ValueError(q.kind)


def references(queries: list[Query], workdir: str) -> dict[str, dict]:
    """Reference answers per query id, cached beside the inputs they belong to."""
    digest = hashlib.sha256(CACHE_VERSION.encode())
    for q in queries:
        digest.update(json.dumps(q.argv).encode())
        for arg in q.argv[1:]:
            if os.path.isfile(arg):
                with open(arg, "rb") as fh:
                    digest.update(fh.read())
    key = digest.hexdigest()
    path = os.path.join(workdir, "references.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            cached = json.load(fh)
        if cached.get("key") == key:
            return cached["answers"]
    answers = {q.id: _reference(q) for q in queries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"key": key, "answers": answers}, fh)
    return answers


# -- checking --------------------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    # The answer lies outside the float64 normal range, where the program's
    # plain-product sweeps are known to underflow.
    underflow: bool = False


def _lines(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _assignment(text: str) -> dict[int, int]:
    return {int(a): int(b) for a, b in (tok.split("=") for tok in text.split())}


def _close(printed: str, expected: float) -> bool:
    return abs(float(printed) - expected) <= 1e-9 * abs(expected)


def _score_ok(score: float, best: float) -> bool:
    return score >= best - 1e-9 * abs(best)


def check(q: Query, answer: dict, rc: int, stdout: str) -> Verdict:
    """Judge one answer against its reference."""
    try:
        return _check(q, answer, rc, stdout)
    except (KeyError, ValueError) as exc:
        return Verdict(False, f"unreadable output ({exc!r})")


def _check(q: Query, answer: dict, rc: int, stdout: str) -> Verdict:
    if q.kind == "dr":
        if not answer["sat"]:
            ok = rc == 3 and stdout.strip() == "UNSAT"
            return Verdict(ok, "" if ok else "satisfiable verdict on an UNSAT theory")
        fields = _lines(stdout)
        if rc != 0 or fields.get("sat") != "1":
            return Verdict(False, f"exit {rc} on a satisfiable theory")
        model = {int(a): b == "1" for a, b in (t.split("=") for t in fields["model"].split())}
        ok = ref.satisfies(q.cnf, model)
        return Verdict(ok, "" if ok else "model violates a clause")

    log_ref = answer.get("log_opt", answer.get("log_mass"))
    if q.kind == "map":
        log_ref = max(answer["table"].values())
    underflow = log_ref is not None and log_ref < ref.LOG_DBL_MIN
    fields = _lines(stdout)
    if rc != 0:
        first = (stdout.strip().splitlines() or [""])[0][:60]
        return Verdict(False, f"exit {rc}: {first}", underflow)
    if q.kind in ("mpe", "cond-mpe"):
        decoded = _assignment(fields["assignment"])
        if any(decoded.get(v) != x for v, x in q.evidence.items()):
            return Verdict(False, "assignment contradicts the evidence", underflow)
        if not _score_ok(ref.log_joint(q.net, decoded), log_ref):
            return Verdict(False, "decoded assignment below the optimum", underflow)
        if not underflow and not _close(fields["value"], math.exp(log_ref)):
            return Verdict(False, "value differs from the optimum", underflow)
    elif q.kind == "bel":
        printed = [float(x) for x in fields["belief"].split()]
        if len(printed) != len(answer["post"]) or any(
                abs(p - e) > 1e-9 * e for p, e in zip(printed, answer["post"])):
            return Verdict(False, "belief differs from the posterior", underflow)
        if not underflow and not _close(fields["evidence_mass"], math.exp(log_ref)):
            return Verdict(False, "evidence mass differs", underflow)
    elif q.kind in ("map", "meu"):
        table = answer["table"]
        decoded = _assignment(fields["assignment"])
        keys = q.hyp if q.kind == "map" else list(q.net.decisions)
        score = table.get(",".join(str(decoded.get(v)) for v in keys), -math.inf)
        best = max(table.values())
        if not _score_ok(score, best):
            return Verdict(False, "decoded assignment below the optimum", underflow)
        expected = math.exp(best) if q.kind == "map" else best
        if not underflow and not _close(fields["value"], expected):
            return Verdict(False, "value differs from the optimum", underflow)
    return Verdict(True)
