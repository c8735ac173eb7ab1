"""CLI differential: run one seeded command set against two ``src/`` trees.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC [--count N] [--seed S]

Seeded ``bucketforge.randgen`` networks, influence diagrams and CNF
theories, with evidence and ordering files, are written to a temporary
directory, and so is a damaged copy of each network and diagram file: one
token replaced, deleted, or the text cut after it.  Every command
(``bel``, ``mpe``, ``map``, ``meu``, ``cond-mpe``, ``dr``, ``stats``, with
a random mix of ``--evidence``, ``--order``, ``--trace``, ``--json``,
``--oracle`` and ``--lax``, plus ``mpe`` or ``meu`` on each damaged copy,
and ``meu`` on a copy of each diagram whose utilities are scaled into
1e290 .. 1e308, where the sweep's sums can overflow)
then runs through ``bucketforge.cli.run`` once per tree, each tree in its
own subprocess that imports ``bucketforge`` from that tree only.  A third
of the ``bel``, ``mpe`` and ``map`` commands take a given ordering with the
observed variables anywhere in it; the others order them last.

randgen's models (at most 10 variables) almost never build a product of
``factor.SCRATCH_CELLS`` cells, so a seeded slice of the commands, drawn
from an RNG of its own so that the rest of the set does not depend on it,
runs on wide models instead: ternary window-10 networks and influence
diagrams of 30 to 60 variables from ``perfbench/generators.py``, under
their natural order (given) or min-fill, whose buckets multiply tables of
up to 3^11 cells.  Some of their rows are deterministic and some variables
observed, so some contexts have zero mass, and some diagrams' utilities are
negative.

The report counts commands whose exit code differs, whose answer differs
(stdout without its trace lines, or the JSON object without its trace
keys, and stderr, where the errors and warnings go) and whose trace lines
differ, and shows the first differences of each kind.  The last line is
the same counts as one JSON object.  The exit status is 1 when an exit
code or an answer differs, else 0: trace lines are reported, not failed
on, since a change to the sweep may change them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

# The inputs are written with this checkout's generators.  They are imported
# inside the functions that use them, so a tree's subprocess imports
# ``bucketforge`` from that tree alone.
SRC = Path(__file__).resolve().parent.parent / "src"
TRACE_KEYS = ("trace", "iterations_trace")
SHOWN = 5  # differences shown per kind
ORDER_KINDS = ("default", "min-fill", "min-degree", "given", "file")
# What a damaged copy may have in place of a token, besides the token with a
# leading zero and another token of the text.
DAMAGE = ("x", "-1", "0", "1.5", "nan", "99999999999999999999")


# -- the command set -----------------------------------------------------------------

class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def put(self, suffix: str, text: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"f{self.count}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _flags(rng: random.Random, trace: bool = True, lax: bool = True,
           oracle: bool = True) -> list[str]:
    out = []
    if trace and rng.random() < 0.5:
        out.append("--trace")
    if rng.random() < 0.3:
        out.append("--json")
    if oracle and rng.random() < 0.2:
        out.append("--oracle")
    if lax and rng.random() < 0.1:
        out.append("--lax")
    return out


def _order(rng: random.Random, files: _Files, n: int, prefix=(), suffix=(),
           base: int = 0, kinds=ORDER_KINDS) -> list[str]:
    """No ``--order``, a heuristic, or a given list or file that keeps
    ``prefix`` first and ``suffix`` last, or once in ten a random one; the
    kind is drawn from ``kinds``."""
    from bucketforge.randgen import shuffled_ordering

    kind = rng.choice(kinds)
    if kind == "default":
        return []
    if kind in ("min-fill", "min-degree"):
        return ["--order", kind]
    if rng.random() < 0.1:
        prefix, suffix = (), ()
    seq = [v + base for v in shuffled_ordering(rng, n, prefix, suffix).sequence]
    if kind == "given":
        return ["--order", "given:" + ",".join(map(str, seq))]
    return ["--order", files.put(".order", " ".join(map(str, seq)) + "\n")]


def _query_order(rng: random.Random, aside: random.Random, files: _Files, n: int, prefix,
                 observed) -> list[str]:
    """The ordering of a ``bel``, ``mpe`` or ``map`` command: one that pins
    the observed variables last, or once in three a given list or file
    with them anywhere after ``prefix``.  The second is drawn from
    ``aside``, and the first always from ``rng``, so that the rest of a
    seed's command set does not depend on which is taken."""
    pinned = _order(rng, files, n, prefix, [v for v in observed if v not in prefix])
    if aside.random() < 1 / 3:
        return _order(aside, files, n, prefix, kinds=("given", "file"))
    return pinned


def _damaged(rng: random.Random, files: _Files, suffix: str, text: str) -> str:
    """A copy of ``text`` with one token, drawn from a random line, replaced,
    deleted, or with the text cut after it."""
    rows = [line.split() for line in text.splitlines()]
    r = rng.randrange(len(rows))
    c = rng.randrange(len(rows[r]))
    change = rng.choice(["replace", "delete", "cut"])
    if change == "cut":
        rows = rows[:r] + [rows[r][:c + 1]]
    elif change == "delete":
        del rows[r][c]
    else:
        tokens = [tok for row in rows for tok in row]
        rows[r][c] = rng.choice([*DAMAGE, "0" + rows[r][c], rng.choice(tokens)])
    return files.put(".bad" + suffix, "".join(" ".join(row) + "\n" for row in rows))


def _scaled(rng: random.Random, files: _Files, diagram) -> str:
    """A copy of ``diagram`` with each utility table scaled so that its
    largest magnitude is 10**e, e in 290 .. 308.25.  Exponents near the top
    are drawn most often, so that the sums of some copies overflow."""
    from bucketforge.factor import DiscreteFactor
    from bucketforge.model import InfluenceDiagram, serialize_network

    def scale(values):
        return values * (10 ** (308.25 - 18.25 * rng.random() ** 4) / (abs(values).max() or 1.0))
    utilities = tuple(DiscreteFactor(f.scope, f.cards, scale(f.values)) for f in diagram.utilities)
    scaled = InfluenceDiagram(diagram.network, diagram.decisions, utilities)
    return files.put(".big.id", serialize_network(scaled))


def _network_commands(rng: random.Random, files: _Files,
                      aside: random.Random) -> list[list[str]]:
    from bucketforge.model import serialize_evidence, serialize_network
    from bucketforge.randgen import random_evidence, random_network

    net = random_network(rng, max_vars=10, max_card=3,
                         hard_rows=rng.choice([0.0, 0.0, 0.3]))
    text = serialize_network(net)
    path = files.put(".net", text)
    evidence = random_evidence(rng, net, max_observed=3)
    observed = sorted(v for v, _ in evidence.items())
    ev = ["--evidence", files.put(".ev", serialize_evidence(evidence))] if len(evidence) else []
    commands = []

    query = rng.randrange(net.n)
    commands.append(["bel", path, "--query", str(query), *ev,
                     *_query_order(rng, aside, files, net.n, [query], observed),
                     *_flags(rng)])
    commands.append(["mpe", path, *ev, *_query_order(rng, aside, files, net.n, [], observed),
                     *_flags(rng)])
    hyp = rng.sample(range(net.n), rng.randint(1, min(3, net.n)))
    hyp_spec = ",".join(net.names[v] if rng.random() < 0.2 else str(v) for v in hyp)
    commands.append(["map", path, "--hyp", hyp_spec, *ev,
                     *_query_order(rng, aside, files, net.n, hyp, observed),
                     *_flags(rng)])
    if rng.random() < 0.5:
        cut = sorted(rng.sample(range(net.n), rng.randint(0, min(3, net.n))))
        pick = ["--cutset", ",".join(map(str, cut))] if cut else ["--wbound", str(rng.randint(0, 3))]
        if rng.random() < 0.5:
            order = _order(rng, files, net.n, suffix=sorted(set(cut) | set(observed)))
        else:
            # A given ordering with the cutset anywhere: the buckets processed
            # before it do not depend on it.
            order = _order(rng, files, net.n, kinds=("given", "file"))
        commands.append(["cond-mpe", path, *pick, "--parallel", str(rng.randint(1, 2)), *ev,
                         *order, *_flags(rng)])
    if rng.random() < 0.3:
        commands.append(["stats", path, *ev, *_order(rng, files, net.n),
                         *_flags(rng, trace=False, oracle=False)])
    commands.append(["mpe", _damaged(rng, files, ".net", text), *_flags(rng, oracle=False)])
    return commands


def _diagram_commands(rng: random.Random, files: _Files) -> list[list[str]]:
    from bucketforge.model import serialize_evidence, serialize_network
    from bucketforge.randgen import random_evidence, random_influence_diagram

    diagram = random_influence_diagram(rng, max_vars=8, max_card=3,
                                       hard_rows=rng.choice([0.0, 0.3]))
    text = serialize_network(diagram)
    path = files.put(".id", text)
    evidence = random_evidence(rng, diagram.network, max_observed=2,
                               exclude=diagram.decisions)
    observed = sorted(v for v, _ in evidence.items())
    ev = ["--evidence", files.put(".ev", serialize_evidence(evidence))] if len(evidence) else []
    commands = [["meu", path, *ev,
                 *_order(rng, files, diagram.n, diagram.decisions, observed), *_flags(rng)]]
    if rng.random() < 0.3:
        commands.append(["stats", path, *ev, *_order(rng, files, diagram.n),
                         *_flags(rng, trace=False, oracle=False)])
    commands.append(["meu", _damaged(rng, files, ".id", text), *_flags(rng, oracle=False)])
    commands.append(["meu", _scaled(rng, files, diagram), *ev,
                     *_order(rng, files, diagram.n, diagram.decisions, observed), *_flags(rng)])
    return commands


def _cnf_commands(rng: random.Random, files: _Files) -> list[list[str]]:
    from bucketforge.model import serialize_cnf
    from bucketforge.randgen import random_cnf

    theory = random_cnf(rng, max_props=10)
    n = theory.num_props
    path = files.put(".cnf", serialize_cnf(theory))
    ev = []
    if rng.random() < 0.3:
        props = rng.sample(range(1, n + 1), rng.randint(1, 2))
        pairs = " ".join(f"{p} {rng.randint(0, 1)}" for p in props)
        ev = ["--evidence", files.put(".ev", f"{len(props)} {pairs}\n")]
    commands = [["dr", path, *ev, *_order(rng, files, n, base=1),
                 *_flags(rng, lax=False)]]
    if rng.random() < 0.3:
        commands.append(["stats", path, *ev, *_order(rng, files, n, base=1),
                         *_flags(rng, trace=False, lax=False, oracle=False)])
    return commands


def _generators():
    """perfbench/generators.py, the benchmark's seeded window-model
    generators, loaded as a module."""
    name = "perfbench_generators"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parent.parent / "perfbench" / "generators.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up
    return sys.modules[name]


def _hardened(rng: random.Random, tables) -> None:
    """Make about one conditional-table row in six deterministic, in place:
    one value 1, the others 0.  Observed at another value, such a row's
    parent context has zero mass."""
    for table in tables:
        if table is None:
            continue
        rows = table.reshape(-1, table.shape[-1])
        for row in rows:
            if rng.random() < 1 / 6:
                row[:] = 0.0
                row[rng.randrange(len(row))] = 1.0


def _wide_commands(rng: random.Random, files: _Files) -> list[list[str]]:
    """``mpe``, ``bel --query 0`` and ``map --hyp 0,1`` on a ternary
    window-10 network, or ``meu`` twice on a diagram of the same shape with
    two decisions and 10 utilities, 30 to 60 variables, with some variables
    observed; ordered by their natural order, given, or by min-fill (the
    default ordering, which puts the query, hypothesis or decisions first,
    or ``mpe --order min-fill``).  No ``--oracle``: its table would pass
    the cap."""
    import numpy as np

    gen = _generators()
    seeded = np.random.default_rng(rng.randrange(1 << 32))
    n = rng.randint(30, 60)
    if rng.random() < 0.5:
        model = gen.window_network(seeded, n, 3, 10, anchored=True)
        kinds = [["mpe"], ["bel", "--query", "0"], ["map", "--hyp", "0,1"]]
        suffix = ".wide.net"
    else:
        model = gen.window_diagram(seeded, n, 3, 10, decisions=2, utilities=10, anchored=True)
        for _, values in model.utilities:
            if rng.random() < 0.3:
                values *= -1.0
        kinds, suffix = [["meu"], ["meu"]], ".wide.id"
    _hardened(rng, model.tables)
    path = files.put(suffix, gen.network_text(model))
    evidence = gen.observe(seeded, model, count=rng.randint(0, 3), exclude=[0, 1])
    ev = ["--evidence", files.put(".ev", gen.evidence_text(evidence))] if evidence else []
    commands = []
    for kind in kinds:
        if rng.random() < 0.5:
            order = ["--order", "min-fill"] if kind[0] == "mpe" else []
        else:
            order = ["--order", files.put(".order", gen.order_text(range(n)))]
        commands.append([kind[0], path, *kind[1:], *ev, *order, *_flags(rng, oracle=False)])
    return commands


def build_commands(count: int, seed: int, workdir: str) -> list[list[str]]:
    """At least ``count`` commands over seeded inputs written to ``workdir``."""
    rng, aside = random.Random(seed), random.Random(f"anywhere {seed}")
    wide = random.Random(f"wide {seed}")
    files = _Files(workdir)
    commands: list[list[str]] = []
    while len(commands) < count:
        r = rng.random()
        if r < 0.7:
            commands += _network_commands(rng, files, aside)
        else:
            commands += (_diagram_commands if r < 0.85 else _cnf_commands)(rng, files)
        if wide.random() < 0.08:
            commands += _wide_commands(wide, files)
    return commands


# -- running one tree ----------------------------------------------------------------

def run_commands(src: str, commands: list[list[str]]) -> list[dict]:
    """Each command's exit code, stdout and stderr under the ``bucketforge``
    of ``src``."""
    sys.path.insert(0, src)
    import bucketforge
    from bucketforge.cli import run

    if not Path(bucketforge.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {bucketforge.__file__}, not the tree {src}")
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except Exception as exc:  # an escaped exception is a result too
                code = f"raised {type(exc).__name__}: {exc}"
        results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def _run_tree(src: str, commands: list[list[str]]) -> list[dict]:
    proc = subprocess.run([sys.executable, __file__, "--run-tree", src],
                          input=json.dumps(commands), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


# -- comparing -----------------------------------------------------------------------

def split_trace(stdout: str) -> tuple[object, list[str]]:
    """(the answer, the trace lines) of one command's stdout."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        obj = None
    if isinstance(obj, dict):
        trace = [f"{key}: {json.dumps(line)}" for key in TRACE_KEYS for line in obj.get(key, ())]
        return {k: v for k, v in obj.items() if k not in TRACE_KEYS}, trace
    lines = stdout.splitlines()
    return ([line for line in lines if not line.startswith("trace ")],
            [line for line in lines if line.startswith("trace ")])


def compare(commands, old, new) -> dict[str, list]:
    """Per kind of difference, the (argv, old, new) of each command with one;
    an answer is compared together with the command's stderr."""
    diffs: dict[str, list] = {"exit": [], "answer": [], "trace": []}
    for argv, a, b in zip(commands, old, new):
        (answer_a, trace_a), (answer_b, trace_b) = split_trace(a["stdout"]), split_trace(b["stdout"])
        if a["exit"] != b["exit"]:
            diffs["exit"].append((argv, a["exit"], b["exit"]))
        answer_a, answer_b = (answer_a, a["stderr"]), (answer_b, b["stderr"])
        if answer_a != answer_b:
            diffs["answer"].append((argv, answer_a, answer_b))
        if trace_a != trace_b:
            diffs["trace"].append((argv, trace_a, trace_b))
    return diffs


def _shown(argv: list[str]) -> str:
    return " ".join(os.path.basename(a) if os.sep in a else a for a in argv)


def report(commands, diffs: dict[str, list]) -> None:
    print(f"commands: {len(commands)}")
    for kind, found in diffs.items():
        print(f"{kind} differs: {len(found)}")
        for argv, a, b in found[:SHOWN]:
            print(f"  {_shown(argv)}")
            if kind == "trace":
                removed = [line for line in a if line not in b]
                added = [line for line in b if line not in a]
                a, b = removed, added
            print(f"    old: {a}")
            print(f"    new: {b}")
    print(json.dumps({"commands": len(commands),
                      **{f"{kind}_diffs": len(found) for kind, found in diffs.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the src/ directory of the first tree")
    parser.add_argument("new_src", help="the src/ directory of the second tree")
    parser.add_argument("--count", type=int, default=2000, help="commands to run, at least")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli_diff.") as workdir:
        sys.path.insert(0, str(SRC))
        commands = build_commands(args.count, args.seed, workdir)
        old = _run_tree(args.old_src, commands)
        new = _run_tree(args.new_src, commands)
    diffs = compare(commands, old, new)
    report(commands, diffs)
    return 1 if diffs["exit"] or diffs["answer"] else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-tree"]:
        json.dump(run_commands(sys.argv[2], json.load(sys.stdin)), sys.stdout)
    else:
        sys.exit(main())
