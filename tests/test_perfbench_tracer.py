"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces functions and methods by name; a renamed
or deleted one makes it fail to install.  This loads the tracer from its
file, installs it and checks that uninstalling restores every original.
"""

import importlib.util
from pathlib import Path

import bucketforge
import bucketforge.cli  # noqa: F401  (the tracer wraps names in cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module: str, attr: str):
    owner = getattr(bucketforge, module)
    if "." in attr:
        cls, attr = attr.split(".")
        return getattr(owner, cls).__dict__[attr]
    return getattr(owner, attr)


def test_the_benchmark_tracer_installs_and_restores_every_name():
    tracing = _load_tracing()
    names = [(module, attr) for module, attr, _ in tracing.TARGETS]
    names.append(("buckets", "BucketSchedule.record"))
    originals = {name: _current(*name) for name in names}
    tracer = tracing.Tracer(bucketforge)
    try:
        tracer.install()
        assert [name for name in names if _current(*name) is originals[name]] == []
    finally:
        tracer.uninstall()
    assert [name for name in names if _current(*name) is not originals[name]] == []


def test_the_benchmark_tracer_times_every_heuristic_network_ordering(tmp_path, capsys,
                                                                     diag_text):
    """A network query with nothing pinned orders through a function the
    tracer wraps, so its ordering shows as a ``graph.order`` span."""
    import bucketforge.cli as cli
    path = tmp_path / "diag.net"
    path.write_text(diag_text, encoding="utf-8")
    tracer = _load_tracing().Tracer(bucketforge)
    try:
        tracer.install()
        for query, argv in (("mpe", ["mpe", str(path)]),
                            ("stats", ["stats", str(path), "--order", "min-fill"])):
            tracer.query = query
            assert cli.run(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    ordered = {query for name, *_, query, _ in tracer.spans if name == "graph.order"}
    assert ordered == {"mpe", "stats"}
