"""Shared fixtures: a hand-built six-variable network with known widths,
the table kernels as they were before they took scratch memory, kept as
the reference the kernels are checked against, and the benchmark's
network generators."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bucketforge import factor, parse_network

# Six binary variables 0..5 with arcs 0->1, 0->2, {0,1}->3, {1,2}->4, 4->5.
# Small enough to enumerate, wide enough to exercise fill edges and buckets.
DIAG_TEXT = """BAYES
6
2 2 2 2 2 2
6
1 0
2 0 1
2 0 2
3 0 1 3
3 1 2 4
2 4 5
2 0.6 0.4
4 0.3 0.7 0.8 0.2
4 0.1 0.9 0.5 0.5
8 0.2 0.8 0.4 0.6 0.7 0.3 0.9 0.1
8 0.15 0.85 0.25 0.75 0.35 0.65 0.45 0.55
4 0.05 0.95 0.6 0.4
"""

# Two influence diagrams whose expected utility overflows only as the sweep
# folds it into its running sum: two empty-scope utilities of 1e308, and a
# chance bucket's average and a decision bucket's maximum of 1e308 each.
OVERFLOW_DIAGRAMS = {
    "inf.id": "ID\n1\n2\n1 0\n0\n2\n0\n1 1e308\n0\n1 1e308\n",
    "inf2.id": ("ID\n2\n2 2\n1 0\n1\n1 1\n2 0.5 0.5\n2\n1 1\n2 1e308 1e308\n"
                "1 0\n2 1e308 1e308\n"),
}

# An influence diagram whose two utility tables over {var} sum to more than
# the largest float in np.add: in the decision bucket when var is 0, in the
# chance bucket when it is 1.
UTILITY_OVERFLOW = """ID
2
2 2
1 0
1
2 0 1
4 0.2 0.8 0.9 0.1
2
1 {var}
2 1e308 1.0
1 {var}
2 1e308 1.0
"""

DIAG_MORAL_EDGES = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4),
                    (4, 5)}

# A good ordering (width 2) and its reversal (width 3).
DIAG_GOOD_ORDER = (0, 1, 2, 4, 3, 5)
DIAG_BAD_ORDER = (5, 3, 4, 2, 1, 0)


@pytest.fixture
def diag_text():
    return DIAG_TEXT


@pytest.fixture
def diag_net():
    return parse_network(DIAG_TEXT)


# -- the kernels allocating per operation, as references ---------------------------

def reference_fold(arrays, shapes, op):
    """The fold as it was before the scratch: a fresh array per operation."""
    acc = arrays[0].reshape(shapes[0])
    for a, shape in zip(arrays[1:], shapes[1:]):
        acc = op(acc, a.reshape(shape))
    return acc


def reference_fold_sum(values, axis):
    """fold_sum as it was before the scratch: the sum in a fresh array."""
    slices = factor._slices(values, axis)
    if len(slices) == 1:
        return np.array(slices[0])
    out = np.add(slices[0], slices[1], out=np.empty(slices[0].shape))
    for s in slices[2:]:
        np.add(out, s, out=out)
    return out


def reference_fold_max(values, axis):
    """fold_max as it was before the scratch: the per-slice comparison and
    index arrays fresh for every slice."""
    index = np.min_scalar_type(values.shape[axis] - 1).type
    if values.size < factor.REDUCE_CELLS:
        best = values.max(axis)
        if best.all():
            return np.asarray(best), np.asarray(values.argmax(axis), dtype=index)
    slices = factor._slices(values, axis)
    best = np.array(slices[0])
    choices = np.zeros(best.shape, dtype=index)
    for i, s in enumerate(slices[1:], 1):
        better = s > best
        np.maximum(best, s, out=best)
        np.maximum(choices, better * index(i), out=choices)
    return best, choices


@pytest.fixture(scope="session")
def generators():
    """perfbench/generators.py, the benchmark's seeded network generators,
    loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("perfbench_generators", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)  # its dataclasses look their module up
    return gen
