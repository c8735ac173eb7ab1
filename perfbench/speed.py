"""Calibration kernels that measure how fast the machine runs right now.

On a shared host the same code runs up to 1.7 times slower or faster from
one half-minute to the next: the CPU's clock and its neighbours' load
change, and the process's CPU time changes with its wall time.  The client
runs a kernel before every query.  A query's time multiplied by the
kernel's reference time over the kernel time measured around the query is
the query's time at reference speed, which the end-to-end timings report.

Interpreter-bound and array-bound code do not speed up by the same factor
when the machine does, so there are two kernels, and each workload is
calibrated by the one that does the kind of work its queries do.  Neither
calls bucketforge, so a change to the program cannot change them.
"""

from __future__ import annotations

import random
import time

import numpy as np


def _graph(n: int = 70, window: int = 8, degree: int = 3) -> dict[int, set[int]]:
    rng = random.Random(7)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(1, n):
        for u in rng.sample(range(max(0, v - window), v), min(degree, v)):
            adj[u].add(v)
            adj[v].add(u)
    return adj


_GRAPH = _graph()
_RNG = random.Random(8)
_TEXT = " ".join(repr(_RNG.random()) for _ in range(12000))
_TABLE = np.linspace(0.1, 1.0, 3 ** 10).reshape((3,) * 10)


def _min_fill(adj: dict[int, set[int]]) -> list[int]:
    adj = {v: set(nb) for v, nb in adj.items()}
    order = []
    while adj:
        v = min(adj, key=lambda x: (sum(1 for a in adj[x] for b in adj[x]
                                        if a < b and b not in adj[a]), x))
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
            adj[a] |= nb - {a}
        order.append(v)
    return order


def interpreter() -> float:
    """Greedy min-fill over a graph held in dicts of sets, then tokenising
    and converting numeric text: the work of ordering and parsing."""
    total = float(sum(_min_fill(_GRAPH)[:5]))
    return total + sum(float(tok) for tok in _TEXT.split())


def arrays() -> float:
    """Broadcast products of two ternary 10-axis tables over 11 axes, then
    a max and a sum over one axis: the work of eliminating wide buckets."""
    total = 0.0
    for _ in range(8):
        product = _TABLE[..., None] * _TABLE[None, ...]
        total += float(product.max(axis=0).sum() + product.sum(axis=-1).max())
    return total


KERNELS = {"interpreter": interpreter, "arrays": arrays}

# Each kernel's time at reference speed: about its median on the 2-vCPU
# machine that NOTES.md describes.  Only ratios of reported timings mean
# anything, so the constants only set their scale.
REFERENCE_S = {"interpreter": 0.025, "arrays": 0.020}


def seconds(kernel: str) -> float:
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start
