"""How fast the machine runs Python code right now.

On a shared machine the same work runs faster or slower by a fifth or more
from one second to the next, and whole phases of a minute run slow.  The
benchmark therefore measures a fixed pure-Python work unit between
operations and scales each operation's latency by how much longer or
shorter than nominal the units around it took.  The unit does the kind of
work the engine does (attribute access, tuple keys, dict and frozenset
operations, small allocations) and touches nothing of the engine, so a
change to the engine cannot change its work.  Garbage collection is off
while it runs and it makes no reference cycles, so the engine's heap does
not slow it down.
"""

from __future__ import annotations

import gc
import time

# The time one unit takes on a machine of nominal speed.  Scaled figures
# are the times the engine would take on such a machine.
UNIT_S = 100e-6
# Units per sample, and engine time between samples.
SAMPLE_UNITS = 10
SAMPLE_EVERY_S = 0.005

_N = 128


class _Node:
    __slots__ = ("key", "succ", "tags")

    def __init__(self, key: int):
        self.key = key
        self.succ = (key * 7 + 3) % _N
        self.tags = frozenset((key % 5, key % 11, key % 3))


_NODES = [_Node(i) for i in range(_N)]
_INDEX = {("k", i % 31, i % 13): i for i in range(_N)}


def unit() -> int:
    total = 0
    counts: dict[int, int] = {}
    for n in _NODES:
        m = _NODES[n.succ]
        j = _INDEX.get(("k", m.key % 31, m.key % 13), -1)
        counts[j] = counts.get(j, 0) + len(n.tags & m.tags)
        total += j
    return total + len(counts)


def sample() -> float:
    """Seconds per unit, measured now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(SAMPLE_UNITS):
            unit()
        return (time.perf_counter() - t0) / SAMPLE_UNITS
    finally:
        if enabled:
            gc.enable()
