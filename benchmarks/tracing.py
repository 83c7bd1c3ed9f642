"""In-memory span tracing around the engine's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
``classicdl`` module namespace that holds it, because modules bind names at
import (``from .subsume import subsumes_graph``) and recursive calls look
the name up in their own module.  A call whose caller span has the same
name is a recursion frame: it is counted but folded into the caller's
span, which keeps the trace small enough to hold in memory.

A span records its name, start, end, parent span and operation id.  Self
time is the span's duration minus the time of its child spans, wrapper
cost included, so each layer's self time excludes the layers it calls.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from classicdl import graph as _graph


def graph_nodes(g) -> int:
    """Nodes in a description graph and all its nested restriction graphs."""
    return sum(len(sub.nodes) for sub in g.subgraphs())


def _count_canon_nodes(tracer, idx, args, result) -> None:
    tracer.op_counts["normalize.nodes_in"] += graph_nodes(args[0])
    tracer.op_counts["normalize.nodes_out"] += graph_nodes(result)


def _world_sampled(tracer, idx, args, result) -> None:
    tracer.pending_world = True


def _eval_nonvacuous(tracer, idx, args, result) -> None:
    # soundness_run evaluates the subsumee first in each sampled world.
    parent = tracer.parent[idx]
    if (tracer.pending_world and parent >= 0
            and tracer.names[tracer.name[parent]] == "randgen.soundness_run"):
        tracer.pending_world = False
        tracer.nonvacuous_worlds += bool(result)


HOOKS = {
    "normalize.canonicalize": _count_canon_nodes,
    "worlds.sample_interpretation": _world_sampled,
    "worlds.eval_description": _eval_nonvacuous,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.cur_op = -1
        self.op_counts: Counter = Counter()
        self.counts_by_op: list[Counter] = []
        self.pending_world = False
        self.nonvacuous_worlds = 0
        self._restore: list[tuple[object, str, object]] = []
        self.rebinds: Counter = Counter()

    # -- operations --

    def begin_op(self) -> None:
        self.cur_op = len(self.counts_by_op)
        self.op_counts = Counter()
        self.counts_by_op.append(self.op_counts)

    # -- wrappers --

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        calls_key = "calls:" + qualname
        tracer = self
        stack, child = self._stack, self._child

        def traced(*args, **kwargs):
            tracer.op_counts[calls_key] += 1
            if stack and tracer.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            enter = perf_counter()
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.cur_op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                kids = child.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.self_time[idx] = t1 - t0 - kids
            if hook is not None:
                hook(tracer, idx, args, result)
            if child:
                child[-1] += perf_counter() - enter
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.op_counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, qualnames) -> None:
        """Trace ``module.function`` names of the engine.  Every binding of
        the function object in a loaded ``classicdl`` module is replaced."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "classicdl" or name.startswith("classicdl.")]
        for qualname in qualnames:
            modname, attr = qualname.split(".")
            original = getattr(sys.modules["classicdl." + modname], attr)
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        self.rebinds[qualname] += 1
        clone = _graph.GraphNode.clone
        self._restore.append((_graph.GraphNode, "clone", clone))
        _graph.GraphNode.clone = self._counted("graph.nodes_cloned", clone)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading the trace --

    def total_count(self, key: str) -> int:
        return sum(c[key] for c in self.counts_by_op)

    def write(self, path: str, meta: dict, ops_per_pass: int) -> None:
        """Write every span, and the counts of the first pass (later passes
        repeat them exactly)."""
        base = self.start[0] if self.start else 0.0
        spans = [[self.names[self.name[i]], self.parent[i], self.op[i],
                  round((self.start[i] - base) * 1e6, 3),
                  round((self.end[i] - base) * 1e6, 3),
                  round(self.self_time[i] * 1e6, 3)]
                 for i in range(len(self.name))]
        doc = dict(meta)
        doc["fields"] = ["name", "parent", "op", "start_us", "end_us",
                         "self_us"]
        doc["spans"] = spans
        doc["counts_by_op"] = [dict(c)
                               for c in self.counts_by_op[:ops_per_pass]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

