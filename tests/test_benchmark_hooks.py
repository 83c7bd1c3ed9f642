"""The benchmark's hooks into the engine still resolve.

``benchmarks/run.py --trace 1`` wraps engine functions by name (the keys
of its ``LAYER`` table) and ``benchmarks/tracing.py`` wraps
``graph.GraphNode.clone`` and calls ``graph.DescriptionGraph.subgraphs``.
A refactor that renames one of them fails here instead of in a traced run.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
TRACER_HOOKS = ["graph.GraphNode.clone", "graph.DescriptionGraph.subgraphs"]


def _layer_names() -> list[str]:
    """The keys of ``LAYER`` in ``run.py``, read without importing it."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER"
                for t in stmt.targets):
            return list(ast.literal_eval(stmt.value))
    raise AssertionError("run.py has no LAYER table")


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "ok"), proc.stderr


def test_traced_engine_names_resolve():
    names = _layer_names()
    assert names
    for name in names + TRACER_HOOKS:
        module, *path = name.split(".")
        obj = importlib.import_module("classicdl." + module)
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), name
