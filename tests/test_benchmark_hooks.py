"""The benchmark's hooks into the engine still resolve.

``benchmarks/run.py --trace 1`` wraps engine functions by name (the keys
of its ``LAYER`` table) and ``benchmarks/tracing.py`` wraps
``graph.GraphNode.clone`` and calls ``graph.DescriptionGraph.subgraphs``.
A refactor that renames one of them fails here instead of in a traced run.
The tracer reads normalization's time and node counts from the calls of
``normalize.canonicalize``, so every normalization must run inside one.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

from classicdl import cli, normalize, randgen

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


def test_every_normalization_runs_inside_canonicalize(monkeypatch, tmp_path,
                                                     capsys):
    kb_path = tmp_path / "told.kb"
    kb_path.write_text("role r\nattribute f\n"
                       "concept P := all(r, all(f, X))\n"
                       "concept A := and(P, all(r, all(f, Y)), at-most(1, r))"
                       "\nconcept B := and(A, P)\n")
    real_canonicalize = normalize.canonicalize
    real_normalize = normalize._normalize_graph
    depth, normalized, outside = [0], [0], []

    def canonicalize(*args):
        depth[0] += 1
        try:
            return real_canonicalize(*args)
        finally:
            depth[0] -= 1

    def normalize_graph(g, kb):
        normalized[0] += 1
        if not depth[0]:
            outside.append(g)
        return real_normalize(g, kb)

    # As the tracer does: every binding in a loaded engine module.
    for name, module in list(sys.modules.items()):
        if name == "classicdl" or name.startswith("classicdl."):
            for key, value in list(vars(module).items()):
                if value is real_canonicalize:
                    monkeypatch.setattr(module, key, canonicalize)
    monkeypatch.setattr(normalize, "_normalize_graph", normalize_graph)
    d, c = "all(r, A)", "and(all(r, and(A, B)), same-as((f),(g)), fills(f, P))"
    for argv in (["canon", c], ["subsumes", d, c],
                 ["subsumes", "--explain", d, c], ["countermodel", c, d],
                 ["classify", "--kb", str(kb_path)]):
        assert cli.main(argv) in (0, 1), argv
    capsys.readouterr()
    randgen.soundness_run(0, 20, worlds_per_case=2)
    randgen.completeness_run(0, 20)
    assert normalized[0] > 0
    assert outside == []
