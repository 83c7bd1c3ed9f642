"""Every function, method and class of the engine is reached from the
engine itself or from the benchmark, not only from tests.

A definition counts as reached when its name is read outside its own
body in a module under ``src/classicdl/`` or ``benchmarks/``: a top-level
function or class as a name or an attribute (``subsume.subsumes``), a
method as an attribute, a nested function as a name.  Imports do not
count, so a re-export from ``__init__.py`` reaches nothing.  Dunder
methods are called by the language and are exempt.
"""

import ast
import pathlib
from collections import Counter

import classicdl

PACKAGE = pathlib.Path(classicdl.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCHMARKS = sorted((PACKAGE.parent.parent / "benchmarks").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# Per kind of definition, the reads that reach it: as an attribute
# (True) or as a name (False).
_READS = {"top": (False, True), "method": (True,), "nested": (False,)}


def definitions(tree: ast.Module, module: str):
    """Each definition's qualified name, bare name, kind and node: kind
    is "top", "method" or "nested"."""
    def visit(node, prefix, kind):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = prefix + child.name
                yield qualname, child.name, kind, child
                inner = ("method" if isinstance(child, ast.ClassDef)
                         else "nested")
                yield from visit(child, qualname + ".", inner)
            else:
                yield from visit(child, prefix, kind)

    yield from visit(tree, module + ".", "top")


def references(tree: ast.AST) -> Counter:
    """How often each name is read as a ``Name`` (key ``(False, name)``)
    and as an ``Attribute`` (key ``(True, name)``) in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[False, node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[True, node.attr] += 1
    return out


def unreached() -> list[str]:
    """The definitions none of whose references lies outside their own
    body."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in SOURCES + BENCHMARKS]
    total = sum(map(references, trees), Counter())
    out = []
    for path, tree in zip(SOURCES, trees):
        for qualname, name, kind, node in definitions(tree, path.stem):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = references(node)
            if all(total[as_attr, name] == own[as_attr, name]
                   for as_attr in _READS[kind]):
                out.append(qualname)
    return out


def test_every_definition_is_reached_outside_tests():
    assert len(SOURCES) > 10 and BENCHMARKS
    assert unreached() == []
