"""Every function, method and class of the engine is reached from the
engine itself or from the benchmark, not only from tests, and so is every
parameter with a default.

A definition counts as reached when its name is read outside its own
body in a module under ``src/classicdl/`` or ``benchmarks/``: a top-level
function or class as a name or an attribute (``subsume.subsumes``), a
method as an attribute, a nested function as a name.  Imports do not
count, so a re-export from ``__init__.py`` reaches nothing.  Dunder
methods are called by the language and are exempt.

A parameter with a default counts as passed when a call in those modules
to its function's name passes it, by keyword or by position: a name read
through an import alias (``world_jsonable``) is the name it imports, a
class's name calls its ``__init__``, and a method's first parameter is
bound.  A call with ``*args`` or ``**kwargs`` passes what they could.
"""

import ast
import pathlib
from collections import Counter, defaultdict

import classicdl

PACKAGE = pathlib.Path(classicdl.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BENCHMARKS = sorted((PACKAGE.parent.parent / "benchmarks").glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)
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


def parsed() -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path))
            for path in SOURCES + BENCHMARKS]


def unreached() -> list[str]:
    """The definitions none of whose references lies outside their own
    body."""
    trees = parsed()
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


# ``cli.main`` is the console entry point ``classicdl.cli:main``, and
# ``__main__`` calls it bare: ``argv`` serves callers outside the package.
EXEMPT = ["cli.main(argv)"]


def calls(tree: ast.Module):
    """Each call in ``tree`` as the callee's name, the number of
    positional arguments (any number, for ``*args``) and the keywords
    (None among them, for ``**kwargs``)."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        positional = (float("inf")
                      if any(isinstance(a, ast.Starred) for a in node.args)
                      else len(node.args))
        yield name, positional, {k.arg for k in node.keywords}


def defaulted(tree: ast.Module, module: str):
    """Each parameter with a default in ``tree`` as the qualified name of
    its function, the name that calls it, the parameter's name, and its
    index among the arguments a call passes by position (None: keyword
    only)."""
    for qualname, name, kind, node in definitions(tree, module):
        if not isinstance(node, _FUNCTIONS):
            continue
        if name == "__init__":
            name = qualname.split(".")[-2]
        elif name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if kind == "method":
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qualname, name, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, name, arg.arg, None


def unpassed() -> list[str]:
    """The parameters with a default that no call passes, as
    ``function(parameter)``."""
    trees = parsed()
    by_name = defaultdict(list)
    for tree in trees:
        for name, positional, keywords in calls(tree):
            by_name[name].append((positional, keywords))
    out = []
    for path, tree in zip(SOURCES, trees):
        for qualname, name, param, index in defaulted(tree, path.stem):
            if not any(param in keywords or None in keywords
                       or (index is not None and positional > index)
                       for positional, keywords in by_name[name]):
                out.append("%s(%s)" % (qualname, param))
    return out


def test_every_defaulted_parameter_is_passed_outside_tests():
    assert unpassed() == EXEMPT
