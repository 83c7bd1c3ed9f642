"""Every engine module uses each name it imports.

``__init__.py`` imports names only to re-export them, so it is exempt.
"""

import ast
import pathlib

import classicdl

SOURCES = sorted(path for path in
                 pathlib.Path(classicdl.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree: ast.AST):
    """The name each import binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.AST) -> set[str]:
    """Every name read in the module, annotations included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    assert len(SOURCES) > 10
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = used_names(tree)
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported_names(tree) if name not in used]
    assert not unused, unused
