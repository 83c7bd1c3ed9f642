"""The engine runs on the standard library alone."""

import ast
import pathlib
import sys

import classicdl

SOURCES = sorted(pathlib.Path(classicdl.__file__).parent.glob("*.py"))


def absolute_imports(path: pathlib.Path):
    """The top-level module of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_engine_imports_only_the_standard_library():
    assert len(SOURCES) > 10
    outside = {(path.name, name) for path in SOURCES
               for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside, sorted(outside)
