"""The engine runs on the standard library alone, from Python 3.10 on."""

import ast
import pathlib
import re
import sys

import classicdl
from classicdl import parsing

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


def test_engine_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_token_patterns_need_no_python_3_11_re():
    # atomic groups and possessive quantifiers arrived in Python 3.11's re
    patterns = [value.pattern for value in vars(parsing).values()
                if isinstance(value, re.Pattern)]
    assert len(patterns) >= 2
    for pattern in patterns:
        assert "(?>" not in pattern
        assert not re.search(r"(?<!\\)[*+?}]\+", pattern), pattern
