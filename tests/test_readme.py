"""README's library surface names only what the package exports."""

import ast
import pathlib
import re

import classicdl

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_surface_is_exported():
    blocks = re.findall(r"```python\n(from classicdl import \(.*?\))\n```",
                        README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    (stmt,) = ast.parse(blocks[0]).body
    names = [alias.name for alias in stmt.names]
    assert names
    assert [n for n in names if n not in classicdl.__all__] == []
