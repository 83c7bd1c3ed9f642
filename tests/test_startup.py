"""Importing the engine generates no code.

A bare interpreter loads neither ``dataclasses`` nor ``inspect``; the
engine's value classes are written out by hand, so importing it, the CLI
and the random generator loads neither either.
"""

import ast
import os
import pathlib
import subprocess
import sys

import classicdl

PACKAGE = pathlib.Path(classicdl.__file__).parent


def test_importing_the_engine_loads_no_code_generator():
    probe = ("import sys\n"
             "import classicdl, classicdl.cli, classicdl.randgen\n"
             "print(' '.join(m for m in ('dataclasses', 'inspect')"
             " if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.stdout.split() == []


def test_no_engine_module_imports_dataclasses():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "dataclasses" in names:
                offenders.append(path.name)
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert offenders == []
