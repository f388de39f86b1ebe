"""Invariants in the library raise UobError subclasses, never assert.

``python -O`` strips ``assert`` statements, and an ``AssertionError`` escapes
the CLI's error handler as a traceback.
"""

import ast
from pathlib import Path

import uob

SRC = Path(uob.__file__).parent


def test_no_assert_in_the_library():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert not offenders, offenders
