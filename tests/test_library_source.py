"""Library code states its checks as exceptions.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes in optimized runs.  Every module of the package must raise
instead; tests are free to assert.
"""

import ast
import pathlib

import continuants

PACKAGE = pathlib.Path(continuants.__file__).parent


def test_library_modules_have_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
