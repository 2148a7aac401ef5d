"""Library checks must survive ``python -O``, which strips ``assert``.

Every check in ``src/covercat`` raises explicitly instead; this test
fails on any ``assert`` statement left in the package.
"""

import ast
from pathlib import Path

import covercat

PACKAGE = Path(covercat.__file__).resolve().parent


def test_no_assert_statements_in_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
