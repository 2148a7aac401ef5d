"""Checks on the library's source tree.

Library checks must survive ``python -O``, which strips ``assert``.
Every check in ``src/covercat`` raises explicitly instead; the first
test fails on any ``assert`` statement left in the package.  The second
keeps ``fractions`` out of the classification modules, which hold roots
of unity as ``RootOfUnity`` values only.
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


def test_classification_imports_nothing_from_fractions():
    # a second, exponent representation of roots would need conversions
    # to and from RootOfUnity on every enumerated pair
    found = [
        f"{name}:{node.lineno}"
        for name in ("classify.py", "normal_forms.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if (
            isinstance(node, ast.ImportFrom) and node.module == "fractions"
        )
        or (
            isinstance(node, ast.Import)
            and any(a.name == "fractions" for a in node.names)
        )
    ]
    assert found == []
