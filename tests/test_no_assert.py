"""Checks on the library's source tree.

Library checks must survive ``python -O``, which strips ``assert``.
Every check in ``src/covercat`` raises explicitly instead; the first
test fails on any ``assert`` statement left in the package.  The second
keeps ``fractions`` out of the classification modules, which hold roots
of unity as ``RootOfUnity`` values only.  The third keeps the rule for a
valid covering datum in ``classify.TriangulationTriple`` alone, the
fourth the rule that a functor permutes its objects in
``cn.Autoequivalence.__init__`` alone, and the fifth the conversion of
outside rationals in ``scalars.exact`` (and ``cli._rational``, which
reads the command line's strings) alone: nowhere else may the package
call ``Fraction`` on one argument that is not an int literal.  The sixth
keeps floating point out of the package: no ``cmath`` import, no call of
``float`` or ``complex`` and no float or complex literal.  The seventh
keeps rational arithmetic out of the scalar kernel: ``Cyclotomic`` and
``MonomialCoefficient`` call neither ``Fraction`` nor ``exact``.  The
eighth lets only ``cli.py`` catch ``ValueError``, which it reports as
bad input (exit 2): no other module has a bare ``except`` or one that
names ``ValueError``, ``Exception`` or ``BaseException``, so a library
fault is never read as a choice between two routes.  The ninth keeps dead
definitions out: every top-level function or class of the package is
named somewhere in ``src/covercat`` or exported in ``covercat.__all__``.
That rule sees neither methods nor nested functions, and an export
passes it; the rule for every ``def``, methods included, is the reach
test in ``test_reach.py``: each one must be entered by some command.
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


def test_frobenius_leaves_triple_validation_to_classify():
    # the constructions take a triple that validated itself when built;
    # a second validator would check every class again on every cone
    validators = {
        "is_anti_compatible",
        "check_skew_continuity",
        "continuity_factor",
        "natural_iso",
    }
    tree = ast.parse((PACKAGE / "frobenius.py").read_text())
    found = [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        for name in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
        )
        if name in validators
    ]
    assert found == []


def test_only_the_constructor_checks_that_object_maps_permute():
    # every Autoequivalence is an automorphism once built; a second
    # check, by name or by counting the distinct entries of a table,
    # would guard a path no functor can take
    def outside_init(tree):
        skip = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Autoequivalence"
            for item in cls.body
            if getattr(item, "name", None) == "__init__"
            for node in ast.walk(item)
        }
        return [node for node in ast.walk(tree) if id(node) not in skip]

    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in outside_init(ast.parse(path.read_text()))
        if "is_automorphism" in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
        )
        or (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "len"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "set"
        )
    ]
    assert found == []


def test_only_the_converter_reads_outside_rationals():
    # Fraction(0.1) is the float's binary expansion; scalars.exact refuses
    # a float, so a second door that calls Fraction itself could let one
    # decide a coordinate or a coefficient
    allowed = {("scalars.py", "exact"), ("cli.py", "_rational")}

    def int_literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and (path.name, fn.name) in allowed
            for node in ast.walk(fn)
        }
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in skip
            and isinstance(node, ast.Call)
            and "Fraction" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            )
            and len(node.args) + len(node.keywords) == 1
            and not (node.args and int_literal(node.args[0]))
        ]
    assert found == []


def test_library_computes_no_floats():
    # every scalar is zero or a root of unity and every coordinate a
    # rational, held exactly; a float value, even for a cross-check, is a second
    # representation that could come to decide a result
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                (
                    isinstance(node, ast.Import)
                    and any(a.name == "cmath" for a in node.names)
                )
                or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "cmath"
                )
                or (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("float", "complex")
                )
                or (
                    isinstance(node, ast.Constant)
                    and type(node.value) in (float, complex)
                )
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_scalar_kernel_does_no_rational_arithmetic():
    # a scalar is zero or one root of unity, so its products and inverses
    # are root arithmetic; a Fraction there would be a second, rational
    # representation of the same values
    tree = ast.parse((PACKAGE / "scalars.py").read_text())
    kernel = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name in ("Cyclotomic", "MonomialCoefficient")
    ]
    assert len(kernel) == 2
    found = [
        f"{cls.name}:{node.lineno}"
        for cls in kernel
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
        and {"Fraction", "exact"}
        & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]
    assert found == []


def test_only_the_command_line_catches_value_errors():
    # the command line maps ValueError to exit 2; a library handler that
    # catches it turns any fault in its block, such as an endpoint
    # mismatch, into a silent choice
    catching = {"ValueError", "Exception", "BaseException"}

    def names(node):
        if node is None:
            return {"BaseException"}
        if isinstance(node, ast.Tuple):
            return {n for elt in node.elts for n in names(elt)}
        return {getattr(node, "id", None) or getattr(node, "attr", None)}

    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and names(node.type) & catching
    ]
    assert found == []


def test_every_definition_is_used_or_exported():
    # a definition that only the tests call is a wrapper kept alive by
    # its own tests; it belongs beside them
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    found = [
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named
        and node.name not in covercat.__all__
    ]
    assert found == []
