"""Every ``def`` in ``src/covercat`` is entered by some command.

A fresh interpreter installs ``sys.setprofile`` before ``covercat`` is
imported, so calls made at import time count and no cache built by an
earlier test (``cli.class_table``, say) can hide a path.  It then runs
every golden case of ``test_golden_cli.CASES`` and every payload of
``test_cli.BAD_TRIANGLE_PAYLOADS`` through ``cli.main`` and reports the
file and first line of each code object that was entered, which is how
the AST walk finds a ``def`` too (``co_qualname`` would need Python
3.11).  Each function or method defined in the package, nested ones
included, must be among them: what
no command reaches is a wrapper kept alive by its own tests, and it
belongs beside them.

Two rules and a short list of names are exempt.  The list can only
shrink: a name on it that is no longer defined, or that the traffic now
enters, fails the test as well.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import covercat

PACKAGE = Path(covercat.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# exempt by name: definition -> why no command enters it
UNREACHED = {
    "scalars.RootOfUnity.__init__": "a public constructor README documents",
    "scalars._term_list": (
        "formats the error for a true sum of roots, which no payload makes"
    ),
}

PROBE = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

import pytest  # test_cli imports it; loaded before the profile starts

if any(m == "covercat" or m.startswith("covercat.") for m in sys.modules):
    raise SystemExit("covercat was imported before the profile started")
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import test_cli
import test_golden_cli
from covercat import cli

fixture = json.loads(test_golden_cli.FIXTURE.read_text())
for name, (argv, payload) in sorted(test_golden_cli.CASES.items()):
    code, _ = test_golden_cli.run_case(argv, payload)
    if code != fixture[name]["exit"]:
        raise SystemExit(f"golden case {name} exited {code}")
for param in test_cli.BAD_TRIANGLE_PAYLOADS:
    sys.stdin = io.StringIO(getattr(param, "values", (param,))[0])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["triangle"])
    if code != 2:
        raise SystemExit(f"a bad payload exited {code}")
sys.setprofile(None)
sys.stdin = sys.__stdin__
# lambdas, comprehensions and module bodies are named "<...>"; what is
# left is a def or a class body, which never starts on a def's line
json.dump(
    sorted(
        [c.co_filename, c.co_firstlineno]
        for c in entered
        if not c.co_name.startswith("<")
    ),
    sys.stdout,
)
"""


def _definitions(node, prefix=""):
    """``(qualname, def node, enclosing class)`` for every def below."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name, child, node if isinstance(node, ast.ClassDef) else None
            yield from _definitions(child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _exempt_by_rule(fn, cls) -> bool:
    # a repr is for people reading a failure, not for any command; a
    # hash beside an __eq__ keeps equal values hashing equally
    if fn.name == "__repr__":
        return True
    return fn.name == "__hash__" and cls is not None and any(
        getattr(item, "name", None) == "__eq__" for item in cls.body
    )


def _entered() -> set:
    path = [str(PACKAGE.parent), str(TESTS), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        (str(Path(f).resolve()), line) for f, line in json.loads(proc.stdout)
    }


def test_every_definition_is_entered_by_a_command():
    entered = _entered()
    unreached, defined = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn, cls in _definitions(tree):
            name = f"{module}.{qualname}"
            defined.add(name)
            # a decorated function's code starts at its first decorator
            line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            if (str(path), line) in entered:
                if name in UNREACHED:
                    unreached.append(f"{name} is entered now")
            elif name not in UNREACHED and not _exempt_by_rule(fn, cls):
                unreached.append(name)
    unreached += [
        f"{name} is not defined" for name in UNREACHED if name not in defined
    ]
    assert not unreached, "\n".join(unreached)
