"""CLI stdout and exit codes against a recorded fixture.

Each case runs ``cli.main`` in process and compares its stdout and exit
code byte for byte with ``golden_cli.json``.  Regenerate the fixture
(only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from covercat import cli

FIXTURE = Path(__file__).with_name("golden_cli.json")


def _obj(x, y, sheet=1):
    return {"x": str(Fraction(x)), "y": str(Fraction(y)), "sheet": sheet}


README_CONE = {
    "class_index": 0,
    "source": _obj("1/4", "1/2"),
    "target": _obj("1/4", "3/4"),
}
README_UNIVERSAL = {
    "mode": "universal",
    "class_index": 2,
    "source": _obj("1/4", "1/2"),
    "eps1": "1/8",
    "eps2": "1/3",
}
N4_CONE = {
    "n": 4,
    "class_index": 1,
    "source": _obj("1/4", "1/2", 2),
    "target": _obj("1/4", "3/4", 2),
}
FAR_CONE = {
    "class_index": 0,
    "source": _obj(10**6 + Fraction(1, 4), 10**6 + Fraction(1, 2)),
    "target": _obj(10**6 + Fraction(1, 4), 10**6 + Fraction(3, 4)),
}
# the map through the positive end of the source is not divisible by t,
# so ``hom_mf`` builds the generator from the negative end
FALLBACK_CONE = {
    "class_index": 0,
    "source": _obj("1/2", "0"),
    "target": _obj("0", "1/2"),
}

# coordinates off the 1/48 grid: negative, beyond one turn and written
# as decimals, with coprime denominators, with a 499-digit denominator,
# a universal triangle with eps of denominators 9 and 11, and a
# projective-injective source
NEGATIVE_CONE = {
    "class_index": 1,
    "source": _obj("-7/5", "-1"),
    "target": _obj("-6/5", "-3/4", 2),
}
DECIMAL_CONE = {
    "class_index": 2,
    "source": {"x": "11/3", "y": "4.25", "sheet": 2},
    "target": {"x": "3.75", "y": "4.5", "sheet": 1},
}
COPRIME_CONE = {
    "class_index": 0,
    "source": _obj("1/2", "2/3"),
    "target": _obj("2/3", "3/2"),
}
LONG_DENOMINATOR = 10**498 + 7
LONG_CONE = {
    "class_index": 0,
    "source": _obj(Fraction(LONG_DENOMINATOR // 4, LONG_DENOMINATOR), "1/2"),
    "target": _obj("1/3", "3/4"),
}
OFF_GRID_UNIVERSAL = {
    "mode": "universal",
    "class_index": 1,
    "source": {"x": "-13/7", "y": "-1.5", "sheet": 2},
    "eps1": "1/9",
    "eps2": "2/11",
}
PROJECTIVE_SOURCE = {
    "class_index": 0,
    "source": {"x": 0, "y": 1, "sheet": 1},
    "target": _obj("1/4", "3/4"),
}

CASES = {
    "classify-n2": (["classify", "--n", "2"], None),
    "classify-n3": (["classify", "--n", "3"], None),
    "classify-n4-sampled": (
        ["classify", "--n", "4", "--sample-size", "40", "--seed", "3"],
        None,
    ),
    "connected-n4": (["connected", "--n", "4"], None),
    "connected-n5": (["connected", "--n", "5"], None),
    "connected-n5-table": (
        ["connected", "--n", "5", "--format", "table"],
        None,
    ),
    "verify-all": (["verify", "--sample-size", "5", "--seed", "0"], None),
    "verify-root-bound": (
        ["verify", "--n", "3", "--suite", "root-bound"],
        None,
    ),
    "verify-d-squared-table": (
        [
            "verify",
            "--suite",
            "d-squared",
            "--sample-size",
            "2",
            "--format",
            "table",
        ],
        None,
    ),
    "triangle-readme-cone": (["triangle"], README_CONE),
    "triangle-readme-cone-table": (
        ["triangle", "--format", "table"],
        README_CONE,
    ),
    "triangle-readme-universal": (["triangle"], README_UNIVERSAL),
    "triangle-n4-cone": (["triangle"], N4_CONE),
    "triangle-far-cone": (["triangle"], FAR_CONE),
    "triangle-hom-fallback": (["triangle"], FALLBACK_CONE),
    "triangle-negative-cone": (["triangle"], NEGATIVE_CONE),
    "triangle-decimal-cone": (["triangle"], DECIMAL_CONE),
    "triangle-coprime-cone": (["triangle"], COPRIME_CONE),
    "triangle-long-denominator": (["triangle"], LONG_CONE),
    "triangle-universal-off-grid": (["triangle"], OFF_GRID_UNIVERSAL),
    "triangle-projective-source": (["triangle"], PROJECTIVE_SOURCE),
}


def run_case(argv, payload):
    """Exit code and stdout of one in-process CLI run."""
    saved = sys.stdin
    if payload is not None:
        sys.stdin = io.StringIO(json.dumps(payload))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_fixture(name):
    want = json.loads(FIXTURE.read_text())[name]
    code, out = run_case(*CASES[name])
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    recorded = {}
    for name, (argv, payload) in sorted(CASES.items()):
        code, out = run_case(argv, payload)
        recorded[name] = {"argv": argv, "exit": code, "stdout": out}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
