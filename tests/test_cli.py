import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from covercat import classify, cli
from covercat.normal_forms import _joint_orbits
from covercat.scalars import MonomialCoefficient, RootOfUnity


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "classify"
    assert len(report["classes"]) == 3
    patterns = [
        (c["summary"]["sigma_pattern"], c["summary"]["tau_pattern"])
        for c in report["classes"]
    ]
    assert patterns == [("id", "(12)"), ("(12)", "id"), ("(12)", "(12)")]


def test_classify_deterministic_output(capsys):
    argv = ["classify", "--n", "4", "--sample-size", "20", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_rejects_single_sheet(capsys):
    code, _, err = run(capsys, ["classify", "--n", "1"])
    assert code == 2
    assert "two sheets" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "4", "--sample-size", "-3"], "--sample-size"),
        (["--n", "2", "--sample-size", "0"], "--sample-size"),
        (["--n", "2", "--order-bound", "0"], "--order-bound"),
        (["--n", "2", "--order-bound", "-2"], "--order-bound"),
        (["--n", "2", "--order-bound", "3"], "--order-bound"),
        (["--n", "5", "--sample-size", "1"], "--n"),
        (["--n", "12"], "--n"),
        (["--n", "2", "--order-bound", "50"], "--order-bound"),
        (["--n", "2", "--order-bound", "4000"], "--order-bound"),
        (["--n", "2", "--order-bound", "100000"], "--order-bound"),
        (["--n", "3", "--order-bound", "400"], "--order-bound"),
        (["--n", "4"], "--sample-size"),
        (["--n", "4", "--order-bound", "8"], "--sample-size"),
        (["--n", "4", "--sample-size", "1001"], "--sample-size"),
        (["--n", "4", "--sample-size", "3000"], "--sample-size"),
        (["--n", "2", "--sample-size", "1001"], "--sample-size"),
    ],
)
def test_classify_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, ["classify"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_classify_table_format(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "2", "--format", "table"])
    assert code == 0
    assert "classes: 3" in out
    assert "sigma=id tau=(12)" in out


def test_connected_counts(capsys):
    code, out, _ = run(capsys, ["connected", "--n", "4"])
    assert code == 0
    assert len(json.loads(out)["classes"]) == 4
    code, out, _ = run(capsys, ["connected", "--n", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == []
    assert "odd" in report["note"]


@pytest.mark.parametrize("n", ["65", "128", "256"])
def test_connected_rejects_bad_arguments(capsys, n):
    code, out, err = run(capsys, ["connected", "--n", n])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--n" in err
    assert err.count("\n") == 1


def test_argument_limits_are_inclusive(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "2", "--order-bound", "48"])
    assert code == 0
    assert json.loads(out)["classes"]
    code, out, _ = run(capsys, ["connected", "--n", "64"])
    assert code == 0
    assert len(json.loads(out)["classes"]) == 64
    code, out, _ = run(
        capsys, ["classify", "--n", "2", "--sample-size", "1000"]
    )
    assert code == 0
    assert json.loads(out)["classes"]
    code, out, _ = run(
        capsys, ["verify", "--suite", "skew-law", "--sample-size", "1000"]
    )
    assert code == 0
    assert json.loads(out)["all_passed"]


def test_connected_matches_classify_subset(capsys):
    code, out, _ = run(capsys, ["connected", "--n", "2"])
    conn = json.loads(out)["classes"]
    code, out, _ = run(capsys, ["classify", "--n", "2"])
    full = json.loads(out)["classes"]
    cycles = [
        c for c in full if c["summary"]["sigma_pattern"] == "(12)"
    ]
    assert len(conn) == len(cycles) == 2


def test_usage_error_exit_code(capsys):
    assert cli.main(["classify"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_triangle_cone_payload(capsys, monkeypatch):
    payload = json.dumps(
        {
            "class_index": 0,
            "source": {"x": "1/4", "y": "1/2", "sheet": 1},
            "target": {"x": "1/4", "y": "3/4", "sheet": 1},
        }
    )
    code, out, _ = run(capsys, ["triangle"], payload, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["triangle"]["Z"] == [
        {"x": "3/2", "y": "3/4", "sheet": 1}
    ]
    assert not report["contractible"]
    assert report["notes"] == {}


def test_triangle_identity_is_contractible(capsys, monkeypatch):
    payload = json.dumps(
        {
            "source": {"x": "1/4", "y": "1/2", "sheet": 1},
            "target": {"x": "1/4", "y": "1/2", "sheet": 1},
        }
    )
    code, out, _ = run(capsys, ["triangle"], payload, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["contractible"]
    assert report["triangle"]["Z"] == []


def test_triangle_universal_payload(capsys, monkeypatch):
    payload = json.dumps(
        {
            "mode": "universal",
            "class_index": 2,
            "source": {"x": "1/4", "y": "1/2", "sheet": 1},
            "eps1": "1/8",
            "eps2": "1/3",
        }
    )
    code, out, _ = run(capsys, ["triangle"], payload, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["triangle"]["Z"] == [
        {"x": "11/8", "y": "11/12", "sheet": 1}
    ]
    assert "sign_equivalent_to" in report["notes"]


def cone_payload(shift):
    """The cone of ``test_triangle_cone_payload`` moved by ``shift``."""

    def obj(x, y):
        x, y = shift + Fraction(x), shift + Fraction(y)
        return {"x": str(x), "y": str(y), "sheet": 1}

    return json.dumps(
        {
            "class_index": 0,
            "source": obj("1/4", "1/2"),
            "target": obj("1/4", "3/4"),
        }
    )


def test_triangle_far_out_coordinates(capsys, monkeypatch):
    # a whole number of periods (two half-turn units each) changes nothing;
    # the turn count is taken in closed form, so 10**6 units take no longer
    # than a few
    _, near, _ = run(capsys, ["triangle"], cone_payload(0), monkeypatch)
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "covercat.cli", "triangle"],
        input=cone_payload(10**6),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == near
    odd = cone_payload(10**6 + 1)
    code, out, _ = run(capsys, ["triangle"], odd, monkeypatch)
    assert code == 0
    assert out == run(capsys, ["triangle"], cone_payload(-1), monkeypatch)[1]


# payloads that ``triangle`` must refuse with exit 2; the reach test
# (``test_reach.py``) sends them too
BAD_TRIANGLE_PAYLOADS = [
    "not json",
    "{}",
    '{"source": {"x": "1/4"}}',
    '{"mode": "nope", "source": {"x": "0", "y": "0", "sheet": 1}}',
    '{"source": {"x": "0", "y": "1/2", "sheet": 9}}',
    "[]",
    '{"class_index": -1, "source": {"x": "0", "y": "1/2", "sheet": 1}}',
    '{"source": {"x": 1e999, "y": "0", "sheet": 1}}',
    '{"n": 12, "source": {"x": "1/4", "y": "1/2", "sheet": 1}}',
    '{"n": 5, "source": {"x": "1/4", "y": "1/2", "sheet": 1}}',
    # three sheets have no classes; two sheets have three
    '{"n": 3, "class_index": 0,'
    ' "source": {"x": "1/4", "y": "1/2", "sheet": 1},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    '{"n": 2, "class_index": 3,'
    ' "source": {"x": "1/4", "y": "1/2", "sheet": 1},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    '{"mode": "universal", "source": {"x": "1/4", "y": "1/2", "sheet": 1},'
    ' "eps1": "2", "eps2": "1/3"}',
    # integer fields that are not JSON integers, once truncated
    '{"source": {"x": "1/4", "y": "1/2", "sheet": 1.5},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    '{"source": {"x": "1/4", "y": "1/2", "sheet": true},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    '{"class_index": 1.9, "source": {"x": "1/4", "y": "1/2", "sheet": 1},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    '{"n": 2.7, "source": {"x": "1/4", "y": "1/2", "sheet": 1},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    # a JSON float would decide the point by its binary expansion
    '{"source": {"x": 0.1, "y": "1/2", "sheet": 1},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    '{"mode": "universal", "class_index": 2,'
    ' "source": {"x": "1/4", "y": "1/2", "sheet": 1},'
    ' "eps1": 0.125, "eps2": "1/3"}',
    # parsed once, then too long to print
    '{"source": {"x": "1e-5000", "y": "1/2", "sheet": 1},'
    ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}',
    pytest.param("[" * 100000, id="nested-beyond-recursion-limit"),
    pytest.param(
        json.dumps(
            {
                "mode": "universal",
                "class_index": 2,
                "source": {
                    "x": "1/4",
                    "y": f"{(10**2999 + 1) // 2}/{10**2999 + 1}",
                    "sheet": 1,
                },
                "eps1": f"1/{10**2999 + 3}",
                "eps2": "1/3",
            }
        ),
        id="digits-beyond-limit",
    ),
]


@pytest.mark.parametrize("payload", BAD_TRIANGLE_PAYLOADS)
def test_triangle_bad_payloads(capsys, monkeypatch, payload):
    code, _, err = run(capsys, ["triangle"], payload, monkeypatch)
    assert code == 2
    assert "bad triangle payload" in err


@pytest.mark.parametrize(
    "n, index, count", [(3, 0, 0), (2, 3, 3), (2, -1, 3)]
)
def test_triangle_class_index_out_of_range(
    capsys, monkeypatch, n, index, count
):
    payload = json.loads(cone_payload(0))
    payload.update(n=n, class_index=index)
    code, out, err = run(
        capsys, ["triangle"], json.dumps(payload), monkeypatch
    )
    assert (code, out) == (2, "")
    assert f"class_index {index} is out of range: " in err
    assert f"n={n} has {count} classes" in err


def test_class_table_is_built_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    cli.class_table.cache_clear()
    monkeypatch.setattr(cli, "classify", counted)
    for payload in (cone_payload(0), cone_payload(2)):
        assert run(capsys, ["triangle"], payload, monkeypatch)[0] == 0
    for suite in ("exactness", "axiom-samples"):
        argv = ["verify", "--suite", suite, "--sample-size", "2"]
        assert run(capsys, argv)[0] == 0
    assert calls == [(2,)]


def test_class_tables_match_fresh_classification():
    cli.class_table.cache_clear()
    fresh = {
        2: classify(2),
        4: classify(4, sample_size=60, seed=0),
    }
    for n, recs in fresh.items():
        table = cli.class_table(n)
        assert isinstance(table, tuple)
        assert [r.to_json() for r in table] == [r.to_json() for r in recs]
        assert cli.class_table(n) is table


def test_n4_cone_is_repeatable_in_one_process(capsys, monkeypatch):
    golden = Path(__file__).with_name("golden_cli.json")
    want = json.loads(golden.read_text())["triangle-n4-cone"]["stdout"]
    payload = json.dumps(
        {
            "n": 4,
            "class_index": 1,
            "source": {"x": "1/4", "y": "1/2", "sheet": 2},
            "target": {"x": "1/4", "y": "3/4", "sheet": 2},
        }
    )
    cli.class_table.cache_clear()
    first = run(capsys, ["triangle"], payload, monkeypatch)
    second = run(capsys, ["triangle"], payload, monkeypatch)
    assert first == second == (0, want, "")


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once; each call must still start from defaults
    assert cli.build_parser() is cli.build_parser()
    scoped = ["verify", "--n", "3", "--suite", "root-bound"]
    code, out, _ = run(capsys, scoped)
    assert code == 0 and json.loads(out)["suites"][0]["checked"] == 225
    code, out, _ = run(capsys, ["verify", "--suite", "root-bound"])
    # --n defaults to both 2 and 3 sheets again: 8 + 225 checks
    assert code == 0 and json.loads(out)["suites"][0]["checked"] == 233
    code, out, err = run(capsys, ["verify", "--suite", "no-such-suite"])
    assert (code, out) == (2, "") and "invalid choice" in err
    code, out, _ = run(capsys, ["classify", "--n", "2"])
    assert code == 0 and len(json.loads(out)["classes"]) == 3


def test_triangle_huge_exponent_rejected_quickly():
    # Fraction("1e-999999999") would build a billion-digit power of ten
    payload = (
        '{"source": {"x": "1e-999999999", "y": "1/2", "sheet": 1},'
        ' "target": {"x": "1/4", "y": "3/4", "sheet": 1}}'
    )
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "covercat.cli", "triangle"],
        input=payload,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=10,
    )
    assert proc.returncode == 2
    assert "bad triangle payload" in proc.stderr


def test_triangle_exact_coordinate_forms(capsys, monkeypatch):
    # JSON integers and plain decimals name the same points as p/q strings
    def payload(x, y, tx, ty):
        return json.dumps(
            {
                "source": {"x": x, "y": y, "sheet": 1},
                "target": {"x": tx, "y": ty, "sheet": 1},
            }
        )

    want = run(
        capsys, ["triangle"], payload("2", "9/4", "2", "5/2"), monkeypatch
    )
    assert want[0] == 0
    for same in (
        payload(2, "2.25", "2.0", "2.5"),
        payload("-0", "0.25", 0, "1/2"),
    ):
        assert run(capsys, ["triangle"], same, monkeypatch) == want
    # exactly the digit limit is accepted
    limit = "1/" + "9" * (cli.MAX_DIGITS - 1)
    code, _, _ = run(
        capsys, ["triangle"], payload("0", limit, "0", "1/2"), monkeypatch
    )
    assert code == 0


def test_triangle_cone_is_read_in_the_payload_coordinates(
    capsys, monkeypatch
):
    # on class 0 (sigma = id) M(-1/2, -3/4, 1) and M(-1/4, -3/4, 1) are
    # the flips of the README cone's M(1/4, 1/2, 1) and M(1/4, 3/4, 1):
    # the same objects, written the other way round
    def payload(source, target):
        return json.dumps(
            {
                "class_index": 0,
                "source": {"x": source[0], "y": source[1], "sheet": 1},
                "target": {"x": target[0], "y": target[1], "sheet": 1},
            }
        )

    readme = run(
        capsys, ["triangle"], payload(("1/4", "1/2"), ("1/4", "3/4")),
        monkeypatch,
    )
    assert readme[0] == 0
    both = payload(("-1/2", "-3/4"), ("-1/4", "-3/4"))
    assert run(capsys, ["triangle"], both, monkeypatch) == readme
    # flipping the source alone picks the other generator: in the
    # payload's coordinates it takes [x - 1] = [-3/2] to [-3/4], outside
    # the support window, so f is stably zero and Z is X (+) Y
    code, out, _ = run(
        capsys, ["triangle"], payload(("-1/2", "-3/4"), ("1/4", "3/4")),
        monkeypatch,
    )
    assert code == 0
    want, T = json.loads(readme[1])["triangle"], json.loads(out)["triangle"]
    assert (T["X"], T["Y"]) == (want["X"], want["Y"])
    assert T["f"]["components"] == []
    assert T["Z"] == T["X"] + T["Y"]


def test_triangle_construction_fault_exits_1(capsys, monkeypatch):
    def faulty(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(cli, "triangle_from", faulty)
    code, out, err = run(
        capsys, ["triangle"], cone_payload(0), monkeypatch
    )
    assert code == 1
    assert out == ""
    assert "construction failed: ZeroDivisionError: injected" in err


def test_triangle_true_sum_is_a_failed_construction(capsys, monkeypatch):
    # a sum that no monomial holds, of two roots or of two u-powers, is
    # the library's failure, not a bad payload: exit 1, although
    # ArithmeticError is no ValueError
    z3 = RootOfUnity.primitive(3)
    cases = [
        (
            MonomialCoefficient.from_root(z3),
            MonomialCoefficient.from_root(z3 ** 2),
            "1*z(1/3) + 1*z(2/3)",
        ),
        (
            MonomialCoefficient.one(),
            MonomialCoefficient.t(),
            "MonomialCoefficient(Cyclotomic(1*z(0/1)), u**0) + "
            "MonomialCoefficient(Cyclotomic(1*z(0/1)), u**2)",
        ),
    ]
    for a, b, named in cases:
        monkeypatch.setattr(cli, "triangle_from", lambda *args: a + b)
        code, out, err = run(
            capsys, ["triangle"], cone_payload(0), monkeypatch
        )
        assert code == 1
        assert out == ""
        assert (
            f"construction failed: ArithmeticError: not a monomial: {named}"
        ) in err


def test_verify_all_suites(capsys):
    code, out, _ = run(capsys, ["verify", "--sample-size", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"]
    assert [s["name"] for s in report["suites"]] == list(cli.SUITES)
    assert all(s["checked"] > 0 for s in report["suites"])


def test_verify_single_suite_scoped(capsys):
    code, out, _ = run(
        capsys, ["verify", "--n", "3", "--suite", "root-bound"]
    )
    assert code == 0
    report = json.loads(out)
    assert [s["name"] for s in report["suites"]] == ["root-bound"]
    assert report["suites"][0]["checked"] == 225


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "-3", "--suite", "skew-law"], "--n"),
        (["--n", "0", "--suite", "root-bound"], "--n"),
        (["--n", "4", "--suite", "root-bound"], "--n"),
        (["--n", "4", "--suite", "skew-law"], "--n"),
        (["--suite", "exactness", "--sample-size", "0"], "--sample-size"),
        (["--suite", "exactness", "--sample-size", "-1"], "--sample-size"),
        (["--sample-size", "0"], "--sample-size"),
        (["--sample-size", "1001"], "--sample-size"),
        (["--suite", "axiom-samples", "--sample-size", "1001"],
         "--sample-size"),
        (["--suite", "skew-law", "--sample-size", "100000"], "--sample-size"),
    ],
)
def test_verify_rejects_bad_arguments(capsys, argv, message):
    # each of these once reported all_passed with zero checks, or (at
    # n=4) enumerated over a million pairs without finishing
    code, out, err = run(capsys, ["verify"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def _negate_first_of_each_pair(original):
    """A continuity factor that is wrong on every other call.

    The anti-symmetry sweep asks for the factors of (s, t) and (t, s) in
    turn, so the first of each pair comes back negated.
    """
    calls = []

    def faulty(s, t):
        calls.append(None)
        f = original(s, t)
        return -f if len(calls) % 2 else f

    return faulty


def test_root_bound_solves_only_indecomposable_maps(monkeypatch):
    # the sweep checks indecomposable pairs only, so the stream must not
    # solve coefficients for a decomposable pair of object maps
    enumeration = importlib.import_module("covercat.classify")
    valid_taus = enumeration._valid_taus
    solved = []

    def recording(sigma, tau_perm, *args):
        solved.append((sigma, tau_perm))
        return valid_taus(sigma, tau_perm, *args)

    monkeypatch.setattr(enumeration, "_valid_taus", recording)
    assert cli.sweep_root_bound() == 233
    assert solved
    for sigma, tau_perm in solved:
        assert len(_joint_orbits(sigma.object_map, tau_perm)) == 1


def test_skew_law_probes_no_odd_joint_orbit(monkeypatch):
    # no family with an odd joint orbit can be anti-compatible, so the
    # anti-compatible stream must not build a probe partner for one
    enumeration = importlib.import_module("covercat.classify")
    commutes = enumeration.commutes
    probed = []

    def recording(sigma, probe):
        probed.append((sigma.object_map, probe.object_map))
        return commutes(sigma, probe)

    monkeypatch.setattr(enumeration, "commutes", recording)
    assert cli.sweep_skew_law() == 4
    assert probed
    for smap, tmap in probed:
        blocks = _joint_orbits(smap, tmap)
        assert all(len(block) % 2 == 0 for block in blocks)


def test_verify_fault_injection_fails(capsys, monkeypatch):
    # the sweep calls the factor through the binding in cli's namespace
    monkeypatch.setattr(
        cli,
        "continuity_factor",
        _negate_first_of_each_pair(cli.continuity_factor),
    )
    code, out, _ = run(
        capsys,
        ["verify", "--suite", "anti-symmetry", "--sample-size", "3"],
    )
    assert code == 1
    report = json.loads(out)
    assert not report["all_passed"]
    assert "cancel" in report["suites"][0]["detail"]


def test_verify_suite_exception_is_a_failure(capsys, monkeypatch):
    # not only a failed check: any exception fails its suite alone
    def broken(s, t):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(cli, "continuity_factor", broken)
    argv = ["verify", "--suite", "anti-symmetry", "--sample-size", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["suites"] == [
        {
            "name": "anti-symmetry",
            "passed": False,
            "checked": 0,
            "detail": "ZeroDivisionError: injected",
        }
    ]


FAULTY_VERIFY = """
import sys
from covercat import cli
from tests.test_cli import _negate_first_of_each_pair

cli.continuity_factor = _negate_first_of_each_pair(cli.continuity_factor)
argv = ["verify", "--suite", "anti-symmetry", "--sample-size", "3"]
sys.exit(cli.main(argv))
"""


def test_verify_fault_detected_under_optimize():
    # checks must not be assert statements, which -O strips
    root = Path(__file__).resolve().parents[1]
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(root), str(src), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_VERIFY],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert not report["all_passed"]
    assert "cancel" in report["suites"][0]["detail"]


def test_golden_cases_match_under_optimize():
    # every recorded CLI case gives the same exit code and stdout with
    # assert statements stripped, each in its own ``python -O`` process
    from test_golden_cli import CASES, FIXTURE

    want = json.loads(FIXTURE.read_text())
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for name, (argv, payload) in sorted(CASES.items()):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "covercat.cli", *argv],
            input="" if payload is None else json.dumps(payload),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == want[name]["exit"], (name, proc.stderr)
        assert proc.stdout == want[name]["stdout"], name
