"""Seeded request generators and per-request output checks.

A workload yields *rounds*: lists of requests, each a CLI ``argv`` and
the text fed to stdin.  The closed loop in ``run.py`` stops only at a
round boundary, so every run holds whole rounds and the mix of request
kinds is the same on every seed.  Every input is drawn from the seed
the benchmark is given; the program receives only the generated argv
and payloads.

Checks read the CLI's JSON output and compare it with facts known from
the inputs alone (end coordinates, counts, pass flags), never with a
second run of the library.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

DENOM = 48  # coordinates are multiples of 1/48, as in the library's sampler


class CheckFailed(Exception):
    pass


def _coord(k: int) -> Fraction:
    return Fraction(k, DENOM)


def _obj(x: Fraction, y: Fraction, sheet: int) -> dict:
    return {"x": str(x), "y": str(y), "sheet": sheet}


def _ends(x: Fraction, y: Fraction) -> list[Fraction]:
    """End coordinates of M(x, y, i) on the double cover: x-1 and y, mod 2."""
    return [(x - 1) % 2, y % 2]


def _ends_of(objs: list[dict]) -> list[Fraction]:
    return sorted(
        e for o in objs for e in _ends(Fraction(o["x"]), Fraction(o["y"]))
    )


def _parse(reply: dict) -> dict:
    if reply["exc"] is not None:
        raise CheckFailed(f"exception escaped main: {reply['exc']}")
    if reply["code"] != 0:
        raise CheckFailed(f"exit code {reply['code']}: {reply['err'].strip()}")
    return json.loads(reply["out"])


# ---------------------------------------------------------------------------
# triangles


def _source(rng: random.Random) -> tuple[Fraction, Fraction]:
    """M(x, y) with |y - x| < 1, so it is not projective-injective."""
    x = _coord(rng.randrange(DENOM))
    return x, x + _coord(rng.randrange(-(DENOM - 1), DENOM))


def _generic_target(rng, x, y):
    """A target strictly inside the support window of M(x, y), sharing no
    end, or None when 50 draws find none (the window can be too narrow)."""
    own = set(_ends(x, y))
    for _ in range(50):
        x2 = x + _coord(rng.randrange(1, DENOM))
        y2 = y + _coord(rng.randrange(1, DENOM))
        if not (x < x2 < y + 1 and y < y2 < x + 1 and abs(y2 - x2) < 1):
            continue
        if own.isdisjoint(_ends(x2, y2)):
            return x2, y2
    return None


def _triangle_request(rng: random.Random, kind: str) -> dict:
    while True:
        x, y = _source(rng)
        if kind == "universal":
            # leave room for eps1 and eps2 on the grid
            if abs(y - x) <= 1 - _coord(2):
                break
        else:
            target = _generic_target(rng, x, y)
            if target is not None:
                break
    sheet = rng.randrange(1, 3)
    payload = {"class_index": rng.randrange(3), "source": _obj(x, y, sheet)}
    if kind == "universal":
        # admissible ranges: 0 < eps1 < y + 1 - x and 0 < eps2 < x + 1 - y
        eps1 = _coord(rng.randrange(1, int((y + 1 - x) * DENOM)))
        eps2 = _coord(rng.randrange(1, int((x + 1 - y) * DENOM)))
        payload.update(mode="universal", eps1=str(eps1), eps2=str(eps2))
        expect = _ends(y + 1 - eps1, x + 1 - eps2)
    else:
        x2, y2 = target
        if kind == "shared":
            x2 = x  # share the negative end with the source
        payload["target"] = _obj(x2, y2, rng.randrange(1, 3))
        expect = sorted(_ends(x, y) + _ends(x2, y2))
    return {
        "argv": ["triangle"],
        "stdin": json.dumps(payload),
        "kind": kind,
        "expect_ends": [str(e) for e in sorted(expect)],
    }


def _check_triangle(request: dict, reply: dict) -> int:
    z = _parse(reply)["triangle"]["Z"]
    kind = request["kind"]
    want = {"generic": 2, "shared": 1, "universal": 1}[kind]
    if len(z) != want:
        raise CheckFailed(f"{kind} cone has {len(z)} components, want {want}")
    if kind != "shared":
        got = [str(e) for e in _ends_of(z)]
        if got != request["expect_ends"]:
            raise CheckFailed(
                f"{kind} cone ends {got} != {request['expect_ends']}"
            )
    return 1


# ---------------------------------------------------------------------------
# classify

CLASSIFY_N = 4
CLASSIFY_SAMPLE = 20


def _check_classify(request: dict, reply: dict) -> int:
    classes = _parse(reply)["classes"]
    total = sum(c["count"] for c in classes)
    if not classes or total != CLASSIFY_SAMPLE:
        raise CheckFailed(f"class counts sum to {total}, want {CLASSIFY_SAMPLE}")
    return total


# ---------------------------------------------------------------------------
# verify

# Sample sizes per suite, chosen so each request costs a similar amount
# (about 0.1 s, root-bound and axiom-samples a few times that); with one
# shared sample size the six suites span three orders of magnitude and
# the median would jump between them.  skew-law and root-bound ignore it.
VERIFY_SAMPLES = {
    "anti-symmetry": 20,
    "skew-law": 1,
    "d-squared": 60,
    "exactness": 1,
    "root-bound": 1,
    "axiom-samples": 1,
}


def _check_verify(request: dict, reply: dict) -> int:
    report = _parse(reply)
    suites = report["suites"]
    if not report["all_passed"] or [s["name"] for s in suites] != [
        request["kind"]
    ]:
        raise CheckFailed(f"verify report failed: {reply['out'][:200]}")
    return suites[0]["checked"]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A seeded stream of request rounds with its output check.

    A traced run serves ``trace_rounds_per_s`` rounds per second of
    ``--seconds`` (at least one), a fixed count so its layer counts
    repeat exactly for a given seed.
    """

    def __init__(self, name, work_unit, rounds, check, trace_rounds_per_s):
        self.name = name
        self.work_unit = work_unit
        self.rounds = rounds
        self.check = check
        self.trace_rounds_per_s = trace_rounds_per_s

    def trace_rounds(self, seconds: int) -> int:
        return max(1, round(seconds * self.trace_rounds_per_s))


def _triangle_rounds(rng: random.Random):
    kinds = ["generic"] * 5 + ["shared"] * 2 + ["universal"]
    while True:
        rng.shuffle(kinds)
        yield [_triangle_request(rng, kind) for kind in kinds]


# The cost of one sampled classification is heavy-tailed in its sample
# seed (at n=4, S=20: median 0.3 s, a sixth of the seeds take 1-7 s,
# where the sampler materializes large choice lists), and one request's
# time varies by a third from run to run on a shared machine.  A run
# cannot average fresh draws, so every round classifies the same pool
# of sample seeds, in an order drawn from the run's seed, and a run
# holds several rounds.
CLASSIFY_POOL = range(10)


def _classify_rounds(rng: random.Random):
    pool = list(CLASSIFY_POOL)
    while True:
        rng.shuffle(pool)
        yield [
            {
                "argv": [
                    "classify", "--n", str(CLASSIFY_N),
                    "--sample-size", str(CLASSIFY_SAMPLE), "--seed", str(k),
                ],
                "stdin": "",
                "kind": f"seed{k}",
            }
            for k in pool
        ]


def _verify_rounds(rng: random.Random):
    suites = list(VERIFY_SAMPLES)
    while True:
        rng.shuffle(suites)
        yield [
            {
                "argv": [
                    "verify", "--suite", s,
                    "--sample-size", str(VERIFY_SAMPLES[s]),
                    "--seed", str(rng.randrange(10**6)),
                ],
                "stdin": "",
                "kind": s,
            }
            for s in suites
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "triangles",
            "triangles", _triangle_rounds, _check_triangle,
            trace_rounds_per_s=1.0,
        ),
        Workload(
            "classify",
            "pairs", _classify_rounds, _check_classify,
            trace_rounds_per_s=0.0,  # one round: it already takes seconds
        ),
        Workload(
            "verify",
            "checks", _verify_rounds, _check_verify,
            trace_rounds_per_s=0.25,
        ),
    )
}
