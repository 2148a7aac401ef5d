"""Command line front end: classification runs, verification sweeps,
and triangle construction with machine-readable output.

Exit codes: 0 for success, 1 for a failed verification or construction,
2 for usage or input errors.

The class tables that triangles and verification sweeps run on, and the
argument parser, are built once per process and reused by every request.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import islice

from .classify import (
    ClassRecord,
    classify,
    connected_coverings,
    enumerate_pairs,
)
from .cn import (
    Autoequivalence,
    check_skew_continuity,
    continuity_factor,
    natural_iso,
)
from .frobenius import (
    _end_coordinates,
    _even_generator,
    _generic_partner,
    _random_coords,
    hom_mf,  # unused here; perfbench/selftest.py checks this binding
    make_mf,
    triangle_from,
    universal_virtual_triangle,
    verify_axiom_samples,
)
from .normal_forms import is_indecomposable, normalize_pair
from .scalars import ONE, RootOfUnity


@cache
def class_table(n: int) -> tuple[ClassRecord, ...]:
    """The classes on ``n`` sheets that ``triangle`` indexes.

    Two sheets are classified in full; three and four sheets from the
    seeded sample of 60 pairs.  The table depends on ``n`` alone, so it
    is built once per process; ``classify`` itself stays uncached, so
    requests with other seeds or sample sizes leave nothing behind.
    """
    if n == 2:
        return tuple(classify(2))
    return tuple(classify(n, sample_size=60, seed=0))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    for line in _tabulate(report):
        print(line)


def _tabulate(report: dict) -> list[str]:
    lines = [f"command: {report['command']}"]
    if "elapsed_ms" in report:
        lines.append(f"elapsed: {report['elapsed_ms']} ms")
    if "classes" in report:
        lines.append(f"classes: {len(report['classes'])}")
        for rec in report["classes"]:
            s = rec["summary"]
            lines.append(
                "  sigma={sigma_pattern} tau={tau_pattern} "
                "a12={a12} b12={b12} c1/c2={c1_over_c2}".format(**s)
                if "a12" in s
                else "  " + " ".join(f"{k}={v}" for k, v in sorted(s.items()))
            )
    if "note" in report:
        lines.append(f"note: {report['note']}")
    if "suites" in report:
        for suite in report["suites"]:
            status = "pass" if suite["passed"] else "FAIL"
            lines.append(
                f"  {suite['name']}: {status} ({suite['checked']} checks)"
                + (f" - {suite['detail']}" if suite.get("detail") else "")
            )
        lines.append(
            "all passed" if report["all_passed"] else "FAILURES PRESENT"
        )
    if "triangle" in report:
        lines.append(json.dumps(report["triangle"], sort_keys=True))
        lines.append(f"contractible: {report['contractible']}")
    return lines


# ---------------------------------------------------------------------------
# verification sweeps


def sweep_anti_symmetry(limit: int = 500, seed: int = 0) -> int:
    """Pairing factors of swapped pairs multiply to 1."""
    checked = 0
    per_n = max(1, limit // 3)
    for n in (2, 3, 4):
        rng = random.Random(seed + n)
        stream = enumerate_pairs(
            n, order_bound=24, anti_compatible_only=False, rng=rng
        )
        for s, t in islice(stream, per_n):
            f1 = continuity_factor(s, t)
            f2 = continuity_factor(t, s)
            if f1 * f2 != ONE:
                raise AssertionError(
                    f"pairing factors do not cancel: {s}, {t}"
                )
            checked += 1
    return checked


def sweep_skew_law(ns=(2, 3)) -> int:
    """Constructed natural isomorphisms obey the skew sign rule."""
    checked = 0
    for n in ns:
        for s, t in enumerate_pairs(n):
            phi = natural_iso(s, t)
            if not check_skew_continuity(phi):
                raise AssertionError(f"skew law fails: {s}, {t}")
            checked += 1
    return checked


def sweep_d_squared(per_n: int = 100, seed: int = 0) -> int:
    """Both composites of the differential equal t times the identity."""
    checked = 0
    for n in (1, 2, 3):
        rng = random.Random(seed + n)
        for _ in range(per_n):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            diag = [
                RootOfUnity.primitive(12, rng.randrange(12)) for _ in range(n)
            ]
            diag[0] = ONE
            sigma = Autoequivalence(n, perm, diag)
            x = Fraction(rng.randrange(0, 48), 48)
            y = x + Fraction(rng.randrange(-48, 49), 48)
            make_mf(x, y, rng.randrange(1, n + 1), sigma)
            checked += 1
    return checked


def sweep_exactness(samples: int = 25, seed: int = 0) -> int:
    """Generic cones keep every component: ends of Z match X plus Y."""
    checked = 0
    for rec in class_table(2):
        tr = rec.triple
        rng = random.Random(seed)
        done = 0
        while done < samples:
            src = _random_coords(rng, tr.sigma.n)
            tgt = _generic_partner(rng, src, tr.sigma.n)
            if tgt is None:
                continue
            gen = _even_generator(src, tgt, tr.sigma)
            if gen.grade != 0:
                continue
            T = triangle_from(gen, tr)
            if _end_coordinates(T.Z) != _end_coordinates(T.X + T.Y):
                raise AssertionError("cone is not exact on ends")
            done += 1
            checked += 1
    return checked


def sweep_root_bound(ns=(2, 3)) -> int:
    """Normalized coefficients of indecomposable pairs stay in mu_(n!).

    Runs over every commuting pair on ``ns`` sheets with a single joint
    orbit; the stream drops the other partner object maps before it
    solves their coefficients, and each pair it yields is checked again
    here.
    """
    checked = 0
    for n in ns:
        for s, t in enumerate_pairs(
            n, anti_compatible_only=False, indecomposable_only=True
        ):
            if not is_indecomposable(s, t):
                raise AssertionError(f"decomposable pair in stream: {s}, {t}")
            # the factorial bound is checked inside the normalizer
            normalize_pair(s, t)
            checked += 1
    return checked


def sweep_axiom_samples(samples: int = 25, seed: int = 0) -> int:
    """Sampled triangulated-structure checks on every two-sheet class."""
    checked = 0
    for rec in class_table(2):
        report = verify_axiom_samples(
            rec.triple, sample_size=samples, seed=seed
        )
        if not report["all_passed"]:
            raise AssertionError("; ".join(report["failures"]))
        checked += (
            report["generic_cones"]
            + report["shared_end_cones"]
            + report["rotations"]
            + report["square_completions"]
        )
    return checked


def _ns(args) -> tuple:
    return (args.n,) if args.n is not None else (2, 3)


# suite name -> runner taking the ``verify`` arguments and returning the
# number of checks made; ``--suite`` choices and report order follow it
SUITES = {
    "anti-symmetry": lambda args: sweep_anti_symmetry(
        limit=args.sample_size * 4, seed=args.seed
    ),
    "skew-law": lambda args: sweep_skew_law(ns=_ns(args)),
    "d-squared": lambda args: sweep_d_squared(
        per_n=args.sample_size, seed=args.seed
    ),
    "exactness": lambda args: sweep_exactness(
        samples=args.sample_size, seed=args.seed
    ),
    "root-bound": lambda args: sweep_root_bound(ns=_ns(args)),
    "axiom-samples": lambda args: sweep_axiom_samples(
        samples=args.sample_size, seed=args.seed
    ),
}


def _run_suites(args) -> dict:
    wanted = SUITES if args.suite == "all" else (args.suite,)
    suites = []
    for name in wanted:
        entry = {"name": name, "passed": True, "checked": 0, "detail": ""}
        try:
            entry["checked"] = SUITES[name](args)
        except Exception as exc:
            # a failed check, or any other fault inside the suite
            entry["passed"] = False
            entry["detail"] = f"{type(exc).__name__}: {exc}"
        suites.append(entry)
    return {
        "command": "verify",
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites),
    }


# ---------------------------------------------------------------------------
# commands


# twice the largest default bound, lcm(4!, 2) = 24; the enumeration grows
# with the bound, and at 4000 a two-sheet classification takes 40 s
MAX_ORDER_BOUND = 48
# sampled classification builds every choice list in full, which does not
# finish on five or more sheets; classify and triangle take 2..4 sheets
MAX_CLASSIFIED_N = 4
# connected coverings are n classes of n-entry vectors, so time and output
# grow as n**2; at 64 the report is 235 kB
MAX_CONNECTED_N = 64
# sampled classification and the axiom-sample sweep grow faster than
# linearly in the sample size; at 1000, classify --n 4 took 16-17 s and
# verify --suite axiom-samples 23-29 s (two runs each on a shared 2-core
# machine, CPython 3.11)
MAX_SAMPLE_SIZE = 1000


class UsageError(Exception):
    """Bad arguments or payload: ``main`` prints the message, exits 2."""


def _check_sample_size(sample_size) -> None:
    if sample_size is None:
        return
    if sample_size < 1:
        raise UsageError("--sample-size must be at least 1")
    if sample_size > MAX_SAMPLE_SIZE:
        raise UsageError(
            f"--sample-size must be at most {MAX_SAMPLE_SIZE}, "
            f"not {sample_size}"
        )


def cmd_classify(args) -> int:
    if args.n < 2:
        raise UsageError(
            "classification needs at least two sheets "
            "(a single sheet admits no anti-compatible pair)"
        )
    if args.n > MAX_CLASSIFIED_N:
        raise UsageError(
            f"--n must lie in 2..{MAX_CLASSIFIED_N}, not {args.n}"
        )
    # the unsampled four-sheet stream holds over a million pairs, which
    # classify compares class by class without finishing
    if args.n == 4 and args.sample_size is None:
        raise UsageError("--n 4 requires --sample-size")
    _check_sample_size(args.sample_size)
    if args.order_bound is not None and (
        args.order_bound < 1 or args.order_bound % 2
    ):
        raise UsageError("--order-bound must be a positive even integer")
    if args.order_bound is not None and args.order_bound > MAX_ORDER_BOUND:
        raise UsageError(
            f"--order-bound must be at most {MAX_ORDER_BOUND}, "
            f"not {args.order_bound}"
        )
    t0 = time.monotonic()
    recs = classify(
        args.n,
        order_bound=args.order_bound,
        sample_size=args.sample_size,
        seed=args.seed,
    )
    report = {
        "command": "classify",
        "n": args.n,
        "classes": [rec.to_json() for rec in recs],
    }
    if args.format == "table":
        report["elapsed_ms"] = int(1000 * (time.monotonic() - t0))
    _emit(report, args.format)
    return 0


def cmd_connected(args) -> int:
    if args.n < 2:
        raise UsageError("need at least two sheets")
    if args.n > MAX_CONNECTED_N:
        raise UsageError(
            f"--n must be at most {MAX_CONNECTED_N}, not {args.n}"
        )
    recs = connected_coverings(args.n)
    report = {
        "command": "connected",
        "n": args.n,
        "classes": [rec.to_json() for rec in recs],
    }
    if not recs:
        report["note"] = (
            "no connected coverings exist on an odd number of sheets"
        )
    _emit(report, args.format)
    return 0


# p, p/q or a plain decimal, in ASCII digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")
# digits a payload rational may have in all; a sum of two of them then
# still prints within Python's 4300-digit int-to-str limit
MAX_DIGITS = 1000


def _integer(value, name: str) -> int:
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer")
    return value


def _rational(value, name: str) -> Fraction:
    """A JSON integer, or a string ``p``, ``p/q`` or a plain decimal."""
    text = str(value) if type(value) is int else value
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise TypeError(
            f"{name} must be a JSON integer or a string p, p/q or d.d"
        )
    if sum(c.isdigit() for c in text) > MAX_DIGITS:
        raise ValueError(f"{name} has more than {MAX_DIGITS} digits")
    return Fraction(text)


def _parse_object(data: dict) -> tuple[Fraction, Fraction, int]:
    return (
        _rational(data["x"], "x"),
        _rational(data["y"], "y"),
        _integer(data["sheet"], "sheet"),
    )


def cmd_triangle(args) -> int:
    try:
        payload = json.load(sys.stdin)
        if not isinstance(payload, dict):
            raise TypeError("the payload must be a JSON object")
        n = _integer(payload.get("n", 2), "n")
        if not 2 <= n <= MAX_CLASSIFIED_N:
            raise ValueError(f"n must lie in 2..{MAX_CLASSIFIED_N}, not {n}")
        recs = class_table(n)
        index = _integer(payload.get("class_index", 0), "class_index")
        if not 0 <= index < len(recs):
            raise IndexError(
                f"class_index {index} is out of range: "
                f"n={n} has {len(recs)} classes"
            )
        tr = recs[index].triple
        mode = payload.get("mode", "cone")
        source = _parse_object(payload["source"])
        if mode == "cone":
            target = _parse_object(payload["target"])
        elif mode == "universal":
            eps1 = _rational(payload["eps1"], "eps1")
            eps2 = _rational(payload["eps2"], "eps2")
        else:
            raise KeyError(f"unknown mode {mode!r}")
    except (
        KeyError,
        IndexError,
        RecursionError,
        TypeError,
        ValueError,
        ZeroDivisionError,
    ) as exc:
        raise UsageError(f"bad triangle payload: {exc}") from exc
    try:
        if mode == "cone":
            T = triangle_from(_even_generator(source, target, tr.sigma), tr)
        else:
            T = universal_virtual_triangle(source, eps1, eps2, tr)
    except ValueError as exc:
        # arguments outside a construction's domain, such as an object
        # wider than a half turn or an eps beyond its admissible range;
        # all of them come from the payload
        raise UsageError(f"bad triangle payload: {exc}") from exc
    except Exception as exc:
        print(
            f"error: construction failed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    report = {
        "command": "triangle",
        "mode": mode,
        "triangle": T.to_json(),
        "contractible": len(T.Z) == 0,
        "notes": {
            "sign_equivalent_to": (
                "the (1,1), (-1,1), -c_i normal form: flip the sign of the "
                "middle map"
            ),
        } if mode == "universal" else {},
    }
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    _check_sample_size(args.sample_size)
    # skew-law enumerates every anti-compatible pair and root-bound every
    # indecomposable commuting pair; at four sheets the first stream alone
    # is over a million pairs, and neither finishes in reasonable time
    if args.n is not None and not 2 <= args.n <= 3:
        raise UsageError(f"--n must lie in 2..3, not {args.n}")
    report = _run_suites(args)
    _emit(report, args.format)
    return 0 if report["all_passed"] else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``covercat`` parser, built on first use and then shared:
    every ``parse_args`` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="covercat",
        description=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("classify", help="classify commuting pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-bound", type=int, default=None)
    p.add_argument("--sample-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("connected", help="list connected coverings")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser(
        "triangle", help="build a triangle from a JSON payload on stdin"
    )
    common(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sample-size", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--suite", choices=(*SUITES, "all"), default="all"
    )
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
