"""Enumeration and classification of sign-twisted covering data.

A covering of the base with ``n`` sheets is presented by a pair of
commuting symmetries: an automorphism for the orientation double cover
direction and an autoequivalence for the rotation direction, required to
pair to the continuity factor ``-1``.  This module enumerates such pairs
with coefficients in a finite root-of-unity group, reduces them modulo
simultaneous conjugation ("strong isomorphism"), and packages the
surviving classes together with their skew-continuous natural
isomorphism.
"""

from __future__ import annotations

import logging
import random
from functools import lru_cache
from itertools import islice, permutations, product
from math import factorial, gcd, lcm, prod
from typing import Iterator, Optional, Sequence

from .cn import (
    Autoequivalence,
    NaturalIso,
    check_skew_continuity,
    commutes,
    conjugate_pair,
    conjugated_table,
    is_anti_compatible,
    natural_iso,
    perm_cycles,
)
from .normal_forms import _joint_orbits, enumerate_centralizer, is_good
from .scalars import MINUS_ONE, ONE, RootOfUnity, principal_root

log = logging.getLogger(__name__)


def default_order_bound(n: int) -> int:
    """The coefficient search bound: lcm(n!, 2)."""
    f = factorial(max(n, 1))
    return f * 2 // gcd(f, 2)


# ---------------------------------------------------------------------------
# enumeration


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in decreasing order (cycle types)."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def _standard_perm(partition: Sequence[int]) -> tuple[int, ...]:
    """The permutation with consecutive cycles of the given lengths."""
    table = []
    start = 1
    for length in partition:
        block = list(range(start, start + length))
        for idx in range(length):
            table.append(block[(idx + 1) % length])
        start += length
    return tuple(table)


@lru_cache(maxsize=32)
def _roots(q: int) -> tuple[RootOfUnity, ...]:
    """The ``q``-th roots of unity, ``_roots(q)[k] = exp(2*pi*i*k/q)``."""
    return tuple(RootOfUnity.primitive(q, k) for k in range(q))


@lru_cache(maxsize=16)
def _sigma_coefficient_choices(
    lengths: tuple[int, ...], q: int
) -> tuple[tuple[RootOfUnity, ...], ...]:
    """Per-orbit coefficients, reduced by the per-orbit freedom.

    ``lengths`` are the lengths of the automorphism's orbits, in orbit
    order.  Two good bases for the same automorphism differ per orbit by
    a root of unity whose order divides the orbit length, so the orbit
    constant only matters modulo that subgroup; the first orbit is
    pinned to 1 and the remaining ones additionally reduced by the
    diagonal action of the first orbit's subgroup.  The reduction runs
    on exponents mod ``q``; each kept entry reads its roots from the
    table of ``q``-th roots.  The table depends on the lengths and ``q``
    only, so it is built once and shared: callers that reorder it copy
    it first.
    """
    steps = [q // m if q % m == 0 else q for m in lengths]
    first_step, rest = steps[0], steps[1:]
    roots = _roots(q)
    out = []
    for combo in product(*(range(st) for st in rest)):
        # reduce by the diagonal rescaling allowed on the first orbit
        if any(
            tuple(((u - shift) % q) % st for u, st in zip(combo, rest))
            < combo
            for shift in range(first_step, q, first_step)
        ):
            continue
        out.append((ONE, *(roots[u] for u in combo)))
    return tuple(out)


def _valid_taus(
    sigma: Autoequivalence,
    tau_perm: Sequence[int],
    q: int,
    rng: random.Random | None = None,
    anti_compatible_only: bool = True,
) -> Iterator[Iterator[tuple[RootOfUnity, ...]]]:
    """Coefficient families for a commuting partner with a given object map.

    The commutation identity fixes the ratio of the partner's
    coefficients along each edge ``i -> sigma(i)`` to ``h_i * lam``,
    with ``h_i = sigma.coeff[tau(i)] / sigma.coeff[i]`` and one global
    ``q``-th root of unity ``lam``; going once round an orbit must
    return to the start, so ``lam ** len(orbit)`` times the product of
    ``h`` over the orbit is 1.  That leaves one free constant per orbit
    of the automorphism, a ``q``-th root of unity (the first orbit's is
    normalized away).  Yields, for each admissible ``lam`` (in increasing
    exponent order unless ``rng`` shuffles them), a lazy stream of the
    solved coefficient vectors.
    The continuity factor of every member is ``lam**-1``, so
    anti-compatibility means exactly ``lam == -1``; one probe member
    reads it for the whole family, and a family skipped that way draws
    nothing from ``rng``.

    Each joint orbit of an anti-compatible pair has even size: the
    permutation ``tau`` permutes the orbits of ``sigma`` in cycles,
    round a cycle of ``k`` orbits of length ``m`` the factors of ``h``
    telescope to 1, so the orbit conditions give ``lam**(m*k) == 1``,
    and ``lam == -1`` needs ``m*k``, the size of that joint orbit, even.
    The lemma needs ``tau`` to be a permutation: on three sheets,
    ``sigma = id`` with coefficients ``(1, -1, -1)`` and the table
    ``tau = [2, 1, 1]`` satisfy the commutation identity and pair to
    ``-1`` on the odd joint orbit ``{1, 2, 3}``; ``Autoequivalence``
    refuses that table.  So when ``tau`` has an odd joint orbit
    with ``sigma``, no family is anti-compatible and with
    ``anti_compatible_only`` none is solved.  That return comes right
    after the shuffle of the ``lam`` list, so a seeded stream draws the
    same numbers as if every family had been probed and skipped.

    All of this is integer arithmetic on exponents mod ``Q``, the lcm of
    ``q`` and the orders of ``sigma``'s coefficients, so the conditions
    are exact even when those orders do not divide ``q``; a vector's
    roots are read from the table of ``Q``-th roots.
    """
    n = sigma.n
    orbits = perm_cycles(sigma.object_map)
    Q = lcm(q, sigma.period)
    e = sigma.exponents(Q)
    h = [e[tau_perm[i] - 1] - e[i] for i in range(n)]
    holonomies = [
        (len(orbit), sum(h[i - 1] for i in orbit)) for orbit in orbits
    ]
    # the q-th roots lam are the multiples of unit mod Q, in increasing
    # order; each orbit keeps those with m * lam + hol = 0 mod Q
    unit = Q // q
    lams = list(range(0, Q, unit))
    for m, hol in holonomies:
        lams = [lam for lam in lams if (m * lam + hol) % Q == 0]
    if rng is not None:
        rng.shuffle(lams)
    if (
        anti_compatible_only
        and any(
            len(block) % 2
            for block in _joint_orbits(sigma.object_map, tuple(tau_perm))
        )
    ):
        return
    roots = _roots(Q)
    orbit_of = [0] * n
    for idx, orbit in enumerate(orbits):
        for i in orbit:
            orbit_of[i - 1] = idx

    def vector(
        starts: Sequence[int], offsets: Sequence[int]
    ) -> tuple[RootOfUnity, ...]:
        return tuple(
            roots[(starts[o] + off) % Q] for o, off in zip(orbit_of, offsets)
        )

    def vector_stream(
        offsets: list[int],
    ) -> Iterator[tuple[RootOfUnity, ...]]:
        free = []
        for _ in range(len(orbits) - 1):
            values = list(range(0, Q, unit))
            if rng is not None:
                rng.shuffle(values)
            free.append(values)
        for bases in product(*free):
            yield vector((0, *bases), offsets)

    for lam in lams:
        # exponent of each point over its orbit's first point: the sum
        # of the steps h_i + lam along the orbit before it
        offsets = [0] * n
        for orbit in orbits:
            acc = 0
            for i in orbit:
                offsets[i - 1] = acc
                acc += h[i - 1] + lam
        probe = Autoequivalence(
            n, tau_perm, vector((0,) * len(orbits), offsets)
        )
        if not commutes(sigma, probe):  # pragma: no cover
            raise AssertionError("solved family fails to commute")
        if anti_compatible_only and not is_anti_compatible(sigma, probe):
            continue
        yield vector_stream(offsets)


def enumerate_pairs(
    n: int,
    order_bound: int | None = None,
    anti_compatible_only: bool = True,
    rng: random.Random | None = None,
    indecomposable_only: bool = False,
) -> Iterator[tuple[Autoequivalence, Autoequivalence]]:
    """All commuting (and by default anti-compatible) pairs, lazily.

    The automorphism runs over one permutation per cycle type with
    orbit-constant coefficients reduced by the good-basis freedom; the
    partner runs over the centralizer of that permutation with
    coefficients solved from the commutation identity on the
    ``order_bound``-th roots of unity.  An optional random generator
    shuffles every choice level so a prefix of the stream is a spread
    sample of the space.

    With ``indecomposable_only``, partner object maps with more than one
    joint orbit are dropped before their coefficients are solved.
    Indecomposability depends on the two object maps only, so the
    unseeded stream is the indecomposable subsequence of the unfiltered
    one.  A seeded stream is not: the shorter list of partner maps
    draws other numbers from ``rng``.
    """
    if n < 2:
        log.info("no covering pairs exist for n < 2; returning empty stream")
        return
    q = order_bound if order_bound is not None else default_order_bound(n)
    if q < 1 or q % 2 != 0:
        raise ValueError("order bound must be a positive even integer")
    if anti_compatible_only and n % 2:
        # some joint orbit is odd, so no pair is anti-compatible; see
        # _valid_taus
        return

    def maybe_shuffle(items):
        # a copy: the choice tables are shared between calls
        items = list(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    for partition in maybe_shuffle(_partitions(n)):
        sigma_perm = _standard_perm(partition)
        orbits = perm_cycles(sigma_perm)
        tau_perms = [
            tau_perm
            for tau_perm in enumerate_centralizer(sigma_perm)
            if not indecomposable_only
            or len(_joint_orbits(sigma_perm, tau_perm)) == 1
        ]
        for constants in maybe_shuffle(
            _sigma_coefficient_choices(tuple(map(len, orbits)), q)
        ):
            coeff = [ONE] * n
            for orbit, c in zip(orbits, constants):
                for i in orbit:
                    coeff[i - 1] = c
            sigma = Autoequivalence(n, sigma_perm, coeff)
            for tau_perm in maybe_shuffle(tau_perms):
                for vectors in _valid_taus(
                    sigma, tau_perm, q, rng, anti_compatible_only
                ):
                    for tau_coeff in vectors:
                        yield sigma, Autoequivalence(n, tau_perm, tau_coeff)


# ---------------------------------------------------------------------------
# strong isomorphism


def _solve_conjugator(
    r: Sequence[int],
    s1: Autoequivalence,
    t1: Autoequivalence,
    s2: Autoequivalence,
    t2: Autoequivalence,
) -> Optional[Autoequivalence]:
    """Find conjugator coefficients over a fixed object permutation.

    The intertwining equations only determine coefficient quotients
    along the edges of the two object maps, up to one global scalar per
    equation; candidate scalars are the roots that close one cycle of
    each map, and a propagation over the joint graph checks the rest.
    The candidates are all such roots of unity, of any order, so the
    search is complete and not limited to a sampled subgroup.
    """
    n = s1.n
    D = [s2.coeff[r[i] - 1] / s1.coeff[i] for i in range(n)]
    E = [t2.coeff[r[i] - 1] / t1.coeff[i] for i in range(n)]

    def closing_roots(
        quotients: list[RootOfUnity], cycle: Sequence[int]
    ) -> list[RootOfUnity]:
        m = len(cycle)
        base = principal_root(
            prod((quotients[i - 1] for i in cycle), start=ONE).inverse(), m
        )
        return [base * RootOfUnity.primitive(m, j) for j in range(m)]

    ls_candidates = closing_roots(
        D, min(perm_cycles(s1.object_map), key=len)
    )
    lt_candidates = closing_roots(E, t1.orbit(1))

    for ls in ls_candidates:
        for lt in lt_candidates:
            f: list[RootOfUnity | None] = [None] * (n + 1)
            consistent = True
            for root in range(1, n + 1):
                if f[root] is not None:
                    continue
                f[root] = ONE
                stack = [root]
                while stack and consistent:
                    i = stack.pop()
                    for target, w in (
                        (s1(i), D[i - 1] * ls),
                        (t1(i), E[i - 1] * lt),
                    ):
                        value = f[i] * w
                        if f[target] is None:
                            f[target] = value
                            stack.append(target)
                        elif f[target] != value:
                            consistent = False
                            break
                if not consistent:
                    break
            if not consistent:
                continue
            rho = Autoequivalence(n, r, f[1:])
            if conjugate_pair(rho, s1, t1) == (s2, t2):
                return rho
    return None


def strongly_isomorphic(
    p1: tuple[Autoequivalence, Autoequivalence],
    p2: tuple[Autoequivalence, Autoequivalence],
) -> Optional[Autoequivalence]:
    """A conjugating automorphism between two pairs, or None.

    Searches object permutations in the transporter of both object maps
    and solves for conjugator coefficients exactly.
    """
    s1, t1 = p1
    s2, t2 = p2
    if s1.n != s2.n:
        raise ValueError("pairs live on different sizes")
    n = s1.n
    for r in permutations(range(1, n + 1)):
        if conjugated_table(r, s1.object_map) != s2.object_map:
            continue
        if conjugated_table(r, t1.object_map) != t2.object_map:
            continue
        rho = _solve_conjugator(r, s1, t1, s2, t2)
        if rho is not None:
            return rho
    return None


# ---------------------------------------------------------------------------
# classes


def _perm_pattern(table: Sequence[int]) -> str:
    if all(table[i - 1] == i for i in range(1, len(table) + 1)):
        return "id"
    parts = []
    for cyc in perm_cycles(table):
        if len(cyc) > 1:
            parts.append("(" + "".join(str(i) for i in cyc) + ")")
    return "".join(parts)


class TriangulationTriple:
    """A covering datum: a skew-continuous natural isomorphism phi.

    The pair is read off phi: ``sigma`` is its source and ``tau`` its
    target.  A triple validates itself when it is built, and every
    triangle construction in ``frobenius`` takes it whole; ``sigma`` is
    the holonomy of the matrix factorizations built on the covering.
    """

    __slots__ = ("phi",)

    def __init__(self, phi: NaturalIso):
        self.phi = phi
        self.validate()

    @property
    def sigma(self) -> Autoequivalence:
        return self.phi.source

    @property
    def tau(self) -> Autoequivalence:
        return self.phi.target

    @classmethod
    def from_pair(
        cls, sigma: Autoequivalence, tau: Autoequivalence
    ) -> "TriangulationTriple":
        return cls(natural_iso(sigma, tau))

    def validate(self) -> None:
        """Re-verify every structural invariant from scratch.

        For a commuting pair and a natural phi, skew continuity of phi is
        exactly a continuity factor of -1, that is anti-compatibility.
        Both functors are automorphisms by construction, as ``tau``, the
        shift of the triangulated structure, must be.
        """
        if not commutes(self.sigma, self.tau):
            raise ValueError("pair does not commute")
        if not self.phi.is_natural():
            raise ValueError("component vector is not natural")
        if not check_skew_continuity(self.phi):
            raise ValueError(
                "isomorphism is not skew-continuous: the pair is not "
                "anti-compatible"
            )

    def __repr__(self) -> str:
        return (
            f"TriangulationTriple(sigma={_perm_pattern(self.sigma.object_map)}, "
            f"tau={_perm_pattern(self.tau.object_map)})"
        )


class ClassRecord:
    """An isomorphism class with a canonical representative and summary."""

    __slots__ = ("triple", "count", "summary")

    def __init__(self, triple: TriangulationTriple, count: int = 1):
        self.triple = triple
        self.count = count
        sigma, tau, phi = triple.sigma, triple.tau, triple.phi
        summary = {
            "sigma_cycle_type": sorted(
                len(c) for c in perm_cycles(sigma.object_map)
            ),
            "sigma_pattern": _perm_pattern(sigma.object_map),
            "tau_pattern": _perm_pattern(tau.object_map),
            "sigma_coeff": [str(c) for c in sigma.coeff],
            "tau_coeff": [str(c) for c in tau.coeff],
            "phi_ratios": [str(c) for c in phi.c],
        }
        if sigma.n == 2:
            summary["a12"] = str(sigma.a(1, 2))
            summary["b12"] = str(tau.a(1, 2))
            summary["c1_over_c2"] = str(phi.c[0] / phi.c[1])
        self.summary = summary

    def to_json(self) -> dict:
        return {
            "sigma": self.triple.sigma.to_json(),
            "tau": self.triple.tau.to_json(),
            "phi": [str(c) for c in self.triple.phi.c],
            "count": self.count,
            "summary": self.summary,
        }

    def __repr__(self) -> str:
        return (
            f"ClassRecord({self.summary['sigma_pattern']}, "
            f"{self.summary['tau_pattern']}, count={self.count})"
        )


def _pair_sort_key(s: Autoequivalence, t: Autoequivalence):
    return (
        tuple(sorted(len(c) for c in perm_cycles(s.object_map))),
        s.object_map,
        t.object_map,
        tuple(c.exponent for c in s.coeff),
        tuple(c.exponent for c in t.coeff),
    )


def _invariant_key(s: Autoequivalence, t: Autoequivalence):
    return (
        tuple(sorted(len(c) for c in perm_cycles(s.object_map))),
        tuple(sorted(len(c) for c in perm_cycles(t.object_map))),
        tuple(
            sorted(len(b) for b in _joint_orbits(s.object_map, t.object_map))
        ),
    )


def classify(
    n: int,
    order_bound: int | None = None,
    sample_size: int | None = None,
    seed: int | None = None,
) -> list[ClassRecord]:
    """Isomorphism classes of anti-compatible pairs.

    With ``sample_size`` set, only a shuffled prefix of the enumeration
    stream is classified (the full space is far too large beyond three
    sheets); the result is then a lower bound on the class list, still
    deterministic for a fixed seed.
    """
    rng = random.Random(seed) if sample_size is not None else None
    stream = enumerate_pairs(n, order_bound, rng=rng)
    if sample_size is not None:
        stream = islice(stream, sample_size)

    classes: list[dict] = []
    by_key: dict = {}
    for sigma, tau in stream:
        key = _invariant_key(sigma, tau)
        for cls in by_key.setdefault(key, []):
            # strong isomorphism is an equivalence, so any member of the
            # class can stand for it
            if strongly_isomorphic((sigma, tau), cls["best"]) is not None:
                cls["count"] += 1
                if _pair_sort_key(sigma, tau) < _pair_sort_key(*cls["best"]):
                    cls["best"] = (sigma, tau)
                break
        else:
            cls = {"best": (sigma, tau), "count": 1}
            by_key[key].append(cls)
            classes.append(cls)

    records = []
    for cls in classes:
        triple = TriangulationTriple.from_pair(*cls["best"])
        records.append(ClassRecord(triple, cls["count"]))
    records.sort(key=lambda rec: _pair_sort_key(rec.triple.sigma, rec.triple.tau))
    return records


def connected_coverings(n: int) -> list[ClassRecord]:
    """Classes whose holonomy acts transitively on the sheets.

    Transitivity forces the automorphism to be a single ``n``-cycle with
    trivial coefficients in a good basis, and the partner's object map
    to be a power of it with the coefficient along the cycle fixed at
    ``-1``; this pins the partner's coefficients up to the sign pattern
    below, giving ``n`` classes for even ``n`` and none for odd ``n``.
    """
    if n < 2:
        return []
    if n % 2 == 1:
        return []
    perm = tuple(list(range(2, n + 1)) + [1])
    sigma = Autoequivalence(n, perm)
    # alternate signs along the cycle so each step contributes -1
    signs = [ONE if i % 2 == 0 else MINUS_ONE for i in range(n)]
    records = []
    for k in range(n):
        table = list(range(1, n + 1))
        for _ in range(k):
            table = [perm[i - 1] for i in table]
        tau = Autoequivalence(n, table, signs)
        triple = TriangulationTriple.from_pair(sigma, tau)
        if not is_good(sigma):
            raise AssertionError(f"connected covering not good: {sigma}")
        records.append(ClassRecord(triple))
    return records

