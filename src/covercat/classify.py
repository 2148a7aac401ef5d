"""Enumeration and classification of sign-twisted covering data.

A covering of the base with ``n`` sheets is presented by a pair of
commuting symmetries: an automorphism for the orientation double cover
direction and an autoequivalence for the rotation direction, required to
pair to the continuity factor ``-1``.  This module enumerates such pairs
with coefficients in a finite root-of-unity group, reduces them modulo
simultaneous conjugation ("strong isomorphism"), and packages the
surviving classes together with their skew-continuous natural
isomorphism and the duality that swaps the two directions.
"""

from __future__ import annotations

import logging
import random
from itertools import islice, permutations, product
from math import factorial, gcd, prod
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
from .normal_forms import (
    enumerate_centralizer,
    is_good,
    sigma_tau_orbits,
)
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


def _sigma_coefficient_choices(
    orbits: Sequence[tuple[int, ...]], q: int
) -> list[tuple[RootOfUnity, ...]]:
    """Per-orbit coefficients, reduced by the per-orbit freedom.

    Two good bases for the same automorphism differ per orbit by a root
    of unity whose order divides the orbit length, so the orbit constant
    only matters modulo that subgroup; the first orbit is pinned to 1
    and the remaining ones additionally reduced by the diagonal action
    of the first orbit's subgroup.
    """
    sizes = [len(o) for o in orbits]

    def step(m: int) -> int:
        return q // m if q % m == 0 else q

    ranges = [range(step(m)) for m in sizes[1:]]
    first_step = step(sizes[0])
    out = []
    diag_shifts = (
        range(1, q // first_step) if q % first_step == 0 else range(0)
    )
    for combo in product(*ranges):
        # reduce by the diagonal rescaling allowed on the first orbit
        canonical = True
        for j in diag_shifts:
            shift = j * first_step
            reduced = tuple(
                ((u - shift) % q) % step(m)
                for u, m in zip(combo, sizes[1:])
            )
            if reduced < combo:
                canonical = False
                break
        if not canonical:
            continue
        out.append(
            (ONE,) + tuple(RootOfUnity.primitive(q, u) for u in combo)
        )
    return out


def _tau_coefficients(
    sigma: Autoequivalence,
    orbits: Sequence[tuple[int, ...]],
    steps: Sequence[RootOfUnity],
    bases: Sequence[RootOfUnity],
) -> tuple[RootOfUnity, ...]:
    coeff = [ONE] * sigma.n
    for orbit, value in zip(orbits, (ONE, *bases)):
        i = orbit[0]
        for _ in range(len(orbit)):
            coeff[i - 1] = value
            value = value * steps[i - 1]
            i = sigma(i)
    return tuple(coeff)


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
    normalized away).  Yields, for each admissible ``lam``, a lazy
    stream of the solved coefficient vectors.  Anti-compatibility does
    not depend on the free constants, so one probe member decides it
    for the whole family; a family skipped that way draws nothing from
    ``rng``.
    """
    n = sigma.n
    orbits = perm_cycles(sigma.object_map)
    h = [sigma.coeff[tau_perm[i] - 1] / sigma.coeff[i] for i in range(n)]
    holonomies = [
        (len(orbit), prod((h[i - 1] for i in orbit), start=ONE))
        for orbit in orbits
    ]
    roots = [RootOfUnity.primitive(q, k) for k in range(q)]
    lams = [
        lam
        for lam in roots
        if all((lam ** m * hol).is_one() for m, hol in holonomies)
    ]
    if rng is not None:
        rng.shuffle(lams)

    def vector_stream(
        steps: list[RootOfUnity],
    ) -> Iterator[tuple[RootOfUnity, ...]]:
        free = []
        for _ in range(len(orbits) - 1):
            values = list(roots)
            if rng is not None:
                rng.shuffle(values)
            free.append(values)
        for bases in product(*free):
            yield _tau_coefficients(sigma, orbits, steps, bases)

    for lam in lams:
        steps = [c * lam for c in h]
        probe = Autoequivalence(
            n,
            tau_perm,
            _tau_coefficients(sigma, orbits, steps, [ONE] * (len(orbits) - 1)),
        )
        if not commutes(sigma, probe):  # pragma: no cover
            raise AssertionError("solved family fails to commute")
        if anti_compatible_only and not is_anti_compatible(sigma, probe):
            continue
        yield vector_stream(steps)


def enumerate_pairs(
    n: int,
    order_bound: int | None = None,
    anti_compatible_only: bool = True,
    rng: random.Random | None = None,
) -> Iterator[tuple[Autoequivalence, Autoequivalence]]:
    """All commuting (and by default anti-compatible) pairs, lazily.

    The automorphism runs over one permutation per cycle type with
    orbit-constant coefficients reduced by the good-basis freedom; the
    partner runs over the centralizer of that permutation with
    coefficients solved from the commutation identity on the
    ``order_bound``-th roots of unity.  An optional random generator
    shuffles every choice level so a prefix of the stream is a spread
    sample of the space.
    """
    if n < 2:
        log.info("no covering pairs exist for n < 2; returning empty stream")
        return
    q = order_bound if order_bound is not None else default_order_bound(n)
    if q < 1 or q % 2 != 0:
        raise ValueError("order bound must be a positive even integer")

    def maybe_shuffle(items):
        items = list(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    for partition in maybe_shuffle(_partitions(n)):
        sigma_perm = _standard_perm(partition)
        orbits = perm_cycles(sigma_perm)
        for constants in maybe_shuffle(
            _sigma_coefficient_choices(orbits, q)
        ):
            coeff = [ONE] * n
            for orbit, c in zip(orbits, constants):
                for i in orbit:
                    coeff[i - 1] = c
            sigma = Autoequivalence(n, sigma_perm, coeff)
            for tau_perm in maybe_shuffle(enumerate_centralizer(sigma_perm)):
                for vectors in _valid_taus(
                    sigma, tau_perm, q, rng, anti_compatible_only
                ):
                    for tau_coeff in vectors:
                        yield sigma, Autoequivalence(n, tau_perm, tau_coeff)


# ---------------------------------------------------------------------------
# strong isomorphism


def _functional_cycle(table: Sequence[int]) -> list[int]:
    """A cycle inside the functional graph of an object map (1-based)."""
    seen: dict[int, int] = {}
    i, steps = 1, 0
    while i not in seen:
        seen[i] = steps
        i = table[i - 1]
        steps += 1
    cycle = [i]
    j = table[i - 1]
    while j != i:
        cycle.append(j)
        j = table[j - 1]
    return cycle


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
    lt_candidates = closing_roots(E, _functional_cycle(t1.object_map))

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
    if len(set(table)) == len(table):
        parts = []
        for cyc in perm_cycles(table):
            if len(cyc) > 1:
                parts.append("(" + "".join(str(i) for i in cyc) + ")")
        return "".join(parts)
    return "[" + ",".join(str(v) for v in table) + "]"


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
        """
        if not commutes(self.sigma, self.tau):
            raise ValueError("pair does not commute")
        if not self.sigma.is_automorphism():
            raise ValueError("sigma must be an automorphism")
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
    tau_shape = tuple(
        sorted(len(c) for c in perm_cycles(t.object_map))
    ) if t.is_automorphism() else tuple(sorted(set(t.object_map)))
    return (
        tuple(sorted(len(c) for c in perm_cycles(s.object_map))),
        tau_shape,
        tuple(sorted(len(b) for b in sigma_tau_orbits(s, t))),
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
        placed = False
        for cls in by_key.setdefault(key, []):
            if strongly_isomorphic((sigma, tau), cls["rep"]) is not None:
                cls["count"] += 1
                if _pair_sort_key(sigma, tau) < _pair_sort_key(*cls["best"]):
                    cls["best"] = (sigma, tau)
                placed = True
                break
        if not placed:
            cls = {"rep": (sigma, tau), "best": (sigma, tau), "count": 1}
            by_key[key].append(cls)
            classes.append(cls)

    records = []
    for cls in classes:
        triple = TriangulationTriple.from_pair(*cls["best"])
        records.append(ClassRecord(triple, cls["count"]))
    records.sort(key=lambda rec: _pair_sort_key(rec.triple.sigma, rec.triple.tau))
    return records


def dual_triple(t: TriangulationTriple) -> TriangulationTriple:
    """Swap the two symmetry directions and invert the isomorphism."""
    if not t.tau.is_automorphism():
        raise ValueError("duality requires an invertible second functor")
    return TriangulationTriple(
        NaturalIso(t.tau, t.sigma, [c.inverse() for c in t.phi.c])
    )


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

