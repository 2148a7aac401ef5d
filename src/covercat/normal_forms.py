"""Good multiplicative bases, centralizers, and coefficient bounds.

A change of basis of the morphism generators is a conjugation by an
automorphism that fixes every object (:func:`covercat.cn.conjugate`),
so every basis here is such a diagonal conjugator.  For an automorphism
of the basic category one can always find one after which the
transition coefficients are trivial inside each cycle of the object
permutation.  This module constructs these conjugators, enumerates the
permutations commuting with an object map, and implements the
normalization that bounds all coefficients of an indecomposable
commuting pair by roots of unity of order dividing ``n!``.

The constructions run on integer exponents: a root of unity
``exp(2*pi*i*e/M)`` is the residue ``e`` mod one modulus ``M`` shared
by the whole computation, and a diagonal conjugator with exponents
``h`` sends the coefficient exponent ``c_i`` of ``F`` to
``c_i + h[F(i)] - h[i]``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial, lcm
from typing import Iterable, Sequence

from .cn import Autoequivalence, commutes, perm_cycles
from .scalars import RootOfUnity


# ---------------------------------------------------------------------------
# permutation helpers


def enumerate_centralizer(perm: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All permutations commuting with ``perm``, as 1-based tables.

    A commuting permutation maps each cycle onto a cycle of the same
    length with a rotation offset, so the centralizer is enumerated by
    choosing, per cycle length, a permutation of the cycles and one
    offset for each.
    """
    n = len(perm)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in perm_cycles(perm):
        by_length.setdefault(len(cyc), []).append(cyc)

    def cycle_maps_for_length(cycles):
        length = len(cycles[0])
        for target_order in permutations(range(len(cycles))):
            for offsets in product(range(length), repeat=len(cycles)):
                pairs = []
                for j, cyc in enumerate(cycles):
                    tgt = cycles[target_order[j]]
                    off = offsets[j]
                    pairs.extend(
                        (cyc[t], tgt[(t + off) % length])
                        for t in range(length)
                    )
                yield pairs
        return

    groups = [cycle_maps_for_length(cycles) for cycles in by_length.values()]
    for combo in product(*groups):
        table = [0] * n
        for pairs in combo:
            for src, dst in pairs:
                table[src - 1] = dst
        yield tuple(table)


# ---------------------------------------------------------------------------
# exponents over one modulus


def _principal_root(e: int, c: int, M: int) -> int:
    """The exponent of the principal ``c``-th root of ``exp(2*pi*i*e/M)``.

    The branch with the smallest nonnegative exponent, as
    :func:`covercat.scalars.principal_root` takes it: the residue of
    ``e`` in ``[0, M)`` divided by ``c``, which ``M`` must make exact.
    """
    e %= M
    if e % c:
        raise AssertionError(f"exponent {e}/{M} has no {c}-th root mod {M}")
    return e // c


def _functor(
    table: Sequence[int], e: Sequence[int], M: int
) -> Autoequivalence:
    """The functor with coefficient exponents ``e`` mod ``M``, normalized
    at the first object."""
    e0 = e[0]
    return Autoequivalence(
        len(e), table, [RootOfUnity.primitive(M, x - e0) for x in e]
    )


# ---------------------------------------------------------------------------
# good bases


def is_good(s: Autoequivalence) -> bool:
    """Whether the current basis is good for ``s``.

    Goodness means the coefficient vector is constant on every cycle of
    the object permutation, which makes all within-orbit transition
    coefficients trivial.
    """
    for orbit in perm_cycles(s.object_map):
        values = {s.coeff[i - 1] for i in orbit}
        if len(values) != 1:
            return False
    return True


def _good_basis_exponents(
    e: Sequence[int],
    smap: Sequence[int],
    cycles: Sequence[tuple[int, ...]],
    M: int,
) -> list[int]:
    """Exponents of a diagonal conjugator after which ``s`` is good.

    ``e`` holds the coefficient exponents of ``s`` mod ``M``, ``smap``
    its object map and ``cycles`` that map's cycles; ``M`` must be a
    multiple of every cycle length times the orders of the coefficients.
    Per cycle, the conjugator divides out the running product of the
    coefficients against their principal geometric mean, so the
    conjugate's coefficient is that mean at every point of the cycle.
    """
    h = [0] * len(e)
    for orbit in cycles:
        d = _principal_root(sum(e[i - 1] for i in orbit), len(orbit), M)
        value = 0
        i = orbit[0]
        for _ in range(len(orbit) - 1):
            value += d - e[i - 1]
            i = smap[i - 1]
            h[i - 1] = value
        if len({
            (e[i - 1] + h[smap[i - 1] - 1] - h[i - 1]) % M for i in orbit
        }) != 1:
            raise AssertionError(f"good basis is not constant on {orbit}")
    return h


# ---------------------------------------------------------------------------
# joint orbits and normalization


@lru_cache(maxsize=1024)
class _Shape:
    """What normalization reads from the two object maps alone.

    For a permutation ``smap`` and a commuting permutation ``tmap`` with a
    single joint orbit: the ``count`` cycles of ``smap``, of common size
    ``m``; the same cycles walked from object 1 by ``tmap``, each with
    its base point; and the power ``k`` of ``smap`` at which
    ``tmap**count`` returns to the cycle of 1.
    """

    __slots__ = ("cycles", "m", "count", "k", "chain")

    def __init__(self, smap: tuple[int, ...], tmap: tuple[int, ...]):
        cycles = tuple(perm_cycles(smap))
        sizes = {len(o) for o in cycles}
        if len(sizes) != 1:
            raise AssertionError("orbits in one block must share their size")
        m = sizes.pop()
        count = len(cycles)
        orbit_of = {i: o for o in cycles for i in o}

        # the cycle of orbits closes after `count` steps, landing at a
        # power of the first map applied to object 1
        bases = []
        w = 1
        for _ in range(count):
            bases.append(w)
            w = tmap[w - 1]
        k, probe = 0, 1
        while probe != w:
            probe = smap[probe - 1]
            k += 1
            if k > m:
                raise AssertionError("return point must lie on the base orbit")

        self.cycles = cycles
        self.m, self.count, self.k = m, count, k
        self.chain = tuple((b, orbit_of[b]) for b in bases)


@lru_cache(maxsize=1024)
def _joint_orbits(
    smap: tuple[int, ...], tmap: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Minimal subsets of objects closed under both object maps, in the
    order of their least objects; memoised on the two maps."""
    n = len(smap)
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for i in range(1, n + 1):
        union(i, smap[i - 1])
        union(i, tmap[i - 1])
    blocks: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return tuple(
        sorted((tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0])
    )


def is_indecomposable(s: Autoequivalence, t: Autoequivalence) -> bool:
    """Whether the pair has a single joint orbit of objects."""
    if t.n != s.n:
        raise ValueError("sizes differ")
    return len(_joint_orbits(s.object_map, t.object_map)) == 1


def normalize_pair(
    s: Autoequivalence, t: Autoequivalence
) -> tuple[Autoequivalence, Autoequivalence, Autoequivalence]:
    """Conjugate an indecomposable commuting pair into bounded coefficients.

    Returns ``(s1, t1, rho)`` with ``conjugate_pair(rho, s, t) == (s1,
    t1)``, where ``rho`` fixes every object, so the pair is only written
    in another basis; all transition coefficients of ``s1`` and ``t1``
    are roots of unity of order dividing ``n!``.  The
    construction picks a good basis for the first functor and then
    equalizes the cross-orbit coefficients of the second.

    Every step is a diagonal conjugator, constant on each orbit of the
    good ``s1`` after the first, so they add up to one exponent vector
    ``h`` and leave ``s1`` as the good basis makes it.  The modulus is
    the lcm of the coefficient orders, times the common cycle length
    ``m`` (for the good basis), times ``count**2`` (for the two
    ``count``-th roots below), so every principal root is exact.

    The equalizing conjugator is fixed only up to a ``count``-th root
    ``x`` (``count`` the number of orbits of ``s``), which enters its
    coefficients on the p-th orbit as ``x**-p``; ``x`` takes the
    principal branch.  Another branch would multiply the coefficients
    of ``rho`` by ``omega**-p`` on the p-th orbit, with
    ``omega**count == 1``, and leave ``(s1, t1)`` unchanged.
    """
    if not commutes(s, t):
        raise ValueError("pair must commute")
    smap, tmap = s.object_map, t.object_map
    if len(_joint_orbits(smap, tmap)) != 1:
        raise ValueError("pair must be indecomposable; split into blocks first")
    shape = _Shape(smap, tmap)
    m, count = shape.m, shape.count
    M = lcm(s.period, t.period) * m * count ** 2
    se, te = s.exponents(M), t.exponents(M)
    h = _good_basis_exponents(se, smap, shape.cycles, M)

    def t_at(i: int) -> int:
        """Exponent of t's coefficient at ``i`` in the basis ``h``."""
        return te[i - 1] + h[tmap[i - 1] - 1] - h[i - 1]

    def link(w: int) -> int:
        return t_at(tmap[w - 1]) - t_at(w)

    # conjugating by 1 / kappa_p on the p-th orbit of the
    # cycle multiplies the link leaving orbit p by
    # kappa_{p+1}**2 / (kappa_p * kappa_{p+2}), so equalizing all links
    # to mu is a second-order recurrence for the kappa_p, solved in
    # closed form up to one count-th root
    lam = t_at(smap[0]) - t_at(1)
    if (lam * m) % M:
        raise AssertionError(f"block scalar {lam}/{M} has no {m}-th power 1")
    mu = _principal_root(lam * shape.k, count, M)
    if (mu * m * count) % M:
        raise AssertionError(
            f"root {mu}/{M} has no {m * count}-th power 1"
        )
    links = [link(b) for b, _ in shape.chain]
    # kappa_p = u_p * x**p with u_0 = u_1 = 1; the first count-2 link
    # conditions give the recurrence for u, the condition on the link
    # returning to orbit 0 fixes x**count, and x is its principal root.
    # With one orbit the indices wrap to its only link, kappa_0 is 1,
    # and the check below tests that link alone.
    u = [0, 0]
    for p in range(count - 2):
        u.append(links[p] - mu + 2 * u[p + 1] - u[p])
    residual = links[count - 2] - mu + 2 * u[count - 1] - u[count - 2]
    x = _principal_root(-residual, count, M)
    for p, (_, orbit) in enumerate(shape.chain):
        kappa = u[p] + p * x
        for i in orbit:
            h[i - 1] -= kappa
    for b, _ in shape.chain:
        if (link(b) - mu) % M:
            raise AssertionError("adjusted link differs from its root")

    n = s.n
    s1 = _functor(
        smap, [se[i] + h[smap[i] - 1] - h[i] for i in range(n)], M
    )
    t1 = _functor(
        tmap, [te[i] + h[tmap[i] - 1] - h[i] for i in range(n)], M
    )
    bound = factorial(n)
    for c in s1.coeff + t1.coeff:
        if bound % c.order != 0:
            raise AssertionError(
                f"normalized coefficient {c} exceeds the factorial bound"
            )
    return s1, t1, _functor(range(1, n + 1), h, M)
