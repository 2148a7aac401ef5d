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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import Iterable, Sequence

from .cn import Autoequivalence, commutes, conjugate, perm_cycles
from .scalars import ONE, RootOfUnity, geometric_mean, principal_root


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


def good_basis(s: Autoequivalence) -> Autoequivalence:
    """A diagonal conjugator after which ``s`` is good.

    The conjugator fixes every object.  Per cycle, its coefficients
    divide out the running product of the coefficients of ``s`` against
    their principal geometric mean, so the conjugate's coefficient is
    that mean at every point of the cycle.
    """
    if not s.is_automorphism():
        raise ValueError("good bases are defined for automorphisms")
    h: list[RootOfUnity] = [ONE] * s.n
    for orbit in perm_cycles(s.object_map):
        d = geometric_mean([s.coeff[i - 1] for i in orbit])
        value = ONE
        i = orbit[0]
        for _ in range(len(orbit) - 1):
            value = value * d / s.coeff[i - 1]
            i = s(i)
            h[i - 1] = value
    rho = Autoequivalence(s.n, range(1, s.n + 1), h)
    if not is_good(conjugate(rho, s)):
        raise AssertionError(f"good_basis fails for {s}")
    return rho


# ---------------------------------------------------------------------------
# joint orbits and normalization


def sigma_tau_orbits(
    s: Autoequivalence, t: Autoequivalence
) -> list[tuple[int, ...]]:
    """Minimal subsets of objects closed under both object maps.

    Closure is undirected (preimages included), so for a non-surjective
    second map the blocks are still well-defined.  The blocks depend on
    the two object maps only and are memoised on them; each call
    returns a fresh list.
    """
    if t.n != s.n:
        raise ValueError("sizes differ")
    return list(_joint_orbits(s.object_map, t.object_map))


@lru_cache(maxsize=1024)
def _joint_orbits(
    smap: tuple[int, ...], tmap: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
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
    return len(sigma_tau_orbits(s, t)) == 1


def _single_block_adjust(
    s: Autoequivalence, t: Autoequivalence, objs: Sequence[int]
) -> Autoequivalence:
    """Make the cross-orbit coefficients of ``t`` on ``objs`` uniform.

    ``objs`` must be closed under both maps with ``t`` restricting to a
    bijection on it, and ``s`` must be good.  The orbits of ``s``
    inside ``objs`` form a single cycle under ``t``; the returned
    diagonal conjugator (constant on each orbit, 1 outside ``objs``)
    makes every coefficient on the block a root of unity of order
    dividing the block size.

    Conjugating by ``1 / kappa_p`` on the p-th orbit of the cycle
    multiplies the link coefficient ``b[t(w), w]`` leaving orbit ``p``
    by ``kappa_{p+1}**2 / (kappa_p * kappa_{p+2})``, so equalizing all
    links to the common target value ``mu`` is a second-order
    multiplicative recurrence for the ``kappa_p``, solved below in
    closed form up to one ``count``-th root.
    """
    objs = sorted(objs)
    orbit_list = [o for o in perm_cycles(s.object_map) if o[0] in set(objs)]
    orbit_index = {i: idx for idx, o in enumerate(orbit_list) for i in o}
    sizes = {len(o) for o in orbit_list}
    if len(sizes) != 1:
        raise AssertionError("orbits in one block must share their size")
    m = sizes.pop()
    count = len(orbit_list)

    z = objs[0]
    lam = t.coeff[s(z) - 1] / t.coeff[z - 1]
    if lam ** m != ONE:
        raise AssertionError(f"block scalar {lam} has no {m}-th power 1")

    # the cycle of orbits closes after `count` steps, landing at a
    # power of the first map applied to the base point
    w = z
    for _ in range(count):
        w = t(w)
    k, probe = 0, z
    while probe != w:
        probe = s(probe)
        k += 1
        if k > m:
            raise AssertionError("return point must lie on the base orbit")
    mu = principal_root(lam ** k, count)
    if mu ** (m * count) != ONE:
        raise AssertionError(f"root {mu} has no {m * count}-th power 1")
    if count == 1:
        # single orbit: the only link already equals lam**k
        if t.coeff[t(z) - 1] / t.coeff[z - 1] != mu:
            raise AssertionError("single-orbit link differs from its root")
        return Autoequivalence.identity(s.n)

    # base points along the cycle and the current link exponents
    bases = []
    w = z
    for _ in range(count):
        bases.append(w)
        w = t(w)
    links = [t.coeff[t(b) - 1] / t.coeff[b - 1] for b in bases]

    # kappa_p = u_p * x**p with u_0 = u_1 = 1; the first count-2 link
    # conditions give the recurrence for u, the condition on the link
    # returning to orbit 0 fixes x**count, and x is its principal root
    u = [ONE, ONE]
    for p in range(count - 2):
        u.append(links[p] / mu * u[p + 1] ** 2 / u[p])
    residual = links[count - 2] / mu * u[count - 1] ** 2 / u[count - 2]
    x = principal_root(residual.inverse(), count)

    h = [ONE] * s.n
    for p, b in enumerate(bases):
        kappa = u[p] * x ** p
        for i in orbit_list[orbit_index[b]]:
            h[i - 1] = kappa.inverse()
    rho = Autoequivalence(s.n, range(1, s.n + 1), h)

    adjusted = conjugate(rho, t)
    w = z
    for _ in range(count):
        if adjusted.coeff[t(w) - 1] / adjusted.coeff[w - 1] != mu:
            raise AssertionError("adjusted link differs from its root")
        w = t(w)
    return rho


def normalize_pair(
    s: Autoequivalence, t: Autoequivalence
) -> tuple[Autoequivalence, Autoequivalence, Autoequivalence]:
    """Conjugate an indecomposable commuting pair into bounded coefficients.

    Returns ``(s1, t1, rho)`` with ``conjugate_pair(rho, s, t) == (s1,
    t1)``, where ``rho`` fixes every object, so the pair is only written
    in another basis; all transition coefficients of ``s1`` and ``t1``
    are roots of unity of order dividing ``n!``.  The
    construction picks a good basis for the automorphism, equalizes the
    cross-orbit coefficients of the second functor on the eventual image
    (where it restricts to a bijection), and then clears one coefficient
    per remaining orbit, working outward from the image.

    On the image, the equalizing conjugator is fixed only up to a
    ``count``-th root ``x`` (``count`` the number of orbits of ``s`` in
    the image), which enters its coefficients on the p-th orbit as
    ``x**-p``; ``x`` takes the principal branch of
    :func:`principal_root`.  Another branch would multiply the
    coefficients of ``rho`` by ``omega**-p`` on the p-th orbit, with
    ``omega**count == 1``, and leave ``(s1, t1)`` unchanged.
    """
    if not s.is_automorphism():
        raise ValueError("first functor must be an automorphism")
    if not commutes(s, t):
        raise ValueError("pair must commute")
    if not is_indecomposable(s, t):
        raise ValueError("pair must be indecomposable; split into blocks first")
    n = s.n

    rho = good_basis(s)
    s1, t1 = conjugate(rho, s), conjugate(rho, t)

    # descending chain of images of the second object map
    levels = [set(range(1, n + 1))]
    while True:
        nxt = {t1(i) for i in levels[-1]}
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    core = levels[-1]

    # the conjugators below fix every object, so they commute, and are
    # constant on each orbit of the good s1, so they leave s1 as it is
    adj = _single_block_adjust(s1, t1, sorted(core))
    rho = adj.compose(rho)
    t1 = conjugate(adj, t1)

    # orbits outside the core, deepest level first: set the coefficient
    # of the outgoing edge at one point of each orbit to 1.  Conjugating
    # by 1 / link on the orbit divides its link by link and moves no
    # other link of the level (their other corners sit on deeper
    # levels), so one conjugator serves the whole level.
    for level in range(len(levels) - 2, -1, -1):
        fringe = levels[level] - levels[level + 1]
        h = [ONE] * n
        for orbit in perm_cycles(s1.object_map):
            if orbit[0] in fringe:
                z = orbit[0]
                link = t1.coeff[t1(z) - 1] / t1.coeff[z - 1]
                for i in orbit:
                    h[i - 1] = link.inverse()
        fix = Autoequivalence(n, range(1, n + 1), h)
        rho = fix.compose(rho)
        t1 = conjugate(fix, t1)

    bound = factorial(n)
    for c in list(s1.coeff) + list(t1.coeff):
        if bound % c.order != 0:
            raise AssertionError(
                f"normalized coefficient {c} exceeds the factorial bound"
            )
    return s1, t1, rho
