"""Good multiplicative bases, orbit bookkeeping, and coefficient bounds.

For an automorphism of the basic category one can always rebase the
morphism generators so that the transition coefficients are trivial
inside each cycle of the object permutation and constant on pairs of
cycles ("transition factors").  This module constructs such bases,
relates any two of them, and implements the normalization that bounds
all coefficients of an indecomposable commuting pair by roots of unity
of order dividing ``n!``.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Iterable, Sequence

from .cn import Autoequivalence, commutes, perm_cycles
from .scalars import ONE, RootOfUnity, geometric_mean, principal_root


# ---------------------------------------------------------------------------
# permutation helpers


def centralizer_size(perm: Sequence[int]) -> int:
    """Order of the centralizer of a permutation in the symmetric group.

    For cycle type with ``e_i`` cycles of length ``l_i`` the size is the
    product of ``l_i**e_i * e_i!``.
    """
    lengths: dict[int, int] = {}
    for cyc in perm_cycles(perm):
        lengths[len(cyc)] = lengths.get(len(cyc), 0) + 1
    size = 1
    for length, count in lengths.items():
        size *= length ** count * factorial(count)
    return size


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
# bases and orbit data


class ChangeOfBasis:
    """A rescaling of the morphism generators by ``x'_ij = (g_i/g_j) x_ij``.

    Only the ratios of the entries matter.  Rebasing an endofunctor with
    coefficient vector ``c`` yields ``c'_i = c_i * g_i / g_{F(i)}``; a
    functor between two categories divides by the target's rescaling
    instead.  The represented functor is unchanged, only its coordinates
    move.
    """

    __slots__ = ("g",)

    def __init__(self, g: Sequence[RootOfUnity]):
        self.g = tuple(g)

    @classmethod
    def identity(cls, n: int) -> "ChangeOfBasis":
        return cls((ONE,) * n)

    def compose(self, other: "ChangeOfBasis") -> "ChangeOfBasis":
        """Apply ``self`` first, then ``other`` (entrywise product)."""
        if len(self.g) != len(other.g):
            raise ValueError("sizes differ")
        return ChangeOfBasis([a * b for a, b in zip(self.g, other.g)])

    def rebase(
        self, F: Autoequivalence, target: "ChangeOfBasis | None" = None
    ) -> Autoequivalence:
        """``F`` in the source basis ``self`` and the target basis ``target``.

        ``target`` defaults to ``self``, the case of an endofunctor.
        """
        if target is None:
            target = self
        if F.n != len(self.g) or F.m != len(target.g):
            raise ValueError("sizes differ")
        coeff = [
            F.coeff[i] * self.g[i] / target.g[F.object_map[i] - 1]
            for i in range(F.n)
        ]
        return Autoequivalence(F.n, F.object_map, coeff, F.m)

    def __repr__(self) -> str:
        return f"ChangeOfBasis([{', '.join(str(x) for x in self.g)}])"


class OrbitData:
    """Cycle partition of an automorphism plus its transition factors."""

    __slots__ = ("orbits", "factors")

    def __init__(
        self,
        orbits: Sequence[tuple[int, ...]],
        factors: dict[tuple[int, int], RootOfUnity] | None = None,
    ):
        self.orbits = tuple(tuple(o) for o in orbits)
        self.factors = dict(factors) if factors else {}

    def serialize(self) -> dict:
        return {
            "orbits": [list(o) for o in self.orbits],
            "factors": [
                [a, b, str(v)] for (a, b), v in sorted(self.factors.items())
            ],
        }

    def __repr__(self) -> str:
        return f"OrbitData(orbits={self.orbits})"


def sigma_orbits(s: Autoequivalence) -> OrbitData:
    """Cycle partition of the object permutation of an automorphism."""
    if not s.is_automorphism():
        raise ValueError("orbit decomposition needs an automorphism")
    return OrbitData(perm_cycles(s.object_map))


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


def good_basis(s: Autoequivalence) -> ChangeOfBasis:
    """A basis in which the automorphism has trivial within-orbit coefficients.

    Per cycle, the rescaling divides out the running product of the
    coefficients against the principal geometric mean, so the rebased
    coefficient is the same mean at every point of the cycle.
    """
    if not s.is_automorphism():
        raise ValueError("good bases are defined for automorphisms")
    g: list[RootOfUnity] = [ONE] * s.n
    for orbit in perm_cycles(s.object_map):
        d = geometric_mean([s.coeff[i - 1] for i in orbit])
        value = ONE
        i = orbit[0]
        for _ in range(len(orbit) - 1):
            value = value * s.coeff[i - 1] / d
            i = s(i)
            g[i - 1] = value
    basis = ChangeOfBasis(g)
    if not is_good(basis.rebase(s)):
        raise AssertionError(f"good_basis fails for {s}")
    return basis


def transition_factors(s: Autoequivalence) -> OrbitData:
    """Orbit-pair coefficients of an automorphism in a good basis."""
    if not is_good(s):
        raise ValueError("transition factors require a good basis")
    orbits = perm_cycles(s.object_map)
    factors: dict[tuple[int, int], RootOfUnity] = {}
    for ia, A in enumerate(orbits):
        for ib, B in enumerate(orbits):
            factors[(ia, ib)] = s.a(A[0], B[0])
    return OrbitData(orbits, factors)


def change_of_good_basis_deltas(
    b1: ChangeOfBasis, b2: ChangeOfBasis, s: Autoequivalence
) -> list[RootOfUnity]:
    """Per-orbit scalars relating two good bases of the same automorphism.

    If both rescalings are good for ``s``, the quotient change of basis
    multiplies each generator ``x[i, s(i)]`` by a constant depending
    only on the orbit of ``i``, and that constant is a root of unity of
    order dividing the orbit length.  Returns one delta per orbit, in
    orbit order; raises if either input fails to be good.
    """
    for basis in (b1, b2):
        if not is_good(basis.rebase(s)):
            raise ValueError("input basis is not good for the automorphism")
    h = [x / y for x, y in zip(b2.g, b1.g)]
    deltas = []
    for orbit in perm_cycles(s.object_map):
        values = {h[i - 1] / h[s(i) - 1] for i in orbit}
        if len(values) != 1:
            raise ValueError("bases are not related by a good change")
        delta = values.pop()
        if delta ** len(orbit) != ONE:
            raise ValueError("orbit scalar has the wrong order")
        deltas.append(delta)
    return deltas


# ---------------------------------------------------------------------------
# functors between categories of different sizes


def comparison_basis(
    t: Autoequivalence,
    s1: Autoequivalence,
    s2: Autoequivalence,
    target_basis: ChangeOfBasis,
) -> ChangeOfBasis:
    """The unique source basis making all coefficients of ``t`` trivial.

    Given a good basis for the target automorphism, pulling each
    generator back through the hom-set bijections of ``t`` yields a
    source basis with ``t(x_ij) = y_{t(i)t(j)}``; that basis is
    automatically good for the source automorphism.
    """
    if not t.intertwines(s1, s2):
        raise ValueError("functor does not intertwine the automorphisms")
    if not is_good(target_basis.rebase(s2)):
        raise ValueError("target basis is not good")
    g = [
        target_basis.g[t(i) - 1] / t.coeff[i - 1]
        for i in range(1, t.n + 1)
    ]
    basis = ChangeOfBasis(g)
    rebased = basis.rebase(t, target_basis)
    if not all(c == ONE for c in rebased.coeff):
        raise AssertionError(f"comparison basis leaves {rebased.coeff}")
    if not is_good(basis.rebase(s1)):
        raise AssertionError(f"comparison basis is not good for {s1}")
    return basis


# ---------------------------------------------------------------------------
# joint orbits and normalization


def sigma_tau_orbits(
    s: Autoequivalence, t: Autoequivalence
) -> list[tuple[int, ...]]:
    """Minimal subsets of objects closed under both object maps.

    Closure is undirected (preimages included), so for a non-surjective
    second map the blocks are still well-defined.
    """
    n = s.n
    if t.n != n:
        raise ValueError("sizes differ")
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for i in range(1, n + 1):
        union(i, s(i))
        union(i, t(i))
    blocks: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return sorted(
        (tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0]
    )


def is_indecomposable(s: Autoequivalence, t: Autoequivalence) -> bool:
    """Whether the pair has a single joint orbit of objects."""
    return len(sigma_tau_orbits(s, t)) == 1


def _orbit_rescale(
    n: int, orbit: Iterable[int], value: RootOfUnity
) -> ChangeOfBasis:
    g = [ONE] * n
    for i in orbit:
        g[i - 1] = value
    return ChangeOfBasis(g)


def _single_block_adjust(
    s: Autoequivalence, t: Autoequivalence, objs: Sequence[int]
) -> ChangeOfBasis:
    """Make the cross-orbit coefficients of ``t`` on ``objs`` uniform.

    ``objs`` must be closed under both maps with ``t`` restricting to a
    bijection on it, and the ambient basis must be good for ``s``.  The
    orbits of ``s`` inside ``objs`` form a single cycle under ``t``; the
    returned rescaling (constant on each orbit, trivial outside
    ``objs``) makes every coefficient on the block a root of unity of
    order dividing the block size.

    Rescaling by a constant ``kappa_p`` on the p-th orbit of the cycle
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
        return ChangeOfBasis.identity(s.n)

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

    g = [ONE] * s.n
    for p, b in enumerate(bases):
        kappa = u[p] * x ** p
        for i in orbit_list[orbit_index[b]]:
            g[i - 1] = kappa
    basis = ChangeOfBasis(g)

    adjusted = basis.rebase(t)
    w = z
    for _ in range(count):
        if adjusted.coeff[t(w) - 1] / adjusted.coeff[w - 1] != mu:
            raise AssertionError("adjusted link differs from its root")
        w = t(w)
    return basis


def normalize_pair(
    s: Autoequivalence, t: Autoequivalence
) -> tuple[Autoequivalence, Autoequivalence, ChangeOfBasis]:
    """Rebase an indecomposable commuting pair into bounded coefficients.

    The returned pair acts identically but all its transition
    coefficients are roots of unity of order dividing ``n!``.  The
    construction picks a good basis for the automorphism, equalizes the
    cross-orbit coefficients of the second functor on the eventual image
    (where it restricts to a bijection), and then clears one coefficient
    per remaining orbit, working outward from the image.

    On the image, the equalizing rescaling is fixed only up to a
    ``count``-th root ``x`` (``count`` the number of orbits of ``s`` in
    the image), which enters the p-th orbit as ``x**p``; ``x`` takes the
    principal branch of :func:`principal_root`.  Another branch would
    change the returned basis by ``omega**p`` on the p-th orbit, with
    ``omega**count == 1``, and leave the returned pair unchanged.
    """
    if not s.is_automorphism():
        raise ValueError("first functor must be an automorphism")
    if not commutes(s, t):
        raise ValueError("pair must commute")
    if not is_indecomposable(s, t):
        raise ValueError("pair must be indecomposable; split into blocks first")
    n = s.n

    total = good_basis(s)
    s1 = total.rebase(s)
    t1 = total.rebase(t)

    # descending chain of images of the second object map
    levels = [set(range(1, n + 1))]
    while True:
        nxt = {t1(i) for i in levels[-1]}
        if nxt == levels[-1]:
            break
        levels.append(nxt)
    core = levels[-1]

    adj = _single_block_adjust(s1, t1, sorted(core))
    total = total.compose(adj)
    t1 = adj.rebase(t1)
    s1 = adj.rebase(s1)

    # orbits outside the core, deepest level first: set the coefficient
    # of the outgoing edge at one point of each orbit to 1
    for level in range(len(levels) - 2, -1, -1):
        fringe = levels[level] - levels[level + 1]
        for orbit in perm_cycles(s1.object_map):
            if orbit[0] not in fringe:
                continue
            z = orbit[0]
            link = t1.coeff[t1(z) - 1] / t1.coeff[z - 1]
            # rescaling the orbit by kappa divides this link by kappa
            # (the other two corners of the square sit on deeper levels)
            fix = _orbit_rescale(n, orbit, link)
            total = total.compose(fix)
            t1 = fix.rebase(t1)
            s1 = fix.rebase(s1)

    bound = factorial(n)
    for c in list(s1.coeff) + list(t1.coeff):
        if bound % c.order != 0:
            raise AssertionError(
                f"normalized coefficient {c} exceeds the factorial bound"
            )
    return s1, t1, total
