"""The finite category with one-dimensional hom sets and its symmetries.

The category has objects 1..n and, for every ordered pair, a basis
morphism ``x[i,j] : j -> i`` subject to ``x[i,j] x[j,k] = x[i,k]``.  An
automorphism is determined by a permutation of the objects together
with a multiplicative system ``a_ij`` of scalars, which always takes the
fraction form ``a_ij = c_i / c_j``; we store the normalized vector ``c``
with ``c_1 = 1``.

Everything here is an immutable value; object indices are 1-based
throughout, matching the JSON interchange format.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .scalars import MINUS_ONE, ONE, RootOfUnity


def perm_cycles(object_map: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of a permutation given as a 1-based table, ordered by minimum."""
    n = len(object_map)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = object_map[i - 1]
        cycles.append(tuple(cyc))
    return cycles


class Autoequivalence:
    """An automorphism of the category given by an object permutation and
    transition coefficients.

    ``object_map`` is a 1-based table (``object_map[i-1]`` is the image of
    object ``i``) that must permute ``1..n`` as ``int`` entries, and each
    coefficient must be a ``RootOfUnity``; the constructor is the one
    place that checks both.  The action on basis morphisms is
    ``x[i,j] -> a_ij * x[F(i), F(j)]`` with
    ``a_ij = coeff[i-1] / coeff[j-1]``, which makes the cocycle identity
    ``a_ij * a_jk = a_ik`` automatic.  The coefficient vector is
    normalized so its first entry is 1; this is the unique such
    representative.
    """

    __slots__ = (
        "n", "object_map", "coeff", "_orbits", "_period", "_exponents",
    )

    def __init__(
        self,
        n: int,
        object_map: Sequence[int],
        coeff: Sequence[RootOfUnity] | None = None,
    ):
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be a positive int: {n!r}")
        object_map = tuple(object_map)
        if (
            len(object_map) != n
            or set(object_map) != set(range(1, n + 1))
            or set(map(type, object_map)) != {int}
        ):
            raise ValueError(f"object map must permute 1..{n}: {object_map}")
        if coeff is None:
            coeff = (ONE,) * n
        else:
            coeff = tuple(coeff)
            if len(coeff) != n:
                raise ValueError("coefficient vector must have length n")
            if set(map(type, coeff)) != {RootOfUnity}:
                raise TypeError(
                    f"coefficients must be RootOfUnity values: {coeff}"
                )
            # normalize the representative: divide through by c_1
            if not coeff[0].is_one():
                c1 = coeff[0]
                coeff = tuple(c / c1 for c in coeff)
        self.n = n
        self.object_map = object_map
        self.coeff = coeff
        self._orbits = None
        self._period = None

    def __call__(self, i: int) -> int:
        """Image of object ``i`` (1-based)."""
        return self.object_map[i - 1]

    def orbit(self, i: int) -> tuple[int, ...]:
        """The cycle through ``i``: ``(i, F(i), ...)``.

        The table of all cycles is built on first use and kept, so
        ``orbit(i)[k % len(orbit(i))]`` is the ``k``-th power at ``i`` for
        any integer ``k``.
        """
        if self._orbits is None:
            orbits: list[tuple[int, ...]] = [()] * self.n
            for cycle in perm_cycles(self.object_map):
                for pos, j in enumerate(cycle):
                    orbits[j - 1] = cycle[pos:] + cycle[:pos]
            self._orbits = orbits
        return self._orbits[i - 1]

    @property
    def period(self) -> int:
        """The lcm of the coefficient orders.

        It is computed on first use, with the coefficient exponents over
        it, and both are kept.
        """
        if self._period is None:
            period = lcm(*(c.order for c in self.coeff))
            self._exponents = [c.exponent_mod(period) for c in self.coeff]
            self._period = period
        return self._period

    def exponents(self, M: int) -> list[int]:
        """The coefficient exponents over ``M``, a multiple of ``period``."""
        k, r = divmod(M, self.period)
        if r:
            raise ValueError(f"period {self._period} does not divide {M}")
        return [x * k for x in self._exponents]

    def a(self, i: int, j: int) -> RootOfUnity:
        """Transition coefficient ``a_ij = c_i / c_j``."""
        return self.coeff[i - 1] / self.coeff[j - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Autoequivalence):
            return NotImplemented
        return (
            self.n == other.n
            and self.object_map == other.object_map
            and self.coeff == other.coeff
        )

    def __hash__(self) -> int:
        return hash((self.n, self.object_map, self.coeff))

    def __repr__(self) -> str:
        coeffs = ", ".join(str(c) for c in self.coeff)
        return (
            f"Autoequivalence(n={self.n}, map={self.object_map}, "
            f"c=[{coeffs}])"
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "object_map": list(self.object_map),
            "coeff": [str(c) for c in self.coeff],
        }


def commutes(s: Autoequivalence, t: Autoequivalence) -> bool:
    """Whether two automorphisms commute on the nose.

    The object maps must commute pointwise and the coefficient systems
    must satisfy ``a[t(i),t(j)] * b[i,j] == a[i,j] * b[s(i),s(j)]`` for
    all pairs, where ``a`` and ``b`` belong to ``s`` and ``t``.  Every
    ``a`` and ``b`` is a ratio ``c_i / c_j``, so that holds exactly when
    the ratio ``a_i * b_s(i) / (b_i * a_t(i))`` is the same for every
    ``i``, which is what is tested on exponents over one modulus.
    """
    if s.n != t.n:
        raise ValueError("sizes differ")
    smap, tmap = s.object_map, t.object_map
    if any(tmap[j - 1] != smap[i - 1] for i, j in zip(tmap, smap)):
        return False
    M = lcm(s.period, t.period)
    a, b = s.exponents(M), t.exponents(M)
    ratios = {
        (x + b[j - 1] - y - a[i - 1]) % M
        for x, y, i, j in zip(a, b, tmap, smap)
    }
    return len(ratios) == 1


class NaturalIso:
    """A natural isomorphism between two autoequivalences.

    Component ``i`` is ``c[i-1] * x[t(i), s(i)]``.  Naturality means
    ``c_j * a_ji == b_ji * c_i`` for all ``i, j`` where ``a`` belongs to
    the source functor and ``b`` to the target one; with ``a_ji`` and
    ``b_ji`` ratios of coefficient vectors, that is one ratio
    ``c_i * a_i / b_i`` shared by every ``i``.
    """

    __slots__ = ("source", "target", "c")

    def __init__(
        self,
        source: Autoequivalence,
        target: Autoequivalence,
        c: Sequence[RootOfUnity],
    ):
        if source.n != target.n:
            raise ValueError("sizes differ")
        self.source = source
        self.target = target
        self.c = tuple(c)
        if len(self.c) != source.n:
            raise ValueError("component vector must have length n")

    def is_natural(self) -> bool:
        source, target = self.source, self.target
        M = lcm(source.period, target.period, *(c.order for c in self.c))
        a, b = source.exponents(M), target.exponents(M)
        ratios = {
            (c.exponent_mod(M) + x - y) % M
            for c, x, y in zip(self.c, a, b)
        }
        return len(ratios) == 1

    def __repr__(self) -> str:
        return f"NaturalIso(c=[{', '.join(str(x) for x in self.c)}])"


def _canonical_iso(
    s: Autoequivalence, t: Autoequivalence
) -> tuple[int, list[int], list[int]]:
    """``(M, a, c)``: the coefficient exponents ``a`` of ``s`` and the
    components ``c`` of the canonical isomorphism ``s => t``, over ``M``,
    the lcm of both functors' coefficient orders.

    ``c_i = a_1i * b_i1``; with both coefficient vectors normalized at
    the first object the naturality squares close automatically, and
    that is checked here.
    """
    if s.n != t.n:
        raise ValueError("sizes differ")
    M = lcm(s.period, t.period)
    a, b = s.exponents(M), t.exponents(M)
    c = [a[0] - x + y - b[0] for x, y in zip(a, b)]
    if len({(z + x - y) % M for z, x, y in zip(c, a, b)}) != 1:
        raise AssertionError(f"natural_iso is not natural: {s}, {t}")
    return M, a, c


def natural_iso(s: Autoequivalence, t: Autoequivalence) -> NaturalIso:
    """The canonical natural isomorphism between two autoequivalences,
    with the components of :func:`_canonical_iso`."""
    M, _, c = _canonical_iso(s, t)
    return NaturalIso(s, t, [RootOfUnity.primitive(M, z) for z in c])


def continuity_factor(s: Autoequivalence, t: Autoequivalence) -> RootOfUnity:
    """The obstruction scalar pairing a commuting pair of symmetries.

    For a commuting pair, the quantity
    ``a[t(i), s(i)] * c_i / c_{s(i)}`` built from any natural
    isomorphism between the functors is independent of ``i`` and of the
    isomorphism's rescaling; that common value is returned.  The pair is
    called compatible when it is 1 and anti-compatible when it is -1.
    The canonical isomorphism's exponents give it; only the returned
    value is built as a root.
    """
    if not commutes(s, t):
        raise ValueError("functors do not commute")
    M, a, c = _canonical_iso(s, t)
    values = {
        (a[j - 1] - a[i - 1] + z - c[i - 1]) % M
        for i, j, z in zip(s.object_map, t.object_map, c)
    }
    if len(values) != 1:
        raise AssertionError(
            "continuity factor is not constant across objects: "
            f"{sorted(str(RootOfUnity.primitive(M, v)) for v in values)}"
        )
    return RootOfUnity.primitive(M, values.pop())


def is_anti_compatible(s: Autoequivalence, t: Autoequivalence) -> bool:
    """Whether the continuity factor of the commuting pair equals -1."""
    return continuity_factor(s, t) == MINUS_ONE


def check_skew_continuity(phi: NaturalIso) -> bool:
    """Test the sign-twisted continuity equation on every component.

    Returns true iff ``c_{s(i)} == -c_i * a[t(i), s(i)]`` for all ``i``,
    where ``s`` is the source object map and ``a`` its coefficients.
    """
    s, t = phi.source, phi.target
    for i in range(1, s.n + 1):
        if phi.c[s(i) - 1] != -(phi.c[i - 1] * s.a(t(i), s(i))):
            return False
    return True


def conjugated_table(
    r: Sequence[int], table: Sequence[int]
) -> tuple[int, ...]:
    """The object map ``j -> r(table(r^-1(j)))`` of two 1-based tables.

    Object ``i`` moves to ``r(i)`` and its image ``table(i)`` to
    ``r(table(i))``, so the table is filled without inverting ``r``.
    """
    out = [0] * len(table)
    for ri, ti in zip(r, table):
        out[ri - 1] = r[ti - 1]
    return tuple(out)


def conjugate(rho: Autoequivalence, F: Autoequivalence) -> Autoequivalence:
    """The conjugate ``rho . F . rho^-1`` of an automorphism by another.

    With ``i = rho^-1(j)``, the conjugate sends ``j`` to ``rho(F(i))`` with
    coefficient ``c_i * h_F(i) / h_i``, where ``c`` belongs to ``F`` and
    ``h`` to ``rho``.  A ``rho`` that fixes every object is a change of
    basis: it rescales the generators by ``x'_ij = (h_j / h_i) x_ij``
    and moves only the coordinates of ``F``.
    """
    n = rho.n
    if F.n != n:
        raise ValueError("sizes differ")
    r, h, c = rho.object_map, rho.coeff, F.coeff
    coeff: list = [None] * n
    for i, (ri, fi) in enumerate(zip(r, F.object_map)):
        coeff[ri - 1] = c[i] * h[fi - 1] / h[i]
    return Autoequivalence(n, conjugated_table(r, F.object_map), coeff)


def conjugate_pair(
    rho: Autoequivalence, s: Autoequivalence, t: Autoequivalence
) -> tuple[Autoequivalence, Autoequivalence]:
    """Simultaneous conjugation of a pair by an automorphism.

    Preserves commutation and the continuity factor, so it acts on
    isomorphism classes of pairs.
    """
    return conjugate(rho, s), conjugate(rho, t)
