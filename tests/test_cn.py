import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercat.cn import (
    Autoequivalence,
    NaturalIso,
    check_skew_continuity,
    commutes,
    conjugate,
    conjugate_pair,
    continuity_factor,
    is_anti_compatible,
    natural_iso,
)
from covercat.scalars import (
    CYC_ONE,
    MINUS_ONE,
    ONE,
    Cyclotomic,
    RootOfUnity,
)


class BasicMorphismCn:
    """A scalar multiple of the basis morphism ``x[target, source]``.

    The category's morphisms written out one by one: the oracle that the
    functor and natural-isomorphism checks below compose against.  The
    zero scalar is allowed, so composition and functor application are
    total.
    """

    __slots__ = ("source", "target", "scalar")

    def __init__(self, source: int, target: int, scalar: Cyclotomic = CYC_ONE):
        self.source = int(source)
        self.target = int(target)
        self.scalar = scalar

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicMorphismCn):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.scalar == other.scalar
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.scalar))

    def __repr__(self) -> str:
        return (
            f"BasicMorphismCn({self.source} -> {self.target}, "
            f"{self.scalar!r})"
        )


def compose_basic(g: BasicMorphismCn, f: BasicMorphismCn) -> BasicMorphismCn:
    """Compose ``g`` after ``f``: scalars multiply, endpoints chain."""
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: inner endpoints differ "
            f"({f.target} != {g.source})"
        )
    return BasicMorphismCn(f.source, g.target, g.scalar * f.scalar)


def apply_functor(F: Autoequivalence, m: BasicMorphismCn) -> BasicMorphismCn:
    """Image of a morphism: endpoints mapped, scalar multiplied by ``a_ij``."""
    factor = F.a(m.target, m.source)
    return BasicMorphismCn(
        F(m.source), F(m.target), m.scalar * Cyclotomic.from_root(factor)
    )


def component(phi: NaturalIso, i: int) -> BasicMorphismCn:
    """Component ``i`` of a natural isomorphism, ``c[i-1] * x[t(i), s(i)]``."""
    return BasicMorphismCn(
        phi.source(i), phi.target(i), Cyclotomic.from_root(phi.c[i - 1])
    )


def swap2(coeff=None):
    return Autoequivalence(2, [2, 1], coeff)


def id2(coeff=None):
    return Autoequivalence(2, [1, 2], coeff)


# the three hand-checked anti-compatible shapes on two objects
SIGMA_CASE1 = id2([ONE, MINUS_ONE])      # identity on objects, a12 = -1
TAU_CASE1 = swap2()
SIGMA_CASE2 = swap2()
TAU_CASE2 = id2([ONE, MINUS_ONE])        # identity on objects, b12 = -1
SIGMA_CASE3 = swap2()
TAU_CASE3 = swap2([ONE, MINUS_ONE])      # swap with b12 = -1


def rand_auto(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    coeff = [RootOfUnity(Fraction(rng.randrange(12), 12)) for _ in range(n)]
    return Autoequivalence(n, perm, coeff)


def test_compose_basic():
    x23 = BasicMorphismCn(3, 2)
    x12 = BasicMorphismCn(2, 1)
    assert compose_basic(x12, x23) == BasicMorphismCn(3, 1)
    with pytest.raises(ValueError):
        compose_basic(x23, x12)
    ident = BasicMorphismCn(1, 1)
    a = BasicMorphismCn(1, 1, Cyclotomic.from_root(ONE, 3))
    assert compose_basic(a, ident) == a
    z4 = RootOfUnity.primitive(4)
    m = compose_basic(
        BasicMorphismCn(2, 1, Cyclotomic.from_root(ONE, 2)),
        BasicMorphismCn(1, 2, Cyclotomic.from_root(z4)),
    )
    assert m == BasicMorphismCn(1, 1, Cyclotomic.from_root(z4, 2))


def test_apply_functor_examples():
    x12 = BasicMorphismCn(2, 1)
    assert apply_functor(Autoequivalence.identity(2), x12) == x12
    assert apply_functor(swap2(), x12) == BasicMorphismCn(1, 2)
    # identity object map with sign -1 negates the cross morphism
    assert apply_functor(TAU_CASE2, x12) == BasicMorphismCn(2, 1, -CYC_ONE)


def test_functor_is_faithful():
    rng = random.Random(5)
    for _ in range(50):
        F = rand_auto(rng, 4)
        m = BasicMorphismCn(rng.randrange(1, 5), rng.randrange(1, 5))
        assert not apply_functor(F, m).is_zero()


def test_functoriality_random():
    rng = random.Random(7)
    for _ in range(50):
        F = rand_auto(rng, 3)
        i, j, k = (rng.randrange(1, 4) for _ in range(3))
        f = BasicMorphismCn(k, j)
        g = BasicMorphismCn(j, i)
        assert apply_functor(F, compose_basic(g, f)) == compose_basic(
            apply_functor(F, g), apply_functor(F, f)
        )


def inverse(F):
    """The inverse of an automorphism, for the composite oracles below."""
    inv_map = [0] * F.n
    for i in range(1, F.n + 1):
        inv_map[F(i) - 1] = i
    coeff = [F.coeff[inv_map[i] - 1].inverse() for i in range(F.n)]
    return Autoequivalence(F.n, inv_map, coeff)


def test_compose_and_inverse():
    rng = random.Random(11)
    for _ in range(50):
        f = rand_auto(rng, 3)
        g = rand_auto(rng, 3)
        assert f.compose(inverse(f)) == Autoequivalence.identity(3)
        assert inverse(f).compose(f) == Autoequivalence.identity(3)
        m = BasicMorphismCn(rng.randrange(1, 4), rng.randrange(1, 4))
        assert apply_functor(f.compose(g), m) == apply_functor(
            f, apply_functor(g, m)
        )


def test_coefficient_normalization():
    z5 = RootOfUnity.primitive(5)
    F = Autoequivalence(2, [2, 1], [z5, z5 * MINUS_ONE])
    assert F.coeff[0] == ONE
    assert F.a(1, 2) == MINUS_ONE
    assert F == Autoequivalence(2, [2, 1], [ONE, MINUS_ONE])


def test_commutes():
    assert commutes(SIGMA_CASE1, SIGMA_CASE1)
    assert commutes(SIGMA_CASE2, TAU_CASE3)
    # an identity-on-objects twist by a third root of unity does not
    # commute with the flip
    z3 = RootOfUnity.primitive(3)
    twist = id2([ONE, z3])
    assert not commutes(twist, swap2())
    assert commutes(twist, Autoequivalence.identity(2))


def test_natural_iso_cases():
    phi = natural_iso(SIGMA_CASE1, TAU_CASE1)
    assert phi.c == (ONE, MINUS_ONE)
    assert phi.is_natural()
    phi2 = natural_iso(SIGMA_CASE2, TAU_CASE2)
    assert phi2.c == (ONE, MINUS_ONE)
    F = swap2([ONE, RootOfUnity.primitive(3)])
    same = natural_iso(F, F)
    assert all(c == ONE for c in same.c)


def test_naturality_square_random():
    rng = random.Random(13)
    for _ in range(30):
        s = rand_auto(rng, 3)
        t = rand_auto(rng, 3)
        phi = natural_iso(s, t)
        for i in range(1, 4):
            for j in range(1, 4):
                x = BasicMorphismCn(j, i)
                lhs = compose_basic(apply_functor(t, x), component(phi, j))
                rhs = compose_basic(component(phi, i), apply_functor(s, x))
                assert lhs == rhs


def test_continuity_factor_examples():
    assert continuity_factor(SIGMA_CASE1, SIGMA_CASE1) == ONE
    assert continuity_factor(SIGMA_CASE2, Autoequivalence.identity(2)) == ONE
    assert continuity_factor(SIGMA_CASE2, TAU_CASE2) == MINUS_ONE
    assert continuity_factor(SIGMA_CASE1, TAU_CASE1) == MINUS_ONE
    assert continuity_factor(SIGMA_CASE3, TAU_CASE3) == MINUS_ONE


def test_continuity_factor_preconditions():
    z3 = RootOfUnity.primitive(3)
    with pytest.raises(ValueError):
        continuity_factor(id2([ONE, z3]), swap2())
    non_auto = Autoequivalence(2, [1, 1])
    with pytest.raises(ValueError):
        continuity_factor(non_auto, id2())


def test_anti_symmetry_of_the_pairing():
    rng = random.Random(17)
    seen = 0
    for _ in range(200):
        s = rand_auto(rng, 3)
        t = rand_auto(rng, 3)
        if not commutes(s, t):
            continue
        seen += 1
        assert continuity_factor(s, t) * continuity_factor(t, s) == ONE
    assert seen > 10


def test_is_anti_compatible():
    assert not is_anti_compatible(SIGMA_CASE1, SIGMA_CASE1)
    assert is_anti_compatible(SIGMA_CASE1, TAU_CASE1)
    assert is_anti_compatible(SIGMA_CASE3, TAU_CASE3)


def test_check_skew_continuity():
    assert check_skew_continuity(natural_iso(SIGMA_CASE1, TAU_CASE1))
    assert check_skew_continuity(natural_iso(SIGMA_CASE2, TAU_CASE2))
    F = swap2([ONE, RootOfUnity.primitive(5)])
    assert not check_skew_continuity(natural_iso(F, F))
    # compatible pairs are never skew
    assert not check_skew_continuity(
        natural_iso(SIGMA_CASE2, Autoequivalence.identity(2))
    )


def test_conjugation_preserves_continuity_factor():
    rng = random.Random(19)
    for _ in range(100):
        rho = rand_auto(rng, 2)
        s2, t2 = conjugate_pair(rho, SIGMA_CASE1, TAU_CASE1)
        assert commutes(s2, t2)
        assert continuity_factor(s2, t2) == MINUS_ONE
    ident = Autoequivalence.identity(2)
    assert conjugate_pair(ident, SIGMA_CASE1, TAU_CASE1) == (
        SIGMA_CASE1,
        TAU_CASE1,
    )
    with pytest.raises(ValueError):
        conjugate_pair(Autoequivalence(2, [1, 1]), SIGMA_CASE1, TAU_CASE1)


def conjugate_by_composites(rho, F):
    """``rho . F . rho^-1`` as two composites: the oracle for ``conjugate``."""
    return rho.compose(F).compose(inverse(rho))


def test_conjugate_matches_composites():
    rng = random.Random(23)
    kinds = set()
    for n in range(1, 6):
        for _ in range(300):
            rho = rand_auto(rng, n)
            if rng.random() < 0.25:
                # a change of basis: every object fixed
                rho = Autoequivalence(n, range(1, n + 1), rho.coeff)
            table = [rng.randrange(1, n + 1) for _ in range(n)]
            coeff = [
                RootOfUnity(Fraction(rng.randrange(12), 12)) for _ in range(n)
            ]
            F = Autoequivalence(n, table, coeff)
            got = conjugate(rho, F)
            assert got == conjugate_by_composites(rho, F)
            assert got.is_automorphism() == F.is_automorphism()
            kinds.add((n, F.is_automorphism()))
    # each size above 1 saw bijective and non-bijective functors
    assert kinds == {(1, True)} | {
        (n, b) for n in range(2, 6) for b in (True, False)
    }
    with pytest.raises(ValueError):
        conjugate(Autoequivalence(2, [2, 1]), Autoequivalence.identity(3))


def test_json_roundtrip():
    F = swap2([ONE, RootOfUnity(Fraction(1, 3))])
    data = F.to_json()
    assert data["object_map"] == [2, 1]
    assert data["coeff"] == ["0/1", "1/3"]
    assert "m" not in data
    assert Autoequivalence.from_json(data) == F
    # a functor onto a smaller category records its codomain size
    G = Autoequivalence(3, [1, 2, 2], [ONE, MINUS_ONE, ONE], m=2)
    assert G.to_json()["m"] == 2
    assert Autoequivalence.from_json(G.to_json()) == G
    assert Autoequivalence.identity(2).compose(G) == G
    assert G != Autoequivalence(3, [1, 2, 2], [ONE, MINUS_ONE, ONE])


perms3 = st.permutations([1, 2, 3])
coeffs3 = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=6).map(RootOfUnity),
    min_size=3,
    max_size=3,
)


@given(perms3, coeffs3, perms3, coeffs3)
@settings(max_examples=80, deadline=None)
def test_continuity_factor_well_defined(p1, c1, p2, c2):
    s = Autoequivalence(3, p1, c1)
    t = Autoequivalence(3, p2, c2)
    if not commutes(s, t):
        return
    value = continuity_factor(s, t)
    # rescaling the natural isomorphism must not change the value
    phi = natural_iso(s, t)
    r = RootOfUnity(Fraction(1, 7))
    rescaled = NaturalIso(s, t, [c * r for c in phi.c])
    assert rescaled.is_natural()
    alt = {
        s.a(t(i), s(i)) * rescaled.c[i - 1] / rescaled.c[s(i) - 1]
        for i in range(1, 4)
    }
    assert alt == {value}


# ---------------------------------------------------------------------------
# the one-ratio checks against their definitions over all pairs


def intertwines_all_pairs(F, s1, s2):
    """Reference for ``Autoequivalence.intertwines``: every pair (i, j)."""
    objects = range(1, F.n + 1)
    if any(F(s1(i)) != s2(F(i)) for i in objects):
        return False
    return all(
        s1.a(i, j) * F.a(s1(i), s1(j)) == F.a(i, j) * s2.a(F(i), F(j))
        for i in objects
        for j in objects
    )


def is_natural_all_pairs(phi):
    """Reference for ``NaturalIso.is_natural``: every pair (i, j)."""
    objects = range(1, phi.source.n + 1)
    return all(
        phi.c[j - 1] * phi.source.a(j, i) == phi.target.a(j, i) * phi.c[i - 1]
        for i in objects
        for j in objects
    )


def small_roots(rng, n):
    # few distinct values, so that the checks come out true often enough
    q = rng.choice([2, 4])
    return [RootOfUnity.primitive(q, rng.randrange(q)) for _ in range(n)]


def rand_endo(rng, n):
    """An automorphism of [n], or the identity on objects half the time."""
    perm = list(range(1, n + 1))
    if rng.random() < 0.5:
        rng.shuffle(perm)
    return Autoequivalence(n, perm, small_roots(rng, n))


def test_intertwines_matches_all_pairs():
    rng = random.Random(17)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4) if rng.random() < 0.5 else n
        F = Autoequivalence(
            n, [rng.randint(1, m) for _ in range(n)], small_roots(rng, n), m
        )
        s1 = rand_endo(rng, n)
        s2 = rand_endo(rng, m)
        if F.is_automorphism() and rng.random() < 0.5:
            # F s1 F^-1, so that F s1 = s2 F, then perhaps one entry off
            s2 = conjugate_by_composites(F, s1)
            if rng.random() < 0.5:
                c = list(s2.coeff)
                c[rng.randrange(m)] = small_roots(rng, 1)[0]
                s2 = Autoequivalence(m, s2.object_map, c)
        want = intertwines_all_pairs(F, s1, s2)
        assert F.intertwines(s1, s2) == want
        seen.add((n == m, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_is_natural_matches_all_pairs():
    rng = random.Random(23)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 4)
        s, t = rand_endo(rng, n), rand_endo(rng, n)
        if rng.random() < 0.5:
            # the canonical iso times one root, perhaps with one entry off
            k = small_roots(rng, 1)[0]
            c = [k * x for x in natural_iso(s, t).c]
            if rng.random() < 0.5:
                c[rng.randrange(n)] = small_roots(rng, 1)[0]
        else:
            c = small_roots(rng, n)
        phi = NaturalIso(s, t, c)
        want = is_natural_all_pairs(phi)
        assert phi.is_natural() == want
        seen.add(want)
    assert seen == {True, False}
