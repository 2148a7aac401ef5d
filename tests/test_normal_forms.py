import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from covercat.cn import Autoequivalence, commutes
from covercat.normal_forms import (
    ChangeOfBasis,
    enumerate_centralizer,
    good_basis,
    is_good,
    is_indecomposable,
    normalize_pair,
    perm_cycles,
    sigma_tau_orbits,
)
from covercat.scalars import MINUS_ONE, ONE, RootOfUnity


# ---------------------------------------------------------------------------
# orbit bookkeeping: oracles for the tests below, not used by the library


def centralizer_size(perm):
    """Order of the centralizer of a permutation in the symmetric group.

    For cycle type with ``e_i`` cycles of length ``l_i`` the size is the
    product of ``l_i**e_i * e_i!``.
    """
    lengths = {}
    for cyc in perm_cycles(perm):
        lengths[len(cyc)] = lengths.get(len(cyc), 0) + 1
    size = 1
    for length, count in lengths.items():
        size *= length ** count * factorial(count)
    return size


class OrbitData:
    """Cycle partition of an automorphism plus its transition factors."""

    __slots__ = ("orbits", "factors")

    def __init__(self, orbits, factors=None):
        self.orbits = tuple(tuple(o) for o in orbits)
        self.factors = dict(factors) if factors else {}

    def serialize(self):
        return {
            "orbits": [list(o) for o in self.orbits],
            "factors": [
                [a, b, str(v)] for (a, b), v in sorted(self.factors.items())
            ],
        }

    def __repr__(self):
        return f"OrbitData(orbits={self.orbits})"


def sigma_orbits(s):
    """Cycle partition of the object permutation of an automorphism."""
    if not s.is_automorphism():
        raise ValueError("orbit decomposition needs an automorphism")
    return OrbitData(perm_cycles(s.object_map))


def transition_factors(s):
    """Orbit-pair coefficients of an automorphism in a good basis."""
    if not is_good(s):
        raise ValueError("transition factors require a good basis")
    orbits = perm_cycles(s.object_map)
    factors = {}
    for ia, A in enumerate(orbits):
        for ib, B in enumerate(orbits):
            factors[(ia, ib)] = s.a(A[0], B[0])
    return OrbitData(orbits, factors)


def change_of_good_basis_deltas(b1, b2, s):
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


def comparison_basis(t, s1, s2, target_basis):
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


def rand_auto(rng, n, orders=12):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    coeff = [
        RootOfUnity(Fraction(rng.randrange(orders), orders)) for _ in range(n)
    ]
    return Autoequivalence(n, perm, coeff)


def test_sigma_orbits():
    assert sigma_orbits(Autoequivalence.identity(3)).orbits == (
        (1,),
        (2,),
        (3,),
    )
    assert sigma_orbits(Autoequivalence(3, [2, 3, 1])).orbits == ((1, 2, 3),)
    assert sigma_orbits(Autoequivalence(4, [2, 1, 4, 3])).orbits == (
        (1, 2),
        (3, 4),
    )
    with pytest.raises(ValueError):
        sigma_orbits(Autoequivalence(2, [1, 1]))


def test_good_basis_trivial_input():
    s = Autoequivalence(3, [2, 3, 1])
    basis = good_basis(s)
    # all coefficients already 1: the change of basis is constant
    assert len(set(basis.g)) == 1
    assert basis.rebase(s) == s


def test_good_basis_random():
    rng = random.Random(3)
    for _ in range(50):
        s = rand_auto(rng, 4)
        rebased = good_basis(s).rebase(s)
        assert is_good(rebased)
        for orbit in perm_cycles(rebased.object_map):
            for i in orbit:
                for j in orbit:
                    assert rebased.a(i, j) == ONE


def test_good_basis_idempotent():
    rng = random.Random(4)
    for _ in range(20):
        s = good_basis(s0 := rand_auto(rng, 5)).rebase(s0)
        again = good_basis(s).rebase(s)
        assert is_good(again)


def test_n_cycle_power_is_identity():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        perm = list(range(2, n + 1)) + [1]
        coeff = [
            RootOfUnity(Fraction(rng.randrange(8), 8)) for _ in range(n)
        ]
        s = good_basis(
            raw := Autoequivalence(n, perm, coeff)
        ).rebase(raw)
        power = Autoequivalence.identity(n)
        for _ in range(n):
            power = s.compose(power)
        assert power == Autoequivalence.identity(n)


def test_transition_factors():
    single = Autoequivalence(3, [2, 3, 1])
    data = transition_factors(single)
    assert data.factors == {(0, 0): ONE}
    two = Autoequivalence(2, [1, 2], [ONE, MINUS_ONE])
    data = transition_factors(two)
    assert data.factors[(0, 1)] == MINUS_ONE
    assert data.factors[(1, 0)] == MINUS_ONE
    assert data.factors[(0, 0)] == ONE
    with pytest.raises(ValueError):
        transition_factors(
            Autoequivalence(2, [2, 1], [ONE, RootOfUnity.primitive(3)])
        )
    ser = data.serialize()
    assert ser["orbits"] == [[1], [2]]
    assert [0, 1, "1/2"] in ser["factors"]


def test_transition_factor_power_invariance():
    # between equal-size orbits the |A|-th power of the factor does not
    # depend on the chosen good basis
    rng = random.Random(6)
    for _ in range(30):
        s0 = rand_auto(rng, 4)
        b1 = good_basis(s0)
        g2 = list(b1.g)
        for orbit in perm_cycles(s0.object_map):
            mlen = len(orbit)
            d = RootOfUnity(Fraction(rng.randrange(mlen), mlen))
            i = orbit[0]
            for k in range(mlen):
                g2[i - 1] = g2[i - 1] * (d ** (-k))
                i = s0(i)
        b2 = ChangeOfBasis(g2)
        f1 = transition_factors(b1.rebase(s0))
        f2 = transition_factors(b2.rebase(s0))
        for (ia, ib), v in f1.factors.items():
            A, B = f1.orbits[ia], f1.orbits[ib]
            if len(A) == len(B):
                assert v ** len(A) == f2.factors[(ia, ib)] ** len(A)


def test_change_of_good_basis_deltas():
    rng = random.Random(7)
    for _ in range(100):
        s = rand_auto(rng, 4)
        b1 = good_basis(s)
        g2 = list(b1.g)
        expected = []
        for orbit in perm_cycles(s.object_map):
            mlen = len(orbit)
            d = RootOfUnity(Fraction(rng.randrange(mlen), mlen))
            expected.append(d)
            i = orbit[0]
            for k in range(mlen):
                g2[i - 1] = g2[i - 1] * (d ** (-k))
                i = s(i)
        deltas = change_of_good_basis_deltas(b1, ChangeOfBasis(g2), s)
        assert deltas == expected
        for delta, orbit in zip(deltas, perm_cycles(s.object_map)):
            assert delta ** len(orbit) == ONE

    identical = good_basis(s)
    assert all(
        d == ONE
        for d in change_of_good_basis_deltas(identical, identical, s)
    )
    with pytest.raises(ValueError):
        bad = ChangeOfBasis([ONE, RootOfUnity.primitive(5), ONE, ONE])
        change_of_good_basis_deltas(
            good_basis(cyc := Autoequivalence(4, [2, 3, 4, 1])),
            bad,
            cyc,
        )


def test_centralizer_size_formula():
    assert centralizer_size((1, 2, 3)) == 6
    assert centralizer_size((2, 3, 1)) == 3
    assert centralizer_size((2, 1, 4, 3)) == 8
    assert centralizer_size((2, 1, 3, 4)) == 4
    assert centralizer_size((2, 3, 4, 5, 1)) == 5


def brute_centralizer(perm):
    n = len(perm)
    return [
        q
        for q in permutations(range(1, n + 1))
        if all(q[perm[i] - 1] == perm[q[i] - 1] for i in range(n))
    ]


def test_centralizer_matches_brute_force():
    rng = random.Random(8)
    cases = [(1, 2), (2, 1), (2, 3, 1), (2, 1, 4, 3), (2, 3, 1, 4)]
    for n in (5, 6):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        cases.append(tuple(perm))
    for perm in cases:
        expected = sorted(brute_centralizer(perm))
        got = sorted(enumerate_centralizer(perm))
        assert got == expected
        assert centralizer_size(perm) == len(expected)


def test_sigma_tau_orbits():
    flip = Autoequivalence(2, [2, 1])
    ident = Autoequivalence.identity(2)
    assert sigma_tau_orbits(flip, ident) == [(1, 2)]
    assert sigma_tau_orbits(ident, ident) == [(1,), (2,)]
    s4 = Autoequivalence(4, [2, 1, 4, 3])
    t4 = Autoequivalence(4, [3, 4, 1, 2])
    assert sigma_tau_orbits(s4, t4) == [(1, 2, 3, 4)]
    assert is_indecomposable(s4, t4)
    assert not is_indecomposable(ident, ident)
    # non-surjective second map: preimage closure keeps blocks merged
    collapse = Autoequivalence(4, [3, 4, 3, 4])
    assert is_indecomposable(s4, collapse)


def commuting_pair_stream(rng, n, count, orders=8, surjective=None):
    produced = 0
    while produced < count:
        s = rand_auto(rng, n, orders)
        perm = [rng.randrange(1, n + 1) for _ in range(n)]
        coeff = [
            RootOfUnity(Fraction(rng.randrange(orders), orders))
            for _ in range(n)
        ]
        t = Autoequivalence(n, perm, coeff)
        if surjective is not None and t.is_automorphism() != surjective:
            continue
        if not commutes(s, t):
            continue
        produced += 1
        yield s, t


def test_normalize_pair_single_orbit_blocks():
    rng = random.Random(9)
    found = 0
    while found < 60:
        s = Autoequivalence(
            4,
            [2, 1, 4, 3],
            [RootOfUnity(Fraction(rng.randrange(8), 8)) for _ in range(4)],
        )
        t = Autoequivalence(
            4,
            [3, 4, 1, 2],
            [RootOfUnity(Fraction(rng.randrange(8), 8)) for _ in range(4)],
        )
        if not commutes(s, t):
            continue
        found += 1
        s2, t2, basis = normalize_pair(s, t)
        assert basis.rebase(s) == s2
        assert basis.rebase(t) == t2
        assert commutes(s2, t2)
        for c in list(s2.coeff) + list(t2.coeff):
            assert 24 % c.order == 0


def test_normalize_pair_non_surjective():
    rng = random.Random(10)
    checked = 0
    for s, t in commuting_pair_stream(rng, 4, 200, orders=6):
        if not is_indecomposable(s, t):
            continue
        checked += 1
        s2, t2, basis = normalize_pair(s, t)
        assert basis.rebase(s) == s2
        assert basis.rebase(t) == t2
        for c in list(s2.coeff) + list(t2.coeff):
            assert 24 % c.order == 0
        if checked >= 60:
            break
    assert checked >= 20


def test_normalize_pair_exhaustive_small():
    # every indecomposable commuting pair on up to three objects
    # normalizes into coefficients of order dividing n!
    for n in (2, 3):
        bound = 1
        for k in range(1, n + 1):
            bound *= k
        object_maps = list(product(range(1, n + 1), repeat=n))
        perms = [p for p in object_maps if len(set(p)) == n]
        coeff_choices = list(
            product([Fraction(0), Fraction(1, 2)], repeat=n - 1)
        )
        for sp in perms:
            for tp in object_maps:
                for sc in coeff_choices:
                    for tc in coeff_choices:
                        s = Autoequivalence(
                            n, sp, [ONE] + [RootOfUnity(e) for e in sc]
                        )
                        t = Autoequivalence(
                            n, tp, [ONE] + [RootOfUnity(e) for e in tc]
                        )
                        if not commutes(s, t):
                            continue
                        if not is_indecomposable(s, t):
                            continue
                        s2, t2, basis = normalize_pair(s, t)
                        assert basis.rebase(s) == s2
                        assert basis.rebase(t) == t2
                        for c in list(s2.coeff) + list(t2.coeff):
                            assert bound % c.order == 0


def test_normalize_pair_preconditions():
    ident = Autoequivalence.identity(2)
    with pytest.raises(ValueError):
        normalize_pair(ident, ident)  # decomposable
    with pytest.raises(ValueError):
        normalize_pair(Autoequivalence(2, [1, 1]), ident)
    z3 = RootOfUnity.primitive(3)
    with pytest.raises(ValueError):
        normalize_pair(
            Autoequivalence(2, [1, 2], [ONE, z3]), Autoequivalence(2, [2, 1])
        )


def test_orbitwise_coefficient_order():
    # in a good basis the coefficient of the second functor along a
    # cycle is constant on the cycle and its |A|-th power is 1
    rng = random.Random(11)
    for s, t in commuting_pair_stream(rng, 4, 30, orders=6):
        gb = good_basis(s)
        s1, t1 = gb.rebase(s), gb.rebase(t)
        for orbit in perm_cycles(s1.object_map):
            values = {t1.coeff[s1(i) - 1] / t1.coeff[i - 1] for i in orbit}
            assert len(values) == 1
            assert values.pop() ** len(orbit) == ONE


def test_comparison_basis():
    ident2 = Autoequivalence.identity(2)
    t = Autoequivalence(2, [2, 1], [ONE, MINUS_ONE], m=2)
    assert t.intertwines(ident2, ident2)
    basis = comparison_basis(t, ident2, ident2, ChangeOfBasis.identity(2))
    rebased = basis.rebase(t, ChangeOfBasis.identity(2))
    assert all(c == ONE for c in rebased.coeff)
    # identity functor: the target basis pulls back to itself
    tid = Autoequivalence(2, [1, 2], m=2)
    same = comparison_basis(tid, ident2, ident2, ChangeOfBasis.identity(2))
    assert same.g[0] / same.g[1] == ONE

    with pytest.raises(ValueError):
        comparison_basis(
            Autoequivalence(
                2, [2, 1], [ONE, RootOfUnity.primitive(3)], m=2
            ),
            Autoequivalence(2, [1, 2], [ONE, RootOfUnity.primitive(5)]),
            ident2,
            ChangeOfBasis.identity(2),
        )


def test_comparison_basis_cross_size():
    # collapse three objects onto two rotating under commuting cycles
    s1 = Autoequivalence(4, [2, 1, 4, 3])
    s2 = Autoequivalence(2, [2, 1])
    t = Autoequivalence(
        4,
        [1, 2, 2, 1],
        [ONE, ONE, MINUS_ONE, RootOfUnity.primitive(4)],
        m=2,
    )
    if not t.intertwines(s1, s2):
        # adjust coefficients until the intertwining relation holds
        t = Autoequivalence(
            4, [1, 2, 2, 1], [ONE, ONE, MINUS_ONE, MINUS_ONE], m=2
        )
    assert t.intertwines(s1, s2)
    basis = comparison_basis(t, s1, s2, ChangeOfBasis.identity(2))
    rebased = basis.rebase(t, ChangeOfBasis.identity(2))
    assert all(c == ONE for c in rebased.coeff)
    assert is_good(basis.rebase(s1))


def test_mixed_orbit_power_identity():
    # when images land in one target cycle, the source transition
    # coefficient has order dividing any common multiple of the two
    # source cycle lengths
    s1 = Autoequivalence(4, [2, 1, 4, 3])
    s2 = Autoequivalence(2, [2, 1])
    t = Autoequivalence(
        4, [1, 2, 2, 1], [ONE, ONE, MINUS_ONE, MINUS_ONE], m=2
    )
    assert t.intertwines(s1, s2)
    basis = comparison_basis(t, s1, s2, ChangeOfBasis.identity(2))
    rebased_s1 = basis.rebase(s1)
    for i in (1, 2):
        for j in (3, 4):
            assert rebased_s1.a(i, j) ** 2 == ONE
