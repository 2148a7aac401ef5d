import cmath
import operator
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from covercat.scalars import (
    CYC_ONE,
    CYC_ZERO,
    MINUS_ONE,
    ONE,
    Cyclotomic,
    MonomialCoefficient,
    RootOfUnity,
    _reduce_poly_mod_cyclotomic,
    cyclotomic_polynomial,
    cyclotomic_reduce,
    geometric_mean,
    principal_root,
)


def as_root(c):
    """The value of a ``Cyclotomic`` as a root of unity; raises if it is
    not one."""
    if len(c.terms) == 1:
        (root, coeff), = c.terms.items()
        if coeff == 1:
            return root
    raise ValueError(f"{c!r} is not a root of unity")


def from_rational(r):
    """A rational as a ``Cyclotomic``."""
    return Cyclotomic.from_root(ONE, r)


def is_unit(m):
    """Whether a ``MonomialCoefficient`` is invertible."""
    return m.upower == 0 and not m.is_zero()


roots = st.builds(
    RootOfUnity,
    st.fractions(
        min_value=0, max_value=10, max_denominator=24
    ),
)


def test_root_normalization():
    assert RootOfUnity(Fraction(5, 2)) == RootOfUnity(Fraction(1, 2))
    assert RootOfUnity(Fraction(-1, 3)) == RootOfUnity(Fraction(2, 3))
    assert RootOfUnity(3) == ONE
    assert RootOfUnity.from_string("2/3").order == 3
    assert str(RootOfUnity(Fraction(1, 4))) == "1/4"
    assert str(ONE) == "0/1"


def test_root_group_examples():
    z3 = RootOfUnity.primitive(3)
    z6 = RootOfUnity.primitive(6)
    assert z3 * z3 == RootOfUnity(Fraction(2, 3))
    assert z3 * z3 * z3 == ONE
    assert z6 ** 3 == MINUS_ONE
    assert -z3 == z6 ** 5
    assert MINUS_ONE * MINUS_ONE == ONE
    assert z3.inverse() == z3 ** 2
    assert (z3 / z6) == z6


@given(roots, roots, roots)
def test_root_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * a.inverse() == ONE
    assert a * ONE == a


@given(roots, st.integers(min_value=1, max_value=24))
def test_principal_root_power(a, n):
    r = principal_root(a, n)
    assert r ** n == a
    # the principal branch has the smallest exponent among n-th roots
    assert 0 <= r.exponent < Fraction(1)
    assert r.exponent * n == a.exponent


@given(st.lists(roots, min_size=1, max_size=8))
def test_geometric_mean_power(cs):
    g = geometric_mean(cs)
    prod = ONE
    for c in cs:
        prod = prod * c
    assert g ** len(cs) == prod


def test_geometric_mean_examples():
    assert geometric_mean([ONE, ONE]) == ONE
    assert geometric_mean([ONE, MINUS_ONE]) == RootOfUnity(Fraction(1, 4))
    assert principal_root(RootOfUnity(Fraction(1, 2)), 2) == RootOfUnity(
        Fraction(1, 4)
    )


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first non-unit coefficient


def test_exact_zero_detection():
    z3 = RootOfUnity.primitive(3)
    z5 = RootOfUnity.primitive(5)
    s = CYC_ONE + Cyclotomic.from_root(z3) + Cyclotomic.from_root(z3 ** 2)
    assert s.is_zero()
    assert (Cyclotomic.from_root(z5) - Cyclotomic.from_root(z5)).is_zero()
    full = sum(
        (Cyclotomic.from_root(z5 ** k) for k in range(1, 5)),
        CYC_ONE,
    )
    assert full.is_zero()
    assert not (CYC_ONE + Cyclotomic.from_root(z5)).is_zero()


def reduce_by_fractions(poly, q):
    """Reference remainder mod the q-th cyclotomic polynomial, taken in
    ``Fraction`` arithmetic over every coefficient."""
    phi = cyclotomic_polynomial(q)
    deg = len(phi) - 1
    poly = poly + [Fraction(0)] * (max(0, deg) - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c == 0:
            continue
        poly[k] = Fraction(0)
        for j in range(deg):
            poly[k - deg + j] -= c * phi[j]
    return poly[:deg]


def test_integer_reducer_matches_fraction_reference():
    rng = random.Random(48)
    for q in range(1, 49):
        for _ in range(10):
            # the length of a reducer input ranges from one term to q
            poly = [
                Fraction(rng.randrange(-20, 21), rng.randrange(1, 13))
                if rng.random() < 0.6
                else Fraction(0)
                for _ in range(rng.randrange(1, q + 1))
            ]
            assert _reduce_poly_mod_cyclotomic(
                list(poly), q
            ) == reduce_by_fractions(list(poly), q)


def test_monomial_canonical_form():
    z3 = RootOfUnity.primitive(3)
    z6 = RootOfUnity.primitive(6)
    a = -Cyclotomic.from_root(z3)
    assert a.is_monomial()
    assert as_root(a) == z6 ** 5
    assert a.terms == Cyclotomic.from_root(z6 ** 5).terms
    # a sum that collapses to a single root is recognized
    b = CYC_ONE + Cyclotomic.from_root(z3)
    assert as_root(b) == z6
    # and one that does not stays multi-term
    c = CYC_ONE + Cyclotomic.from_root(RootOfUnity.primitive(4))
    assert not c.is_monomial()
    assert len(c.terms) == 2


# keep the common root order small so reductions stay cheap
small_roots = st.builds(
    RootOfUnity,
    st.fractions(min_value=0, max_value=2, max_denominator=8),
)
cycs = st.lists(
    st.tuples(
        small_roots,
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    ),
    max_size=4,
).map(lambda ts: Cyclotomic(dict(ts)))


@given(cycs, cycs, cycs)
@settings(max_examples=60, deadline=None)
def test_cyclotomic_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x - x).is_zero()
    assert x + CYC_ZERO == x
    assert x * CYC_ONE == x


# roots of orders 1, 2, 3, 4, 6 and 12, so that one value can be reduced
# from several different sets of term orders
mixed_roots = st.sampled_from([1, 2, 3, 4, 6, 12]).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda k: RootOfUnity(Fraction(k, q)))
)
mixed_sums = st.lists(
    st.tuples(mixed_roots, st.integers(min_value=1, max_value=3)),
    min_size=2,
    max_size=4,
).map(lambda ts: Cyclotomic(dict(ts)))


def test_equal_cyclotomics_hash_equally():
    a = from_rational(2) + Cyclotomic.from_root(
        RootOfUnity.primitive(3)
    )
    b = CYC_ONE + Cyclotomic.from_root(RootOfUnity.primitive(6))
    assert a == b
    assert len({a, b}) == 1
    # a coefficient far below any float tolerance: e + e*zeta_3 = e*zeta_6
    e = Fraction(1, 10**12)
    a = Cyclotomic({ONE: e, RootOfUnity.primitive(3): e})
    b = Cyclotomic.from_root(RootOfUnity.primitive(6), e)
    assert a == b
    assert a.is_monomial()
    assert len({a, b}) == 1


@given(mixed_sums, mixed_roots)
@settings(max_examples=100, deadline=None)
def test_equal_implies_same_hash(x, root):
    # adding and removing a root re-reduces x over other term orders
    w = Cyclotomic.from_root(root)
    y = (x + w) - w
    assert x == y
    assert hash(x) == hash(y)


@given(cycs)
@settings(max_examples=60, deadline=None)
def test_cyclotomic_float_crosscheck(x):
    approx = sum(
        (float(c) * r.complex_value() for r, c in x.terms.items()), 0j
    )
    assert cmath.isclose(
        approx, x.complex_value(), abs_tol=1e-9
    )
    if x.is_zero():
        assert abs(approx) < 1e-9


def test_cyclotomic_inverse():
    z3 = RootOfUnity.primitive(3)
    x = Cyclotomic.from_root(z3, Fraction(2, 5))
    assert x * x.inverse() == CYC_ONE
    # 1 + zeta_3 collapses to the primitive sixth root, so it is invertible
    assert (CYC_ONE + Cyclotomic.from_root(z3)).inverse() == Cyclotomic.from_root(
        RootOfUnity.primitive(6).inverse()
    )
    try:
        (CYC_ONE + Cyclotomic.from_root(RootOfUnity.primitive(4))).inverse()
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_cyclotomic_serialization_roundtrip():
    z3 = RootOfUnity.primitive(3)
    z4 = RootOfUnity.primitive(4)
    x = Cyclotomic({z3: Fraction(1), z4: Fraction(-2, 3)})
    data = x.serialize()
    assert all(isinstance(row[0], str) for row in data)
    terms = {
        RootOfUnity.from_string(exp): Fraction(num, den)
        for exp, num, den in data
    }
    assert Cyclotomic(terms) == x
    assert CYC_ZERO.serialize() == []


def test_monomial_coefficient_arithmetic():
    z3 = RootOfUnity.primitive(3)
    m = MonomialCoefficient.from_root(z3, 2)
    t = MonomialCoefficient.t()
    assert t.upower == 2
    assert (m * t) == MonomialCoefficient.from_root(z3, 4)
    assert (m - m).is_zero()
    assert (m - m).upower == 0
    assert MonomialCoefficient.zero() + m == m
    assert is_unit(m) is False
    assert is_unit(MonomialCoefficient.one())
    assert MonomialCoefficient.from_root(z3).inverse_unit() == (
        MonomialCoefficient.from_root(z3 ** 2)
    )
    try:
        m + MonomialCoefficient.one()
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")
    try:
        m.inverse_unit()
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


# ---------------------------------------------------------------------------
# the integer root kernel and the one-term fast paths, each checked against
# its reference: exponent arithmetic on Fractions mod 1, and
# cyclotomic_reduce on the raw term map

# k/q with k outside [0, q) too, so that every operation has to reduce
exponents = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 24))


@given(exponents, exponents, st.integers(-30, 30))
def test_integer_roots_match_fraction_exponents(e1, e2, n):
    a, b = RootOfUnity(e1), RootOfUnity(e2)
    assert a.exponent == e1 % 1
    assert (a * b).exponent == (e1 + e2) % 1
    assert (a / b).exponent == (e1 - e2) % 1
    assert (a ** n).exponent == (e1 * n) % 1
    assert a.inverse().exponent == -e1 % 1
    assert (-a).exponent == (e1 + Fraction(1, 2)) % 1
    assert principal_root(a, n % 7 + 1).exponent == (e1 % 1) / (n % 7 + 1)
    assert a.order == (e1 % 1).denominator
    assert str(a) == f"{(e1 % 1).numerator}/{(e1 % 1).denominator}"
    assert (a == b) == (e1 % 1 == e2 % 1)
    assert a.is_one() == (e1 % 1 == 0)


@given(exponents, st.integers(1, 12), st.integers(-5, 5), exponents)
def test_equal_roots_hash_equally(e, m, turns, other):
    # the same root reached through larger orders and extra turns
    a = RootOfUnity(e)
    q = e.denominator * m
    b = RootOfUnity.primitive(q, e.numerator * m + turns * q)
    c = RootOfUnity(other) * RootOfUnity(e - other)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1


nonzero_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
).filter(bool)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def same_form(x, ref):
    """Equal, with the same canonical terms (roots, rationals, order)."""
    assert x == ref
    assert list(x.terms.items()) == list(ref.terms.items())
    assert repr(x) == repr(ref)


@given(
    mixed_roots, nonzero_rationals, mixed_roots, nonzero_rationals, rationals
)
@settings(max_examples=150, deadline=None)
def test_monomial_fast_paths_match_reduction(r1, c1, r2, c2, s):
    x = Cyclotomic.from_root(r1, c1)
    y = Cyclotomic.from_root(r2, c2)
    same_form(x, cyclotomic_reduce({r1: c1}))
    same_form(from_rational(s), cyclotomic_reduce({ONE: s}))
    (rx, cx), = x.terms.items()
    (ry, cy), = y.terms.items()
    assert cx > 0 and cy > 0
    same_form(x * y, cyclotomic_reduce({rx * ry: cx * cy}))
    same_form(-x, cyclotomic_reduce({rx: -cx}))
    same_form(x.inverse(), cyclotomic_reduce({rx.inverse(): 1 / cx}))
    raw = dict(x.terms)
    raw[ry] = raw.get(ry, Fraction(0)) + cy
    same_form(x + y, cyclotomic_reduce(raw))
    # equality of two one-term forms agrees with the exact zero test
    assert (x == y) == (x - y).is_zero()
    m = MonomialCoefficient(x, 4) * MonomialCoefficient(y)
    assert m.upower == 4
    same_form(m.scalar, cyclotomic_reduce({rx * ry: cx * cy}))
    m = MonomialCoefficient(x, 4).scale(r2)
    assert m.upower == 4
    same_form(m.scalar, cyclotomic_reduce({rx * r2: cx}))


@given(mixed_roots, rationals)
def test_zero_and_one_fast_paths(r, s):
    x = Cyclotomic.from_root(r, s)
    same_form(x, cyclotomic_reduce({r: s}))
    same_form(CYC_ONE, cyclotomic_reduce({ONE: Fraction(1)}))
    same_form(Cyclotomic.one(), cyclotomic_reduce({ONE: 1}))
    for z in (x * CYC_ZERO, CYC_ZERO * x, -CYC_ZERO, x + CYC_ZERO - x):
        same_form(z, cyclotomic_reduce({}))
    zero = MonomialCoefficient(Cyclotomic.from_root(r), 4) * (
        MonomialCoefficient.zero()
    )
    assert zero.is_zero() and zero.upower == 0


# ---------------------------------------------------------------------------
# root-valued MonomialCoefficient against the Cyclotomic-backed reference


class CyclotomicMonomial:
    """The former ``MonomialCoefficient``: every scalar a ``Cyclotomic``."""

    __slots__ = ("_scalar", "_upower")

    def __init__(self, scalar, upower=0):
        if upower < 0:
            raise ValueError("u-power must be nonnegative")
        if scalar.is_zero():
            upower = 0
        self._scalar = scalar
        self._upower = upower

    @property
    def scalar(self):
        return self._scalar

    @property
    def upower(self):
        return self._upower

    def is_zero(self):
        return self._scalar.is_zero()

    def __mul__(self, other):
        return CyclotomicMonomial(
            self._scalar * other._scalar, self._upower + other._upower
        )

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._upower != other._upower:
            raise ValueError(
                "sum of monomials with different u-powers is not a monomial"
            )
        return CyclotomicMonomial(self._scalar + other._scalar, self._upower)

    def __neg__(self):
        return CyclotomicMonomial(-self._scalar, self._upower)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return CyclotomicMonomial(self._scalar * c, self._upower)

    def inverse_unit(self):
        if self._upower != 0:
            raise ValueError("positive u-powers are not invertible")
        return CyclotomicMonomial(self._scalar.inverse())

    def is_unit(self):
        return self._upower == 0 and not self._scalar.is_zero()

    def __eq__(self, other):
        return self._upower == other._upower and self._scalar == other._scalar

    def __hash__(self):
        return hash((self._scalar, self._upower))


def pair(terms, upower):
    """The same value as a ``MonomialCoefficient`` and as the reference."""
    scalar = Cyclotomic(dict(terms))
    return MonomialCoefficient(scalar, upower), CyclotomicMonomial(
        scalar, upower
    )


def agrees(x, ref):
    assert x.upower == ref.upower
    assert x.is_zero() == ref.is_zero()
    assert is_unit(x) == ref.is_unit()
    assert x.scalar == ref.scalar
    assert x.scalar.serialize() == ref.scalar.serialize()


def outcome(op, *args):
    """``op(*args)``, or ``ValueError`` if it raises one."""
    try:
        return op(*args)
    except ValueError:
        return ValueError


def agrees_or_both_raise(got, want):
    if want is ValueError:
        assert got is ValueError
    else:
        agrees(got, want)


# one to three terms with coefficients 1, 2 and 1/2: single roots (the
# root form), other multiples, true sums and, through cancellation, zero
monomial_terms = st.lists(
    st.tuples(mixed_roots, st.sampled_from([1, 2, Fraction(1, 2)])),
    min_size=1,
    max_size=3,
)
upowers = st.sampled_from([0, 2])


@given(monomial_terms, upowers, monomial_terms, upowers, mixed_roots)
@settings(max_examples=300, deadline=None)
def test_monomial_coefficient_matches_reference(tx, ux, ty, uy, root):
    x, rx = pair(tx, ux)
    y, ry = pair(ty, uy)
    agrees(x, rx)
    agrees(x * y, rx * ry)
    agrees(-x, -rx)
    agrees(x.scale(root), rx.scale(Cyclotomic.from_root(root)))
    for op in (operator.add, operator.sub):
        agrees_or_both_raise(outcome(op, x, y), outcome(op, rx, ry))
    inverse = operator.methodcaller("inverse_unit")
    agrees_or_both_raise(outcome(inverse, x), outcome(inverse, rx))
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    if ux == uy:
        # adding and removing y takes x through a sum and back
        z = (x + y) - y
        assert z == x and hash(z) == hash(x)
    if x.scalar.is_monomial():
        (r, c), = x.scalar.terms.items()
        if c == 1:
            same = MonomialCoefficient.from_root(r, ux)
            assert same == x and hash(same) == hash(x)


def test_monomial_coefficient_promotes_sums():
    z4 = RootOfUnity.primitive(4)
    r, s = MonomialCoefficient.from_root(z4, 2), MonomialCoefficient.t()
    # equal roots: exactly twice the root
    assert (r + r).scalar.serialize() == [["1/4", 2, 1]]
    assert (r + r).upower == 2
    # different roots: a true sum, decided by cyclotomic_reduce
    total = r + s
    assert not total.scalar.is_monomial()
    assert total.upower == 2
    # cancelling back gives the root form again, equal and equally hashed
    back = total - s
    assert back == r and hash(back) == hash(r)
    assert back.scalar.serialize() == [["1/4", 1, 1]]
    zero = total - r - s
    assert zero.is_zero() and zero.upower == 0
    assert zero == MonomialCoefficient.zero()
    assert (r - r) == MonomialCoefficient.zero()
    # 1 + zeta_3 is the primitive sixth root: a sum that is a root
    z3 = MonomialCoefficient.from_root(RootOfUnity.primitive(3))
    z6 = MonomialCoefficient.from_root(RootOfUnity.primitive(6))
    assert MonomialCoefficient.one() + z3 == z6
    assert hash(MonomialCoefficient.one() + z3) == hash(z6)


# a third key with coefficient 0 skips the two-term test and is dropped
# by the merge, so the map goes the general way; order 5 is not drawn
PADDING = RootOfUnity.primitive(5)


@given(mixed_roots, nonzero_rationals, mixed_roots, nonzero_rationals)
@settings(max_examples=200, deadline=None)
def test_two_term_reduce_matches_general_path(r1, c1, r2, c2):
    for terms in ({r1: c1, r2: c2}, {r1: c1, -r1: c1}, {r1: c2, -r1: c2}):
        general = cyclotomic_reduce({**terms, PADDING: Fraction(0)})
        same_form(cyclotomic_reduce(terms), general)
    assert cyclotomic_reduce({r1: c1, -r1: c1}).is_zero()
