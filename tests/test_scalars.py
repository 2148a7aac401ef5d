import cmath
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covercat.scalars import (
    CYC_ONE,
    CYC_ZERO,
    MINUS_ONE,
    ONE,
    Cyclotomic,
    MonomialCoefficient,
    RootOfUnity,
    cyclotomic_reduce,
    exact,
    principal_root,
)
from test_normal_forms import geometric_mean


def term_map(c):
    """The term map ``{root: coefficient}`` of a ``Cyclotomic``, read
    back from its serialized form, in its order."""
    return {
        RootOfUnity(e): Fraction(num, den) for e, num, den in c.serialize()
    }


def as_root(c):
    """The value of a ``Cyclotomic`` as a root of unity; raises if it is
    not one."""
    if len(term_map(c)) == 1:
        (root, coeff), = term_map(c).items()
        if coeff == 1:
            return root
    raise ValueError(f"{c!r} is not a root of unity")


def add(x, y):
    """The sum of two ``Cyclotomic``s, which no command needs and the
    package no longer defines: zero or one root, else ``ArithmeticError``
    from :func:`cyclotomic_reduce`, for a true sum or twice a root."""
    terms = term_map(x)
    for r, c in term_map(y).items():
        terms[r] = terms.get(r, 0) + c
    return cyclotomic_reduce(terms)


class Multiple:
    """Zero, or ``c * root`` for a positive rational ``c``: the former
    ``Cyclotomic``, kept as the oracle for the library's, which holds the
    multiples 0 and 1 only.  A negative sign is folded into the root as
    an extra half turn, so each value has one form."""

    __slots__ = ("root", "coeff")

    def __init__(self, root=ONE, coeff=0):
        c = Fraction(coeff)
        if c < 0:
            root, c = -root, -c
        self.root = root if c else None
        self.coeff = c

    @classmethod
    def of(cls, terms):
        """The sum of a term map ``{root: coefficient}``."""
        total = cls()
        for r, c in terms.items():
            total = total + cls(r, c)
        return total

    def terms(self):
        return {self.root: self.coeff} if self.coeff else {}

    def __add__(self, other):
        # r and -r lie on one line: fold each onto the one with exponent
        # in [0, 1/2), then add; two lines left are a true sum
        merged = {}
        for r, c in [*self.terms().items(), *other.terms().items()]:
            if 2 * r.exponent >= 1:
                r, c = -r, -c
            merged[r] = merged.get(r, 0) + c
        merged = {r: c for r, c in merged.items() if c}
        if len(merged) > 1:
            raise ArithmeticError("not a monomial")
        return Multiple(*merged.popitem()) if merged else Multiple()

    def __neg__(self):
        return Multiple(-self.root, self.coeff) if self.coeff else self

    def __mul__(self, other):
        if not (self.coeff and other.coeff):
            return Multiple()
        return Multiple(self.root * other.root, self.coeff * other.coeff)

    def inverse(self):
        if not self.coeff:
            raise ValueError("zero has no inverse")
        return Multiple(self.root.inverse(), 1 / self.coeff)

    def __eq__(self, other):
        return self.terms() == other.terms()

    def __hash__(self):
        return hash(frozenset(self.terms().items()))


def lift(c):
    """The oracle's value of a library ``Cyclotomic``."""
    return Multiple.of(term_map(c))


def library(x):
    """The library's ``Cyclotomic`` of an oracle value, or
    ``ArithmeticError`` where it refuses it."""
    return outcome(Cyclotomic, x.terms())


def agree(got, want):
    """The library's outcome ``got`` is the oracle's ``want``: where
    ``want`` holds a multiple other than 0 or 1 of a root (a negative
    one is folded into the root), ``got`` is the refusal, and where
    ``want`` is an error, ``got`` is the same one."""
    if isinstance(want, type):
        assert got is want
    elif want.coeff not in (0, 1):
        assert got is ArithmeticError
    else:
        root = want.root
        assert got == (Cyclotomic.from_root(root) if root else CYC_ZERO)
        assert term_map(got) == want.terms()
        assert lift(got) == want and hash(lift(got)) == hash(want)


def outcome(op, *args):
    """``op(*args)``, or the type of the ``ValueError`` or
    ``ArithmeticError`` it raises."""
    try:
        return op(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


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
    assert RootOfUnity("2/3").order == 3
    assert str(RootOfUnity(Fraction(1, 4))) == "1/4"
    assert str(ONE) == "0/1"


def test_root_refuses_float_exponents():
    # 0.1 is a binary fraction: it would give a root of order 2**55
    for exponent in (0.1, 0.5, 1.0, -0.25):
        with pytest.raises(TypeError, match="float"):
            RootOfUnity(exponent)
    assert RootOfUnity(Fraction(1, 10)).order == 10
    assert RootOfUnity(-1) == ONE
    assert RootOfUnity("0.1") == RootOfUnity(Fraction(1, 10))


def test_exact_refuses_floats():
    # the one converter of outside rationals: exact values pass, a float
    # is refused by name, even where it is a short binary fraction
    assert exact("0.1") == exact("1/10") == Fraction(1, 10)
    assert exact(-3) == Fraction(-3)
    third = Fraction(1, 3)
    assert exact(third) is third
    for value in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError, match=f"float {value!r}"):
            exact(value)


def test_exact_refuses_bools():
    # a bool is an int by inheritance only: True would be read as 1
    for value in (True, False):
        with pytest.raises(TypeError, match=f"bool {value!r}"):
            exact(value)
    assert exact(1) == 1


def test_cyclotomic_refuses_bool_coefficients():
    for terms in ({ONE: True}, {ONE: 1, MINUS_ONE: False}):
        with pytest.raises(TypeError, match="bool"):
            Cyclotomic(terms)
    assert Cyclotomic({ONE: 1}) == CYC_ONE


def test_monomial_coefficient_refuses_other_scalar_types():
    # the scalar is a Cyclotomic; a root or a rational is named, not
    # read as one
    for scalar in (ONE, Fraction(1, 2), 1, "1"):
        with pytest.raises(TypeError) as info:
            MonomialCoefficient(scalar)
        assert str(info.value) == f"a scalar must be a Cyclotomic: {scalar!r}"
    assert MonomialCoefficient(CYC_ONE) == MonomialCoefficient.one()


def test_cyclotomic_reduce_refuses_float_coefficients():
    z3 = RootOfUnity.primitive(3)
    # 0.1 would be kept as 3602879701896397/36028797018963968
    for terms in ({ONE: 0.1}, {ONE: 1, z3: 0.5}, {z3: 0.25, -z3: 0.25}):
        with pytest.raises(TypeError, match="float"):
            cyclotomic_reduce(terms)
        with pytest.raises(TypeError, match="float"):
            Cyclotomic(terms)
    assert Cyclotomic({ONE: "1"}) == Cyclotomic({ONE: Fraction(1)}) == CYC_ONE
    # an exact tenth is read, then refused: it is no root of unity
    for tenth in ("1/10", Fraction(1, 10)):
        with pytest.raises(ArithmeticError) as info:
            Cyclotomic({ONE: tenth})
        assert str(info.value) == "not a root of unity: 1/10*z(0/1)"


def test_cyclotomic_from_root_refuses_float_coefficients():
    # from_root takes a root alone, so no coefficient reaches it; a float
    # in a term map is refused by name
    for coeff in (0.1, 0.5, -1.0, 2, Fraction(1, 2), True):
        with pytest.raises(TypeError):
            Cyclotomic.from_root(ONE, coeff)
    for coeff in (0.1, 0.5, -1.0):
        with pytest.raises(TypeError, match="float"):
            Cyclotomic({ONE: coeff})
    assert Cyclotomic({ONE: -1}) == Cyclotomic.from_root(MINUS_ONE)


def test_cyclotomic_refuses_roots_of_other_types():
    # a string, an int or a Fraction is named, not held as a root: "1/2"
    # would print as the root 1/2 and compare unequal to it, and the
    # keys 1 and -1 would cancel as if they were roots
    for root in ("1/2", 3, Fraction(1, 2), 0.5, None):
        with pytest.raises(TypeError) as info:
            Cyclotomic.from_root(root)
        assert str(info.value) == f"a root must be a RootOfUnity: {root!r}"
        with pytest.raises(TypeError) as info:
            Cyclotomic({root: 1})
        assert str(info.value) == f"a root must be a RootOfUnity: {root!r}"
    with pytest.raises(TypeError, match="RootOfUnity: 1"):
        Cyclotomic({1: 1, -1: 1})
    with pytest.raises(TypeError, match="RootOfUnity: 3"):
        MonomialCoefficient(Cyclotomic.from_root(3))
    half = RootOfUnity("1/2")
    assert Cyclotomic.from_root(half) == Cyclotomic({half: 1}) == -CYC_ONE


def test_monomial_refuses_non_int_upowers():
    # u**1.5 is not a power series term; bools are refused as well
    for upower in (1.5, 2.0, True, "2", Fraction(2)):
        with pytest.raises(TypeError, match="u-power"):
            MonomialCoefficient.from_root(ONE, upower)
        with pytest.raises(TypeError, match="u-power"):
            MonomialCoefficient(CYC_ONE, upower)
    with pytest.raises(ValueError, match="nonnegative"):
        MonomialCoefficient.from_root(ONE, -2)
    assert MonomialCoefficient(CYC_ONE, 2) == MonomialCoefficient.t()


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


def test_exact_zero_detection():
    z5 = RootOfUnity.primitive(5)
    x = Cyclotomic.from_root(z5)
    assert add(x, -x) == CYC_ZERO
    # x + x is not zero: the oracle holds it as 2*z5, the library refuses
    assert lift(x) + lift(x) == Multiple(z5, 2) != Multiple()
    with pytest.raises(ArithmeticError) as info:
        add(x, x)
    assert str(info.value) == "not a root of unity: 2*z(1/5)"


def test_true_sums_raise_naming_their_terms():
    z3 = Cyclotomic.from_root(RootOfUnity.primitive(3))
    z3_2 = Cyclotomic.from_root(RootOfUnity.primitive(3, 2))
    i = Cyclotomic.from_root(RootOfUnity.primitive(4))
    for total, terms in (
        (lambda: add(z3, z3_2), "1*z(1/3) + 1*z(2/3)"),
        (lambda: add(CYC_ONE, i), "1*z(0/1) + 1*z(1/4)"),
        (lambda: Cyclotomic({ONE: 1, RootOfUnity("1/4"): 1}),
         "1*z(0/1) + 1*z(1/4)"),
        (lambda: MonomialCoefficient(z3, 2) + MonomialCoefficient(z3_2, 2),
         "1*z(1/3) + 1*z(2/3)"),
    ):
        with pytest.raises(ArithmeticError) as info:
            total()
        # not a ValueError, which the command line reads as bad input
        assert not isinstance(info.value, ValueError)
        assert str(info.value) == f"not a monomial: {terms}"


def test_monomial_canonical_form():
    z3 = RootOfUnity.primitive(3)
    z6 = RootOfUnity.primitive(6)
    a = -Cyclotomic.from_root(z3)
    assert as_root(a) == z6 ** 5
    assert term_map(a) == term_map(Cyclotomic.from_root(z6 ** 5))
    # a coefficient -1 is folded into the root, as the oracle folds any
    # negative one
    b = Cyclotomic({z3: -1})
    assert term_map(b) == {z6 ** 5: 1}
    assert b == a
    assert Multiple(z3, Fraction(-2, 3)).terms() == {z6 ** 5: Fraction(2, 3)}


# oracle values: zero or a rational multiple of one root, the multiples
# 1 and -1 (which the library holds) drawn often
small_roots = st.builds(
    RootOfUnity,
    st.fractions(min_value=0, max_value=2, max_denominator=8),
)
small_rationals = st.one_of(
    st.sampled_from([1, -1, 0]),
    st.sampled_from([1, -1]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
multiples = st.builds(Multiple, small_roots, small_rationals)
# two multiples of one root, which add to a multiple of it
collinear = small_roots.flatmap(
    lambda r: st.tuples(
        st.builds(Multiple, st.just(r), small_rationals),
        st.builds(Multiple, st.just(r), small_rationals),
    )
)
# library values: zero or one root
cyclotomics = st.one_of(
    st.just(CYC_ZERO), st.builds(Cyclotomic.from_root, small_roots)
)


@given(collinear, multiples, multiples)
@settings(max_examples=100, deadline=None)
def test_cyclotomic_ring_laws(xy, z, w):
    x, y = xy
    zero, one = Multiple(), Multiple(ONE, 1)
    # the laws hold on the oracle, which holds every multiple ...
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert x * z == z * x
    assert (x * z) * w == x * (z * w)
    assert x + -x == zero
    assert x + zero == x
    assert x * one == x
    assert x * zero == zero
    # ... and the library agrees with it, refusing what it does not hold
    held = [library(v) for v in (x, y, z, w)]
    for got, want in zip(held, (x, y, z, w)):
        agree(got, want)
    if ArithmeticError in held:
        return
    X, Y, Z, W = held
    agree(outcome(add, X, Y), x + y)
    agree(outcome(add, X * Z, Y * Z), x * z + y * z)
    agree(X * Z, x * z)
    agree((X * Z) * W, (x * z) * w)
    assert X * Z == Z * X and (X * Z) * W == X * (Z * W)
    agree(add(X, -X), zero)
    agree(add(X, CYC_ZERO), x)
    agree(X * CYC_ONE, x)
    agree(X * CYC_ZERO, zero)


# roots of orders 1, 2, 3, 4, 6 and 12, so that one value can be reached
# from several different term maps
mixed_roots = st.sampled_from([1, 2, 3, 4, 6, 12]).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda k: RootOfUnity(Fraction(k, q)))
)
nonzero_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
).filter(bool)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def test_equal_cyclotomics_hash_equally():
    z6 = RootOfUnity.primitive(6)
    a = Cyclotomic({z6: 3, -z6: 2})
    b = -Cyclotomic.from_root(-z6)
    assert a == b
    assert len({a, b}) == 1
    # a coefficient far below any float tolerance: (1 + e)*z6 - e*z6 = z6
    e = Fraction(1, 10**12)
    a = Cyclotomic({z6: 1 + e, -z6: e})
    b = Cyclotomic.from_root(z6)
    assert a == b
    assert len({a, b}) == 1


signs = st.sampled_from([1, -1])


@given(mixed_roots, signs, rationals)
@settings(max_examples=100, deadline=None)
def test_equal_implies_same_hash(r, c, s):
    x = Cyclotomic({r: c})
    # adding and removing a multiple of -r takes x through a reduction
    w = Multiple(-r, s)
    for y in (
        library(lift(x) + w + -w),
        -Cyclotomic({-r: c}),
        Cyclotomic({r: c + s, -r: s}),
        Cyclotomic({-r: -c}),
        Cyclotomic.from_root(r if c > 0 else -r),
    ):
        assert x == y
        assert hash(x) == hash(y)
    # a coefficient -1 is the negated root
    a, b = Cyclotomic({r: -1}), -Cyclotomic.from_root(r)
    assert a == b and hash(a) == hash(b)


def complex_value(x):
    """Float value of an oracle value, each root read from its exponent."""
    return sum(
        (
            float(c) * cmath.exp(2j * cmath.pi * float(r.exponent))
            for r, c in x.terms().items()
        ),
        0j,
    )


@given(collinear, multiples)
@settings(max_examples=100, deadline=None)
def test_cyclotomic_float_crosscheck(xy, z):
    x, y = xy
    for got, want in (
        (x + y, complex_value(x) + complex_value(y)),
        (x + -y, complex_value(x) - complex_value(y)),
        (x * z, complex_value(x) * complex_value(z)),
        (-z, -complex_value(z)),
    ):
        assert cmath.isclose(complex_value(got), want, abs_tol=1e-9)
        assert (got == Multiple()) == (abs(want) < 1e-9)
    if z != Multiple():
        assert cmath.isclose(
            complex_value(z.inverse()), 1 / complex_value(z), abs_tol=1e-9
        )
    # the library holds the same value wherever the oracle holds 0 or 1
    X, Y, Z = library(x), library(y), library(z)
    for got, want in ((X, x), (Y, y), (Z, z)):
        agree(got, want)
    if ArithmeticError not in (X, Y):
        agree(outcome(add, X, Y), x + y)
        agree(outcome(add, X, -Y), x + -y)
    if ArithmeticError not in (X, Z):
        agree(X * Z, x * z)
        agree(-Z, -z)
        agree(outcome(Z.inverse), outcome(z.inverse))


@given(cyclotomics)
def test_cyclotomic_inverse_laws(x):
    if x == CYC_ZERO:
        with pytest.raises(ValueError, match="zero"):
            x.inverse()
        return
    assert x * x.inverse() == CYC_ONE
    assert x.inverse().inverse() == x
    (root, coeff), = term_map(x.inverse()).items()
    assert coeff == 1 and root == as_root(x).inverse()


def test_cyclotomic_inverse():
    z3 = RootOfUnity.primitive(3)
    x = Cyclotomic.from_root(z3)
    assert x * x.inverse() == CYC_ONE
    assert x.inverse() == Cyclotomic.from_root(z3 ** 2)
    # the oracle inverts a coefficient too, which the library never holds
    m = Multiple(z3, Fraction(2, 5)).inverse()
    assert m == Multiple(z3 ** 2, Fraction(5, 2))
    assert library(m) is ArithmeticError
    with pytest.raises(ValueError, match="zero"):
        CYC_ZERO.inverse()


@given(cyclotomics)
def test_cyclotomic_serialization_roundtrip(x):
    data = x.serialize()
    assert len(data) == (0 if x == CYC_ZERO else 1)
    assert all(isinstance(row[0], str) and row[1:] == [1, 1] for row in data)
    assert Cyclotomic(term_map(x)) == x
    assert CYC_ZERO.serialize() == []


def test_monomial_coefficient_arithmetic():
    z3 = RootOfUnity.primitive(3)
    m = MonomialCoefficient.from_root(z3, 2)
    t = MonomialCoefficient.t()
    assert t.upower == 2
    assert (m * t) == MonomialCoefficient.from_root(z3, 4)
    assert (m + -m).is_zero()
    assert (m + -m).upower == 0
    assert MonomialCoefficient(CYC_ZERO) + m == m
    assert is_unit(m) is False
    assert is_unit(MonomialCoefficient.one())
    assert MonomialCoefficient.from_root(z3).inverse_unit() == (
        MonomialCoefficient.from_root(z3 ** 2)
    )
    # two u-powers are no monomial: a failed construction, not bad input
    with pytest.raises(ArithmeticError) as info:
        m + MonomialCoefficient.one()
    assert not isinstance(info.value, ValueError)
    assert str(info.value) == (
        f"not a monomial: {m!r} + {MonomialCoefficient.one()!r}"
    )
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


@given(exponents, st.integers(1, 12), st.integers(1, 24))
def test_exponent_mod_reads_the_root_over_a_modulus(e, m, other):
    a = RootOfUnity(e)
    M = a.order * m
    k = a.exponent_mod(M)
    assert 0 <= k < M and Fraction(k, M) == e % 1
    assert RootOfUnity.primitive(M, k) == a
    if other % a.order:
        try:
            a.exponent_mod(other)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


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


def same_form(x, ref):
    """Equal, with the same canonical terms (roots, rationals, order)."""
    assert x == ref
    assert list(term_map(x).items()) == list(term_map(ref).items())
    assert repr(x) == repr(ref)


def reduced(total):
    """``total()``, or ``ArithmeticError`` if it is a true sum or a
    multiple of a root that is no root."""
    try:
        return total()
    except ArithmeticError as exc:
        assert str(exc).startswith(
            ("not a monomial: ", "not a root of unity: ")
        )
        return ArithmeticError


@given(mixed_roots, signs, mixed_roots, signs, rationals)
@settings(max_examples=150, deadline=None)
def test_monomial_fast_paths_match_reduction(r1, c1, r2, c2, s):
    x = Cyclotomic({r1: c1})
    y = Cyclotomic({r2: c2})
    same_form(x, cyclotomic_reduce({r1: c1}))
    agree(outcome(cyclotomic_reduce, {ONE: s}), Multiple(ONE, s))
    (rx, cx), = term_map(x).items()
    (ry, cy), = term_map(y).items()
    assert cx == 1 and cy == 1
    same_form(x * y, cyclotomic_reduce({rx * ry: 1}))
    same_form(-x, cyclotomic_reduce({rx: -1}))
    same_form(x.inverse(), cyclotomic_reduce({rx.inverse(): 1}))
    total = reduced(lambda: add(x, y))
    agree(total, outcome(operator.add, lift(x), lift(y)))
    if total is ArithmeticError:
        # roots on different lines through 0 make a true sum, and equal
        # roots twice one root
        assert ry != -rx
    else:
        # two roots cancel or make no root
        assert total == CYC_ZERO and ry == -rx
    # equality of two one-term forms agrees with the exact zero test
    assert (x == y) == (reduced(lambda: add(x, -y)) == CYC_ZERO)
    m = MonomialCoefficient.from_root(rx, 4) * (
        MonomialCoefficient.from_root(ry)
    )
    assert m.upower == 4
    same_form(m.scalar, cyclotomic_reduce({rx * ry: 1}))
    m = MonomialCoefficient.from_root(rx, 4).scale(r2)
    assert m.upower == 4
    same_form(m.scalar, cyclotomic_reduce({rx * r2: 1}))


@given(mixed_roots, rationals)
def test_zero_and_one_fast_paths(r, s):
    agree(outcome(cyclotomic_reduce, {r: s}), Multiple(r, s))
    x = Cyclotomic.from_root(r)
    same_form(x, cyclotomic_reduce({r: 1}))
    same_form(CYC_ONE, cyclotomic_reduce({ONE: Fraction(1)}))
    same_form(Cyclotomic.one(), cyclotomic_reduce({ONE: 1}))
    cancelled = add(add(x, CYC_ZERO), -x)
    for z in (x * CYC_ZERO, CYC_ZERO * x, -CYC_ZERO, cancelled):
        same_form(z, cyclotomic_reduce({}))
    zero = MonomialCoefficient(Cyclotomic.from_root(r), 4) * (
        MonomialCoefficient(CYC_ZERO)
    )
    assert zero.is_zero() and zero.upower == 0


@given(mixed_roots, nonzero_rationals, nonzero_rationals)
@example(RootOfUnity.primitive(3), 3, 2)
@example(RootOfUnity.primitive(3), Fraction(1, 2), Fraction(3, 2))
def test_sums_on_one_root_are_monomials(r, c, c2):
    x = Cyclotomic.from_root(r)
    assert add(x, -x) == CYC_ZERO
    assert cyclotomic_reduce({r: 1, -r: 1}) == CYC_ZERO
    # twice a root: the oracle holds it, the library refuses it
    assert (lift(x) + lift(x)).terms() == {r: 2}
    assert reduced(lambda: add(x, x)) is ArithmeticError
    # c*r + c2*(-r) is (c - c2)*r: zero or one term with c > 0, which the
    # library holds where c - c2 is 0, 1 or -1
    total = Multiple(r, c) + Multiple(-r, c2)
    assert total == Multiple(r, c - c2)
    agree(outcome(cyclotomic_reduce, {r: c, -r: c2}), total)
    if c != c2:
        (root, coeff), = total.terms().items()
        assert coeff == abs(c - c2) and root == (r if c > c2 else -r)


# ---------------------------------------------------------------------------
# MonomialCoefficient against the Cyclotomic-backed reference, which also
# holds the rational multiples that a coefficient refuses


class CyclotomicMonomial:
    """The former ``MonomialCoefficient``: every scalar an oracle value,
    which may be any rational multiple of a root."""

    __slots__ = ("_scalar", "_upower")

    def __init__(self, scalar, upower=0):
        if upower < 0:
            raise ValueError("u-power must be nonnegative")
        if scalar == Multiple():
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
        return self._scalar == Multiple()

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
            raise ArithmeticError("not a monomial")
        return CyclotomicMonomial(self._scalar + other._scalar, self._upower)

    def __neg__(self):
        return CyclotomicMonomial(-self._scalar, self._upower)

    def scale(self, c):
        return CyclotomicMonomial(self._scalar * c, self._upower)

    def inverse_unit(self):
        if self._upower != 0:
            raise ValueError("positive u-powers are not invertible")
        return CyclotomicMonomial(self._scalar.inverse())

    def is_unit(self):
        return self._upower == 0 and not self.is_zero()

    def __eq__(self, other):
        return self._upower == other._upower and self._scalar == other._scalar

    def __hash__(self):
        return hash((self._scalar, self._upower))


def pair(terms, upower):
    """The outcome of building one scalar as a ``MonomialCoefficient``,
    and the reference."""
    got = outcome(lambda: MonomialCoefficient(Cyclotomic(terms), upower))
    return got, CyclotomicMonomial(Multiple.of(terms), upower)


def agrees(got, want):
    """``got`` is ``want``'s value; where ``want`` holds a rational
    multiple other than 1, ``got`` is the refusal, and where ``want`` is
    an error, ``got`` is the same one."""
    if isinstance(want, type):
        assert got is want
    elif want.scalar.coeff not in (0, 1):
        assert got is ArithmeticError
    else:
        assert got.upower == want.upower
        assert got.is_zero() == want.is_zero()
        assert is_unit(got) == want.is_unit()
        agree(got.scalar, want.scalar)


# a multiple of a root r, alone or with a multiple of -r: single roots
# (the root form), other multiples and, through cancellation, zero
monomial_terms = st.tuples(
    mixed_roots,
    st.sampled_from([1, 2, Fraction(1, 2)]),
    st.sampled_from([0, 1, 2, Fraction(1, 2)]),
).map(lambda t: {t[0]: t[1], -t[0]: t[2]} if t[2] else {t[0]: t[1]})
upowers = st.sampled_from([0, 2])


@given(monomial_terms, upowers, monomial_terms, upowers, mixed_roots)
@settings(max_examples=300, deadline=None)
def test_monomial_coefficient_matches_reference(tx, ux, ty, uy, root):
    x, rx = pair(tx, ux)
    y, ry = pair(ty, uy)
    agrees(x, rx)
    agrees(y, ry)
    if isinstance(x, type) or isinstance(y, type):
        return
    agrees(x * y, rx * ry)
    agrees(-x, -rx)
    agrees(x.scale(root), rx.scale(Multiple(root, 1)))
    for op in (operator.add, lambda a, b: a + -b):
        agrees(outcome(op, x, y), outcome(op, rx, ry))
    inverse = operator.methodcaller("inverse_unit")
    agrees(outcome(inverse, x), outcome(inverse, rx))
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    total = outcome(operator.add, x, y)
    if ux == uy and not isinstance(total, type):
        # adding and removing y takes x through a sum and back
        z = total + -y
        assert z == x and hash(z) == hash(x)
    if not x.is_zero():
        (r, c), = term_map(x.scalar).items()
        assert c == 1
        same = MonomialCoefficient.from_root(r, ux)
        assert same == x and hash(same) == hash(x)


def test_monomial_coefficient_promotes_sums():
    z4 = RootOfUnity.primitive(4)
    r, s = MonomialCoefficient.from_root(z4, 2), MonomialCoefficient.t()
    # equal roots would make twice the root, which no coefficient holds
    with pytest.raises(ArithmeticError) as info:
        r + r
    assert not isinstance(info.value, ValueError)
    assert str(info.value) == "not a root of unity: 1*z(1/4) + 1*z(1/4)"
    zero = r + -r
    assert zero.is_zero() and zero.upower == 0
    assert zero == MonomialCoefficient(CYC_ZERO)
    assert zero + r == r and r + zero == r
    # different roots on different lines: a true sum, which is refused
    with pytest.raises(ArithmeticError) as info:
        r + s
    assert str(info.value) == "not a monomial: 1*z(1/4) + 1*z(0/1)"


# a third key with coefficient 0 skips the two-term test and is dropped
# by the merge, so the map goes the general way; order 5 is not drawn
PADDING = RootOfUnity.primitive(5)


@given(mixed_roots, nonzero_rationals, mixed_roots, nonzero_rationals)
@settings(max_examples=200, deadline=None)
def test_two_term_reduce_matches_general_path(r1, c1, r2, c2):
    for terms in ({r1: c1, r2: c2}, {r1: c1, -r1: c1}, {r1: c2, -r1: c2}):
        padded = {**terms, PADDING: Fraction(0)}
        general = reduced(lambda: cyclotomic_reduce(padded))
        if general is ArithmeticError:
            assert reduced(lambda: cyclotomic_reduce(terms)) is general
        else:
            same_form(cyclotomic_reduce(terms), general)
    assert cyclotomic_reduce({r1: c1, -r1: c1}) == CYC_ZERO


# ---------------------------------------------------------------------------
# a product by 1 returns its other operand


def test_product_by_one_returns_the_operand():
    for q in range(1, 49):
        for k in range(q):
            r = RootOfUnity.primitive(q, k)
            for p in (ONE * r, r * ONE):
                assert p == r and hash(p) == hash(r)
                assert (p._k, p._q) == (r._k, r._q)


def test_unit_root_has_one_stored_form():
    # the unit shortcuts test the exponent alone, so 1 must be (0, 1)
    for q in range(1, 49):
        for one in (RootOfUnity._reduced(0, q), RootOfUnity.primitive(q, q)):
            assert (one._k, one._q) == (0, 1)
            assert one == ONE and hash(one) == hash(ONE)


def test_unit_coefficient_keeps_u_powers():
    unit = MonomialCoefficient.one()
    t = MonomialCoefficient.from_root(ONE, 2)
    z = RootOfUnity.primitive(12, 5)
    power = unit
    for k in range(5):
        # power is t**k: root 1, but not the unit once k > 0
        for p in (unit * power, power * unit):
            assert p == power and p.upower == 2 * k
        zu = MonomialCoefficient.from_root(z, 1)
        for p in (power * zu, zu * power):
            assert p == MonomialCoefficient.from_root(z, 1 + 2 * k)
        power = power * t
    assert unit * t == t and (t * t).upower == 4


def test_cyclotomic_operand_still_multiplies_as_cyclotomic(monkeypatch):
    # no coefficient holds a Cyclotomic operand any more: no Cyclotomic
    # holds twice a root, and products of coefficients multiply no
    # Cyclotomic
    calls = []
    mul = Cyclotomic.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    z = RootOfUnity.primitive(8, 3)
    with pytest.raises(ArithmeticError) as info:
        MonomialCoefficient(Cyclotomic({z: Fraction(2)}), 2)
    assert str(info.value) == "not a root of unity: 2*z(3/8)"
    unit = MonomialCoefficient.one()
    zero = MonomialCoefficient(CYC_ZERO)
    z_u2 = MonomialCoefficient(Cyclotomic.from_root(z), 2)
    for p in (unit * z_u2, z_u2 * unit):
        assert p == z_u2 and hash(p) == hash(z_u2)
    for p in (zero * z_u2, z_u2 * zero):
        assert p == zero and p.is_zero()
    assert z_u2 * z_u2 == MonomialCoefficient.from_root(z * z, 4)
    assert not calls


# ---------------------------------------------------------------------------
# a coefficient is zero or one root times u**k: what it refuses, and its
# one zero


@given(mixed_roots, nonzero_rationals, st.sampled_from([0, 2, 4]))
@example(RootOfUnity.primitive(3), 2, 0)
@example(RootOfUnity.primitive(3), Fraction(1, 2), 0)
@example(RootOfUnity.primitive(3), Fraction(-1, 2), 2)
@example(RootOfUnity.primitive(3), -1, 4)
def test_monomial_coefficient_refuses_rational_multiples(r, c, upower):
    # a Cyclotomic refuses every multiple other than 1 and -1, naming
    # the terms, before any coefficient is built
    want = Multiple(r, c)
    scalar = outcome(Cyclotomic, {r: c})
    agree(scalar, want)
    if want.coeff == 1:
        m = MonomialCoefficient(scalar, upower)
        assert m == MonomialCoefficient.from_root(want.root, upower)
        return
    with pytest.raises(ArithmeticError) as info:
        MonomialCoefficient(Cyclotomic({r: c}), upower)
    assert not isinstance(info.value, ValueError)
    assert str(info.value) == f"not a root of unity: {Fraction(c)}*z({r})"


@given(mixed_roots, st.sampled_from([0, 1, 2, 4]))
def test_zero_stays_zero(r, upower):
    zero = MonomialCoefficient(CYC_ZERO, 4)
    assert zero.is_zero() and zero.upower == 0
    assert zero == MonomialCoefficient(CYC_ZERO)
    assert zero.scalar == CYC_ZERO and zero.scalar.serialize() == []
    m = MonomialCoefficient.from_root(r, upower)
    for z in (zero * m, m * zero, zero * zero, -zero, zero.scale(r)):
        assert z.is_zero() and z.upower == 0
        assert z == zero and hash(z) == hash(zero)
    assert zero + m == m and m + zero == m
    with pytest.raises(ValueError, match="zero has no inverse"):
        zero.inverse_unit()


@given(exponents, st.integers(1, 12), st.sampled_from([0, 1, 2, 4]))
def test_equal_coefficients_hash_equally(e, m, upower):
    # one value through the constructor, a larger order, a product, a
    # double negation and a scaling
    r = RootOfUnity(e)
    q = e.denominator * m
    r2 = RootOfUnity.primitive(q, e.numerator * m)
    half = RootOfUnity.primitive(2 * e.denominator, e.numerator)
    values = [
        MonomialCoefficient.from_root(r, upower),
        MonomialCoefficient(Cyclotomic.from_root(r2), upower),
        MonomialCoefficient(Cyclotomic({-r: -1}), upower),
        MonomialCoefficient.from_root(half) * MonomialCoefficient.from_root(
            half, upower
        ),
        -(-MonomialCoefficient.from_root(r, upower)),
        MonomialCoefficient.from_root(ONE, upower).scale(r),
    ]
    assert all(v == values[0] for v in values)
    assert len({hash(v) for v in values}) == 1
    assert len(set(values)) == 1
    other = MonomialCoefficient.from_root(r, upower + 2)
    assert other != values[0]
