"""Exact arithmetic for roots of unity and their rational combinations.

All scalars appearing in the covering classification are roots of unity
(or finite rational combinations of them, which arise transiently when
composing matrices of morphisms).  We therefore work inside the union of
all cyclotomic fields, represented exactly:

* :class:`RootOfUnity` -- the torsion subgroup of ``K*``, stored as a
  reduced rational exponent ``p/q`` for the value ``exp(2*pi*i*p/q)``.
* :class:`Cyclotomic` -- finite rational linear combinations of roots of
  unity with an exact zero test.
* :class:`MonomialCoefficient` -- a cyclotomic scalar times ``u**k``
  where ``t = u**2`` is the formal deformation variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping


class RootOfUnity:
    """A root of unity, stored by its exponent ``p/q`` in ``[0, 1)``.

    The value represented is ``exp(2*pi*i*p/q)``.  Multiplication is
    exponent addition mod 1.  ``q == 1`` encodes the scalar 1.
    """

    __slots__ = ("_exp",)

    def __init__(self, exponent: Fraction | int = 0):
        e = Fraction(exponent)
        e -= e.numerator // e.denominator  # reduce into [0, 1)
        self._exp = e

    @property
    def exponent(self) -> Fraction:
        return self._exp

    @property
    def order(self) -> int:
        """Multiplicative order (the denominator of the exponent)."""
        return self._exp.denominator

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0)

    @classmethod
    def minus_one(cls) -> "RootOfUnity":
        return cls(Fraction(1, 2))

    @classmethod
    def primitive(cls, n: int, k: int = 1) -> "RootOfUnity":
        """The root ``exp(2*pi*i*k/n)``."""
        if n < 1:
            raise ValueError("order must be positive")
        return cls(Fraction(k, n))

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return RootOfUnity(self._exp + other._exp)

    def __truediv__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return RootOfUnity(self._exp - other._exp)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self._exp * k)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self._exp)

    def __neg__(self) -> "RootOfUnity":
        return RootOfUnity(self._exp + Fraction(1, 2))

    def is_one(self) -> bool:
        return self._exp == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootOfUnity) and self._exp == other._exp

    def __hash__(self) -> int:
        return hash(("RootOfUnity", self._exp))

    def __repr__(self) -> str:
        return f"RootOfUnity({self._exp!r})"

    def __str__(self) -> str:
        return f"{self._exp.numerator}/{self._exp.denominator}"

    @classmethod
    def from_string(cls, s: str) -> "RootOfUnity":
        return cls(Fraction(s))

    def complex_value(self) -> complex:
        """Floating approximation, for cross-checks only."""
        import cmath

        return cmath.exp(2j * cmath.pi * float(self._exp))


ONE = RootOfUnity.one()
MINUS_ONE = RootOfUnity.minus_one()


def principal_root(a: RootOfUnity, n: int) -> RootOfUnity:
    """The principal ``n``-th root: exponent divided by ``n``.

    Any two ``n``-th roots differ by an ``n``-th root of unity; we fix
    the branch with smallest nonnegative exponent so that downstream
    constructions are deterministic.
    """
    if n < 1:
        raise ValueError("root index must be >= 1")
    return RootOfUnity(a.exponent / n)


def geometric_mean(cs: Iterable[RootOfUnity]) -> RootOfUnity:
    """Principal ``n``-th root of the product of ``n`` roots of unity."""
    cs = list(cs)
    if not cs:
        raise ValueError("geometric mean of an empty list")
    prod = ONE
    for c in cs:
        prod = prod * c
    return principal_root(prod, len(cs))


# ---------------------------------------------------------------------------
# Cyclotomic numbers


@lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the q-th cyclotomic polynomial.

    Computed by exact division of ``x**q - 1`` by the product of the
    cyclotomic polynomials of the proper divisors of ``q``.
    """
    if q < 1:
        raise ValueError("q must be positive")
    # numerator: x**q - 1
    num = [0] * (q + 1)
    num[0], num[q] = -1, 1
    for d in range(1, q):
        if q % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        c //= den[-1]
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    assert all(c == 0 for c in num)
    return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _reduce_poly_mod_cyclotomic(
    poly: list[Fraction], q: int
) -> list[Fraction]:
    """Reduce a polynomial in ``zeta_q`` modulo the q-th cyclotomic polynomial."""
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


def _monomial_form(
    poly: list[Fraction], q: int
) -> dict[RootOfUnity, Fraction] | None:
    """If ``poly`` (reduced mod the q-th cyclotomic polynomial, nonzero)
    represents a rational multiple of a root of unity, return its
    single-term form.

    The candidate exponent is guessed from the floating-point argument
    and then verified exactly, so the detection is sound: a returned
    form is always correct, and the guess has far more precision margin
    than the half-step it needs.
    """
    import cmath

    z = sum(
        float(c) * cmath.exp(2j * cmath.pi * k / q)
        for k, c in enumerate(poly)
        if c != 0
    )
    if abs(z) < 1e-9:  # pragma: no cover - nonzero by construction
        return None
    # exponent of the value as a multiple of 1/(2q); odd numerators
    # correspond to a negative rational coefficient
    k2 = round(cmath.phase(z) / cmath.pi * q) % (2 * q)
    if k2 % 2 == 0:
        k, negative = k2 // 2, False
    else:
        k, negative = ((k2 - q) // 2) % q, True
    shifted = [Fraction(0)] * ((q - k) % q) + list(poly)
    shifted = _reduce_poly_mod_cyclotomic(shifted, q)
    if any(c != 0 for c in shifted[1:]):
        return None
    c = shifted[0]
    if c == 0 or (c < 0) != negative:  # pragma: no cover - guess verified
        return None
    e = Fraction(k, q)
    if c < 0:
        c, e = -c, e + Fraction(1, 2)
    return {RootOfUnity(e): c}


def cyclotomic_reduce(terms: Mapping[RootOfUnity, Fraction]) -> "Cyclotomic":
    """Reduce a raw term map to the canonical :class:`Cyclotomic` form.

    All exponents are rewritten as powers of a common primitive root
    ``zeta_q`` (q the lcm of the term orders) and the resulting
    polynomial is reduced modulo the q-th cyclotomic polynomial, so the
    zero test is exact.  Rational multiples of a single root of unity are
    further normalized to one term with a positive rational coefficient,
    which makes that (ubiquitous) case a unique canonical form.
    """
    merged: dict[Fraction, Fraction] = {}
    for root, coeff in terms.items():
        c = Fraction(coeff)
        if c == 0:
            continue
        merged[root.exponent] = merged.get(root.exponent, Fraction(0)) + c
    merged = {e: c for e, c in merged.items() if c != 0}
    if not merged:
        return Cyclotomic._raw({})
    if len(merged) == 1:
        (e, c), = merged.items()
        if c < 0:
            c, e = -c, e + Fraction(1, 2)
        return Cyclotomic._raw({RootOfUnity(e): c})

    q = 1
    for e in merged:
        q = _lcm(q, e.denominator)
    poly: list[Fraction] = [Fraction(0)] * q
    for e, c in merged.items():
        poly[int(e * q)] += c
    poly = _reduce_poly_mod_cyclotomic(poly, q)
    mono = _monomial_form(poly, q)
    if mono is not None:
        return Cyclotomic._raw(mono)
    out = {
        RootOfUnity(Fraction(k, q)): poly[k]
        for k in range(len(poly))
        if poly[k] != 0
    }
    return Cyclotomic._raw(out)


class Cyclotomic:
    """A finite rational combination of roots of unity, canonically reduced.

    The canonical form depends only on the set of term orders present, and
    the reduction is a polynomial remainder, so ``x - y`` reduces to the
    empty term map exactly when the represented values are equal.
    Equality is implemented through that exact zero test.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[RootOfUnity, Fraction] | None = None):
        if terms:
            self._terms = dict(cyclotomic_reduce(terms)._terms)
        else:
            self._terms = {}

    @classmethod
    def _raw(cls, terms: dict[RootOfUnity, Fraction]) -> "Cyclotomic":
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls({ONE: Fraction(1)})

    @classmethod
    def from_rational(cls, r: Fraction | int) -> "Cyclotomic":
        return cls({ONE: Fraction(r)})

    @classmethod
    def from_root(
        cls, root: RootOfUnity, coeff: Fraction | int = 1
    ) -> "Cyclotomic":
        return cls({root: Fraction(coeff)})

    @property
    def terms(self) -> dict[RootOfUnity, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        """True if the value is a rational multiple of one root of unity."""
        return len(self._terms) == 1

    def as_root(self) -> RootOfUnity:
        """The value as a root of unity; raises if it is not one."""
        if len(self._terms) == 1:
            (root, coeff), = self._terms.items()
            if coeff == 1:
                return root
            if coeff == -1:
                return -root
        raise ValueError(f"{self!r} is not a root of unity")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        terms = dict(self._terms)
        for r, c in other._terms.items():
            terms[r] = terms.get(r, Fraction(0)) + c
        return cyclotomic_reduce(terms)

    def __neg__(self) -> "Cyclotomic":
        return cyclotomic_reduce({r: -c for r, c in self._terms.items()})

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        terms: dict[RootOfUnity, Fraction] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                r = r1 * r2
                terms[r] = terms.get(r, Fraction(0)) + c1 * c2
        return cyclotomic_reduce(terms)

    def scale(self, r: Fraction | int) -> "Cyclotomic":
        r = Fraction(r)
        if r == 0:
            return Cyclotomic.zero()
        return cyclotomic_reduce({k: c * r for k, c in self._terms.items()})

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse for rational multiples of roots of unity."""
        if len(self._terms) != 1:
            raise ValueError(
                "inverse implemented only for rational multiples of a "
                "root of unity"
            )
        (root, coeff), = self._terms.items()
        return Cyclotomic({root.inverse(): Fraction(1) / coeff})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self) -> int:
        # zero and rational multiples of one root have a unique reduced
        # term; a true sum is never equal to those, but its reduced form
        # depends on the term orders present, so all sums share one hash
        if len(self._terms) > 1:
            return hash("Cyclotomic sum")
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "Cyclotomic(0)"
        parts = [
            f"{c}*z({r})" for r, c in sorted(
                self._terms.items(), key=lambda kv: kv[0].exponent
            )
        ]
        return "Cyclotomic(" + " + ".join(parts) + ")"

    def serialize(self) -> list[list[str | int]]:
        """List of ``(exponent, numerator, denominator)`` triples."""
        out = []
        for r, c in sorted(self._terms.items(), key=lambda kv: kv[0].exponent):
            out.append([str(r), c.numerator, c.denominator])
        return out

    @classmethod
    def deserialize(cls, data: Iterable[Iterable]) -> "Cyclotomic":
        terms: dict[RootOfUnity, Fraction] = {}
        for exp, num, den in data:
            terms[RootOfUnity.from_string(exp)] = Fraction(int(num), int(den))
        return cls(terms)

    def complex_value(self) -> complex:
        return sum(
            (float(c) * r.complex_value() for r, c in self._terms.items()),
            0j,
        )


CYC_ZERO = Cyclotomic.zero()
CYC_ONE = Cyclotomic.one()


class MonomialCoefficient:
    """A scalar times a power of the formal variable ``u`` (with ``t = u**2``).

    The zero scalar forces the canonical zero monomial (``upower == 0``).
    """

    __slots__ = ("_scalar", "_upower")

    def __init__(self, scalar: Cyclotomic, upower: int = 0):
        if upower < 0:
            raise ValueError("u-power must be nonnegative")
        if scalar.is_zero():
            upower = 0
        self._scalar = scalar
        self._upower = upower

    @property
    def scalar(self) -> Cyclotomic:
        return self._scalar

    @property
    def upower(self) -> int:
        return self._upower

    @classmethod
    def zero(cls) -> "MonomialCoefficient":
        return cls(CYC_ZERO)

    @classmethod
    def one(cls) -> "MonomialCoefficient":
        return cls(CYC_ONE)

    @classmethod
    def t(cls, k: int = 1) -> "MonomialCoefficient":
        return cls(CYC_ONE, 2 * k)

    @classmethod
    def from_root(cls, root: RootOfUnity, upower: int = 0) -> "MonomialCoefficient":
        return cls(Cyclotomic.from_root(root), upower)

    def is_zero(self) -> bool:
        return self._scalar.is_zero()

    def __mul__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        return MonomialCoefficient(
            self._scalar * other._scalar, self._upower + other._upower
        )

    def __add__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._upower != other._upower:
            raise ValueError(
                "sum of monomials with different u-powers is not a monomial"
            )
        return MonomialCoefficient(
            self._scalar + other._scalar, self._upower
        )

    def __neg__(self) -> "MonomialCoefficient":
        return MonomialCoefficient(-self._scalar, self._upower)

    def __sub__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        return self + (-other)

    def scale(self, c: Cyclotomic) -> "MonomialCoefficient":
        return MonomialCoefficient(self._scalar * c, self._upower)

    def inverse_unit(self) -> "MonomialCoefficient":
        """Inverse, defined only when the u-power is zero."""
        if self._upower != 0:
            raise ValueError("positive u-powers are not invertible")
        return MonomialCoefficient(self._scalar.inverse())

    def is_unit(self) -> bool:
        return self._upower == 0 and not self._scalar.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        return self._upower == other._upower and self._scalar == other._scalar

    def __hash__(self) -> int:
        return hash((self._scalar, self._upower))

    def __repr__(self) -> str:
        return f"MonomialCoefficient({self._scalar!r}, u**{self._upower})"
