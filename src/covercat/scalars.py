"""Exact arithmetic for roots of unity and their rational combinations.

All scalars appearing in the covering classification are roots of unity
(or finite rational combinations of them, which can arise when entries
of matrices of morphisms are added).  We therefore work inside the union
of all cyclotomic fields, represented exactly:

* :class:`RootOfUnity` -- the torsion subgroup of ``K*``, stored as a
  reduced integer pair ``(k, q)`` with ``0 <= k < q`` and
  ``gcd(k, q) == 1`` for the value ``exp(2*pi*i*k/q)``; the group
  operations are integer arithmetic on that pair.
* :class:`Cyclotomic` -- finite rational linear combinations of roots of
  unity with an exact zero test.  A rational multiple of one root of
  unity has the canonical one-term form ``{root: c}`` with ``c > 0`` (a
  negative sign is folded into the root as an extra half turn).  Products,
  negation and inversion of such terms build that form directly; only
  true sums go through :func:`cyclotomic_reduce`.
* :class:`MonomialCoefficient` -- a scalar times ``u**k`` where
  ``t = u**2`` is the formal deformation variable.  A scalar that is one
  root of unity is held as the :class:`RootOfUnity` itself, so products
  of such coefficients are integer arithmetic; any other scalar (zero,
  another rational multiple of a root, a true sum) is held as a
  :class:`Cyclotomic`.  Sums are decided only by :func:`cyclotomic_reduce`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping


def exact(value) -> Fraction:
    """``value`` as a ``Fraction``: an ``int``, a ``Fraction`` or a string,
    never a ``float``, whose binary expansion would decide the result.

    Every rational that enters the library from outside passes here.
    """
    if isinstance(value, float):
        raise TypeError(
            f"an exact rational is required, not the float {value!r}"
        )
    return value if type(value) is Fraction else Fraction(value)


class RootOfUnity:
    """A root of unity ``exp(2*pi*i*k/q)``, stored as the pair ``(k, q)``.

    ``0 <= k < q`` and ``gcd(k, q) == 1``, so ``k/q`` is the exponent in
    lowest terms and ``q`` is the multiplicative order; ``(0, 1)`` is the
    scalar 1, its only form, so a product with a factor of exponent 0
    returns the other factor.  Multiplication is exponent addition mod 1,
    done on the integers.  The constructor takes the exponent as an exact
    rational number: an ``int``, a ``Fraction`` or a string, never a
    ``float``.
    """

    __slots__ = ("_k", "_q")

    def __init__(self, exponent: Fraction | int = 0):
        e = exact(exponent)
        self._q = e.denominator
        self._k = e.numerator % self._q

    @classmethod
    def _reduced(cls, k: int, q: int) -> "RootOfUnity":
        """The root ``exp(2*pi*i*k/q)``, any integer ``k``, ``q >= 1``."""
        g = gcd(k, q)
        if g != 1:
            k //= g
            q //= g
        self = object.__new__(cls)
        self._k = k % q
        self._q = q
        return self

    @property
    def exponent(self) -> Fraction:
        return Fraction(self._k, self._q)

    @property
    def order(self) -> int:
        """Multiplicative order (the denominator of the exponent)."""
        return self._q

    def exponent_mod(self, M: int) -> int:
        """The ``e`` in ``[0, M)`` with ``self == exp(2*pi*i*e/M)``.

        ``M`` must be a multiple of the order.
        """
        if M % self._q:
            raise ValueError(f"order {self._q} does not divide {M}")
        return self._k * (M // self._q)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls._reduced(0, 1)

    @classmethod
    def minus_one(cls) -> "RootOfUnity":
        return cls._reduced(1, 2)

    @classmethod
    def primitive(cls, n: int, k: int = 1) -> "RootOfUnity":
        """The root ``exp(2*pi*i*k/n)``."""
        if n < 1:
            raise ValueError("order must be positive")
        return cls._reduced(k, n)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        if not self._k:
            return other
        if not other._k:
            return self
        q1, q2 = self._q, other._q
        return RootOfUnity._reduced(self._k * q2 + other._k * q1, q1 * q2)

    def __truediv__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        q1, q2 = self._q, other._q
        return RootOfUnity._reduced(self._k * q2 - other._k * q1, q1 * q2)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity._reduced(self._k * k, self._q)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity._reduced(-self._k, self._q)

    def __neg__(self) -> "RootOfUnity":
        return RootOfUnity._reduced(2 * self._k + self._q, 2 * self._q)

    def is_one(self) -> bool:
        return self._k == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RootOfUnity)
            and self._k == other._k
            and self._q == other._q
        )

    def __hash__(self) -> int:
        return hash((self._k, self._q))

    def __repr__(self) -> str:
        return f"RootOfUnity({self.exponent!r})"

    def __str__(self) -> str:
        return f"{self._k}/{self._q}"

    @classmethod
    def from_string(cls, s: str) -> "RootOfUnity":
        if not isinstance(s, str):
            raise TypeError(f"a root's exponent string must be a str: {s!r}")
        return cls(s)

    def complex_value(self) -> complex:
        """Floating approximation, for cross-checks only."""
        import cmath

        return cmath.exp(2j * cmath.pi * self._k / self._q)


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
    return RootOfUnity._reduced(a._k, a._q * n)


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
        if c % den[-1] != 0:
            raise AssertionError("inexact polynomial division")
        c //= den[-1]
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    if any(c != 0 for c in num):
        raise AssertionError("polynomial division leaves a remainder")
    return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _reduce_poly_mod_cyclotomic(
    poly: list[Fraction], q: int
) -> list[Fraction]:
    """Reduce a polynomial in ``zeta_q`` modulo the q-th cyclotomic polynomial.

    The cyclotomic polynomial is monic with integer coefficients, so the
    remainder is taken over the integers after scaling by one common
    denominator, and only its nonzero coefficients are subtracted.
    """
    phi = cyclotomic_polynomial(q)
    deg = len(phi) - 1
    terms = [(j, p) for j, p in enumerate(phi[:deg]) if p]
    den = 1
    for c in poly:
        den = _lcm(den, c.denominator)
    num = [c.numerator * (den // c.denominator) for c in poly]
    num += [0] * (deg - len(num))
    for k in range(len(num) - 1, deg - 1, -1):
        c = num[k]
        if c:
            base = k - deg
            for j, p in terms:
                num[base + j] -= c * p
    return [Fraction(c, den) for c in num[:deg]]



def _normalized(
    poly: list[Fraction],
) -> tuple[tuple[Fraction, ...], Fraction]:
    """``poly`` over its first nonzero coefficient, and that coefficient."""
    lead = next(c for c in poly if c)
    return tuple(c / lead for c in poly), lead


@lru_cache(maxsize=None)
def _root_table(q: int) -> dict[tuple[Fraction, ...], tuple[int, Fraction]]:
    """The powers of ``zeta_q`` reduced mod the q-th cyclotomic polynomial.

    Keyed by the normalized reduced form (see :func:`_normalized`), so
    every rational multiple of ``zeta_q**k`` finds ``(k, lead)``, ``lead``
    being the first nonzero coefficient of the reduced ``zeta_q**k``.
    """
    table: dict[tuple[Fraction, ...], tuple[int, Fraction]] = {}
    for k in range(q):
        poly = [Fraction(0)] * k + [Fraction(1)]
        key, lead = _normalized(_reduce_poly_mod_cyclotomic(poly, q))
        table.setdefault(key, (k, lead))
    return table


def _monomial_form(
    poly: list[Fraction], q: int
) -> dict[RootOfUnity, Fraction] | None:
    """If ``poly`` (reduced mod the q-th cyclotomic polynomial) represents
    a nonzero rational multiple of a root of unity, return its single-term
    form; otherwise ``None``.

    Every root of unity in the q-th cyclotomic field is ``+-zeta_q**k``,
    so the test is an exact proportionality check against the reduced
    powers of ``zeta_q``.
    """
    if not any(poly):
        return None
    key, lead = _normalized(poly)
    hit = _root_table(q).get(key)
    if hit is None:
        return None
    k, root_lead = hit
    c = lead / root_lead
    root = RootOfUnity._reduced(k, q)
    if c < 0:
        c, root = -c, -root
    return {root: c}


def cyclotomic_reduce(terms: Mapping[RootOfUnity, Fraction]) -> "Cyclotomic":
    """Reduce a raw term map to the canonical :class:`Cyclotomic` form.

    All exponents are rewritten as powers of a common primitive root
    ``zeta_q`` (q the lcm of the term orders) and the resulting
    polynomial is reduced modulo the q-th cyclotomic polynomial, so the
    zero test is exact.  Rational multiples of a single root of unity are
    further normalized to one term with a positive rational coefficient,
    which makes that (ubiquitous) case a unique canonical form.  A
    two-term map ``c*r + c*(-r)`` is zero before any merging.
    """
    if len(terms) == 2:
        (r1, c1), (r2, c2) = terms.items()
        if exact(c1) == exact(c2) and c1 and r2 == -r1:
            return Cyclotomic._raw({})
    merged: dict[RootOfUnity, Fraction] = {}
    for root, coeff in terms.items():
        c = exact(coeff)
        if c == 0:
            continue
        merged[root] = merged.get(root, Fraction(0)) + c
    merged = {r: c for r, c in merged.items() if c != 0}
    if not merged:
        return Cyclotomic._raw({})
    if len(merged) == 1:
        (root, c), = merged.items()
        if c < 0:
            c, root = -c, -root
        return Cyclotomic._raw({root: c})

    q = 1
    for root in merged:
        q = _lcm(q, root._q)
    poly: list[Fraction] = [Fraction(0)] * q
    for root, c in merged.items():
        poly[root._k * (q // root._q)] += c
    poly = _reduce_poly_mod_cyclotomic(poly, q)
    mono = _monomial_form(poly, q)
    if mono is not None:
        return Cyclotomic._raw(mono)
    out = {
        RootOfUnity._reduced(k, q): poly[k]
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
        return cls._raw({ONE: Fraction(1)})

    @classmethod
    def from_root(
        cls, root: RootOfUnity, coeff: Fraction | int = 1
    ) -> "Cyclotomic":
        c = exact(coeff)
        if c > 0:
            return cls._raw({root: c})
        if c < 0:
            return cls._raw({-root: -c})
        return cls._raw({})

    @property
    def terms(self) -> dict[RootOfUnity, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        """True if the value is a rational multiple of one root of unity."""
        return len(self._terms) == 1

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for r, c in other._terms.items():
            terms[r] = terms.get(r, Fraction(0)) + c
        if len(terms) == 1:
            # two positive multiples of one root: already canonical
            return Cyclotomic._raw(terms)
        return cyclotomic_reduce(terms)

    def __neg__(self) -> "Cyclotomic":
        if len(self._terms) == 1:
            (r, c), = self._terms.items()
            return Cyclotomic._raw({-r: c})
        if not self._terms:
            return self
        return cyclotomic_reduce({r: -c for r, c in self._terms.items()})

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        t1, t2 = self._terms, other._terms
        if len(t1) == 1 and len(t2) == 1:
            (r1, c1), = t1.items()
            (r2, c2), = t2.items()
            return Cyclotomic._raw({r1 * r2: c1 * c2})
        if not t1 or not t2:
            return Cyclotomic._raw({})
        terms: dict[RootOfUnity, Fraction] = {}
        for r1, c1 in t1.items():
            for r2, c2 in t2.items():
                r = r1 * r2
                terms[r] = terms.get(r, Fraction(0)) + c1 * c2
        return cyclotomic_reduce(terms)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse for rational multiples of roots of unity."""
        if len(self._terms) != 1:
            raise ValueError(
                "inverse implemented only for rational multiples of a "
                "root of unity"
            )
        (root, coeff), = self._terms.items()
        return Cyclotomic._raw({root.inverse(): 1 / coeff})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if len(self._terms) < 2 and len(other._terms) < 2:
            # zero and monomials each have one canonical form
            return self._terms == other._terms
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

    def complex_value(self) -> complex:
        return sum(
            (float(c) * r.complex_value() for r, c in self._terms.items()),
            0j,
        )


CYC_ZERO = Cyclotomic.zero()
CYC_ONE = Cyclotomic.one()
_F_ONE = Fraction(1)


class MonomialCoefficient:
    """A scalar times a power of the formal variable ``u`` (with ``t = u**2``).

    The scalar is held in one of two forms, and the constructor picks it,
    so every value has exactly one form and ``==``/``hash`` compare like
    with like:

    * a scalar that is exactly one root of unity (one term, coefficient 1)
      is held as that :class:`RootOfUnity`; products, negation, ``scale``
      and ``inverse_unit`` of such values are integer root arithmetic,
      and a product with the unit (root 1, u-power 0) is the other
      operand;
    * any other scalar -- zero, a rational multiple other than 1 of a
      root, or a true sum -- is held as a :class:`Cyclotomic`.

    A sum of two different roots is decided by :func:`cyclotomic_reduce`,
    the one place where cancellation is tested; two equal roots give
    ``{r: 2}`` directly.  ``scalar`` gives the value as a ``Cyclotomic``
    in either form.  The zero scalar forces the canonical zero monomial
    (``upower == 0``).
    """

    __slots__ = ("_root", "_cyc", "_upower")

    def __init__(self, scalar: Cyclotomic, upower: int = 0):
        if type(upower) is not int:
            raise TypeError(f"u-power must be an int: {upower!r}")
        if upower < 0:
            raise ValueError("u-power must be nonnegative")
        terms = scalar._terms
        if len(terms) == 1 and next(iter(terms.values())) == 1:
            (self._root,) = terms
            self._cyc = None
        else:
            self._root = None
            self._cyc = scalar
            if not terms:
                upower = 0
        self._upower = upower

    @classmethod
    def _of_root(cls, root: RootOfUnity, upower: int) -> "MonomialCoefficient":
        """``root * u**upower`` in the root form, without checks."""
        self = object.__new__(cls)
        self._root = root
        self._cyc = None
        self._upower = upower
        return self

    @property
    def scalar(self) -> Cyclotomic:
        if self._root is not None:
            return Cyclotomic._raw({self._root: _F_ONE})
        return self._cyc

    @property
    def upower(self) -> int:
        return self._upower

    @classmethod
    def zero(cls) -> "MonomialCoefficient":
        return cls(CYC_ZERO)

    @classmethod
    def one(cls) -> "MonomialCoefficient":
        return cls._of_root(ONE, 0)

    @classmethod
    def t(cls, k: int = 1) -> "MonomialCoefficient":
        return cls.from_root(ONE, 2 * k)

    @classmethod
    def from_root(cls, root: RootOfUnity, upower: int = 0) -> "MonomialCoefficient":
        if type(upower) is not int:
            raise TypeError(f"u-power must be an int: {upower!r}")
        if upower < 0:
            raise ValueError("u-power must be nonnegative")
        return cls._of_root(root, upower)

    def is_zero(self) -> bool:
        return self._root is None and not self._cyc._terms

    def __mul__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        a, b = self._root, other._root
        if a is not None and b is not None:
            if not (a._k or self._upower):
                return other
            if not (b._k or other._upower):
                return self
            return MonomialCoefficient._of_root(
                a * b, self._upower + other._upower
            )
        return MonomialCoefficient(
            self.scalar * other.scalar, self._upower + other._upower
        )

    def __add__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        upower = self._upower
        if upower != other._upower:
            raise ValueError(
                "sum of monomials with different u-powers is not a monomial"
            )
        a, b = self._root, other._root
        if a is not None and b is not None:
            if a == b:
                return MonomialCoefficient(
                    Cyclotomic._raw({a: Fraction(2)}), upower
                )
            return MonomialCoefficient(
                cyclotomic_reduce({a: _F_ONE, b: _F_ONE}), upower
            )
        return MonomialCoefficient(self.scalar + other.scalar, upower)

    def __neg__(self) -> "MonomialCoefficient":
        if self._root is not None:
            return MonomialCoefficient._of_root(-self._root, self._upower)
        return MonomialCoefficient(-self._cyc, self._upower)

    def __sub__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        return self + (-other)

    def scale(self, root: RootOfUnity) -> "MonomialCoefficient":
        """This coefficient times a root of unity."""
        if self._root is not None:
            return MonomialCoefficient._of_root(
                self._root * root, self._upower
            )
        return MonomialCoefficient(
            self._cyc * Cyclotomic.from_root(root), self._upower
        )

    def inverse_unit(self) -> "MonomialCoefficient":
        """Inverse, defined only when the u-power is zero."""
        if self._upower != 0:
            raise ValueError("positive u-powers are not invertible")
        if self._root is not None:
            return MonomialCoefficient._of_root(self._root.inverse(), 0)
        return MonomialCoefficient(self._cyc.inverse())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        if self._upower != other._upower:
            return False
        if self._root is not None:
            return self._root == other._root
        return other._root is None and self._cyc == other._cyc

    def __hash__(self) -> int:
        return hash((self._root or self._cyc, self._upower))

    def __repr__(self) -> str:
        return f"MonomialCoefficient({self.scalar!r}, u**{self._upower})"
