"""Exact arithmetic for roots of unity.

The structure constants of a triangulated covering are roots of unity:
the holonomy coefficients, the signs of the two-sheet coverings and the
components of the natural isomorphism.  Every coefficient the library
builds is zero or one root of unity times a power of ``u``:

* :class:`RootOfUnity` -- the torsion subgroup of ``K*``, stored as a
  reduced integer pair ``(k, q)`` with ``0 <= k < q`` and
  ``gcd(k, q) == 1`` for the value ``exp(2*pi*i*k/q)``; the group
  operations are integer arithmetic on that pair.
* :class:`Cyclotomic` -- zero or one root of unity, held as that root
  or ``None``, so each value has one form and its products and
  inverses are root arithmetic.
* :class:`MonomialCoefficient` -- zero, or a :class:`RootOfUnity` times
  ``u**k`` where ``t = u**2`` is the formal deformation variable.

Sums of scalars are decided by :func:`cyclotomic_reduce` alone.  A sum
that is not zero or one root (``1 + i``, say), like a sum of monomials
of two u-powers, raises ``ArithmeticError`` naming its terms, and so
does a rational multiple of a root other than ``1`` or ``-1``.  That no
construction meets one is
observed, not proved: all 17,201 sums made by the golden command-line
cases, ``verify --sample-size 5``, ``classify --n 4 --sample-size 60``
and ``verify_axiom_samples(sample_size=5)`` on the 4-sheet classes
cancelled to zero, and ``verify_axiom_samples(sample_size=25)`` with
seeds 0, 1 and 2 on every class of ``cli.class_table(2)`` and
``cli.class_table(4)`` raises no such error.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping


def exact(value) -> Fraction:
    """``value`` as a ``Fraction``: an ``int``, a ``Fraction`` or a string,
    never a ``float``, whose binary expansion would decide the result,
    nor a ``bool``, which is an ``int`` by inheritance only.

    Every rational that enters the library from outside passes here.
    """
    if isinstance(value, (float, bool)):
        raise TypeError(
            "an exact rational is required, not the "
            f"{type(value).__name__} {value!r}"
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


ONE = RootOfUnity._reduced(0, 1)
MINUS_ONE = RootOfUnity._reduced(1, 2)


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
# sums of roots


def _term_list(terms: Mapping[RootOfUnity, Fraction]) -> str:
    return " + ".join(f"{exact(c)}*z({r})" for r, c in terms.items())


def cyclotomic_reduce(terms: Mapping[RootOfUnity, Fraction]) -> "Cyclotomic":
    """The :class:`Cyclotomic` of a raw term map ``{root: coefficient}``.

    A two-term map ``c*r + c*(-r)``, the one sum the constructions make,
    is zero before any merging.  Otherwise equal roots are added and each
    root is folded into its negative, so terms that cancel give zero and
    terms that leave one root with coefficient 1 or -1 give that root or
    its negative.  Any other map raises ``ArithmeticError`` naming the
    terms: a true sum of roots, which no :class:`Cyclotomic` holds, or
    another rational multiple of one root, which none holds either.  A
    key that is no :class:`RootOfUnity` raises ``TypeError`` naming it.
    """
    for root in terms:
        if type(root) is not RootOfUnity:
            raise TypeError(f"a root must be a RootOfUnity: {root!r}")
    if len(terms) == 2:
        (r1, c1), (r2, c2) = terms.items()
        if exact(c1) == exact(c2) and c1 and r2 == -r1:
            return CYC_ZERO
    merged: dict[RootOfUnity, Fraction] = {}
    for root, coeff in terms.items():
        c = exact(coeff)
        if 2 * root._k >= root._q:
            # of r and -r, keep the one with exponent in [0, 1/2)
            root, c = -root, -c
        merged[root] = merged.get(root, 0) + c
    merged = {r: c for r, c in merged.items() if c}
    if not merged:
        return CYC_ZERO
    if len(merged) > 1:
        raise ArithmeticError(f"not a monomial: {_term_list(terms)}")
    (root, c), = merged.items()
    if c == 1:
        return Cyclotomic._raw(root)
    if c == -1:
        return Cyclotomic._raw(-root)
    raise ArithmeticError(f"not a root of unity: {_term_list(terms)}")


class Cyclotomic:
    """Zero or one root of unity.

    The value is held as its root, or ``None`` for zero, its only form,
    so ``==`` and ``hash`` compare the roots, and products and inverses
    are root arithmetic.  The constructor reduces a raw term map with
    :func:`cyclotomic_reduce`, so a true sum of roots, or a rational
    multiple of a root other than 1 or -1, raises ``ArithmeticError``
    there, and a root that is not a :class:`RootOfUnity` raises a
    ``TypeError`` naming it; :meth:`from_root` builds through it.
    """

    __slots__ = ("_root",)

    def __init__(self, terms: Mapping[RootOfUnity, Fraction] | None = None):
        self._root = cyclotomic_reduce(terms)._root if terms else None

    @classmethod
    def _raw(cls, root: RootOfUnity | None) -> "Cyclotomic":
        self = object.__new__(cls)
        self._root = root
        return self

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls._raw(None)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls._raw(ONE)

    @classmethod
    def from_root(cls, root: RootOfUnity) -> "Cyclotomic":
        return cls({root: 1})

    def __neg__(self) -> "Cyclotomic":
        if self._root is None:
            return self
        return Cyclotomic._raw(-self._root)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self._root is None or other._root is None:
            return CYC_ZERO
        return Cyclotomic._raw(self._root * other._root)

    def inverse(self) -> "Cyclotomic":
        if self._root is None:
            raise ValueError("zero has no inverse")
        return Cyclotomic._raw(self._root.inverse())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self._root == other._root

    def __hash__(self) -> int:
        return hash(self._root)

    def __repr__(self) -> str:
        if self._root is None:
            return "Cyclotomic(0)"
        return f"Cyclotomic(1*z({self._root}))"

    def serialize(self) -> list[list[str | int]]:
        """List of ``(exponent, numerator, denominator)`` triples."""
        if self._root is None:
            return []
        return [[str(self._root), 1, 1]]


CYC_ZERO = Cyclotomic.zero()
CYC_ONE = Cyclotomic.one()


class MonomialCoefficient:
    """Zero, or a root of unity times ``u**k``, where ``t = u**2``.

    The value is the pair ``(root, upower)`` with ``root`` a
    :class:`RootOfUnity`, and zero is ``(None, 0)``: one form per value,
    so ``==`` and ``hash`` compare the pairs, and products, negation,
    ``scale`` and ``inverse_unit`` are integer root arithmetic; a product
    with the unit (root 1, u-power 0) is the other operand.

    The constructor takes the scalar as a :class:`Cyclotomic`, which is
    zero or one root, and copies that root.  ``r + r``, twice a root,
    raises ``ArithmeticError`` naming its terms.  A sum
    of two different roots of one u-power is decided by
    :func:`cyclotomic_reduce`, the one place where cancellation is
    tested: ``r + (-r)`` is zero and any other pair raises
    ``ArithmeticError``, as does a sum of two nonzero terms of different
    u-powers, naming both.  Over the
    command-line traffic the library's own sums are all ``r + (-r)`` of
    one u-power (see the module docstrings here and in ``frobenius``:
    each of the 97,151 sums that matrix products made there was zero);
    that is evidence, not proof.  ``scalar`` gives the value as a
    ``Cyclotomic``.  :meth:`from_root` checks its root; ``_of_root`` does not.
    """

    __slots__ = ("_root", "_upower")

    def __init__(self, scalar: Cyclotomic, upower: int = 0):
        if type(upower) is not int:
            raise TypeError(f"u-power must be an int: {upower!r}")
        if upower < 0:
            raise ValueError("u-power must be nonnegative")
        if type(scalar) is not Cyclotomic:
            raise TypeError(f"a scalar must be a Cyclotomic: {scalar!r}")
        root = scalar._root
        if root is None:
            upower = 0
        self._root = root
        self._upower = upower

    @classmethod
    def _of_root(cls, root: RootOfUnity, upower: int) -> "MonomialCoefficient":
        """``root * u**upower``, without checks."""
        self = object.__new__(cls)
        self._root = root
        self._upower = upower
        return self

    @property
    def scalar(self) -> Cyclotomic:
        if self._root is None:
            return CYC_ZERO
        return Cyclotomic._raw(self._root)

    @property
    def upower(self) -> int:
        return self._upower

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
        if type(root) is not RootOfUnity:
            raise TypeError(f"a root must be a RootOfUnity: {root!r}")
        return cls._of_root(root, upower)

    def is_zero(self) -> bool:
        return self._root is None

    def __mul__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        a, b = self._root, other._root
        if a is None:
            return self
        if b is None:
            return other
        if not (a._k or self._upower):
            return other
        if not (b._k or other._upower):
            return self
        return MonomialCoefficient._of_root(
            a * b, self._upower + other._upower
        )

    def __add__(self, other: "MonomialCoefficient") -> "MonomialCoefficient":
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        a, b = self._root, other._root
        if a is None:
            return other
        if b is None:
            return self
        upower = self._upower
        if upower != other._upower:
            raise ArithmeticError(f"not a monomial: {self!r} + {other!r}")
        if a == b:
            # twice a root is a rational multiple, which no scalar holds
            raise ArithmeticError(f"not a root of unity: 1*z({a}) + 1*z({a})")
        return MonomialCoefficient(
            cyclotomic_reduce({a: 1, b: 1}), upower
        )

    def __neg__(self) -> "MonomialCoefficient":
        if self._root is None:
            return self
        return MonomialCoefficient._of_root(-self._root, self._upower)

    def scale(self, root: RootOfUnity) -> "MonomialCoefficient":
        """This coefficient times a root of unity."""
        if self._root is None:
            return self
        return MonomialCoefficient._of_root(self._root * root, self._upower)

    def inverse_unit(self) -> "MonomialCoefficient":
        """Inverse, defined only for a nonzero coefficient of u-power zero."""
        if self._root is None:
            raise ValueError("zero has no inverse")
        if self._upower != 0:
            raise ValueError("positive u-powers are not invertible")
        return MonomialCoefficient._of_root(self._root.inverse(), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialCoefficient):
            return NotImplemented
        return self._upower == other._upower and self._root == other._root

    def __hash__(self) -> int:
        return hash((self._root, self._upower))

    def __repr__(self) -> str:
        return f"MonomialCoefficient({self.scalar!r}, u**{self._upower})"
