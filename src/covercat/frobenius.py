"""Discrete model of the twisted circle cover and its matrix factorizations.

Points live on a double cover of a circle of circumference two (in
half-turn units) with ``n`` sheets permuted by the holonomy; morphisms
are rational-weight arcs with coefficients in K[[u]], t = u**2.  Matrix
factorizations of t over this category form a Frobenius category whose
stable category is triangulated; distinguished triangles are computed as
concrete pushouts of universal exact sequences.

All coordinates are rationals measured in half-turn units: the value
``x`` stands for the real point ``x*pi``.  Points and objects hold it as
a reduced integer pair ``(num, den)``, ``den > 0``; points are built
from such pairs only, and a rational from outside passes
:func:`covercat.scalars.exact`, which refuses a float.  Coordinates from
outside name one of an object's two representatives; :func:`oriented`
tells which one the object stores.

A single arc is a :class:`CoverMorphism` (two canonical points and a
coefficient).  A morphism between sums of points is an
:class:`EndMatrix` whose entry ``(r, c)`` is one nonzero
``MonomialCoefficient`` times the basic arc from ``cols[c]`` to
``rows[r]``, as a Hom between two points is K[[t]] times one basic arc;
the endpoints live in ``rows``/``cols`` only.  Two products landing on
one entry are added as coefficients, so any sum but ``r + (-r)`` of one
u-power raises ``ArithmeticError``, twice one root included.  That none
arises is observed, not proved: the
golden command-line cases, 1,200 ``triangles`` and 240 ``verify``
benchmark requests (seed 7) and ``verify_axiom_samples(sample_size=10)``
with seeds 0 and 1 on the 2- and 4-sheet classes add 733,934 products
into entries; 636,783 start an entry, 97,151 cancel one of the same
u-power to zero, and none meets a term it does not cancel.  Arcs
entering a matrix through its constructor have their endpoints checked
against ``rows``/``cols`` there; matrix products and sums work on
coefficients alone.  The basic arc p -> q
followed by the basic arc q -> r is the basic arc p -> r times a turn
factor, a root of unity times 1 or t: :func:`turn_factor` reads it off
the order of the three x-coordinates and at most two holonomy scalars.
It is the only place that rule is written down: :func:`cover_compose`
multiplies the two coefficients by it, and matrix products and the
elimination scale by it only where it is not 1.  Each elimination step
changes one row or one column of a matrix, not the whole matrix.

Universal sequences and triangles are built on a class's validated
``TriangulationTriple`` (its ``tau`` is the shift), which checked itself
when it was built; only an object's holonomy is matched against it here.

A :class:`Triangle` is its three maps f, g, h and that triple; its
objects are the maps' ends.  :func:`triangle_from` returns the stable
reductions of the cone's maps and keeps the maps of matrix
factorizations as an unstable triangle, together with the retraction of
IX (+) Y onto the cone (``lift`` and ``proj``) and the section of the
universal sequence (``section``).  The cone is built on one
block-diagonal universal sequence of the whole source, whose maps are
used as they are, and each component of Z is read off its two ends by
one rule, without a search (:func:`_recognize_component`).
:func:`rotate_triangle`, :func:`_complete_square` and
:func:`_rotation_comparison` read everything they need off that
unstable triangle.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .cn import Autoequivalence, commutes
from .scalars import (
    CYC_ONE,
    MINUS_ONE,
    ONE,
    Cyclotomic,
    MonomialCoefficient,
    RootOfUnity,
    exact,
)

# ---------------------------------------------------------------------------
# permutation helpers on 1-based tables


def _perm_power(sigma: Autoequivalence, k: int, i: int) -> int:
    """Image of sheet ``i`` under the ``k``-th power of the holonomy."""
    orbit = sigma.orbit(i)
    return orbit[k % len(orbit)]


def _d2(sigma: Autoequivalence, j: int) -> RootOfUnity:
    """Scalar of the squared holonomy along sheet j: c_{sigma(j)} * c_j."""
    return sigma.coeff[sigma(j) - 1] * sigma.coeff[j - 1]


def _d2_turns(sigma: Autoequivalence, i: int, m: int) -> RootOfUnity:
    """Product of ``_d2`` over the ``m >= 0`` sheets ``sigma**(2j)(i)``, j < m.

    ``sigma**2`` returns to ``i`` after as many steps as the cycle of
    ``i`` is long, so whole periods are one power of the period's product.
    """
    orbit = sigma.orbit(i)
    period = len(orbit)
    full, rest = divmod(m, period)
    out = ONE
    if full:
        for j in range(period):
            out = out * _d2(sigma, orbit[2 * j % period])
        out = out ** full
    for j in range(rest):
        out = out * _d2(sigma, orbit[2 * j % period])
    return out


def _shift_arc(
    sigma: Autoequivalence, k: int, si: int, ti: int
) -> tuple[int, int, RootOfUnity]:
    """Translate an arc by ``-2k`` (k full turns down, or up for k < 0).

    Returns the new source and target sheets and the root the coefficient
    is multiplied by.  One turn down multiplies it by
    ``_d2(ti) / _d2(si)`` and then moves both sheets by ``sigma**2``; one
    turn up moves them by ``sigma**-2`` and then divides by that ratio.
    """
    si2, ti2 = _perm_power(sigma, 2 * k, si), _perm_power(sigma, 2 * k, ti)
    if k >= 0:
        return si2, ti2, _d2_turns(sigma, ti, k) / _d2_turns(sigma, si, k)
    return si2, ti2, _d2_turns(sigma, si2, -k) / _d2_turns(sigma, ti2, -k)


# ---------------------------------------------------------------------------
# points


def _coord_str(num: int, den: int) -> str:
    """``num/den`` as ``str(Fraction(num, den))`` prints it."""
    return str(num) if den == 1 else f"{num}/{den}"


def _pair(x) -> tuple[int, int]:
    """The reduced pair of an exact rational ``x``."""
    x = exact(x)
    return x.numerator, x.denominator


class CoverPoint:
    """A point [x, sheet, +] of the double cover.

    Every point [x+1, i, -] equals the positive point [x, sigma(i), +],
    so no point carries a sign; canonical points have x in [0, 2).  ``x``
    is held as the reduced pair ``num/den``, so equal points have equal
    fields.  :meth:`_make` builds a point from that pair, and
    :func:`_point` builds the canonical one; a point is never changed
    after construction.
    """

    __slots__ = ("num", "den", "sheet")

    @classmethod
    def _make(cls, num: int, den: int, sheet: int):
        self = object.__new__(cls)
        self.num, self.den, self.sheet = num, den, sheet
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverPoint):
            return NotImplemented
        return (self.num, self.den, self.sheet) == (
            other.num, other.den, other.sheet
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.sheet))

    def __repr__(self) -> str:
        return f"[{_coord_str(self.num, self.den)},{self.sheet},+]"


def _point(num: int, den: int, i: int, sigma: Autoequivalence) -> CoverPoint:
    """The canonical point equal to [num/den, i, +]."""
    k = num // (2 * den)
    if k:
        num -= 2 * k * den
        i = _perm_power(sigma, 2 * k, i)
    return CoverPoint._make(num, den, i)


# ---------------------------------------------------------------------------
# morphisms


UNIT = MonomialCoefficient.one()


class CoverMorphism:
    """coeff * f_{yx} (x) x_{ji} between canonical positive points.

    The raw target coordinate is determined by the two canonical points:
    it is the unique lift of the target into [source.x, source.x + 2).
    Full turns are extracted into the coefficient as factors d_j * t.
    A morphism is never changed after construction.
    """

    __slots__ = ("source", "target", "coeff")

    def __init__(
        self,
        source: CoverPoint,
        target: CoverPoint,
        coeff: MonomialCoefficient,
    ):
        self.source, self.target, self.coeff = source, target, coeff

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverMorphism):
            return NotImplemented
        return (self.source, self.target, self.coeff) == (
            other.source, other.target, other.coeff
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.coeff))

    def __repr__(self) -> str:
        return f"{self.source}->{self.target} * {self.coeff!r}"


def weight(m: CoverMorphism) -> tuple[int, int]:
    """The arc's length in [0, 2) as a pair ``(num, den)``, not reduced."""
    p, q = m.source, m.target
    den = p.den * q.den
    return (q.num * p.den - p.num * q.den) % (2 * den), den


def cover_morphism(
    sigma: Autoequivalence,
    sx: tuple[int, int],
    si: int,
    tx: tuple[int, int],
    ti: int,
    coeff: MonomialCoefficient | None = None,
) -> CoverMorphism:
    """Build and canonicalize a morphism from raw coordinates.

    ``sx`` and ``tx`` are reduced pairs ``(num, den)`` with ``den > 0``.
    """
    (sn, sd), (tn, td) = sx, tx
    if coeff is None:
        coeff = MonomialCoefficient.one()
    if tn * sd < sn * td:
        raise ValueError("morphisms only run forward along the cover")
    # translate the whole arc so the source lands in [0, 2)
    k = sn // (2 * sd)
    if k:
        si, ti, factor = _shift_arc(sigma, k, si, ti)
        coeff = coeff.scale(factor)
        sn, tn = sn - 2 * k * sd, tn - 2 * k * td
    # extract full turns from the far end
    k = (tn * sd - sn * td) // (2 * sd * td)
    if k:
        coeff = coeff * MonomialCoefficient.from_root(
            _d2_turns(sigma, ti, k), 2 * k
        )
        ti = _perm_power(sigma, 2 * k, ti)
        tn -= 2 * k * td
    source = CoverPoint._make(sn, sd, si)
    return CoverMorphism(source, _point(tn, td, ti, sigma), coeff)


def cover_identity(p: CoverPoint) -> CoverMorphism:
    return CoverMorphism(p, p, MonomialCoefficient.one())


def cover_compose(
    g: CoverMorphism, f: CoverMorphism, sigma: Autoequivalence
) -> CoverMorphism:
    """g after f; endpoints must agree as points of the cover.

    Both arcs are coefficients times basic arcs, so the composite is the
    product of the coefficients times the basic arc from f's source to
    g's target, scaled by the :func:`turn_factor` of the three points.
    """
    if g.source != f.target:
        raise ValueError(
            f"composition endpoints differ: {f.target} vs {g.source}"
        )
    coeff = f.coeff * g.coeff
    turn = turn_factor(f.source, f.target, g.target, sigma)
    if turn is not UNIT:
        coeff = coeff * turn
    return CoverMorphism(f.source, g.target, coeff)


def turn_factor(
    p: CoverPoint, q: CoverPoint, r: CoverPoint, sigma: Autoequivalence
) -> MonomialCoefficient:
    """Coefficient of the basic arc q -> r after the basic arc p -> q.

    For canonical points the composite is the basic arc p -> r times this
    factor, which is ``UNIT`` itself whenever it is 1.  A basic arc
    crosses the seam x = 0 when its target lies below its source; with
    c1, c2, c3 those crossings for p -> q, q -> r and p -> r, the factor
    is ``d2(s(q))**c1 * d2(s(r))**(c2 - c3) * t**(c1 + c2 - c3)``, where
    ``s`` is one turn of the holonomy back (``sigma**-2``) and
    ``c1 + c2 - c3`` is 0 or 1.  It is decided by comparing coordinates
    alone, cross-multiplied as integers (denominators are positive).
    """
    pn, pd = p.num, p.den
    qn, qd = q.num, q.den
    rn, rd = r.num, r.den
    c1 = qn * pd < pn * qd
    c2 = rn * qd < qn * rd
    if not (c1 or c2):
        # p.x <= q.x <= r.x: the composite is the basic arc p -> r
        return UNIT
    c3 = rn * pd < pn * rd
    root = _d2(sigma, _perm_power(sigma, -2, q.sheet)) if c1 else ONE
    if c2 != c3:
        d = _d2(sigma, _perm_power(sigma, -2, r.sheet))
        root = root * d if c2 else root / d
    upower = 2 * (c1 + c2 - c3)
    if not upower and root.is_one():
        return UNIT
    return MonomialCoefficient.from_root(root, upower)


def divide_t(m: CoverMorphism) -> CoverMorphism:
    if m.coeff.upower < 2:
        raise ValueError("morphism is not divisible by t")
    return CoverMorphism(
        m.source,
        m.target,
        MonomialCoefficient(m.coeff.scalar, m.coeff.upower - 2),
    )


def _add_product(data: dict, key, a, b, turn: MonomialCoefficient) -> None:
    """Add ``a * b``, times ``turn`` unless it is ``UNIT``, into entry
    ``key`` of ``data``; an entry that sums to zero is dropped."""
    z = a * b
    if turn is not UNIT:
        z = z * turn
    if key in data:
        z = data[key] + z
        if z.is_zero():
            del data[key]
            return
    data[key] = z


# ---------------------------------------------------------------------------
# end matrices (morphisms between formal sums of points)


class EndMatrix:
    """Sparse matrix of K[[u]]-multiples of basic arcs between points.

    Entry ``(r, c)`` of ``data`` is one nonzero ``MonomialCoefficient``
    times the basic arc ``cols[c] -> rows[r]``; zero entries are absent.
    One root times one u-power per entry is checked, not proved: over the
    traffic named in the module docstring every sum into an entry
    cancelled.  Entries
    carry no endpoints.  The constructor takes one arc per entry and
    checks its endpoints against ``rows``/``cols`` once; the matrices
    that ``compose``, ``scale_root`` and the elimination build from
    coefficients skip that check through ``_raw``.  ``compose`` scales
    the product of an entry pair by the :func:`turn_factor` of its three
    points when that factor is not 1.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(
        self,
        rows: Sequence[CoverPoint],
        cols: Sequence[CoverPoint],
        data: dict,
    ):
        """``data`` maps ``(r, c)`` to an arc ``cols[c] -> rows[r]``."""
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        for (r, c), arc in data.items():
            if arc.source != self.cols[c] or arc.target != self.rows[r]:
                raise AssertionError("entry endpoints disagree")
        self.data = {
            k: arc.coeff for k, arc in data.items() if not arc.coeff.is_zero()
        }

    @classmethod
    def _raw(cls, rows: tuple, cols: tuple, data: dict) -> "EndMatrix":
        """A matrix from nonzero coefficient entries, without checks."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.data = data
        return self

    @classmethod
    def identity(cls, points: Sequence[CoverPoint]) -> "EndMatrix":
        points = tuple(points)
        return cls._raw(
            points, points, {(k, k): UNIT for k in range(len(points))}
        )

    def entry(self, r: int, c: int) -> Optional[MonomialCoefficient]:
        return self.data.get((r, c))

    def arc(
        self, r: int, c: int, coeff: MonomialCoefficient = UNIT
    ) -> CoverMorphism:
        """``coeff`` times the basic arc of entry ``(r, c)``."""
        return CoverMorphism(self.cols[c], self.rows[r], coeff)

    def compose(
        self, other: "EndMatrix", sigma: Autoequivalence
    ) -> "EndMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not line up")
        by_row: dict = {}
        for (k, c), b in other.data.items():
            by_row.setdefault(k, []).append((c, b))
        rows, mid, cols = self.rows, self.cols, other.cols
        acc: dict = {}
        for (r, k), a in self.data.items():
            for c, b in by_row.get(k, ()):
                turn = turn_factor(cols[c], mid[k], rows[r], sigma)
                _add_product(acc, (r, c), a, b, turn)
        return EndMatrix._raw(rows, cols, acc)

    def scale_root(self, root: RootOfUnity) -> "EndMatrix":
        return EndMatrix._raw(
            self.rows,
            self.cols,
            {k: a.scale(root) for k, a in self.data.items()},
        )

    def __neg__(self) -> "EndMatrix":
        return self.scale_root(MINUS_ONE)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"EndMatrix({len(self.rows)}x{len(self.cols)}, "
            f"{len(self.data)} entries)"
        )


# ---------------------------------------------------------------------------
# matrix factorizations


class MFObject:
    """M(x, y, i) = ([x,i,-] (+) [y,i,+], d) with |y - x| <= 1.

    The object M(x,y,i) = M(y-1, x-1, sigma(i)) stores one representative:
    of the two, each translated into x in [0,2), the one with the smaller
    x (ties broken towards the larger y), so equal objects have equal
    fields and ends.  ``x`` and ``y`` are held as reduced pairs ``xn/xd``
    and ``yn/yd``: the constructor takes exact rationals and
    :meth:`_oriented` the pairs.
    """

    __slots__ = ("xn", "xd", "yn", "yd", "sheet", "sigma", "_ends",
                 "_d_minus", "_d_plus")

    def __init__(self, x, y, sheet: int, sigma: Autoequivalence):
        self._init(*_pair(x), *_pair(y), sheet, sigma)

    @classmethod
    def _oriented(cls, xn, xd, yn, yd, sheet, sigma) -> tuple:
        """:func:`oriented` on reduced pairs."""
        self = object.__new__(cls)
        return self, self._init(xn, xd, yn, yd, sheet, sigma)

    def _init(self, xn, xd, yn, yd, sheet, sigma) -> bool:
        """Store the canonical representative; True if it is the flip."""
        if abs(yn * xd - xn * yd) > xd * yd:
            raise ValueError("object coordinates must satisfy |y - x| <= 1")
        if type(sheet) is not int or not 1 <= sheet <= sigma.n:
            raise ValueError(
                f"sheet must be an int in 1..{sigma.n}: {sheet!r}"
            )
        # the given and the flipped representative, moved by ka and kb
        # whole turns into x in [0, 2): the smaller x wins, and of the
        # two representatives of a projective-injective the upper one
        ka, kb = xn // (2 * xd), (yn - yd) // (2 * yd)
        ax, bx = (xn - 2 * ka * xd) * yd, (yn - yd - 2 * kb * yd) * xd
        if ax == bx:
            flipped = (xn - xd - 2 * kb * xd) * yd > (yn - 2 * ka * yd) * xd
        else:
            flipped = bx < ax
        k = ka
        if flipped:
            xn, xd, yn, yd = yn - yd, yd, xn - xd, xd
            sheet, k = sigma(sheet), kb
        if k:
            xn, yn = xn - 2 * k * xd, yn - 2 * k * yd
            sheet = _perm_power(sigma, 2 * k, sheet)
        self.xn, self.xd, self.yn, self.yd, self.sheet = xn, xd, yn, yd, sheet
        self.sigma = sigma
        self._ends = None
        self._d_minus = None
        self._d_plus = None
        return flipped

    def ends(self) -> tuple[CoverPoint, CoverPoint]:
        """The canonical negative and positive end points.

        An object is never changed after construction, so they are
        computed on first use and kept.
        """
        if self._ends is None:
            sigma, i = self.sigma, self.sheet
            self._ends = (
                _point(self.xn - self.xd, self.xd, sigma(i), sigma),
                _point(self.yn, self.yd, i, sigma),
            )
        return self._ends

    def is_projective_injective(self) -> bool:
        return abs(self.yn * self.xd - self.xn * self.yd) == self.xd * self.yd

    def _key(self) -> tuple:
        return (self.xn, self.xd, self.yn, self.yd, self.sheet)

    def d_minus(self) -> CoverMorphism:
        """The differential leaving the negative end, kept after first use."""
        if self._d_minus is None:
            i = self.sheet
            self._d_minus = cover_morphism(
                self.sigma,
                (self.xn - self.xd, self.xd),
                self.sigma(i),
                (self.yn, self.yd),
                i,
                MonomialCoefficient.from_root(
                    self.sigma.coeff[i - 1].inverse()
                ),
            )
        return self._d_minus

    def d_plus(self) -> CoverMorphism:
        """The differential leaving the positive end, kept after first use."""
        if self._d_plus is None:
            i = self.sheet
            si = self.sigma.object_map.index(i) + 1
            self._d_plus = cover_morphism(
                self.sigma,
                (self.yn, self.yd),
                i,
                (self.xn + self.xd, self.xd),
                si,
                MonomialCoefficient.from_root(
                    self.sigma.coeff[si - 1].inverse()
                ),
            )
        return self._d_plus

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MFObject):
            return NotImplemented
        return self._key() == other._key() and self.sigma == other.sigma

    def __hash__(self) -> int:
        return hash((self._key(), self.sigma.object_map))

    def __repr__(self) -> str:
        x, y = _coord_str(self.xn, self.xd), _coord_str(self.yn, self.yd)
        return f"M({x},{y},{self.sheet})"

    def to_json(self) -> dict:
        x, y = _coord_str(self.xn, self.xd), _coord_str(self.yn, self.yd)
        return {"x": x, "y": y, "sheet": self.sheet}


def _t_times_identity(p: CoverPoint) -> CoverMorphism:
    return CoverMorphism(p, p, MonomialCoefficient.t())


def make_mf(
    x: Fraction, y: Fraction, i: int, sigma: Autoequivalence
) -> MFObject:
    """Construct M(x,y,i) and verify both composites equal t times id."""
    M = MFObject(x, y, i, sigma)
    dm, dp = M.d_minus(), M.d_plus()
    neg, pos = M.ends()
    if cover_compose(dp, dm, sigma) != _t_times_identity(neg):
        raise AssertionError("d_+ d_- is not t times the identity")
    if cover_compose(dm, dp, sigma) != _t_times_identity(pos):
        raise AssertionError("d_- d_+ is not t times the identity")
    return M


def oriented(x, y, sheet: int, sigma: Autoequivalence) -> tuple:
    """M(x, y, sheet), and whether it stores the flip of these coordinates:
    then its stored negative end is [y], not [x - 1]."""
    return MFObject._oriented(*_pair(x), *_pair(y), sheet, sigma)


# ---------------------------------------------------------------------------
# morphisms of matrix factorizations


def _object_ends(objs: Sequence[MFObject]) -> tuple[CoverPoint, ...]:
    pts: list[CoverPoint] = []
    for o in objs:
        pts.extend(o.ends())
    return tuple(pts)


def d_matrix(objs: Sequence[MFObject], sigma: Autoequivalence) -> EndMatrix:
    pts = _object_ends(objs)
    data: dict = {}
    for k, o in enumerate(objs):
        data[(2 * k + 1, 2 * k)] = o.d_minus()
        data[(2 * k, 2 * k + 1)] = o.d_plus()
    return EndMatrix(pts, pts, data)


class MFMorphism:
    """A matrix of end components between sums of matrix factorizations."""

    __slots__ = ("source", "target", "matrix", "grade")

    def __init__(
        self,
        source: Sequence[MFObject],
        target: Sequence[MFObject],
        matrix: EndMatrix,
        grade: int | None = None,
    ):
        self.source = tuple(source)
        self.target = tuple(target)
        if matrix.cols != _object_ends(self.source) or matrix.rows != (
            _object_ends(self.target)
        ):
            raise ValueError("matrix does not match the object ends")
        self.matrix = matrix
        self.grade = grade

    @classmethod
    def identity(cls, objs) -> "MFMorphism":
        return cls(objs, objs, EndMatrix.identity(_object_ends(objs)))

    def holonomy(self) -> Autoequivalence:
        return (self.source + self.target)[0].sigma

    def compose(self, other: "MFMorphism") -> "MFMorphism":
        return MFMorphism(
            other.source,
            self.target,
            self.matrix.compose(other.matrix, self.holonomy()),
        )

    def __neg__(self) -> "MFMorphism":
        return MFMorphism(self.source, self.target, -self.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def commutes_with_d(self) -> bool:
        sigma = self.holonomy()
        ds = d_matrix(self.source, sigma)
        dt = d_matrix(self.target, sigma)
        return self.matrix.compose(ds, sigma) == dt.compose(
            self.matrix, sigma
        )

    def block(self, ti: int, si: int) -> dict:
        """Nonzero entries between target object ``ti`` and source object
        ``si``, keyed by end slots ``(a, b)``, as arcs."""
        out = {}
        for (a, b) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            r, c = 2 * ti + a, 2 * si + b
            coeff = self.matrix.entry(r, c)
            if coeff is not None:
                out[(a, b)] = self.matrix.arc(r, c, coeff)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MFMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def to_json(self) -> dict:
        return {
            "source": [o.to_json() for o in self.source],
            "target": [o.to_json() for o in self.target],
            "components": [
                [c, r, a.scalar.serialize(), a.upower]
                for (r, c), a in sorted(self.matrix.data.items())
            ],
        }

    def __repr__(self) -> str:
        return (
            f"MFMorphism({list(self.source)} -> {list(self.target)}, "
            f"{len(self.matrix.data)} entries)"
        )


def mf_functor_morphism(F: Autoequivalence, m: MFMorphism) -> MFMorphism:
    """``m`` with its sheets relabelled by ``F``, which must commute with
    the holonomy.

    Objects and end points move to sheet ``F(i)`` with their coordinates
    and orientation; the entry on the arc ``p -> q``, whose target lifted
    above ``p`` lies on sheet ``rj``, is scaled by ``F.a(rj, p.sheet)``.
    ``MFMorphism`` checks that the moved points are the moved objects' ends.
    """
    sigma = m.holonomy()
    if not commutes(sigma, F):
        raise ValueError("the functor must commute with the holonomy")

    def move(objs):
        return [
            MFObject._oriented(o.xn, o.xd, o.yn, o.yd, F(o.sheet), sigma)[0]
            for o in objs
        ]

    def moved(pts):
        return tuple(CoverPoint._make(p.num, p.den, F(p.sheet)) for p in pts)

    rows, cols = m.matrix.rows, m.matrix.cols
    data = {}
    for (r, c), a in m.matrix.data.items():
        p, q = cols[c], rows[r]
        lifted = q.num * p.den >= p.num * q.den
        rj = q.sheet if lifted else _perm_power(sigma, -2, q.sheet)
        data[(r, c)] = a.scale(F.a(rj, p.sheet))
    mat = EndMatrix._raw(moved(rows), moved(cols), data)
    return MFMorphism(move(m.source), move(m.target), mat)


# ---------------------------------------------------------------------------
# hom computation


def hom_mf(M: MFObject, N: MFObject, parity: int) -> MFMorphism:
    """The K[[t]]-module generator of Hom(M, N) of parity 0 (even) or 1
    (odd), graded by u-power."""
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, not {parity!r}")
    sigma = M.sigma
    m_ends, n_ends = M.ends(), N.ends()
    # the N-slot each end of M (negative, positive) maps to: even maps
    # keep the sign of an end, odd maps flip it
    slot = (1, 0) if parity else (0, 1)
    # the differential of N leaving each of its slots
    n_d = (N.d_minus, N.d_plus)
    # the unit arc on the positive ends, unless the arc back to the
    # negative ends is not divisible by t; then the unit arc on those
    f_pos = CoverMorphism(m_ends[1], n_ends[slot[1]], UNIT)
    back = cover_compose(
        n_d[slot[1]](), cover_compose(f_pos, M.d_minus(), sigma), sigma
    )
    if back.coeff.upower >= 2:
        f_neg = divide_t(back)
    else:
        f_neg = CoverMorphism(m_ends[0], n_ends[slot[0]], UNIT)
        f_pos = divide_t(
            cover_compose(
                n_d[slot[0]](), cover_compose(f_neg, M.d_plus(), sigma), sigma
            )
        )
    data = {(slot[0], 0): f_neg, (slot[1], 1): f_pos}
    # row-major order: later eliminations visit entries in insertion order
    mat = EndMatrix(n_ends, m_ends, dict(sorted(data.items())))
    grade = min(f_neg.coeff.upower, f_pos.coeff.upower)
    gen = MFMorphism([M], [N], mat, grade=grade)
    if not gen.commutes_with_d():
        raise AssertionError("constructed hom generator does not commute")
    return gen


# ---------------------------------------------------------------------------
# universal exact sequences


class UniversalSequence:
    """X -j-> IX -p-> F_tau X on a sum X of objects, with a retraction of
    ``j`` and a section of ``p``.

    Object ``k`` of ``source`` owns the objects ``2k`` and ``2k + 1`` of
    ``middle`` and the object ``k`` of ``target``, so every map is
    block-diagonal.  The retraction's entries are identities, in the rows
    of the middle carrying the unit entries of ``j``, one for each end of
    the source.
    """

    __slots__ = (
        "source", "middle", "target", "j", "p", "retraction", "section",
    )

    def __init__(
        self,
        source: tuple[MFObject, ...],
        middle: tuple[MFObject, ...],
        target: tuple[MFObject, ...],
        j: MFMorphism,
        p: MFMorphism,
        retraction: MFMorphism,
        section: MFMorphism,
    ):
        self.source, self.middle, self.target = source, middle, target
        self.j, self.p = j, p
        self.retraction, self.section = retraction, section


def _order_key(objs: Sequence[MFObject]):
    """A key ordering ``objs`` by (x, y, sheet): integers over one lcm."""
    den = math.lcm(*(d for o in objs for d in (o.xd, o.yd)))
    return lambda o: (o.xn * (den // o.xd), o.yn * (den // o.yd), o.sheet)


def universal_sequence(X: Sequence[MFObject], triple) -> UniversalSequence:
    """The sum over the objects M = M(x, y, i) of ``X`` of
    M -> I_{sigma(i)}(x-1) (+) I_i(y) -> F_tau M, for a validated triple.

    p after j vanishes, and the retraction and the section split j and
    p; each is checked once, on the sum.
    """
    sigma, tau, phi = triple.sigma, triple.tau, triple.phi
    minus = MonomialCoefficient.from_root(MINUS_ONE)
    IX: list[MFObject] = []
    TX: list[MFObject] = []
    s_points: list[CoverPoint] = []
    j_data: dict = {}
    q_data: dict = {}
    phi_data: dict = {}
    r_data: dict = {}
    iso_cols = set()
    for k, M in enumerate(X):
        if M.sigma != sigma:
            raise ValueError("the holonomy is not the sigma of the triple")
        xn, xd, yn, yd, i = M.xn, M.xd, M.yn, M.yd, M.sheet
        x_minus, x_plus, y = (xn - xd, xd), (xn + xd, xd), (yn, yd)
        I1, flip1 = MFObject._oriented(xn, xd, xn + xd, xd, i, sigma)
        I2, flip2 = MFObject._oriented(yn + yd, yd, yn, yd, i, sigma)
        TM, flip_tm = MFObject._oriented(xn, xd, yn, yd, tau(i), sigma)
        # projective-injectives are stored on their upper interval, so
        # relative to the construction coordinates the slots of I2 swap
        # (its negative slot is the point [y, i], the positive one [y, s(i)])
        if flip1:
            raise AssertionError("unexpected orientation of the first middle")
        if not flip2:
            raise AssertionError("unexpected orientation of the second middle")
        key = _order_key((I1, I2))
        first = key(I1) <= key(I2)
        IX.extend((I1, I2) if first else (I2, I1))
        TX.append(TM)
        # M and TM own the ends m and m + 1 of the sum, I1 the ends o1
        # and o1 + 1 and I2 the ends o2 and o2 + 1
        m = 2 * k
        o1, o2 = (4 * k, 4 * k + 2) if first else (4 * k + 2, 4 * k)
        m_ends = M.ends()
        si = sigma(i)

        j_data[(o1 + 0, m)] = cover_identity(m_ends[0])
        j_data[(o1 + 1, m + 1)] = cover_morphism(sigma, y, i, x_plus, i)
        j_data[(o2 + 1, m)] = cover_morphism(sigma, x_minus, si, y, si)
        j_data[(o2 + 0, m + 1)] = cover_identity(m_ends[1])

        # q = (-q_1, q_2) into the shifted object M(y+1, x+1, i), whose
        # ends coincide with those of M(x, y, sigma(i)); then the
        # components of phi carry it to F_tau M.
        s_neg = _point(yn, yd, si, sigma)  # = [y + 1, i, -]
        s_pos = _point(xn + xd, xd, i, sigma)
        s_points.extend((s_neg, s_pos))
        q_data[(m, o1 + 0)] = cover_morphism(sigma, x_minus, si, y, si, minus)
        q_data[(m + 1, o1 + 1)] = CoverMorphism(s_pos, s_pos, minus)
        q_data[(m, o2 + 1)] = cover_identity(s_neg)
        q_data[(m + 1, o2 + 0)] = cover_morphism(sigma, y, i, x_plus, i)

        ci = phi.c[i - 1]
        a_ts = sigma.a(tau(i), si)
        pos_row = 0 if flip_tm else 1
        # positive ends: c_i at coordinate y
        phi_data[(m + pos_row, m)] = cover_morphism(
            sigma, y, si, y, tau(i), MonomialCoefficient.from_root(ci)
        )
        # negative ends, translated to positive representatives
        phi_data[(m + 1 - pos_row, m + 1)] = cover_morphism(
            sigma,
            x_minus,
            _perm_power(sigma, 2, i),
            x_minus,
            sigma(tau(i)),
            MonomialCoefficient.from_root(ci * a_ts),
        )

        r_data[(m, o1 + 0)] = cover_identity(m_ends[0])
        r_data[(m + 1, o2 + 0)] = cover_identity(m_ends[1])
        iso_cols.update((o1 + 1, o2 + 1))

    x_ends, ix_ends, tx_ends = map(_object_ends, (X, IX, TX))
    j = MFMorphism(X, IX, EndMatrix(ix_ends, x_ends, j_data))
    q = EndMatrix(s_points, ix_ends, q_data)
    phi_m = EndMatrix(tx_ends, s_points, phi_data)
    p = MFMorphism(IX, TX, phi_m.compose(q, sigma))

    if not p.compose(j).is_zero():
        raise AssertionError("p after j must vanish")

    retraction = MFMorphism(IX, X, EndMatrix(x_ends, ix_ends, r_data))
    if retraction.compose(j) != MFMorphism.identity(X):
        raise AssertionError("retraction must split j")

    # section of p: invert the isomorphism components; a weight-zero arc
    # reversed is the basic arc back
    sec_data = {
        (c, r): a.inverse_unit()
        for (r, c), a in p.matrix.data.items()
        if c in iso_cols
        and a.upower == 0
        and weight(p.matrix.arc(r, c))[0] == 0
    }
    section = MFMorphism(TX, IX, EndMatrix._raw(ix_ends, tx_ends, sec_data))
    if p.compose(section) != MFMorphism.identity(TX):
        raise AssertionError("section must split p")

    return UniversalSequence(
        j.source, j.target, p.target, j, p, retraction, section
    )


# ---------------------------------------------------------------------------
# stable reduction


def _part_survives(src: MFObject, neg, pos, sign=1) -> Optional[tuple]:
    """Keep the u-power-0 part of a diagonal pair inside the support window.

    ``neg`` and ``pos`` are block arcs or None; ``sign`` is -1 to measure
    against the flip of ``src``.
    """
    if neg is None or pos is None:
        return None
    if neg.coeff.upower != 0 or pos.coeff.upower != 0:
        return None
    # y - x = width / den, negated on the flip
    den, width = src.xd * src.yd, sign * (src.yn * src.xd - src.xn * src.yd)
    wn, wd = weight(neg)
    if wn * den >= (den + width) * wd:
        return None
    wn, wd = weight(pos)
    if wn * den >= (den - width) * wd:
        return None
    return neg.coeff, pos.coeff


def stable_reduce(m: MFMorphism) -> MFMorphism:
    """Project to the stable category.

    Deletes projective-injective summands and zeroes components that are
    divisible by u or whose endpoints leave the support window.
    """
    keep_s = [
        k for k, o in enumerate(m.source) if not o.is_projective_injective()
    ]
    keep_t = [
        k for k, o in enumerate(m.target) if not o.is_projective_injective()
    ]
    src = [m.source[k] for k in keep_s]
    tgt = [m.target[k] for k in keep_t]
    data: dict = {}
    for new_s, ks in enumerate(keep_s):
        for new_t, kt in enumerate(keep_t):
            block = m.block(kt, ks)
            # even part: negative->negative and positive->positive
            even = _part_survives(
                m.source[ks], block.get((0, 0)), block.get((1, 1))
            )
            if even:
                data[(2 * new_t, 2 * new_s)] = even[0]
                data[(2 * new_t + 1, 2 * new_s + 1)] = even[1]
            # odd part: measured against the flipped source representative,
            # whose negative slot is the stored positive one
            odd = _part_survives(
                m.source[ks], block.get((0, 1)), block.get((1, 0)), -1
            )
            if odd:
                data[(2 * new_t, 2 * new_s + 1)] = odd[0]
                data[(2 * new_t + 1, 2 * new_s)] = odd[1]
    mat = EndMatrix._raw(_object_ends(tgt), _object_ends(src), data)
    return MFMorphism(src, tgt, mat)


# ---------------------------------------------------------------------------
# pushout triangles


class Triangle:
    """A distinguished triangle X -> Y -> Z -> F_tau X, stored as its maps.

    ``X``, ``Y`` and ``Z`` are the ends of ``f`` and ``g``; ``triple`` is
    the class's validated ``TriangulationTriple``, whose ``tau`` is the
    shift.  A triangle of stable maps keeps in ``unstable`` the triangle
    of matrix factorizations it was reduced from.  For a cone built by
    :func:`triangle_from` that unstable triangle also carries the
    retraction of IX (+) Y onto Z: ``lift`` maps Z into IX (+) Y,
    ``proj`` maps it back, and ``proj`` after ``lift`` is the identity.
    ``section`` maps F_tau X into IX (+) Y by the section of X's
    universal sequence, and zero into Y.
    """

    __slots__ = (
        "f", "g", "h", "triple", "unstable", "proj", "lift", "section",
    )

    def __init__(
        self,
        f: MFMorphism,
        g: MFMorphism,
        h: MFMorphism,
        triple,
        unstable: Optional["Triangle"] = None,
        proj: Optional[EndMatrix] = None,
        lift: Optional[EndMatrix] = None,
        section: Optional[EndMatrix] = None,
    ):
        self.f, self.g, self.h, self.triple = f, g, h, triple
        self.unstable, self.proj, self.lift = unstable, proj, lift
        self.section = section

    @property
    def X(self) -> tuple[MFObject, ...]:
        return self.f.source

    @property
    def Y(self) -> tuple[MFObject, ...]:
        return self.f.target

    @property
    def Z(self) -> tuple[MFObject, ...]:
        return self.g.target

    def to_json(self) -> dict:
        return {
            "X": [o.to_json() for o in self.X],
            "Y": [o.to_json() for o in self.Y],
            "Z": [o.to_json() for o in self.Z],
            "f": self.f.to_json(),
            "g": self.g.to_json(),
            "h": self.h.to_json(),
            "shift": self.triple.tau.to_json(),
        }


def _divide_terms(target, pivot, turn):
    """The coefficient lam with lam * pivot * turn = target, or None if
    ``target`` is not divisible.

    ``turn`` is the turn factor of the arcs of lam and the pivot.
    """
    comp = pivot * turn
    m = target.upower - comp.upower
    if m < 0 or m % 2 != 0:
        return None
    return MonomialCoefficient(target.scalar * comp.scalar.inverse(), m)


def _elementary(points, b, a, lam) -> EndMatrix:
    """E = lam at (b, a), a != b: lam times the basic arc points[a] ->
    points[b].  E squares to zero, so I + E has inverse I - E."""
    return EndMatrix._raw(points, points, {(b, a): lam})


def _apply_elementary(
    m: EndMatrix, E: EndMatrix, sigma: Autoequivalence, left: bool
) -> EndMatrix:
    """(I + E) m if ``left``, else m (I + E), for E from :func:`_elementary`.

    On the left only row b of m changes: it gains lam after row a.  On the
    right only column a changes: it gains column b before lam.
    """
    (((b, a), lam),) = E.data.items()
    rows, cols = m.rows, m.cols
    data = dict(m.data)
    for (r, c), x in m.data.items():
        if left and r == a:
            turn = turn_factor(cols[c], rows[a], rows[b], sigma)
            _add_product(data, (b, c), lam, x, turn)
        elif not left and c == b:
            turn = turn_factor(cols[a], cols[b], rows[r], sigma)
            _add_product(data, (r, a), x, lam, turn)
    return EndMatrix._raw(rows, cols, data)


def _split_matrix_factorization(dZ: EndMatrix, sigma: Autoequivalence):
    """Conjugate d into paired (one entry per row/column) form.

    Returns (d', B, Binv) with d' = B d Binv.  Strategy: repeatedly take
    the entry of globally minimal value (weight plus u-power) among the
    still-active ends as a pivot and clear its entire row and column.
    Minimality guarantees every required division succeeds, and d^2 = t
    then forces the pivot pair to decouple completely.  Each clearing
    step conjugates by U = I + E with E from :func:`_elementary`, applied
    as one row and one column update of d, one row update of B and one
    column update of Binv.  Among the entries a pivot still has to
    clear, the one of smallest index goes first, so the result does not
    depend on the order in which d's entries are stored.
    """
    points = dZ.rows
    # coordinates over one common denominator, to order entries by value
    den = math.lcm(*(p.den for p in points))
    scaled = [p.num * (den // p.den) for p in points]
    B = EndMatrix.identity(points)
    Binv = EndMatrix.identity(points)
    d = dZ
    active = set(range(len(points)))

    def conjugate(E):
        nonlocal d, B, Binv
        negE = -E
        d = _apply_elementary(d, E, sigma, left=True)
        d = _apply_elementary(d, negE, sigma, left=False)
        B = _apply_elementary(B, E, sigma, left=True)
        Binv = _apply_elementary(Binv, negE, sigma, left=False)

    def clear_column(r0, c0):
        for _ in range(4 * len(points)):
            others = [r for (r, c) in d.data if c == c0 and r != r0]
            if not others:
                return
            r = min(others)
            # lam runs points[r0] -> points[r], after the pivot
            turn = turn_factor(points[c0], points[r0], points[r], sigma)
            lam = _divide_terms(d.entry(r, c0), d.entry(r0, c0), turn)
            if lam is None:
                raise AssertionError("column clearing division failed")
            conjugate(_elementary(points, r, r0, -lam))
        raise AssertionError("column clearing did not terminate")

    def clear_row(r0, c0):
        for _ in range(4 * len(points)):
            others = [c for (r, c) in d.data if r == r0 and c != c0]
            if not others:
                return
            c = min(others)
            # lam runs points[c] -> points[c0], before the pivot
            turn = turn_factor(points[c], points[c0], points[r0], sigma)
            lam = _divide_terms(d.entry(r0, c), d.entry(r0, c0), turn)
            if lam is None:
                raise AssertionError("row clearing division failed")
            conjugate(_elementary(points, c0, c, lam))
        raise AssertionError("row clearing did not terminate")

    while active:
        # value of an entry: arc weight plus its u-power, times den
        candidates = [
            ((scaled[r] - scaled[c]) % (2 * den) + a.upower * den, r, c)
            for (r, c), a in d.data.items()
            if r in active and c in active
        ]
        if not candidates:
            raise AssertionError("active ends carry no differential")
        _, r0, c0 = min(candidates)
        clear_column(r0, c0)
        clear_row(r0, c0)
        # d^2 = t makes the complementary entry the only one left in
        # its row and column; enforce that exactly
        clear_column(c0, r0)
        clear_row(c0, r0)
        for (r, c) in d.data:
            if (r in (r0, c0)) != (c in (r0, c0)):
                raise AssertionError("pivot pair did not decouple")
        active -= {r0, c0}
    return d, B, Binv


def _recognize_component(
    d: EndMatrix, a: int, b: int, sigma: Autoequivalence
) -> tuple:
    """Read the end pair (a, b) of a paired d as a standard M(x, y, i).

    ``a`` is taken as the negative end [x - 1] and ``b`` as the positive
    end [y]: either end of an object can be its negative one, since
    M(x, y, i) = M(y - 1, x - 1, sigma(i)).  x is the coordinate of ``a``
    plus 1, unless that leaves the window |y - x| <= 1 or the arc
    a -> b carries t; then it is that coordinate minus 1.  A
    projective-injective fits both, and the entry that carries t picks
    one.  The negative end is
    allowed to sit on the wrong sheet (all sheets are isomorphic) and is
    replaced by the standard point.  The standard M is stored
    canonically, so its ends may come in either order.  Returns
    ``(M, slots)`` with ``slots`` giving, for each stored end of M in
    turn, its index in d, its point and the scale of the change of basis
    onto it and back; raises ``AssertionError`` if the pair is no
    standard component.
    """
    pneg, ppos = d.rows[a], d.rows[b]
    dm_e = d.arc(b, a, d.entry(b, a))
    dp_e = d.arc(a, b, d.entry(a, b))
    yn, yd, xd = ppos.num, ppos.den, pneg.den
    xn = pneg.num + xd
    if abs(yn * xd - xn * yd) > xd * yd or dm_e.coeff.upower >= 2:
        xn = pneg.num - xd
    if abs(yn * xd - xn * yd) > xd * yd:
        raise AssertionError("the ends of a component of Z are too far apart")
    M, flipped = MFObject._oriented(xn, xd, yn, yd, ppos.sheet, sigma)
    np_, pp = M.ends()[::-1] if flipped else M.ends()
    if (np_.num, np_.den) != (pneg.num, pneg.den) or pp != ppos:
        raise AssertionError("a component of Z is not on its object's ends")
    # move the negative end onto the sheet of the standard form
    dm_eff = cover_compose(dm_e, CoverMorphism(np_, pneg, UNIT), sigma)
    dp_eff = cover_compose(CoverMorphism(pneg, np_, UNIT), dp_e, sigma)
    dm_std, dp_std = M.d_minus(), M.d_plus()
    if flipped:
        dm_std, dp_std = dp_std, dm_std
    if (
        dm_eff.coeff.upower != dm_std.coeff.upower
        or dp_eff.coeff.upower != dp_std.coeff.upower
    ):
        raise AssertionError("a component of Z has nonstandard u-powers")
    alpha = dm_eff.coeff.scalar * dm_std.coeff.scalar.inverse()
    beta = dp_eff.coeff.scalar * dp_std.coeff.scalar.inverse()
    if not (alpha * beta == CYC_ONE):
        raise AssertionError("a component of Z has nonstandard scalars")
    slots = (
        (a, np_, UNIT, UNIT),
        (b, ppos, MonomialCoefficient(alpha.inverse()),
         MonomialCoefficient(alpha)),
    )
    return M, slots[::-1] if flipped else slots


def triangle_from(f: MFMorphism, triple) -> Triangle:
    """The distinguished triangle on f, via the universal-sequence pushout.

    ``triple`` is the validated ``TriangulationTriple`` of f's class."""
    Y = f.target
    sigma = f.holonomy()
    seq = universal_sequence(f.source, triple)
    IX, TX = seq.middle, seq.target
    ix_ends, tx_ends = seq.j.matrix.rows, seq.p.matrix.rows
    y_ends = f.matrix.rows
    n_ix = len(ix_ends)
    E = ix_ends + y_ends

    # columns of the admissible mono (j, -f), and unit pivots
    v_data: dict = dict(seq.j.matrix.data)
    for (r, c), a in f.matrix.data.items():
        v_data[(n_ix + r, c)] = -a
    # the retraction's identity entries sit in the rows of the unit
    # entries of j, one for each end of the source
    pivot_of_col = dict(seq.retraction.matrix.data.keys())
    pivot_rows = set(pivot_of_col.values())
    z_rows = [r for r in range(len(E)) if r not in pivot_rows]
    z_points = tuple(E[r] for r in z_rows)
    z_index = {r: k for k, r in enumerate(z_rows)}

    # the pivot row of a column carries the identity of the column's end,
    # so the column's other entries move to that row's column unchanged
    proj_data: dict = {(k, r): UNIT for k, r in enumerate(z_rows)}
    for col, prow in pivot_of_col.items():
        for (r, c), a in v_data.items():
            if c != col or r == prow:
                continue
            proj_data[(z_index[r], prow)] = -a
    proj = EndMatrix._raw(z_points, E, proj_data)
    incl = EndMatrix._raw(
        E, z_points, {(r, k): UNIT for k, r in enumerate(z_rows)}
    )

    dE = d_matrix(IX + Y, sigma)
    dZ = proj.compose(dE, sigma).compose(incl, sigma)
    t_id = MonomialCoefficient.t()
    if dZ.compose(dZ, sigma).data != {
        (k, k): t_id for k in range(len(z_points))
    }:
        raise AssertionError("induced differential does not square to t")

    d_split, B, Binv = _split_matrix_factorization(dZ, sigma)

    # read off the components and normalize their differentials
    used = set()
    pairs = []
    for (r, c) in sorted(d_split.data):
        if r in used or c in used:
            continue
        if (c, r) not in d_split.data:
            raise AssertionError("paired differential is not symmetric")
        used.update((r, c))
        pairs.append(_recognize_component(d_split, r, c, sigma))
    if len(used) != len(z_points):
        raise AssertionError("unpaired ends remain in Z")

    # order the components deterministically
    key = _order_key([rec[0] for rec in pairs])
    pairs.sort(key=lambda rec: key(rec[0]))
    Zobjs = [rec[0] for rec in pairs]
    # one change of basis S from z_points to the ends of Zobjs: it moves
    # each negative end onto its standard sheet (along the basic arc
    # between two points of one coordinate) and rescales each positive
    # end so the differential is standard
    z_ordered = []
    s_data: dict = {}
    sinv_data: dict = {}
    for _, slots in pairs:
        for idx, point, scale, unscale in slots:
            s_data[(len(z_ordered), idx)] = scale
            sinv_data[(idx, len(z_ordered))] = unscale
            z_ordered.append(point)
    z_ordered = tuple(z_ordered)
    S = EndMatrix._raw(z_ordered, z_points, s_data)
    Sinv = EndMatrix._raw(z_points, z_ordered, sinv_data)
    B = S.compose(B, sigma)
    Binv = Binv.compose(Sinv, sigma)

    if _object_ends(Zobjs) != z_ordered:
        raise AssertionError("component ends disagree with the basis")
    if B.compose(dZ, sigma).compose(Binv, sigma) != d_matrix(Zobjs, sigma):
        raise AssertionError("differential of Z is not in standard form")

    # structure maps
    full_proj = B.compose(proj, sigma)
    g_mat = EndMatrix._raw(
        z_ordered,
        y_ends,
        {
            (r, c - n_ix): a
            for (r, c), a in full_proj.data.items()
            if c >= n_ix
        },
    )
    g0 = MFMorphism(Y, Zobjs, g_mat)
    P_ext = EndMatrix._raw(tx_ends, E, seq.p.matrix.data)
    # Z is a retract of IX (+) Y: full_proj after lift is the identity
    lift = incl.compose(Binv, sigma)
    h_mat = P_ext.compose(lift, sigma)
    h0 = MFMorphism(Zobjs, TX, h_mat)

    ix_to_z = MFMorphism(
        IX,
        Zobjs,
        EndMatrix._raw(
            z_ordered,
            ix_ends,
            {
                (r, c): a
                for (r, c), a in full_proj.data.items()
                if c < n_ix
            },
        ),
    )
    gf = g0.compose(f)
    if ix_to_z.compose(seq.j) != gf:
        raise AssertionError("pushout square does not commute")
    if not h0.compose(g0).is_zero():
        raise AssertionError("h after g must vanish before reduction")
    if h0.compose(ix_to_z) != seq.p:
        raise AssertionError("h does not extend the universal projection")
    if not g0.commutes_with_d() or not h0.commutes_with_d():
        raise AssertionError("structure maps must commute with d")

    if not stable_reduce(gf).is_zero():
        raise AssertionError("g after f must be stably zero")
    return Triangle(
        stable_reduce(f),
        stable_reduce(g0),
        stable_reduce(h0),
        triple,
        unstable=Triangle(
            f, g0, h0, triple, proj=full_proj, lift=lift,
            section=EndMatrix._raw(E, tx_ends, seq.section.matrix.data),
        ),
    )


def rotate_triangle(T: Triangle) -> Triangle:
    """(X,Y,Z,f,g,h) -> (Y, Z, F_tau X, g, h, -F_tau f)."""
    u = T.unstable
    rot_f = -mf_functor_morphism(T.triple.tau, u.f)
    return Triangle(
        T.g,
        T.h,
        stable_reduce(rot_f),
        T.triple,
        unstable=Triangle(u.g, u.h, rot_f, T.triple),
    )


def universal_virtual_triangle(
    source: tuple,
    eps1: Fraction,
    eps2: Fraction,
    triple,
) -> Triangle:
    """X -> I1 X (+) I2 X -> Y -> F_tau X with scalars ((1,1),(-1,1),-c_i).

    ``source`` is ``(x, y, i)``: X = M(x, y, i) on the holonomy of
    ``triple``, in the representative the shrink parameters are read
    against, I1 X = M(y+1-eps1, y, i) and I2 X = M(x, x+1-eps2, i).
    """
    sigma, tau = triple.sigma, triple.tau
    x, y, i = exact(source[0]), exact(source[1]), source[2]
    eps1, eps2 = exact(eps1), exact(eps2)
    if abs(y - x) >= 1:
        raise ValueError("the source must not be projective-injective")
    if not 0 < eps1 < y + 1 - x:
        raise ValueError("eps1 out of the admissible range")
    if not 0 < eps2 < x + 1 - y:
        raise ValueError("eps2 out of the admissible range")
    M = make_mf(x, y, i, sigma)
    mid = [
        make_mf(y + 1 - eps1, y, i, sigma),
        make_mf(x, x + 1 - eps2, i, sigma),
    ]
    # the arcs run between the ends [x-1] and [y] of the construction;
    # every object is stored canonically, so each arc is placed by its
    # end points, which are distinct
    down = cover_morphism(
        sigma, _pair(x - 1), sigma(i), _pair(y - eps1), sigma(i)
    )
    up = cover_morphism(sigma, _pair(y), i, _pair(x + 1 - eps2), i)
    arcs = (down, cover_identity(up.source), cover_identity(down.source), up)
    rows, cols = _object_ends(mid), M.ends()
    f_data = {(rows.index(a.target), cols.index(a.source)): a for a in arcs}
    fm = MFMorphism([M], mid, EndMatrix(rows, cols, f_data))
    if not fm.commutes_with_d():
        raise AssertionError("the universal mono must commute with d")
    T = triangle_from(fm, triple)
    expected_Z = MFObject(y + 1 - eps1, x + 1 - eps2, i, sigma)
    if list(T.Z) != [expected_Z]:
        raise AssertionError("unexpected cone of the universal mono")
    # the identity components end on [y] in I1 X and on [x-1] in I2 X
    for k, end in enumerate((up.source, down.source)):
        if _block_scalar_at(fm, k, 0, end) != CYC_ONE:
            raise AssertionError("the first map must have scalars (1, 1)")
    # scalars are read against the positive ends of the construction
    # representatives, which pins their signs
    h = _block_scalar_at(T.h, 0, 0, _point(*_pair(y), tau(i), sigma))
    z_pos = _point(*_pair(x + 1 - eps2), i, sigma)
    g1 = _block_scalar_at(T.g, 0, 0, z_pos)
    g2 = _block_scalar_at(T.g, 0, 1, z_pos)
    # Z's basis is fixed only up to a scalar, which multiplies g and
    # divides h: the products g_k h do not depend on it, and they are
    # c_i and -c_i exactly when, in some basis, g = (1, -1) up to order
    # and h = -c_i
    ci = Cyclotomic.from_root(triple.phi.c[i - 1])
    if None in (h, g1, g2) or {g1 * h, g2 * h} != {ci, -ci}:
        raise AssertionError(
            "the middle and connecting scalars must multiply to c_i and -c_i"
        )
    return T


def _block_scalar_at(
    m: MFMorphism, ti: int, si: int, point: CoverPoint
):
    """The scalar of the u-power-0 block term landing on the given end.

    End points of an object do not depend on the chosen representative,
    so anchoring the scalar at a point fixes the sign unambiguously.
    """
    for arc in m.block(ti, si).values():
        if arc.coeff.upower == 0 and arc.target == point:
            return arc.coeff.scalar
    return None


# ---------------------------------------------------------------------------
# axiom sampling


def _random_coord(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(0, 48), 48)


def _random_coords(rng: random.Random, n: int) -> tuple:
    """``(x, y, sheet)`` of an object that is not projective-injective."""
    while True:
        x = _random_coord(rng)
        y = x + Fraction(rng.randrange(-47, 48), 48)
        if abs(y - x) < 1:
            return x, y, rng.randrange(1, n + 1)


def _generic_partner(rng: random.Random, src: tuple, n: int):
    """Coordinates of a target strictly inside the support window of
    M(*src), sharing no end coordinate with it, or None."""
    x, y = src[0], src[1]
    ends = {(x - 1) % 2, y % 2}
    for _ in range(50):
        dx = Fraction(rng.randrange(1, 48), 48)
        dy = Fraction(rng.randrange(1, 48), 48)
        x2, y2 = x + dx, y + dy
        if not (x < x2 < y + 1 and y < y2 < x + 1):
            continue
        if abs(y2 - x2) >= 1:
            continue
        sheet = rng.randrange(1, n + 1)
        if ends & {(x2 - 1) % 2, y2 % 2}:
            continue
        return x2, y2, sheet
    return None


def _even_generator(src: tuple, tgt: tuple, sigma) -> MFMorphism:
    """The generator of Hom(M(*src), M(*tgt)) that is even in these
    coordinates: it takes the end [x - 1] of one to that of the other."""
    (X, x_flip), (Y, y_flip) = oriented(*src, sigma), oriented(*tgt, sigma)
    return hom_mf(X, Y, x_flip ^ y_flip)


def _end_coordinates(objs: Sequence[MFObject]) -> list[tuple[int, int]]:
    """The end coordinates of ``objs`` as pairs, in a fixed order."""
    return sorted((p.num, p.den) for o in objs for p in o.ends())


def verify_axiom_samples(
    triple, sample_size: int = 50, seed: int = 0
) -> dict:
    """Sampled checks of the triangulated structure.

    Verifies component counting for generic cones, component drop at
    shared ends, rotation (TR2) by an explicit comparison map from the
    cone of g onto F_tau X (:func:`_rotation_comparison`), and
    completion of commuting squares to morphisms of triangles.  The
    rotation check requires w after g' to be h and w after its inverse
    v to be the identity exactly, and -F_tau f after w to be h' and v
    after w to be the identity stably.
    """
    sigma = triple.sigma
    rng = random.Random(seed)
    report = {
        "generic_cones": 0,
        "shared_end_cones": 0,
        "rotations": 0,
        "square_completions": 0,
        "failures": [],
    }

    def run(label, fn):
        try:
            fn()
            report[label] += 1
        except AssertionError as exc:  # pragma: no cover
            report["failures"].append(f"{label}: {exc}")

    squares_done = 0
    attempts = 0
    while (
        report["generic_cones"] < sample_size or squares_done < sample_size
    ) and attempts < 40 * sample_size:
        attempts += 1
        src = _random_coords(rng, sigma.n)
        tgt = _generic_partner(rng, src, sigma.n)
        if tgt is None:
            continue
        gen = _even_generator(src, tgt, sigma)
        if gen.grade != 0:
            continue

        T = triangle_from(gen, triple)

        def check_generic():
            if len(T.Z) != 2:
                raise AssertionError("generic cone must keep all components")
            if _end_coordinates(T.Z) != _end_coordinates(
                list(T.X) + list(T.Y)
            ):
                raise AssertionError("triangles must be exact on ends")

        run("generic_cones", check_generic)

        def check_shared():
            # shares the negative end with X
            gen_s = _even_generator(src, (src[0], *tgt[1:]), sigma)
            Ts = triangle_from(gen_s, triple)
            if len(Ts.Z) != 1:
                raise AssertionError(
                    "a shared end must drop one stable component"
                )

        run("shared_end_cones", check_shared)

        def check_rotation():
            # the oracle is the cone of g; w carries it onto F_tau X
            R = rotate_triangle(T)
            T2 = triangle_from(R.unstable.f, triple)
            w, v = _rotation_comparison(T, T2)
            u2 = T2.unstable
            if w.compose(u2.g) != T.unstable.h:
                raise AssertionError("w after g' is not h")
            if stable_reduce(u2.h) != stable_reduce(R.unstable.h.compose(w)):
                raise AssertionError("-F_tau f after w is not stably h'")
            if w.compose(v) != MFMorphism.identity(w.target):
                raise AssertionError("w after v is not the identity")
            if stable_reduce(v.compose(w)) != stable_reduce(
                MFMorphism.identity(w.source)
            ):
                raise AssertionError("v after w is not stably the identity")

        run("rotations", check_rotation)

        if squares_done < sample_size:
            tgt2 = _generic_partner(rng, tgt, sigma.n)
            if tgt2 is not None:
                v = _even_generator(tgt, tgt2, sigma)
                f2 = v.compose(gen)
                T2 = triangle_from(f2, triple)

                def check_square():
                    w = _complete_square(T, T2, v)
                    u, u2 = T.unstable, T2.unstable
                    if w.compose(u.g) != u2.g.compose(v):
                        raise AssertionError(
                            "completed square g-side mismatch"
                        )
                    if u2.h.compose(w) != u.h:
                        raise AssertionError(
                            "completed square h-side mismatch"
                        )

                run("square_completions", check_square)
                squares_done += 1

    report["all_passed"] = not report["failures"] and (
        report["generic_cones"] >= sample_size
        and report["square_completions"] >= sample_size
    )
    return report


def _complete_square(
    T: Triangle, T2: Triangle, v: MFMorphism
) -> MFMorphism:
    """The induced map of cones for a square with identity on the source.

    It is ``T2``'s projection after (id of IX (+) v) after ``T``'s lift
    of its cone into IX (+) Y.
    """
    sigma = v.holonomy()
    u, u2 = T.unstable, T2.unstable
    if u.lift is None or u2.proj is None:
        raise ValueError(
            "square completion needs the retraction (lift/proj) that "
            "only triangle_from builds"
        )
    n_ix = len(u.lift.rows) - len(v.matrix.cols)
    block_data: dict = {(k, k): UNIT for k in range(n_ix)}
    for (r, c), a in v.matrix.data.items():
        block_data[(n_ix + r, n_ix + c)] = a
    ix_ends = u.lift.rows[:n_ix]
    blk = EndMatrix._raw(ix_ends + v.matrix.rows, u.lift.rows, block_data)
    w_mat = u2.proj.compose(blk, sigma).compose(u.lift, sigma)
    return MFMorphism(u.Z, u2.Z, w_mat)


def _rotation_comparison(
    T: Triangle, T2: Triangle
) -> tuple[MFMorphism, MFMorphism]:
    """TR2's comparison map w from the cone of g to F_tau X, and its inverse.

    ``T2`` is the cone of ``T``'s unstable g.  w is ``T``'s h on the Z
    part of IY (+) Z after ``T2``'s lift; v is ``T2``'s g after ``T``'s
    projection after the section of X's universal sequence.
    """
    sigma = T.triple.sigma
    u, u2 = T.unstable, T2.unstable
    h = u.h.matrix
    n_iy = len(u2.lift.rows) - len(h.cols)
    blk = EndMatrix._raw(
        h.rows,
        u2.lift.rows,
        {(r, n_iy + c): a for (r, c), a in h.data.items()},
    )
    w = MFMorphism(u2.Z, u.h.target, blk.compose(u2.lift, sigma))
    v_mat = u2.g.matrix.compose(u.proj.compose(u.section, sigma), sigma)
    return w, MFMorphism(u.h.target, u2.Z, v_mat)
