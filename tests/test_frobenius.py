import json
import random
from fractions import Fraction
from functools import cache, partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercat import frobenius
from covercat.classify import TriangulationTriple, classify
from covercat.cli import _parse_object
from covercat.cn import Autoequivalence
from covercat.frobenius import (
    UNIT,
    CoverMorphism,
    CoverPoint,
    EndMatrix,
    MFMorphism,
    MFObject,
    cover_compose,
    cover_identity,
    cover_morphism,
    d_matrix,
    hom_mf,
    make_mf,
    mf_functor_morphism,
    oriented,
    rotate_triangle,
    stable_reduce,
    triangle_from,
    universal_sequence,
    universal_virtual_triangle,
    turn_factor,
    verify_axiom_samples,
    _complete_square,
    _d2,
    _d2_turns,
    _end_coordinates,
    _even_generator,
    _generic_partner,
    _perm_power,
    _point,
    _random_coords,
    _recognize_component,
    _shift_arc,
    weight,
)
from covercat.scalars import (
    MINUS_ONE,
    ONE,
    Cyclotomic,
    MonomialCoefficient,
    RootOfUnity,
)
from test_cn import compose

F = Fraction

SWAP = Autoequivalence(2, (2, 1), (ONE, MINUS_ONE))


def point(x, sheet, sigma):
    """The canonical point equal to [x, sheet, +]."""
    x = F(x)
    return _point(x.numerator, x.denominator, sheet, sigma)


def raw_point(x, sheet):
    """The point [x, sheet, +] as given, for a rational x in [0, 2)."""
    x = F(x)
    return CoverPoint._make(x.numerator, x.denominator, sheet)


def coord(p):
    """The coordinate of a point, as a ``Fraction``."""
    return F(p.num, p.den)


def xy(o):
    """The coordinates of an object's stored representative."""
    return F(o.xn, o.xd), F(o.yn, o.yd)


def scalar_at(m, ti, si, x, sheet, sigma):
    """Scalar of a block read against the end point over (x, sheet)."""
    from covercat.frobenius import _block_scalar_at

    return _block_scalar_at(m, ti, si, point(x, sheet, sigma))


def raw_arc(sigma, sx, si, tx, ti, coeff=None):
    """``cover_morphism`` on rational coordinates."""
    sx, tx = F(sx), F(tx)
    return cover_morphism(
        sigma, (sx.numerator, sx.denominator), si,
        (tx.numerator, tx.denominator), ti, coeff,
    )


def random_sigma(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    diag = [RootOfUnity(F(rng.randrange(12), 12)) for _ in range(n)]
    diag[0] = ONE
    return Autoequivalence(n, perm, diag)


# ---------------------------------------------------------------------------
# cover points and morphisms


def test_point_canonicalization():
    # the negative end [9/4,1,-] of M(9/4, 5/2, 1) is [5/4,2,+] after the
    # sign and period reductions
    p = MFObject(F(9, 4), F(5, 2), 1, SWAP).ends()[0]
    assert p == raw_point(F(5, 4), 2)
    assert point(coord(p), p.sheet, SWAP) == p


coords = st.fractions(
    min_value=-4, max_value=4, max_denominator=24
)


@given(coords, st.integers(1, 2))
def test_canonical_point_range(x, sheet):
    assert 0 <= coord(point(x, sheet, SWAP)) < 2


def test_full_turn_picks_up_scalar_and_t():
    """One full turn contributes d_j * t with d_j = c_{s(j)} c_j."""
    a = raw_arc(SWAP, F(1, 4), 1, F(5, 4), 2)
    b = raw_arc(SWAP, F(5, 4), 2, F(9, 4), 1)
    comp = cover_compose(b, a, SWAP)
    assert comp.source == comp.target == raw_point(F(1, 4), 1)
    assert comp.coeff == MonomialCoefficient(
        Cyclotomic.from_root(MINUS_ONE), 2
    )


def test_backwards_morphism_rejected():
    with pytest.raises(ValueError):
        raw_arc(SWAP, F(1, 2), 1, F(1, 4), 1)


def test_compose_requires_matching_endpoints():
    a = raw_arc(SWAP, F(0), 1, F(1, 4), 1)
    b = raw_arc(SWAP, F(1, 2), 1, F(3, 4), 1)
    with pytest.raises(ValueError):
        cover_compose(b, a, SWAP)


@given(coords, coords, coords, st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=60)
def test_composition_associative(x, d1, d2, i, j, k):
    p = point(x, i, SWAP)
    q = point(x + abs(d1), j, SWAP)
    r = point(x + abs(d1) + abs(d2), k, SWAP)
    a = CoverMorphism(p, q, UNIT)
    b = CoverMorphism(q, r, UNIT)
    c = CoverMorphism(r, p, UNIT)
    left = cover_compose(c, cover_compose(b, a, SWAP), SWAP)
    right = cover_compose(cover_compose(c, b, SWAP), a, SWAP)
    assert left == right
    wn, wd = weight(a)
    assert 0 <= wn < 2 * wd


@st.composite
def holonomies(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    coeff = [RootOfUnity(F(draw(st.integers(0, 11)), 12)) for _ in range(n)]
    return Autoequivalence(n, perm, coeff)


def cover_morphism_by_turns(sigma, sx, si, tx, ti):
    """Reference for ``cover_morphism``: one full turn per loop pass."""

    def d2(j):
        return sigma.coeff[sigma(j) - 1] * sigma.coeff[j - 1]

    def forward(i):
        return sigma(sigma(i))

    def back(i):
        for _ in range(2):
            i = sigma.object_map.index(i) + 1
        return i

    coeff = MonomialCoefficient.one()
    while sx >= 2:
        coeff = coeff.scale(d2(ti) / d2(si))
        si, ti, sx, tx = forward(si), forward(ti), sx - 2, tx - 2
    while sx < 0:
        si, ti, sx, tx = back(si), back(ti), sx + 2, tx + 2
        coeff = coeff.scale(d2(si) / d2(ti))
    while tx >= sx + 2:
        coeff = coeff * MonomialCoefficient(Cyclotomic.from_root(d2(ti)), 2)
        ti, tx = forward(ti), tx - 2
    if tx >= 2:
        ti, tx = forward(ti), tx - 2
    return CoverMorphism(raw_point(sx, si), raw_point(tx, ti), coeff)


far_coords = st.fractions(min_value=-12, max_value=12, max_denominator=12)


@given(holonomies(), far_coords, far_coords, st.data())
@settings(max_examples=150, deadline=None)
def test_cover_morphism_matches_turn_by_turn(sigma, sx, length, data):
    si = data.draw(st.integers(1, sigma.n))
    ti = data.draw(st.integers(1, sigma.n))
    tx = sx + abs(length)
    expected = cover_morphism_by_turns(sigma, sx, si, tx, ti)
    assert raw_arc(sigma, sx, si, tx, ti) == expected


@given(holonomies(), st.integers(-20, 20), st.data())
@settings(deadline=None)
def test_shift_arc_is_repeated_single_turns(sigma, k, data):
    si = data.draw(st.integers(1, sigma.n))
    ti = data.draw(st.integers(1, sigma.n))
    step = 1 if k >= 0 else -1
    s, t, factor = si, ti, ONE
    for _ in range(abs(k)):
        s, t, f = _shift_arc(sigma, step, s, t)
        factor = factor * f
    assert _shift_arc(sigma, k, si, ti) == (s, t, factor)


def raw_target(m, sigma):
    """The target representative lying in [source.x, source.x + 2)."""
    k = 0 if coord(m.target) >= coord(m.source) else 1
    return coord(m.target) + 2 * k, _perm_power(sigma, -2 * k, m.target.sheet)


def cover_compose_by_lifts(g, f, sigma):
    """Reference for ``cover_compose``: lift both arcs, translate g by
    whole turns until its source lies on f's lifted target, and
    canonicalize the concatenated arc."""
    if g.source != f.target:
        raise ValueError("composition endpoints differ")
    fx, fj = raw_target(f, sigma)
    delta = fx - coord(g.source)
    if delta % 2 != 0 or delta < 0:
        raise AssertionError("endpoint lift mismatch")
    gsx, gsi = coord(g.source), g.source.sheet
    gtx, gtj = raw_target(g, sigma)
    gcoeff = g.coeff
    k = int(delta) // 2
    if k:
        gsi, gtj, factor = _shift_arc(sigma, -k, gsi, gtj)
        gcoeff = gcoeff.scale(factor)
        gsx, gtx = gsx + 2 * k, gtx + 2 * k
    if gsx != fx or gsi != fj:
        raise AssertionError("endpoint alignment failed")
    return raw_arc(
        sigma, coord(f.source), f.source.sheet, gtx, gtj, f.coeff * gcoeff
    )


def compose_all_pairs(left, right, sigma):
    """Reference for ``EndMatrix.compose``: every pair of nonzero entries
    composed as arcs by ``cover_compose_by_lifts`` and added, in turn, to
    its entry; an entry is dropped while its sum is zero."""
    acc = {}
    for (r, k), a in left.data.items():
        for (k2, c), b in right.data.items():
            if k2 != k:
                continue
            arc = cover_compose_by_lifts(
                left.arc(r, k, a), right.arc(k, c, b), sigma
            )
            if (r, c) in acc:
                total = acc.pop((r, c)).coeff + arc.coeff
                arc = CoverMorphism(arc.source, arc.target, total)
            if not arc.coeff.is_zero():
                acc[(r, c)] = arc
    return EndMatrix(left.rows, right.cols, acc)


def weak_order(a, b, c):
    """The order pattern of three values, ties included (13 patterns)."""
    return tuple(sorted({a, b, c}).index(v) for v in (a, b, c))


def test_turn_factor_matches_cover_compose():
    # coordinates on a coarse grid, so that ties occur; holonomies with
    # roots of order 12 on two to four sheets, so d2 is rarely trivial
    rng = random.Random(20)
    unit = MonomialCoefficient.one()
    seen = set()
    for _ in range(1500):
        n = rng.randint(2, 4)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        roots = [RootOfUnity(F(rng.randrange(12), 12)) for _ in range(n)]
        sigma = Autoequivalence(n, perm, roots)
        p, q, r = (
            raw_point(F(rng.randrange(4), 2), rng.randint(1, n))
            for _ in range(3)
        )
        seen.add(weak_order(coord(p), coord(q), coord(r)))
        want = cover_compose_by_lifts(
            CoverMorphism(q, r, unit), CoverMorphism(p, q, unit), sigma
        )
        got = turn_factor(p, q, r, sigma)
        assert (want.source, want.target) == (p, r)
        assert got == want.coeff, (sigma, p, q, r)
        # compose skips the product exactly when the factor is UNIT
        assert (got is UNIT) == (want.coeff == unit)
    assert len(seen) == 13


grid_coords = st.integers(0, 3).map(lambda k: F(k, 2))


@st.composite
def root_coefficients(draw):
    """A root of order 12 times 1 or t."""
    root = RootOfUnity(F(draw(st.integers(0, 11)), 12))
    return MonomialCoefficient.from_root(root, draw(st.sampled_from([0, 2])))


@given(holonomies(), st.data())
@settings(max_examples=300, deadline=None)
def test_cover_compose_matches_lifts(sigma, data):
    # grid coordinates, so that ties between the three points occur
    p, q, r = (
        raw_point(data.draw(grid_coords), data.draw(st.integers(1, sigma.n)))
        for _ in range(3)
    )
    f = CoverMorphism(p, q, data.draw(root_coefficients()))
    g = CoverMorphism(q, r, data.draw(root_coefficients()))
    assert cover_compose(g, f, sigma) == cover_compose_by_lifts(g, f, sigma)


def relabel_by_lifts(functor, m, sigma):
    """Reference for ``mf_functor_morphism`` on one arc: relabel the
    lifted arc and canonicalize it again."""
    rx, rj = raw_target(m, sigma)
    coeff = m.coeff.scale(functor.a(rj, m.source.sheet))
    return raw_arc(
        sigma, coord(m.source), functor(m.source.sheet), rx, functor(rj), coeff
    )


def relabel(functor, o):
    """The object ``o`` moved to sheet ``functor(o.sheet)``."""
    return MFObject(*xy(o), functor(o.sheet), o.sigma)


def grid_object(rng, sigma):
    """An object on a quarter grid, so that end coordinates often tie."""
    x = F(rng.randrange(8), 4)
    y = x + F(rng.randrange(-4, 5), 4)
    return make_mf(x, y, rng.randint(1, sigma.n), sigma)


def test_sheet_functor_on_arcs_matches_lifts():
    # powers of the holonomy commute with it, and so do the second functors
    # of the two-sheet classes; grid coordinates make arcs that stay above
    # their source, arcs that cross the seam and arcs of length zero
    rng = random.Random(21)
    classes = [(tr.sigma, tr.tau) for tr in triples()]
    for _ in range(300):
        sigma = random_sigma(rng, rng.randint(2, 4))
        functor = sigma
        for _ in range(rng.randrange(3)):
            functor = compose(sigma, functor)
        sigma, functor = rng.choice([(sigma, functor)] * 3 + classes)
        X, Y = grid_object(rng, sigma), grid_object(rng, sigma)
        m = rng.choice(
            [hom_mf(X, Y, rng.randrange(2)), MFMorphism.identity([X])]
        )
        got = mf_functor_morphism(functor, m)
        assert got.source == (relabel(functor, X),)
        assert list(got.matrix.data) == list(m.matrix.data)
        for (r, c), a in m.matrix.data.items():
            want = relabel_by_lifts(functor, m.matrix.arc(r, c, a), sigma)
            b = got.matrix.entry(r, c)
            assert got.matrix.arc(r, c, b) == want, (sigma, m)
        assert got.commutes_with_d()


@st.composite
def end_matrix_pairs(draw):
    sigma = draw(holonomies(max_n=3))

    def points():
        return [
            raw_point(
                F(draw(st.integers(0, 7)), 4),
                draw(st.integers(1, sigma.n)),
            )
            for _ in range(draw(st.integers(1, 4)))
        ]

    def matrix(rows, cols):
        cells = [(r, c) for r in range(len(rows)) for c in range(len(cols))]
        data = {}
        # entries in a drawn order, so the order of ``data`` is arbitrary
        for r, c in draw(st.permutations(cells)):
            if not draw(st.booleans()):
                continue
            root = RootOfUnity(F(draw(st.integers(0, 11)), 12))
            upower = draw(st.sampled_from([0, 2]))
            coeff = MonomialCoefficient.from_root(root, upower)
            data[(r, c)] = CoverMorphism(cols[c], rows[r], coeff)
        return EndMatrix(rows, cols, data)

    a, b, c = points(), points(), points()
    return sigma, matrix(a, b), matrix(b, c)


def test_end_matrix_checks_arc_endpoints():
    p, q = raw_point(F(1, 4), 1), raw_point(F(1, 2), 2)
    arc = CoverMorphism(p, q, UNIT)
    m = EndMatrix((q,), (p,), {(0, 0): arc})
    assert m.entry(0, 0) == arc.coeff
    assert m.arc(0, 0, arc.coeff) == arc
    # entries are read as arcs cols[c] -> rows[r]: a swapped row and
    # column must match too
    with pytest.raises(AssertionError):
        EndMatrix((p,), (q,), {(0, 0): arc})


@given(end_matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_indexed_compose_matches_all_pairs(case):
    sigma, left, right = case

    def entries(compose):
        # random roots can add to a true sum, which no scalar holds, and
        # an entry can gain products of two u-powers, which no entry holds
        try:
            return list(compose().data.items())
        except ArithmeticError as exc:
            assert str(exc).startswith("not a monomial: ")
            return ArithmeticError

    got = entries(lambda: left.compose(right, sigma))
    expected = entries(lambda: compose_all_pairs(left, right, sigma))
    # same keys, same values, same insertion order, or both refused
    assert got == expected


# ---------------------------------------------------------------------------
# matrix factorizations


def test_mf_canonical_forms():
    m = MFObject(F(1, 4), F(1, 2), 1, SWAP)
    assert (*xy(m), m.sheet) == (F(1, 4), F(1, 2), 1)
    # M(3/2, 3/4, 1) is canonical: its flip M(-1/4, 1/2, 2), a turn up
    # at M(7/4, 5/2, 2), starts later; both are stored as it
    a = MFObject(F(3, 2), F(3, 4), 1, SWAP)
    for coords in ((F(-1, 4), F(1, 2), 2), (F(7, 4), F(5, 2), 2)):
        b, flipped = oriented(*coords, SWAP)
        assert flipped and b == a
        assert (*xy(b), b.sheet) == (F(3, 2), F(3, 4), 1)
    # a translate by whole turns is stored in x in [0, 2), unflipped
    c, flipped = oriented(F(7, 2), F(11, 4), 1, SWAP)
    assert not flipped and (*xy(c), c.sheet) == (F(3, 2), F(3, 4), 1)
    assert m != a


def test_mf_differentials_are_computed_once():
    m = MFObject(F(1, 4), F(3, 4), 1, SWAP)
    dm, dp = m.d_minus(), m.d_plus()
    assert m.d_minus() is dm
    assert m.d_plus() is dp


def test_interval_identity_for_boundary_objects():
    # I_{s(i)}(x-1) and I_{s^{-1}(i)}(x+1) are the same object
    x = F(1, 3)
    a = MFObject(x - 1 + 1, x - 1, 2, SWAP)
    b = MFObject(x + 1 + 1, x + 1, 2, SWAP)
    assert a == b


def test_mf_rejects_wide_intervals():
    with pytest.raises(ValueError):
        MFObject(F(0), F(3, 2), 1, SWAP)


def test_mf_rejects_non_int_sheets():
    # every constructor stores its sheet through one check
    for sheet in (True, 1.0, 0, 3):
        with pytest.raises(ValueError, match="sheet"):
            MFObject(F(1, 4), F(1, 2), sheet, SWAP)
        with pytest.raises(ValueError, match="sheet"):
            oriented(F(1, 4), F(1, 2), sheet, SWAP)
        # the command line's reader refuses a non-int sheet itself
        data = {"x": "1/4", "y": "1/2", "sheet": sheet}
        with pytest.raises((TypeError, ValueError), match="sheet"):
            oriented(*_parse_object(data), SWAP)


# each door that reads a rational from outside refuses a float: 0.1
# would be its binary expansion 3602879701896397/36028797018963968


def test_mf_constructor_refuses_float_coordinates():
    for x, y in ((0.1, F(1, 2)), (F(1, 4), 0.5)):
        with pytest.raises(TypeError, match="float"):
            MFObject(x, y, 1, SWAP)
        with pytest.raises(TypeError, match="float"):
            make_mf(x, y, 1, SWAP)
    want = MFObject(F(1, 10), F(1, 2), 1, SWAP)
    assert MFObject("0.1", "1/2", 1, SWAP) == want


def test_mf_constructor_refuses_bool_coordinates():
    # True is an int by inheritance: it would be read as the coordinate 1
    for x, y in ((True, F(1, 2)), (F(1, 4), False)):
        with pytest.raises(TypeError, match="bool"):
            MFObject(x, y, 1, SWAP)
    assert xy(MFObject(1, F(1, 2), 1, SWAP)) == (1, F(1, 2))


def test_oriented_refuses_float_coordinates():
    for x, y in ((0.1, F(1, 2)), (F(1, 4), 0.5)):
        with pytest.raises(TypeError, match="float"):
            oriented(x, y, 1, SWAP)


def test_mf_from_json_refuses_float_coordinates():
    # a JSON number with a fraction part is refused before any rational
    # is made of it
    for x, y in ((0.1, "1/2"), ("1/4", 0.5)):
        with pytest.raises(TypeError, match="JSON integer or a string"):
            oriented(*_parse_object({"x": x, "y": y, "sheet": 1}), SWAP)


def test_universal_virtual_triangle_refuses_floats():
    tr = triples()[0]
    # one float at a time, each a short binary fraction: 1/4, 1/2, 1/8
    # and 3/8; with all four exact the triangle is built
    for source, eps1, eps2 in (
        ((0.25, F(1, 2), 1), F(1, 8), F(1, 3)),
        ((F(1, 4), 0.5, 1), F(1, 8), F(1, 3)),
        ((F(1, 4), F(1, 2), 1), 0.125, F(1, 3)),
        ((F(1, 4), F(1, 2), 1), F(1, 8), 0.375),
    ):
        with pytest.raises(TypeError, match="float"):
            universal_virtual_triangle(source, eps1, eps2, tr)
    assert universal_virtual_triangle(
        (F(1, 4), F(1, 2), 1), F(1, 8), F(1, 3), tr
    ).Z


def test_mf_rejects_non_permutation_holonomy():
    with pytest.raises(ValueError):
        MFObject(F(0), F(1, 2), 1, Autoequivalence(2, (1, 1)))


def test_squares_to_t_on_random_objects():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for _ in range(30):
            sigma = random_sigma(rng, n)
            x = F(rng.randrange(0, 48), 48)
            y = x + F(rng.randrange(-48, 49), 48)
            m = make_mf(x, y, rng.randrange(1, n + 1), sigma)
            assert m.is_projective_injective() == (abs(y - x) == 1)


@given(holonomies(), far_coords, far_coords, st.data())
@settings(max_examples=60, deadline=None)
def test_mf_ends_are_canonical_points(sigma, x, d, data):
    sheet = data.draw(st.integers(1, sigma.n))
    y = x + min(abs(d), 1)
    m, flipped = oriented(x, y, sheet, sigma)
    ends = m.ends()
    given = (
        raw_point(*canonical_point_ref(x, sheet, -1, sigma)),
        raw_point(*canonical_point_ref(y, sheet, 1, sigma)),
    )
    # the ends [x - 1] and [y] are stored in this order unless flipped
    assert ends == (given[::-1] if flipped else given)
    assert all(0 <= coord(p) < 2 for p in ends)
    assert m.ends() is ends


def test_mf_json_round_trip():
    # read back by the command line's one reader of object JSON, also
    # with a 499-digit denominator, as in the golden long-denominator case
    long = 10**498 + 7
    for m in (
        MFObject(F(3, 2), F(3, 4), 1, SWAP),
        MFObject(F(long // 4, long), F(1, 2), 1, SWAP),
    ):
        data = m.to_json()
        assert json.loads(json.dumps(data)) == data
        back, flipped = oriented(*_parse_object(data), SWAP)
        assert back == m and not flipped


def test_sheet_functor_well_defined():
    tau = Autoequivalence(2, (2, 1), (ONE, MINUS_ONE))
    # one object in two representatives: its identity has one image
    for m in (
        MFObject(F(1, 4), F(1, 2), 1, SWAP),
        MFObject(F(-1, 2), F(-3, 4), 2, SWAP),
    ):
        image = mf_functor_morphism(tau, MFMorphism.identity([m]))
        moved = MFObject(F(1, 4), F(1, 2), 2, SWAP)
        assert image == MFMorphism.identity([moved])
    # F(g f) == F(g) F(f) on composites of hom generators
    rng = random.Random(22)
    for tr in triples():
        sigma = tr.sigma
        for functor in (sigma, tr.tau, compose(sigma, tr.tau)):
            for _ in range(12):
                X, Y, Z = (grid_object(rng, sigma) for _ in range(3))
                f = hom_mf(X, Y, rng.randrange(2))
                g = hom_mf(Y, Z, rng.randrange(2))
                assert mf_functor_morphism(functor, g.compose(f)) == (
                    mf_functor_morphism(functor, g).compose(
                        mf_functor_morphism(functor, f)
                    )
                )
    # functors that fail to commute with the holonomy are refused, on
    # the object map or on the coefficients alone
    sigma3 = Autoequivalence(3, (2, 3, 1), (ONE, ONE, ONE))
    ident = MFMorphism.identity([MFObject(F(0), F(1, 2), 1, sigma3)])
    with pytest.raises(ValueError, match="commute"):
        mf_functor_morphism(Autoequivalence(3, (2, 1, 3)), ident)
    twisted = Autoequivalence(2, (2, 1), (ONE, RootOfUnity(F(1, 4))))
    ident = MFMorphism.identity([MFObject(F(1, 4), F(1, 2), 1, SWAP)])
    with pytest.raises(ValueError, match="commute"):
        mf_functor_morphism(twisted, ident)


def test_sheet_functors_commute_on_morphisms():
    # sigma and tau commute on every hom generator, and relabelling by
    # one and then the other is relabelling by their composite
    rng = random.Random(23)
    for tr in triples():
        sigma, tau = tr.sigma, tr.tau
        for _ in range(20):
            X, Y = grid_object(rng, sigma), grid_object(rng, sigma)
            for parity in (0, 1):
                f = hom_mf(X, Y, parity)
                one_way = mf_functor_morphism(
                    sigma, mf_functor_morphism(tau, f)
                )
                other = mf_functor_morphism(
                    tau, mf_functor_morphism(sigma, f)
                )
                assert one_way == other
                assert one_way == mf_functor_morphism(compose(sigma, tau), f)


# ---------------------------------------------------------------------------
# integer coordinates against their Fraction references
#
# The library holds coordinates as reduced integer pairs.  The functions
# below are its earlier bodies on ``Fraction`` coordinates, kept as
# references.


def canonical_point_ref(x, sheet, sign, sigma):
    """(x, sheet) of the canonical point equal to [x, sheet, sign]."""
    if sign > 0 and 0 <= x < 2:
        return x, sheet
    if sign < 0:
        x, sheet = x - 1, sigma(sheet)
    k = x // 2
    if k:
        x -= 2 * k
        sheet = _perm_power(sigma, 2 * k, sheet)
    return x, sheet


def weight_ref(m):
    k = 0 if coord(m.target) >= coord(m.source) else 1
    return coord(m.target) + 2 * k - coord(m.source)


def turn_factor_ref(p, q, r, sigma):
    c1 = coord(q) < coord(p)
    c2 = coord(r) < coord(q)
    if not (c1 or c2):
        return UNIT
    c3 = coord(r) < coord(p)
    root = _d2(sigma, _perm_power(sigma, -2, q.sheet)) if c1 else ONE
    if c2 != c3:
        d = _d2(sigma, _perm_power(sigma, -2, r.sheet))
        root = root * d if c2 else root / d
    upower = 2 * (c1 + c2 - c3)
    if not upower and root.is_one():
        return UNIT
    return MonomialCoefficient.from_root(root, upower)


def cover_morphism_ref(sigma, sx, si, tx, ti, coeff=None):
    if coeff is None:
        coeff = MonomialCoefficient.one()
    if tx < sx:
        raise ValueError("morphisms only run forward along the cover")
    k = sx // 2
    if k:
        si, ti, factor = _shift_arc(sigma, k, si, ti)
        coeff = coeff.scale(factor)
        sx, tx = sx - 2 * k, tx - 2 * k
    k = (tx - sx) // 2
    if k:
        coeff = coeff * MonomialCoefficient.from_root(
            _d2_turns(sigma, ti, k), 2 * k
        )
        ti = _perm_power(sigma, 2 * k, ti)
        tx -= 2 * k
    target = raw_point(*canonical_point_ref(tx, ti, 1, sigma))
    return CoverMorphism(raw_point(sx, si), target, coeff)


def flipped_ref(x, y, sheet, sigma):
    return y - 1, x - 1, sigma(sheet)


def mf_canonical_ref(x, y, sheet, sigma):
    """(x, y, sheet) of the canonical representative, and whether it is
    the flipped one."""
    candidates = []
    for flipped, (rx, ry, ri) in enumerate(
        ((x, y, sheet), flipped_ref(x, y, sheet, sigma))
    ):
        k = rx // 2
        candidates.append(
            (rx - 2 * k, ry - 2 * k, _perm_power(sigma, 2 * k, ri), flipped)
        )
    cx, cy, ci, flipped = min(candidates, key=lambda c: (c[0], -c[1]))
    return (cx, cy, ci), bool(flipped)


def is_projective_injective_ref(x, y):
    return abs(y - x) == 1


def random_rational(rng, span):
    """A rational in [-span, span], its denominator small, prime to 48 or
    about 300 digits long."""
    den = rng.choice([rng.randrange(1, 60), rng.choice([5, 7, 11, 13, 97]),
                      rng.randrange(10**299, 10**300)])
    return F(rng.randrange(-span * den, span * den + 1), den)


@st.composite
def rationals(draw, span=6):
    den = draw(
        st.one_of(st.integers(1, 60), st.integers(10**299, 10**300))
    )
    return F(draw(st.integers(-span * den, span * den)), den)


def is_reduced_point(p):
    return p.den > 0 and gcd(p.num, p.den) == 1


def check_point_oracles(sigma, xs, sheets):
    """_point, weight and turn_factor on the points over xs."""
    points = []
    for x, i in zip(xs, sheets):
        p = point(x, i, sigma)
        assert (coord(p), p.sheet) == canonical_point_ref(x, i, 1, sigma)
        assert is_reduced_point(p)
        assert repr(p) == f"[{coord(p)},{p.sheet},+]"
        points.append(p)
    p, q, r = points
    assert turn_factor(p, q, r, sigma) == turn_factor_ref(p, q, r, sigma)
    assert (turn_factor(p, q, r, sigma) is UNIT) == (
        turn_factor_ref(p, q, r, sigma) is UNIT
    )
    m = CoverMorphism(p, q, UNIT)
    assert F(*weight(m)) == weight_ref(m)


def check_arc_oracle(sigma, sx, si, tx, ti):
    got = raw_arc(sigma, sx, si, tx, ti)
    assert got == cover_morphism_ref(sigma, sx, si, tx, ti)
    assert is_reduced_point(got.source) and is_reduced_point(got.target)


def check_object_oracles(sigma, x, y, sheet):
    m, flipped = oriented(x, y, sheet, sigma)
    (cx, cy, ci), flipped_want = mf_canonical_ref(x, y, sheet, sigma)
    assert (*xy(m), m.sheet) == (cx, cy, ci)
    assert flipped == flipped_want
    assert m.is_projective_injective() == is_projective_injective_ref(x, y)
    assert m.to_json() == {"x": str(cx), "y": str(cy), "sheet": ci}
    assert repr(m) == f"M({cx},{cy},{ci})"
    # the hash law: every representative of the object, built from
    # rationals or from pairs, is stored alike, is equal and hashes
    # equally
    reps = [
        MFObject(x, y, sheet, sigma),
        MFObject(*flipped_ref(x, y, sheet, sigma), sigma),
        MFObject(x + 2, y + 2, _perm_power(sigma, -2, sheet), sigma),
        MFObject(x - 2, y - 2, _perm_power(sigma, 2, sheet), sigma),
        MFObject._oriented(
            x.numerator, x.denominator, y.numerator, y.denominator,
            sheet, sigma,
        )[0],
    ]
    for other in reps:
        assert other._key() == m._key()
        assert other == m and hash(other) == hash(m)
    # the ends [x - 1] and [y] of the given representative are the
    # stored negative and positive ends, swapped when it is flipped
    given = (
        raw_point(*canonical_point_ref(x, sheet, -1, sigma)),
        raw_point(*canonical_point_ref(y, sheet, 1, sigma)),
    )
    assert m.ends() == (given[::-1] if flipped else given)


def test_integer_coordinates_match_fraction_references():
    rng = random.Random(30)
    for _ in range(400):
        sigma = random_sigma(rng, rng.randint(1, 4))
        xs = [random_rational(rng, 6) for _ in range(3)]
        sheets = [rng.randint(1, sigma.n) for _ in range(3)]
        check_point_oracles(sigma, xs, sheets)
        sx = xs[0]
        check_arc_oracle(
            sigma, sx, sheets[0], sx + abs(xs[1]), sheets[1]
        )
        d = rng.choice([random_rational(rng, 1), F(1), F(-1)])
        check_object_oracles(sigma, xs[2], xs[2] + d, sheets[2])


@given(
    holonomies(),
    st.lists(rationals(), min_size=3, max_size=3),
    st.one_of(rationals(span=1), st.sampled_from([F(1), F(-1)])),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_integer_coordinates_match_fraction_references_drawn(
    sigma, xs, d, data
):
    sheets = [data.draw(st.integers(1, sigma.n)) for _ in range(3)]
    check_point_oracles(sigma, xs, sheets)
    check_arc_oracle(sigma, xs[0], sheets[0], xs[0] + abs(xs[1]), sheets[1])
    check_object_oracles(sigma, xs[2], xs[2] + d, sheets[2])


def test_cover_point_hash_law():
    rng = random.Random(31)
    for _ in range(200):
        sigma = random_sigma(rng, rng.randint(1, 4))
        x = random_rational(rng, 6)
        i = rng.randint(1, sigma.n)
        # one point, written a turn lower or higher on another sheet, or
        # as the negative end [x + 1, s^-1(i), -] of an object
        q = point(x, i, sigma)
        m, flipped = oriented(x + 1, x + 1, _perm_power(sigma, -1, i), sigma)
        for other in (
            m.ends()[flipped],
            point(x - 2, _perm_power(sigma, 2, i), sigma),
            point(x + 2, _perm_power(sigma, -2, i), sigma),
        ):
            assert other == q and hash(other) == hash(q)


# ---------------------------------------------------------------------------
# hom modules


def test_hom_contains_identity():
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    even, odd = hom_mf(m, m, 0), hom_mf(m, m, 1)
    assert even.grade == 0
    ids = even.matrix
    for k, p in enumerate(ids.rows):
        assert ids.entry(k, k) == MonomialCoefficient.one()
        assert ids.arc(k, k) == cover_identity(p)
    assert odd.commutes_with_d()
    for parity in (2, -1, None):
        with pytest.raises(ValueError, match="parity"):
            hom_mf(m, m, parity)


def test_composition_refuses_different_middle_objects():
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    n = make_mf(F(3, 8), F(5, 8), 1, SWAP)
    gen = hom_mf(m, n, 0)
    with pytest.raises(ValueError):
        gen.compose(gen)
    assert gen.compose(MFMorphism.identity([m])) == gen


def test_hom_lets_a_composition_fault_propagate(monkeypatch):
    # the second generator is chosen by the u-power of the arc back, not
    # by catching ValueError: an endpoint fault in the first composition
    # must reach the caller, not select the other route
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    compose = frobenius.cover_compose
    calls = []

    def faulty(g, f, sigma):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("injected endpoint fault")
        return compose(g, f, sigma)

    monkeypatch.setattr(frobenius, "cover_compose", faulty)
    with pytest.raises(ValueError, match="injected endpoint fault"):
        hom_mf(m, m, 0)


def test_hom_window_grading():
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    inside = make_mf(F(3, 8), F(5, 8), 1, SWAP)
    outside = make_mf(F(1, 8), F(1, 16), 1, SWAP)
    assert hom_mf(m, inside, 0).grade == 0
    gens = [hom_mf(m, outside, 0), hom_mf(m, outside, 1)]
    for g in gens:
        assert g.commutes_with_d()
    # outside the support window every map is stably trivial
    assert stable_reduce(gens[0]).is_zero()


def test_hom_generator_second_route_is_exact_on_ends(monkeypatch):
    # when the map through the positive end of the source is not
    # divisible by t, ``hom_mf`` starts from the negative end instead
    # and divides the arc leaving the positive end, which marks that route
    divided = []
    divide_t = frobenius.divide_t

    def recording_divide_t(m):
        divided.append(m.source)
        return divide_t(m)

    monkeypatch.setattr(frobenius, "divide_t", recording_divide_t)
    rng = random.Random(12)
    routed = 0
    for tr in triples():
        # the pair of the golden case ``triangle-hom-fallback``
        pairs = [((F(1, 2), F(0), 1), (F(0), F(1, 2), 1))]
        while len(pairs) < 12:
            (x, y, _), (x2, y2, _) = pair = (
                _random_coords(rng, 2), _random_coords(rng, 2)
            )
            if not {(x - 1) % 2, y % 2} & {(x2 - 1) % 2, y2 % 2}:
                pairs.append(pair)
        for src, tgt in pairs:
            del divided[:]
            gen = _even_generator(src, tgt, tr.sigma)
            if divided != [gen.source[0].ends()[1]]:
                continue
            routed += 1
            T = triangle_from(gen, tr)
            assert len(T.Z) == 2
            assert _end_coordinates(T.Z) == _end_coordinates(
                gen.source + gen.target
            )
    assert routed >= 3


# ---------------------------------------------------------------------------
# universal sequences


def triples():
    return [rec.triple for rec in classify(2)]


def test_universal_sequence_exactness():
    rng = random.Random(3)
    for tr in triples():
        for _ in range(20):
            x = F(rng.randrange(0, 48), 48)
            y = x + F(rng.randrange(-47, 48), 48)
            m = make_mf(x, y, rng.randrange(1, 3), tr.sigma)
            seq = universal_sequence([m], tr)
            assert seq.p.compose(seq.j).is_zero()
            for mid in seq.middle:
                assert mid.is_projective_injective()


def test_universal_sequence_representative_independent():
    for tr in triples():
        m = make_mf(F(5, 8), F(1, 8), 1, tr.sigma)
        # M(5/8, 1/8, 1) and its flip M(-7/8, -3/8, sigma(1)) are one
        # object and are stored alike
        flip = make_mf(F(-7, 8), F(-3, 8), tr.sigma(1), tr.sigma)
        assert flip == m and flip._key() == m._key()
        seq = universal_sequence([m], tr)
        other = universal_sequence([flip], tr)
        assert seq.p.matrix == other.p.matrix
        assert seq.j.matrix == other.j.matrix
        assert list(seq.middle) == list(other.middle)
        assert seq.target == other.target


def test_universal_sequence_boundary_source():
    tr = triples()[0]
    m = make_mf(F(1, 4), F(5, 4), 1, tr.sigma)
    seq = universal_sequence([m], tr)
    # a boundary object is itself one of the injective middles
    assert any(mid == m for mid in seq.middle)


def test_universal_sequence_rejects_broken_triples():
    # a broken shift functor fails when the triple is built, so no
    # construction ever sees it
    tr = triples()[0]
    with pytest.raises(ValueError, match="anti-compatible"):
        TriangulationTriple.from_pair(tr.sigma, Autoequivalence(2, (1, 2)))


def test_constructions_check_the_holonomy_against_the_triple():
    t0, t1, t2 = triples()
    # classes 1 and 2 share sigma, the swap with trivial coefficients
    assert t1.sigma == t2.sigma != t0.sigma

    def build(sigma, triple):
        x = make_mf(F(1, 4), F(1, 2), 1, sigma)
        y = make_mf(F(1, 4), F(3, 4), 1, sigma)
        return (
            lambda: universal_sequence([x], triple),
            lambda: triangle_from(hom_mf(x, y, 0), triple),
        )

    for other in (t1, t2):
        for construct in build(t0.sigma, other):
            with pytest.raises(ValueError, match="holonomy"):
                construct()
    for tr, other in ((t1, t2), (t2, t1)):
        for construct in build(tr.sigma, other):
            construct()
        # the universal virtual triangle takes coordinates and builds its
        # source on the holonomy of the triple it is given
        T = universal_virtual_triangle(
            (F(1, 4), F(1, 2), 1), F(1, 8), F(1, 8), other
        )
        assert T.X[0].sigma == other.sigma


# ---------------------------------------------------------------------------
# stable reduction


def test_stable_reduction_kills_projective_injectives():
    tr = triples()[0]
    m = make_mf(F(1, 4), F(5, 4), 1, tr.sigma)
    assert stable_reduce(MFMorphism.identity([m])).is_zero()


def test_stable_reduction_keeps_window_component():
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    n = make_mf(F(3, 8), F(5, 8), 1, SWAP)
    gen = hom_mf(m, n, 0)
    red = stable_reduce(gen)
    assert not red.is_zero()
    # the even generator is the unit arc on the positive ends
    assert scalar_at(red, 0, 0, F(5, 8), 1, SWAP) == Cyclotomic.one()


def test_stable_reduction_kills_positive_upower():
    from covercat.frobenius import EndMatrix, MFMorphism, _t_times_identity

    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    ends = m.ends()
    t_id = MFMorphism(
        [m],
        [m],
        EndMatrix(
            ends,
            ends,
            {(k, k): _t_times_identity(p) for k, p in enumerate(ends)},
        ),
    )
    assert t_id.commutes_with_d()
    assert stable_reduce(t_id).is_zero()


# ---------------------------------------------------------------------------
# triangles


def test_triangle_on_identity_is_contractible():
    for tr in triples():
        x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
        T = triangle_from(MFMorphism.identity([x]), tr)
        assert T.Z == ()
        assert stable_reduce(T.unstable.g.compose(T.unstable.f)).is_zero()


def test_example_positive_triangle():
    for tr in triples():
        x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
        y = make_mf(F(1, 4), F(3, 4), 1, tr.sigma)
        T = triangle_from(hom_mf(x, y, 0), tr)
        assert [o.to_json() for o in T.Z] == [
            MFObject(F(3, 2), F(3, 4), 1, tr.sigma).to_json()
        ]
        sigma = tr.sigma
        assert scalar_at(T.f, 0, 0, F(3, 4), 1, sigma) == Cyclotomic.one()
        assert scalar_at(T.g, 0, 0, F(3, 4), 1, sigma) == Cyclotomic.one()
        assert scalar_at(
            T.h, 0, 0, F(1, 2), tr.tau(1), sigma
        ) == Cyclotomic.from_root(tr.phi.c[0])


def test_triangle_from_leaves_fractions_to_the_scalars():
    """Under cProfile, ``triangle_from`` on the README cone and 20 seeded
    generic cones calls nothing in ``fractions`` except through the
    rational coefficients of cyclotomic scalars: no coordinate work
    reaches it.  Call counts are deterministic, unlike self times."""
    import cProfile
    import pstats

    tr = triples()[0]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 4), F(3, 4), 1, tr.sigma)
    maps = [hom_mf(x, y, 0)]
    rng = random.Random(40)
    while len(maps) < 21:
        src = _random_coords(rng, tr.sigma.n)
        tgt = _generic_partner(rng, src, tr.sigma.n)
        if tgt is not None:
            gen = _even_generator(src, tgt, tr.sigma)
            if gen.grade == 0:
                maps.append(gen)
    profile = cProfile.Profile()
    profile.enable()
    for f in maps:
        triangle_from(f, tr)
    profile.disable()
    callers = {
        caller[0].rsplit("/", 1)[-1]
        for (path, _, _), (*_, by) in pstats.Stats(profile).stats.items()
        if path.endswith("fractions.py")
        for caller in by
    }
    assert callers <= {"fractions.py", "scalars.py"}, callers


def test_triangle_json_is_serializable():
    tr = triples()[0]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 4), F(3, 4), 1, tr.sigma)
    T = triangle_from(hom_mf(x, y, 0), tr)
    blob = json.dumps(T.to_json(), sort_keys=True)
    assert json.dumps(json.loads(blob), sort_keys=True) == blob


def test_universal_virtual_triangle_pattern():
    rng = random.Random(5)
    for tr in triples():
        for _ in range(6):
            x = F(rng.randrange(0, 24), 24)
            y = x + F(rng.randrange(-23, 24), 24)
            i = rng.randrange(1, 3)
            e1 = (y + 1 - x) / rng.randrange(2, 5)
            e2 = (x + 1 - y) / rng.randrange(2, 5)
            T = universal_virtual_triangle((x, y, i), e1, e2, tr)
            assert [o.to_json() for o in T.Z] == [
                MFObject(y + 1 - e1, x + 1 - e2, i, tr.sigma).to_json()
            ]
            g1 = scalar_at(T.g, 0, 0, x + 1 - e2, i, tr.sigma)
            g2 = scalar_at(T.g, 0, 1, x + 1 - e2, i, tr.sigma)
            assert {g1, g2} == {Cyclotomic.one(), -Cyclotomic.one()}
            assert scalar_at(
                T.h, 0, 0, y, tr.tau(i), tr.sigma
            ) == Cyclotomic.from_root(-tr.phi.c[i - 1])
            # the identity components end on [y] in I1 X, [x-1] in I2 X
            f = T.unstable.f
            assert scalar_at(f, 0, 0, y, i, tr.sigma) == Cyclotomic.one()
            assert scalar_at(
                f, 1, 0, x - 1, tr.sigma(i), tr.sigma
            ) == Cyclotomic.one()


def test_universal_virtual_triangle_admissibility():
    tr = triples()[0]
    m = (F(1, 4), F(1, 2), 1)
    with pytest.raises(ValueError):
        universal_virtual_triangle(m, F(3, 2), F(1, 8), tr)
    with pytest.raises(ValueError):
        universal_virtual_triangle(m, F(1, 8), F(0), tr)
    pi_obj = (F(1, 4), F(5, 4), 1)
    with pytest.raises(ValueError):
        universal_virtual_triangle(pi_obj, F(1, 8), F(1, 8), tr)


def test_universal_virtual_triangle_near_maximal_shrink():
    """Large admissible epsilons squeeze the middle onto the source ends."""
    tr = triples()[0]
    x, y = F(1, 4), F(1, 2)
    e1 = (y + 1 - x) - F(1, 48)
    e2 = (x + 1 - y) - F(1, 48)
    T = universal_virtual_triangle((x, y, 1), e1, e2, tr)
    assert T.Y[0] == MFObject(y + 1 - e1, y, 1, tr.sigma)
    assert T.Y[1] == MFObject(x, x + 1 - e2, 1, tr.sigma)
    # the cone sits within 1/48 of the source itself
    z = T.Z[0]
    assert xy(z) == (x + F(1, 48), y + F(1, 48))


def test_skew_relation_in_connecting_scalars():
    """The h-scalar at sheet s(i) is the twisted negative of the one at i."""
    for tr in triples():
        sigma, tau, phi = tr.sigma, tr.tau, tr.phi
        for i in (1, 2):
            lhs = Cyclotomic.from_root(phi.c[sigma(i) - 1])
            rhs = -(
                Cyclotomic.from_root(phi.c[i - 1])
                * Cyclotomic.from_root(sigma.a(tau(i), sigma(i)))
            )
            assert lhs == rhs
        m1 = (F(1, 4), F(1, 2), 1)
        m2 = (F(1, 4), F(1, 2), sigma(1))
        T1 = universal_virtual_triangle(m1, F(1, 8), F(1, 8), tr)
        T2 = universal_virtual_triangle(m2, F(1, 8), F(1, 8), tr)
        s1 = scalar_at(T1.h, 0, 0, F(1, 2), tau(1), tr.sigma)
        s2 = scalar_at(T2.h, 0, 0, F(1, 2), tau(sigma(1)), tr.sigma)
        assert s2 == -(
            Cyclotomic.from_root(sigma.a(tau(1), sigma(1))) * s1
        )


def test_triple_rotation_is_formal():
    tr = triples()[0]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 3), F(7, 12), 1, tr.sigma)
    T = triangle_from(hom_mf(x, y, 0), tr)
    R3 = rotate_triangle(rotate_triangle(rotate_triangle(T)))
    assert list(R3.X) == [relabel(tr.tau, o) for o in T.X]
    want = -mf_functor_morphism(tr.tau, T.unstable.f)
    assert R3.unstable.f.matrix == want.matrix


def test_rotation_matches_pushout_oracle():
    tr = triples()[1]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 3), F(7, 12), 2, tr.sigma)
    T = triangle_from(hom_mf(x, y, 0), tr)
    R = rotate_triangle(T)
    T2 = triangle_from(R.unstable.f, tr)
    assert [xy(o) for o in T2.Z] == [xy(o) for o in R.Z]


def direct_sum(f1, f2):
    """The block-diagonal map f1 (+) f2."""
    m1, m2 = f1.matrix, f2.matrix
    data = dict(m1.data)
    for (r, c), a in m2.data.items():
        data[(len(m1.rows) + r, len(m1.cols) + c)] = a
    return MFMorphism(
        f1.source + f2.source,
        f1.target + f2.target,
        EndMatrix._raw(m1.rows + m2.rows, m1.cols + m2.cols, data),
    )


def generic_generators(tr, rng, count):
    """``count`` generators of grade 0 between generic pairs of objects,
    drawn as ``verify_axiom_samples`` draws them."""
    sigma = tr.sigma
    out = []
    while len(out) < count:
        src = _random_coords(rng, sigma.n)
        tgt = _generic_partner(rng, src, sigma.n)
        if tgt is None:
            continue
        gen = _even_generator(src, tgt, sigma)
        if gen.grade == 0:
            out.append(gen)
    return out


def test_cone_over_two_objects_is_the_two_cones():
    # the cone of f1 (+) f2 has the stable components of the two cones,
    # and its universal sequence is theirs placed on the diagonal
    def components(T):
        return sorted(json.dumps(o.to_json()) for o in T.Z)

    rng = random.Random(5)
    for tr in triples():
        for _ in range(4):
            f1, f2 = generic_generators(tr, rng, 2)
            T = triangle_from(direct_sum(f1, f2), tr)
            apart = [triangle_from(f, tr) for f in (f1, f2)]
            assert len(T.Z) == 4
            assert components(T) == sorted(sum(map(components, apart), []))

            (X1,), (X2,) = f1.source, f2.source
            seq = universal_sequence((X1, X2), tr)
            s1, s2 = universal_sequence([X1], tr), universal_sequence([X2], tr)
            assert seq.source == (X1, X2)
            assert seq.middle == s1.middle + s2.middle
            assert seq.target == s1.target + s2.target
            for name in ("j", "p", "retraction", "section"):
                assert getattr(seq, name) == direct_sum(
                    getattr(s1, name), getattr(s2, name)
                )


def sample_constructions(tr, rng, count):
    """Seeded generic, shared-end and universal cones on one class, as
    calls that build them.

    Each map is the generator that is even in the drawn coordinates."""
    sigma = tr.sigma
    out = []
    while len(out) < 3 * count:
        src = _random_coords(rng, sigma.n)
        tgt = _generic_partner(rng, src, sigma.n)
        if tgt is None:
            continue
        x, y, _ = src
        e1 = (y + 1 - x) / rng.randrange(2, 5)
        e2 = (x + 1 - y) / rng.randrange(2, 5)
        out += [
            partial(triangle_from, _even_generator(src, tgt, sigma), tr),
            partial(
                triangle_from, _even_generator(src, (x, *tgt[1:]), sigma), tr
            ),
            partial(universal_virtual_triangle, src, e1, e2, tr),
        ]
    return out


def sample_triangles(tr, rng, count):
    return [build() for build in sample_constructions(tr, rng, count)]


def test_triangle_is_its_maps():
    rng = random.Random(11)
    for tr in triples():
        for T in sample_triangles(tr, rng, 4):
            u = T.unstable
            # Z is a retract of IX (+) Y
            z_ends = u.lift.cols
            assert u.proj.compose(u.lift, tr.sigma) == EndMatrix.identity(
                z_ends
            )
            assert z_ends == tuple(p for o in u.Z for p in o.ends())
            # the universal sections split h through the projection
            split = u.h.matrix.compose(
                u.proj.compose(u.section, tr.sigma), tr.sigma
            )
            assert split == EndMatrix.identity(u.h.matrix.rows)
            for S in (T, u):
                assert (S.X, S.Y, S.Z) == (
                    S.f.source, S.f.target, S.g.target
                )
                assert S.g.source == S.Y and S.h.source == S.Z
                assert S.h.target == tuple(relabel(tr.tau, o) for o in S.X)
            assert T.X == tuple(
                o for o in u.X if not o.is_projective_injective()
            )
            assert T.Z == tuple(
                o for o in u.Z if not o.is_projective_injective()
            )
            R = rotate_triangle(T)
            assert (R.X, R.Y) == (T.Y, T.Z)
            assert R.Z == T.h.target
            for stable, unstable in (
                (R.f, R.unstable.f),
                (R.g, R.unstable.g),
                (R.h, R.unstable.h),
            ):
                assert stable == stable_reduce(unstable)


def test_triangle_maps_compose():
    """g after f and h after g compose, and vanish stably, on every
    triangle that ``triangle_from``, ``universal_virtual_triangle`` and
    ``rotate_triangle`` return.  Equal objects store one representative,
    so a rotated triangle's F_tau X (built by the shift functor) and the
    target of its g (built by the universal sequence) have their ends in
    one order.  Seeded samples on the three two-sheet classes and on the
    33 classes of the four-sheet table that ``covercat triangle`` serves.
    """
    from covercat.cli import class_table

    rng = random.Random(0)
    tables = [(tr, 4) for tr in triples()]
    tables += [(rec.triple, 1) for rec in class_table(4)]
    checked = 0
    for tr, count in tables:
        for T in sample_triangles(tr, rng, count):
            R = rotate_triangle(T)
            for S in (T, T.unstable, R, R.unstable):
                assert stable_reduce(S.g.compose(S.f)).is_zero()
                assert stable_reduce(S.h.compose(S.g)).is_zero()
                checked += 1
    assert checked == 4 * 3 * (3 * 4 + 33)


def test_square_completion_needs_the_retraction():
    # a rotated triangle keeps its unstable maps but has no lift/proj
    tr = triples()[0]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 4), F(3, 4), 1, tr.sigma)
    T = triangle_from(hom_mf(x, y, 0), tr)
    R = rotate_triangle(T)
    v = MFMorphism.identity([y])
    for pair in ((R, T), (T, R)):
        with pytest.raises(ValueError, match=r"retraction \(lift/proj\)"):
            _complete_square(*pair, v)


def test_axiom_samples_all_pass():
    for tr in triples():
        report = verify_axiom_samples(tr, sample_size=6, seed=1)
        assert report["all_passed"], report["failures"]
        assert report["failures"] == []


def test_axiom_samples_pass_on_four_sheets():
    # the comparison map of TR2 carries a 24th root on four sheets, which
    # a check of one scalar per block up to sign could not accept
    from covercat.cli import class_table

    for index, rec in enumerate(class_table(4)):
        report = verify_axiom_samples(rec.triple, sample_size=2, seed=0)
        assert report["rotations"] > 0
        assert report["failures"] == [], (index, report["failures"])


@pytest.mark.parametrize(
    "root", [MINUS_ONE, RootOfUnity(F(1, 4))], ids=["sign", "fourth-root"]
)
def test_rotation_check_catches_a_wrong_connecting_map(monkeypatch, root):
    # -F_tau f with its sign dropped, or scaled by a primitive fourth
    # root, is no rotation; every class must report it
    def rescaled(T):
        R = rotate_triangle(T)
        u = R.unstable

        def scale(m):
            return MFMorphism(m.source, m.target, m.matrix.scale_root(root))

        return frobenius.Triangle(
            R.f, R.g, scale(R.h), R.triple,
            unstable=frobenius.Triangle(u.f, u.g, scale(u.h), R.triple),
        )

    monkeypatch.setattr(frobenius, "rotate_triangle", rescaled)
    for tr in triples():
        report = verify_axiom_samples(tr, sample_size=2, seed=0)
        assert report["rotations"] == 0
        assert any(f.startswith("rotations: ") for f in report["failures"])


# ---------------------------------------------------------------------------
# the elimination in _split_matrix_factorization


@cache
def elimination_cases():
    """Calls that build the README cone and seeded generic, shared-end and
    universal cones: two of each per two-sheet class and one per class of
    the four-sheet table that ``covercat triangle`` serves (seed 0)."""
    from covercat.cli import class_table

    tr = triples()[0]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 4), F(3, 4), 1, tr.sigma)
    builds = [partial(triangle_from, hom_mf(x, y, 0), tr)]
    rng = random.Random(0)
    tables = [(t, 2) for t in triples()]
    tables += [(rec.triple, 1) for rec in class_table(4)]
    for t, count in tables:
        builds += sample_constructions(t, rng, count)
    return tuple(builds)


@cache
def elimination_inputs():
    """The ``(dZ, sigma)`` of every elimination the cases run."""
    inputs = []
    split = frobenius._split_matrix_factorization

    def record(dZ, sigma):
        inputs.append((dZ, sigma))
        return split(dZ, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frobenius, "_split_matrix_factorization", record)
        for build in elimination_cases():
            build()
    return tuple(inputs)


def full_product_elimination(dZ, sigma, steps):
    """Replay elimination steps as full products: with U = I + E and
    U^-1 = I - E as n x n matrices, d -> U d U^-1, B -> U B and
    Binv -> Binv U^-1."""
    points = dZ.rows
    d = dZ
    B = Binv = EndMatrix.identity(points)
    identity = B.data
    for E in steps:
        (((b, a), lam),) = E.data.items()
        U = EndMatrix._raw(points, points, {**identity, (b, a): lam})
        Uinv = EndMatrix._raw(
            points, points, {**identity, (b, a): -lam}
        )
        d = U.compose(d, sigma).compose(Uinv, sigma)
        B = U.compose(B, sigma)
        Binv = Binv.compose(Uinv, sigma)
    return d, B, Binv


def test_elimination_matches_full_products(monkeypatch):
    """Each step's row and column updates give, entry for entry, the
    conjugation by full products, and B Binv is the identity."""
    inputs = elimination_inputs()
    assert len(inputs) == 1 + 3 * (3 * 2 + 33)
    steps = []
    elementary = frobenius._elementary

    def record(*args):
        steps.append(elementary(*args))
        return steps[-1]

    monkeypatch.setattr(frobenius, "_elementary", record)
    stepped = 0
    for dZ, sigma in inputs:
        steps.clear()
        got = frobenius._split_matrix_factorization(dZ, sigma)
        assert got == full_product_elimination(dZ, sigma, steps)
        _, B, Binv = got
        assert B.compose(Binv, sigma) == EndMatrix.identity(dZ.rows)
        stepped += bool(steps)
    assert stepped > len(inputs) // 2


def reordered(m, rng):
    """``m`` with its entries stored in reversed order, or shuffled by
    ``rng`` when one is given."""
    keys = list(m.data)[::-1]
    if rng is not None:
        rng.shuffle(keys)
    return EndMatrix._raw(m.rows, m.cols, {k: m.data[k] for k in keys})


def test_elimination_ignores_entry_order(monkeypatch):
    """Reversed and seeded shuffled orders of d's entries give equal
    (d, B, Binv) and byte-equal triangle JSON."""
    split = frobenius._split_matrix_factorization
    orders = [None, random.Random(1), random.Random(2)]
    for dZ, sigma in elimination_inputs():
        want = split(dZ, sigma)
        for rng in orders:
            assert split(reordered(dZ, rng), sigma) == want
    want = [json.dumps(build().to_json()) for build in elimination_cases()]
    for rng in orders:
        monkeypatch.setattr(
            frobenius,
            "_split_matrix_factorization",
            lambda dZ, sigma: split(reordered(dZ, rng), sigma),
        )
        got = [json.dumps(build().to_json()) for build in elimination_cases()]
        assert got == want


def swap_ends(d):
    """The differential ``d`` of one object with its two ends swapped."""
    rows = d.rows[::-1]
    return EndMatrix._raw(
        rows, rows, {(1 - r, 1 - c): a for (r, c), a in d.data.items()}
    )


def test_recognition_reads_an_object_off_its_own_differential():
    # either end can be taken as the negative one, in either storage
    # order; a projective-injective fits both lifts of the negative
    # coordinate, and the entry carrying t picks one.  M(1/4, 5/4, i)
    # carries t on the arc from its first end to its second.
    coords = [
        (F(1, 4), F(5, 4)), (F(5, 4), F(1, 4)), (0, 1), (1, 0),
        (F(7, 4), F(3, 4)), (F(2, 3), F(-1, 3)),
        (F(1, 4), F(1, 2)), (F(5, 8), F(1, 8)), (F(3, 2), F(7, 4)),
        (F(1, 3), F(1, 3)), (F(0), F(-1, 2)),
    ]
    t_first_to_second = 0
    for tr in triples():
        sigma = tr.sigma
        for x, y in coords:
            for i in range(1, sigma.n + 1):
                M = make_mf(x, y, i, sigma)
                d = d_matrix([M], sigma)
                if d.entry(1, 0).upower:
                    assert M.is_projective_injective()
                    t_first_to_second += 1
                for dd, a, b in (
                    (d, 0, 1), (d, 1, 0),
                    (swap_ends(d), 1, 0), (swap_ends(d), 0, 1),
                ):
                    N, slots = _recognize_component(dd, a, b, sigma)
                    assert N == M
                    assert tuple(dd.rows[k] for k, *_ in slots) == M.ends()
                    assert tuple(p for _, p, *_ in slots) == M.ends()
                    assert all(s == UNIT for *_, s, u in slots)
                    assert all(u == UNIT for *_, s, u in slots)
    first = make_mf(F(1, 4), F(5, 4), 1, triples()[0].sigma)
    assert xy(first) == (F(1, 4), F(5, 4))
    assert d_matrix([first], first.sigma).entry(1, 0).upower == 2
    assert t_first_to_second > 0
