import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercat import frobenius
from covercat.classify import TriangulationTriple, classify
from covercat.cn import Autoequivalence
from covercat.frobenius import (
    UNIT,
    CoverMorphism,
    CoverPoint,
    EndMatrix,
    MFMorphism,
    MFObject,
    apply_sheet_functor,
    canonical_point,
    cover_compose,
    cover_identity,
    cover_morphism,
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
    _random_coords,
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

F = Fraction

SWAP = Autoequivalence(2, (2, 1), (ONE, MINUS_ONE))


def scalar_of(m, ti, si):
    from covercat.frobenius import _stable_block_scalar

    return _stable_block_scalar(m, ti, si)


def scalar_at(m, ti, si, x, sheet, sigma):
    """Scalar of a block read against the end point over (x, sheet)."""
    from covercat.frobenius import _block_scalar_at

    return _block_scalar_at(
        m, ti, si, canonical_point(CoverPoint(F(x), sheet), sigma)
    )


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
    p = canonical_point(CoverPoint(F(9, 4), 1, -1), SWAP)
    # [9/4,1,-] = [5/4,2,+] after the sign and period reductions
    assert p == CoverPoint(F(5, 4), 2, 1)
    assert canonical_point(p, SWAP) == p


coords = st.fractions(
    min_value=-4, max_value=4, max_denominator=24
)


@given(coords, st.integers(1, 2), st.sampled_from([1, -1]))
def test_canonical_point_range(x, sheet, sign):
    p = canonical_point(CoverPoint(x, sheet, sign), SWAP)
    assert 0 <= p.x < 2 and p.sign == 1


def test_full_turn_picks_up_scalar_and_t():
    """One full turn contributes d_j * t with d_j = c_{s(j)} c_j."""
    a = raw_arc(SWAP, F(1, 4), 1, F(5, 4), 2)
    b = raw_arc(SWAP, F(5, 4), 2, F(9, 4), 1)
    comp = cover_compose(b, a, SWAP)
    assert comp.source == comp.target == CoverPoint(F(1, 4), 1)
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
    p = canonical_point(CoverPoint(x, i), SWAP)
    q = canonical_point(CoverPoint(x + abs(d1), j), SWAP)
    r = canonical_point(CoverPoint(x + abs(d1) + abs(d2), k), SWAP)
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
    return CoverMorphism(CoverPoint(sx, si), CoverPoint(tx, ti), coeff)


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
    k = 0 if m.target.x >= m.source.x else 1
    return m.target.x + 2 * k, _perm_power(sigma, -2 * k, m.target.sheet)


def cover_compose_by_lifts(g, f, sigma):
    """Reference for ``cover_compose``: lift both arcs, translate g by
    whole turns until its source lies on f's lifted target, and
    canonicalize the concatenated arc."""
    if g.source != f.target:
        raise ValueError("composition endpoints differ")
    fx, fj = raw_target(f, sigma)
    delta = fx - g.source.x
    if delta % 2 != 0 or delta < 0:
        raise AssertionError("endpoint lift mismatch")
    gsx, gsi = g.source.x, g.source.sheet
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
        sigma, f.source.x, f.source.sheet, gtx, gtj, f.coeff * gcoeff
    )


def compose_all_pairs(left, right, sigma):
    """Reference for ``EndMatrix.compose``: every pair of nonzero entries,
    each pair of terms composed as arcs by ``cover_compose_by_lifts``."""
    acc = {}
    for (r, k), terms in left.data.items():
        for (k2, c), terms2 in right.data.items():
            if k2 != k:
                continue
            acc.setdefault((r, c), []).extend(
                cover_compose_by_lifts(
                    left.arc(r, k, a), right.arc(k, c, b), sigma
                )
                for a in terms
                for b in terms2
            )
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
            CoverPoint(F(rng.randrange(4), 2), rng.randint(1, n))
            for _ in range(3)
        )
        seen.add(weak_order(p.x, q.x, r.x))
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
        CoverPoint(data.draw(grid_coords), data.draw(st.integers(1, sigma.n)))
        for _ in range(3)
    )
    f = CoverMorphism(p, q, data.draw(root_coefficients()))
    g = CoverMorphism(q, r, data.draw(root_coefficients()))
    assert cover_compose(g, f, sigma) == cover_compose_by_lifts(g, f, sigma)


def relabel_by_lifts(functor, m, sigma):
    """Reference for ``apply_sheet_functor`` on an arc: relabel the lifted
    arc and canonicalize it again."""
    rx, rj = raw_target(m, sigma)
    coeff = m.coeff.scale(functor.a(rj, m.source.sheet))
    return raw_arc(
        sigma, m.source.x, functor(m.source.sheet), rx, functor(rj), coeff
    )


def test_sheet_functor_on_arcs_matches_lifts():
    # powers of the holonomy commute with it, and so do the second functors
    # of the two-sheet classes; grid coordinates make both arcs that stay
    # above their source and arcs that cross the seam
    rng = random.Random(21)
    classes = [(rec.triple.sigma, rec.triple.tau) for rec in classify(2)]
    for _ in range(600):
        sigma = random_sigma(rng, rng.randint(2, 4))
        functor = sigma
        for _ in range(rng.randrange(3)):
            functor = sigma.compose(functor)
        sigma, functor = rng.choice([(sigma, functor)] * 3 + classes)
        p, q = (
            CoverPoint(F(rng.randrange(4), 2), rng.randint(1, sigma.n))
            for _ in range(2)
        )
        root = RootOfUnity(F(rng.randrange(12), 12))
        m = CoverMorphism(p, q, MonomialCoefficient.from_root(root))
        got = apply_sheet_functor(functor, m, sigma)
        assert got == relabel_by_lifts(functor, m, sigma), (sigma, m)


@st.composite
def end_matrix_pairs(draw):
    sigma = draw(holonomies(max_n=3))

    def points():
        return [
            CoverPoint(
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
            terms = []
            for upower in draw(st.sets(st.sampled_from([0, 2]), min_size=1)):
                root = RootOfUnity(F(draw(st.integers(0, 11)), 12))
                coeff = MonomialCoefficient.from_root(root, upower)
                terms.append(CoverMorphism(cols[c], rows[r], coeff))
            data[(r, c)] = terms
        return EndMatrix(rows, cols, data)

    a, b, c = points(), points(), points()
    return sigma, matrix(a, b), matrix(b, c)


def test_end_matrix_checks_arc_endpoints():
    p, q = CoverPoint(F(1, 4), 1), CoverPoint(F(1, 2), 2)
    arc = CoverMorphism(p, q, UNIT)
    m = EndMatrix((q,), (p,), {(0, 0): arc})
    assert m.entry(0, 0) == (arc.coeff,)
    assert m.arc(0, 0, arc.coeff) == arc
    # entries are read as arcs cols[c] -> rows[r]: a swapped row and
    # column, or an arc among a sequence of terms, must match too
    with pytest.raises(AssertionError):
        EndMatrix((p,), (q,), {(0, 0): arc})
    with pytest.raises(AssertionError):
        EndMatrix((q,), (p,), {(0, 0): [arc, cover_identity(p)]})


@given(end_matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_indexed_compose_matches_all_pairs(case):
    sigma, left, right = case
    got = left.compose(right, sigma).data
    expected = compose_all_pairs(left, right, sigma).data
    # same keys, same values, same insertion order
    assert list(got.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# matrix factorizations


def test_mf_canonical_forms():
    m = MFObject(F(1, 4), F(1, 2), 1, SWAP)
    assert (m.x, m.y, m.sheet) == (F(1, 4), F(1, 2), 1)
    # M(3/2, 3/4, 1) is canonical: its flip M(-1/4, 1/2, 2), a turn up
    # at M(7/4, 5/2, 2), starts later; both are stored as it
    a = MFObject(F(3, 2), F(3, 4), 1, SWAP)
    for coords in ((F(-1, 4), F(1, 2), 2), (F(7, 4), F(5, 2), 2)):
        b, flipped = oriented(*coords, SWAP)
        assert flipped and b == a
        assert (b.x, b.y, b.sheet) == (F(3, 2), F(3, 4), 1)
    # a translate by whole turns is stored in x in [0, 2), unflipped
    c, flipped = oriented(F(7, 2), F(11, 4), 1, SWAP)
    assert not flipped and (c.x, c.y, c.sheet) == (F(3, 2), F(3, 4), 1)
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
        canonical_point(CoverPoint(x, sheet, -1), sigma),
        canonical_point(CoverPoint(y, sheet, 1), sigma),
    )
    # the ends [x - 1] and [y] are stored in this order unless flipped
    assert ends == (given[::-1] if flipped else given)
    assert all(0 <= p.x < 2 and p.sign == 1 for p in ends)
    assert m.ends() is ends


def test_mf_json_round_trip():
    m = MFObject(F(3, 2), F(3, 4), 1, SWAP)
    data = m.to_json()
    assert json.loads(json.dumps(data)) == data
    assert MFObject.from_json(data, SWAP) == m


def test_sheet_functor_well_defined():
    tau = Autoequivalence(2, (2, 1), (ONE, MINUS_ONE))
    m = MFObject(F(1, 4), F(1, 2), 1, SWAP)
    images = [
        apply_sheet_functor(tau, m),
        apply_sheet_functor(tau, MFObject(F(-1, 2), F(-3, 4), 2, SWAP)),
    ]
    assert images[0] == images[1]
    # functors that fail to commute with the holonomy are rejected
    sigma3 = Autoequivalence(3, (2, 3, 1), (ONE, ONE, ONE))
    with pytest.raises(ValueError):
        apply_sheet_functor(
            Autoequivalence(3, (2, 1, 3)), MFObject(F(0), F(1, 2), 1, sigma3)
        )


def test_sheet_functors_commute_on_morphisms():
    tr = classify(2)[1].triple
    sigma = tr.sigma
    a = raw_arc(sigma, F(1, 8), 1, F(7, 8), 2)
    one_way = apply_sheet_functor(
        tr.sigma, apply_sheet_functor(tr.tau, a, sigma), sigma
    )
    other = apply_sheet_functor(
        tr.tau, apply_sheet_functor(tr.sigma, a, sigma), sigma
    )
    assert one_way == other


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
    k = 0 if m.target.x >= m.source.x else 1
    return m.target.x + 2 * k - m.source.x


def turn_factor_ref(p, q, r, sigma):
    c1 = q.x < p.x
    c2 = r.x < q.x
    if not (c1 or c2):
        return UNIT
    c3 = r.x < p.x
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
    target = CoverPoint(*canonical_point_ref(tx, ti, 1, sigma))
    return CoverMorphism(CoverPoint(sx, si), target, coeff)


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


def check_point_oracles(sigma, xs, sheets, sign):
    """canonical_point, weight and turn_factor on the points over xs."""
    points = []
    for x, i in zip(xs, sheets):
        p = canonical_point(CoverPoint(x, i, sign), sigma)
        assert (p.x, p.sheet, p.sign) == (
            *canonical_point_ref(x, i, sign, sigma), 1
        )
        assert is_reduced_point(p)
        assert repr(p) == f"[{p.x},{p.sheet},+]"
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
    assert (m.x, m.y, m.sheet) == (cx, cy, ci)
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
        canonical_point(CoverPoint(x, sheet, -1), sigma),
        canonical_point(CoverPoint(y, sheet), sigma),
    )
    assert m.ends() == (given[::-1] if flipped else given)


def test_integer_coordinates_match_fraction_references():
    rng = random.Random(30)
    for _ in range(400):
        sigma = random_sigma(rng, rng.randint(1, 4))
        xs = [random_rational(rng, 6) for _ in range(3)]
        sheets = [rng.randint(1, sigma.n) for _ in range(3)]
        check_point_oracles(sigma, xs, sheets, rng.choice([1, -1]))
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
    st.sampled_from([1, -1]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_integer_coordinates_match_fraction_references_drawn(
    sigma, xs, d, sign, data
):
    sheets = [data.draw(st.integers(1, sigma.n)) for _ in range(3)]
    check_point_oracles(sigma, xs, sheets, sign)
    check_arc_oracle(sigma, xs[0], sheets[0], xs[0] + abs(xs[1]), sheets[1])
    check_object_oracles(sigma, xs[2], xs[2] + d, sheets[2])


def test_cover_point_hash_law():
    rng = random.Random(31)
    for _ in range(200):
        sigma = random_sigma(rng, rng.randint(1, 4))
        x = random_rational(rng, 6)
        i = rng.randint(1, sigma.n)
        p = CoverPoint(x, i)
        internal = CoverPoint._make(x.numerator, x.denominator, i)
        assert p == internal and hash(p) == hash(internal)
        # one point, written on another sheet or with the other sign
        q = canonical_point(p, sigma)
        for other in (
            CoverPoint(x + 1, _perm_power(sigma, -1, i), -1),
            CoverPoint(x - 2, _perm_power(sigma, 2, i)),
            CoverPoint(x + 2, _perm_power(sigma, -2, i)),
        ):
            c = canonical_point(other, sigma)
            assert c == q and hash(c) == hash(q)
        assert CoverPoint(x, i, -1) != p


# ---------------------------------------------------------------------------
# hom modules


def test_hom_contains_identity():
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    even, odd = hom_mf(m, m)
    assert even.grade == 0
    ids = even.matrix
    for k, p in enumerate(ids.rows):
        assert ids.entry(k, k) == (MonomialCoefficient.one(),)
        assert ids.arc(k, k) == cover_identity(p)
    assert odd.commutes_with_d()


def test_hom_window_grading():
    m = make_mf(F(1, 4), F(1, 2), 1, SWAP)
    inside = make_mf(F(3, 8), F(5, 8), 1, SWAP)
    outside = make_mf(F(1, 8), F(1, 16), 1, SWAP)
    assert hom_mf(m, inside)[0].grade == 0
    gens = hom_mf(m, outside)
    for g in gens:
        assert g.commutes_with_d()
    # outside the support window every map is stably trivial
    assert stable_reduce(gens[0]).is_zero()


def test_hom_generator_second_route_is_exact_on_ends(monkeypatch):
    # when the map through the positive end of the source is not
    # divisible by t, ``_hom_generator`` starts from the negative end
    # instead; a ``divide_t`` that raises marks that route
    fallbacks = []
    divide_t = frobenius.divide_t

    def counting_divide_t(m):
        try:
            return divide_t(m)
        except ValueError:
            fallbacks.append(m)
            raise

    monkeypatch.setattr(frobenius, "divide_t", counting_divide_t)
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
            del fallbacks[:]
            gen = _even_generator(src, tgt, tr.sigma)
            if not fallbacks:
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
            seq = universal_sequence(m, tr)
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
        seq = universal_sequence(m, tr)
        other = universal_sequence(flip, tr)
        assert seq.p.matrix == other.p.matrix
        assert seq.j.matrix == other.j.matrix
        assert list(seq.middle) == list(other.middle)
        assert seq.target == other.target


def test_universal_sequence_boundary_source():
    tr = triples()[0]
    m = make_mf(F(1, 4), F(5, 4), 1, tr.sigma)
    seq = universal_sequence(m, tr)
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
            lambda: universal_sequence(x, triple),
            lambda: triangle_from(hom_mf(x, y)[0], triple),
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
    gen = hom_mf(m, n)[0]
    red = stable_reduce(gen)
    assert not red.is_zero()
    assert scalar_of(red, 0, 0) in (Cyclotomic.one(), -Cyclotomic.one())


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
        T = triangle_from(hom_mf(x, y)[0], tr)
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
    maps = [hom_mf(x, y)[0]]
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
    T = triangle_from(hom_mf(x, y)[0], tr)
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
            assert scalar_of(T.unstable.f, 0, 0) == Cyclotomic.one()
            assert scalar_of(T.unstable.f, 1, 0) == Cyclotomic.one()
            assert "sign_equivalent_to" in T.notes


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
    assert (z.x, z.y) == (x + F(1, 48), y + F(1, 48))


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
    T = triangle_from(hom_mf(x, y)[0], tr)
    R3 = rotate_triangle(rotate_triangle(rotate_triangle(T)))
    assert list(R3.X) == [apply_sheet_functor(tr.tau, o) for o in T.X]
    want = -mf_functor_morphism(tr.tau, T.unstable.f)
    assert R3.unstable.f.matrix == want.matrix


def test_rotation_matches_pushout_oracle():
    tr = triples()[1]
    x = make_mf(F(1, 4), F(1, 2), 1, tr.sigma)
    y = make_mf(F(1, 3), F(7, 12), 2, tr.sigma)
    T = triangle_from(hom_mf(x, y)[0], tr)
    R = rotate_triangle(T)
    T2 = triangle_from(R.unstable.f, tr)
    assert [(o.x, o.y) for o in T2.Z] == [(o.x, o.y) for o in R.Z]


def sample_triangles(tr, rng, count):
    """Seeded generic, shared-end and universal cones on one class.

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
            triangle_from(_even_generator(src, tgt, sigma), tr),
            triangle_from(_even_generator(src, (x, *tgt[1:]), sigma), tr),
            universal_virtual_triangle(src, e1, e2, tr),
        ]
    return out


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
            for S in (T, u):
                assert (S.X, S.Y, S.Z) == (
                    S.f.source, S.f.target, S.g.target
                )
                assert S.g.source == S.Y and S.h.source == S.Z
                assert S.h.target == tuple(
                    apply_sheet_functor(tr.tau, o) for o in S.X
                )
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
    T = triangle_from(hom_mf(x, y)[0], tr)
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
