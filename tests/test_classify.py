import hashlib
import json
import random
from fractions import Fraction
from itertools import islice

import pytest

from covercat.classify import (
    TriangulationTriple,
    _sigma_coefficient_choices,
    classify,
    connected_coverings,
    default_order_bound,
    enumerate_pairs,
    strongly_isomorphic,
)
from covercat.cn import (
    Autoequivalence,
    NaturalIso,
    check_skew_continuity,
    commutes,
    conjugate_pair,
    continuity_factor,
    is_anti_compatible,
)
from covercat.normal_forms import _joint_orbits, is_indecomposable
from covercat.scalars import MINUS_ONE, ONE, RootOfUnity
from test_cn import read_functor


def test_order_bound_default():
    assert default_order_bound(2) == 2
    assert default_order_bound(3) == 6
    assert default_order_bound(4) == 24


def test_enumerate_two_sheets_raw():
    pairs = list(enumerate_pairs(2))
    assert len(pairs) == 4
    for s, t in pairs:
        assert commutes(s, t)
        assert is_anti_compatible(s, t)
        assert continuity_factor(s, t) == MINUS_ONE
    # the three object-map shapes all appear
    shapes = {(s.object_map, t.object_map) for s, t in pairs}
    assert ((1, 2), (2, 1)) in shapes
    assert ((2, 1), (1, 2)) in shapes
    assert ((2, 1), (2, 1)) in shapes


def _stream_digest(stream):
    h = hashlib.sha256()
    for s, t in stream:
        h.update(
            json.dumps([s.to_json(), t.to_json()], sort_keys=True).encode()
        )
    return h.hexdigest()


def _assert_pinned_twice(n, order_bound, seed, count, digest, **kwargs):
    # the stream is drawn twice in one process, first from cold choice
    # tables and then from the warm ones, so a shuffle that reordered a
    # shared table in place would move the second digest
    _sigma_coefficient_choices.cache_clear()
    for _ in range(2):
        rng = random.Random(seed) if seed is not None else None
        stream = enumerate_pairs(n, order_bound, rng=rng, **kwargs)
        assert _stream_digest(islice(stream, count)) == digest
    q = order_bound or default_order_bound(n)
    assert type(_sigma_coefficient_choices((1,) * n, q)) is tuple


@pytest.mark.parametrize(
    "n, order_bound, seed, count, digest",
    [
        (3, None, None, None,
         "9979764d7bb64abea582bbdd317c123c3e49c6ead7e46e36ae921a61ec338293"),
        (4, None, 2, 3000,
         "25a40cd4c62521934b41712364711ed9ee554c0be12be6db760fb48a29e27059"),
        (4, 24, 7, 3000,
         "bcd36293ac07d340c6f0a8639852631f79e22dd31534cc2145fe01f3b032a26d"),
    ],
)
def test_unfiltered_stream_is_pinned(n, order_bound, seed, count, digest):
    # digests of the unfiltered stream in order: how the roots are
    # computed must neither reorder the choices nor shift the shuffles,
    # or sampled classification output would change
    _assert_pinned_twice(
        n, order_bound, seed, count, digest, anti_compatible_only=False
    )


@pytest.mark.parametrize(
    "n, order_bound, seed, count, digest",
    [
        (2, None, None, None,
         "c097b4017113be98af1a4f78b5df1ef440f0239d2b40e409115717cd1051862a"),
        (4, None, None, 20000,
         "82ead3acf80cc5018761c886d5027fd5042741abf3622205a54751832bddec0b"),
        (4, None, 2, 3000,
         "77244a2a3c98c2767e56aa9989cf3e15045922d3596055bfacb0935864ac654d"),
        (4, 24, 7, 3000,
         "55693ac138afc51c99df8e5dbcd5a00db21d912c5b62a3d90b6255f883582498"),
    ],
)
def test_anti_compatible_stream_is_pinned(n, order_bound, seed, count, digest):
    # the filtered stream that classify reads: the anti-compatibility
    # probe skips whole families, so a change in how families are solved
    # or skipped must not move which pairs come out, or in what order
    _assert_pinned_twice(n, order_bound, seed, count, digest)


@pytest.mark.parametrize(
    "n, order_bound, count",
    [
        (2, None, 8), (2, 6, 16), (2, 12, 28), (2, 24, 52),
        (3, None, 225), (3, 6, 225), (3, 12, 873), (3, 24, 3465),
    ],
)
def test_indecomposable_flag_matches_filter(n, order_bound, count):
    # dropping partner object maps before their coefficients are solved
    # keeps exactly the indecomposable pairs, in stream order
    flagged = list(
        enumerate_pairs(
            n, order_bound, anti_compatible_only=False,
            indecomposable_only=True,
        )
    )
    filtered = [
        p
        for p in enumerate_pairs(n, order_bound, anti_compatible_only=False)
        if is_indecomposable(*p)
    ]
    assert len(flagged) == count
    assert flagged == filtered


def test_indecomposable_flag_with_anti_compatible_filter():
    for n, limit in ((2, None), (4, 20000)):
        filtered = [
            p
            for p in islice(enumerate_pairs(n), limit)
            if is_indecomposable(*p)
        ]
        flagged = list(
            islice(
                enumerate_pairs(n, indecomposable_only=True), len(filtered)
            )
        )
        assert filtered
        assert flagged == filtered


def test_seeded_indecomposable_stream():
    # a seeded flagged stream shuffles shorter lists of partner maps, so
    # it is not a subsequence of the seeded unfiltered stream; every pair
    # it yields is still indecomposable
    for n, anti in ((3, False), (4, False), (4, True)):
        stream = enumerate_pairs(
            n, anti_compatible_only=anti, rng=random.Random(n),
            indecomposable_only=True,
        )
        pairs = list(islice(stream, 500))
        assert pairs
        assert all(is_indecomposable(s, t) for s, t in pairs)


def test_continuity_factor_is_inverse_family_scalar():
    # a solved family steps the partner's coefficients along each edge
    # i -> sigma(i) by h_i * lam, with h_i = sigma.coeff[tau(i)] /
    # sigma.coeff[i]; its continuity factor is lam**-1, so the pair is
    # anti-compatible exactly when lam == -1
    stream = [
        p
        for n, qs in ((2, (2, 6, 12, 24)), (3, (2, 6)))
        for q in qs
        for p in enumerate_pairs(n, q, anti_compatible_only=False)
    ] + list(
        islice(
            enumerate_pairs(
                4, anti_compatible_only=False, rng=random.Random(5)
            ),
            1000,
        )
    )
    lams = set()
    for s, t in stream:
        steps = {
            t.coeff[s(i) - 1] / t.coeff[i - 1]
            * s.coeff[i - 1] / s.coeff[t(i) - 1]
            for i in range(1, s.n + 1)
        }
        assert len(steps) == 1
        lam = steps.pop()
        lams.add(lam)
        assert continuity_factor(s, t) == lam.inverse()
        assert is_anti_compatible(s, t) == (lam == MINUS_ONE)
    assert MINUS_ONE in lams and len(lams) > 2


def test_enumerate_pairs_rejects_bad_input():
    with pytest.raises(ValueError):
        list(enumerate_pairs(2, order_bound=3))
    assert list(enumerate_pairs(1)) == []
    assert list(enumerate_pairs(0)) == []


def test_odd_sheet_count_is_empty():
    """No invertible pair on three sheets can pair to -1."""
    assert list(enumerate_pairs(3)) == []


def test_no_odd_joint_orbit_pairs_to_minus_one():
    # the lemma behind the early returns, read off continuity_factor on
    # the unfiltered streams, which never take them: no commuting pair
    # on three sheets is anti-compatible ...
    for q in (6, 12):
        pairs = list(enumerate_pairs(3, q, anti_compatible_only=False))
        assert pairs
        assert MINUS_ONE not in {continuity_factor(s, t) for s, t in pairs}
    # ... and every anti-compatible pair on two and four sheets has only
    # even joint orbits
    streams = [
        enumerate_pairs(2, q, anti_compatible_only=False) for q in (2, 6, 24)
    ] + [islice(enumerate_pairs(4, anti_compatible_only=False), 50000)]
    for stream in streams:
        anti = 0
        for s, t in stream:
            if continuity_factor(s, t) == MINUS_ONE:
                anti += 1
                blocks = _joint_orbits(s.object_map, t.object_map)
                assert all(len(b) % 2 == 0 for b in blocks)
        assert anti


def test_commuting_stream_matches_brute_force_n2():
    # every commuting bijective pair over the 1/2 grid whose first
    # member is in reduced orbit-constant form, counted directly
    from itertools import permutations, product

    reduced_sigmas = [
        Autoequivalence(2, (1, 2), (ONE, ONE)),
        Autoequivalence(2, (1, 2), (ONE, MINUS_ONE)),
        Autoequivalence(2, (2, 1), (ONE, ONE)),
    ]
    brute = 0
    roots = [ONE, MINUS_ONE]
    for s in reduced_sigmas:
        for tp in permutations((1, 2)):
            for tc in product(roots, repeat=1):
                t = Autoequivalence(2, tp, (ONE,) + tc)
                if commutes(s, t):
                    brute += 1
    stream = list(enumerate_pairs(2, anti_compatible_only=False))
    assert len(stream) == brute == 12
    assert len({(s, t) for s, t in stream}) == len(stream)


def test_classify_two_sheets_ground_truth():
    recs = classify(2)
    assert len(recs) == 3
    rows = [
        (
            r.summary["sigma_pattern"],
            r.summary["tau_pattern"],
            r.triple.sigma.a(1, 2),
            r.triple.tau.a(1, 2),
            r.triple.phi.c[0] / r.triple.phi.c[1],
        )
        for r in recs
    ]
    assert rows[0] == ("id", "(12)", MINUS_ONE, ONE, MINUS_ONE)
    assert rows[1] == ("(12)", "id", ONE, MINUS_ONE, MINUS_ONE)
    assert rows[2] == ("(12)", "(12)", ONE, MINUS_ONE, MINUS_ONE)
    # the four raw pairs collapse onto these classes with multiplicity
    assert sum(r.count for r in recs) == 4
    for r in recs:
        r.triple.validate()


def test_coefficient_twist_is_isomorphic():
    """Twisting the swap's coefficient by -1 lands in the same class.

    The conjugator needs a fourth root of unity even though both pairs
    only involve signs, which is why the isomorphism search solves for
    coefficients exactly instead of scanning a fixed subgroup.
    """
    s = Autoequivalence(2, (1, 2), (ONE, MINUS_ONE))
    t1 = Autoequivalence(2, (2, 1))
    t2 = Autoequivalence(2, (2, 1), (ONE, MINUS_ONE))
    rho = strongly_isomorphic((s, t1), (s, t2))
    assert rho is not None
    assert conjugate_pair(rho, s, t1) == (s, t2)
    assert any(c.order == 4 for c in rho.coeff)


def test_distinct_classes_are_not_isomorphic():
    recs = classify(2)
    for i in range(3):
        for j in range(3):
            got = strongly_isomorphic(
                (recs[i].triple.sigma, recs[i].triple.tau),
                (recs[j].triple.sigma, recs[j].triple.tau),
            )
            assert (got is not None) == (i == j)


def test_isomorphism_detects_random_conjugates():
    rng = random.Random(11)
    pairs = islice(
        enumerate_pairs(4, anti_compatible_only=False, rng=random.Random(2)),
        25,
    )
    for s, t in pairs:
        perm = list(range(1, 5))
        rng.shuffle(perm)
        coeff = [
            RootOfUnity(Fraction(rng.randrange(12), 12)) for _ in range(4)
        ]
        rho = Autoequivalence(4, perm, coeff)
        s2, t2 = conjugate_pair(rho, s, t)
        found = strongly_isomorphic((s, t), (s2, t2))
        assert found is not None
        assert conjugate_pair(found, s, t) == (s2, t2)


def test_strongly_isomorphic_size_mismatch():
    a = Autoequivalence(2, (1, 2))
    b = Autoequivalence(3, (1, 2, 3))
    with pytest.raises(ValueError):
        strongly_isomorphic((a, a), (b, b))


def test_classify_sampling_is_deterministic():
    one = classify(4, sample_size=40, seed=3)
    two = classify(4, sample_size=40, seed=3)
    assert [r.summary for r in one] == [r.summary for r in two]
    assert [r.count for r in one] == [r.count for r in two]
    for r in one:
        r.triple.validate()


def test_connected_covering_counts():
    assert [len(connected_coverings(k)) for k in range(2, 9)] == [
        2,
        0,
        4,
        0,
        6,
        0,
        8,
    ]
    assert connected_coverings(1) == []


def test_connected_coverings_are_valid_and_distinct():
    recs = connected_coverings(4)
    for r in recs:
        r.triple.validate()
        assert r.triple.sigma.n % 2 == 0
        # single cycle: the holonomy moves every sheet to every other
        assert sorted(r.summary["sigma_cycle_type"]) == [4]
    for i, a in enumerate(recs):
        for j, b in enumerate(recs):
            iso = strongly_isomorphic(
                (a.triple.sigma, a.triple.tau),
                (b.triple.sigma, b.triple.tau),
            )
            assert (iso is not None) == (i == j)


def test_connected_two_sheets_match_classification():
    """The two transitive classes on two sheets are the swap-based ones."""
    recs = classify(2)
    conn = connected_coverings(2)
    assert len(conn) == 2
    matched = set()
    for c in conn:
        for idx, r in enumerate(recs):
            if strongly_isomorphic(
                (c.triple.sigma, c.triple.tau),
                (r.triple.sigma, r.triple.tau),
            ):
                matched.add(idx)
    assert matched == {1, 2}


def dual_triple(t: TriangulationTriple) -> TriangulationTriple:
    """Swap the two symmetry directions and invert the isomorphism."""
    return TriangulationTriple(
        NaturalIso(t.tau, t.sigma, [c.inverse() for c in t.phi.c])
    )


def test_duality_on_two_sheets():
    recs = classify(2)
    d0 = dual_triple(recs[0].triple)
    d0.validate()
    assert (
        strongly_isomorphic(
            (d0.sigma, d0.tau),
            (recs[1].triple.sigma, recs[1].triple.tau),
        )
        is not None
    )
    d2 = dual_triple(recs[2].triple)
    assert (
        strongly_isomorphic(
            (d2.sigma, d2.tau),
            (recs[2].triple.sigma, recs[2].triple.tau),
        )
        is not None
    )


def test_duality_is_an_involution():
    for rec in classify(2) + classify(4, sample_size=30, seed=5):
        t = rec.triple
        dd = dual_triple(dual_triple(t))
        assert (
            strongly_isomorphic((dd.sigma, dd.tau), (t.sigma, t.tau))
            is not None
        )


def test_dual_inverts_components():
    t = classify(2)[0].triple
    d = dual_triple(t)
    for c1, c2 in zip(t.phi.c, d.phi.c):
        assert c1 * c2 == ONE
    assert check_skew_continuity(d.phi)


def test_triple_requires_invertible_partner():
    # the three-sheet witness of _valid_taus's lemma: sigma = id with
    # coefficients (1, -1, -1) and the table [2, 1, 1] would commute and
    # pair to -1 on an odd joint orbit, and only the shift's
    # invertibility rules it out, so its functor cannot be built
    with pytest.raises(ValueError, match="permute"):
        Autoequivalence(3, (2, 1, 1))


def test_triple_validation_catches_bad_data():
    good = classify(2)[0].triple
    # the identity does not pair to -1 with sigma
    with pytest.raises(ValueError, match="anti-compatible"):
        TriangulationTriple.from_pair(good.sigma, Autoequivalence(2, (1, 2)))


def test_validate_checks_commutation_once_and_reuses_phi(monkeypatch):
    # every namespace that binds commutes or natural_iso counts its calls
    import importlib

    counts = {"commutes": 0, "natural_iso": 0}
    for name in counts:
        for module in ("covercat.classify", "covercat.cn"):
            module = importlib.import_module(module)
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    for rec in classify(2):
        for key in counts:
            counts[key] = 0
        rec.triple.validate()
        assert counts == {"commutes": 1, "natural_iso": 0}


def test_class_record_serialization():
    rec = classify(2)[0]
    data = rec.to_json()
    assert data["summary"]["a12"] == "1/2"
    assert data["summary"]["b12"] == "0/1"
    assert data["summary"]["c1_over_c2"] == "1/2"
    assert data["count"] == rec.count
    round_sigma = read_functor(data["sigma"])
    round_tau = read_functor(data["tau"])
    assert round_sigma == rec.triple.sigma
    assert round_tau == rec.triple.tau


def test_anti_compatibility_independent_of_free_constants():
    """The pairing factor only sees the solved part of the coefficients.

    Within one solved family the per-orbit free constants cancel in the
    continuity factor, so the stream's family-level filter is sound.
    """
    seen: dict = {}
    stream = list(enumerate_pairs(3, anti_compatible_only=False)) + list(
        islice(
            enumerate_pairs(
                4, anti_compatible_only=False, rng=random.Random(9)
            ),
            600,
        )
    )
    for s, t in stream:
        # family signature: everything except the free per-orbit bases
        # (the coefficient step along the first holonomy edge pins the
        # global shift of the solved family)
        fam = (s, t.object_map, t.coeff[s(1) - 1] / t.coeff[0])
        factor = continuity_factor(s, t)
        if fam in seen:
            assert seen[fam] == factor
        else:
            seen[fam] = factor
