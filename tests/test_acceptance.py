"""End-to-end acceptance checks, one test per contract item.

Each test pins its runtime budget and compares against exact frozen
values; run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per item.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from covercat import cli
from covercat.classify import (
    classify,
    connected_coverings,
    dual_triple,
    strongly_isomorphic,
)
from covercat.cn import Autoequivalence, conjugate
from covercat.frobenius import (
    CoverPoint,
    MFObject,
    _block_scalar_at,
    canonical_point,
    hom_mf,
    make_mf,
    triangle_from,
    universal_sequence,
    universal_virtual_triangle,
    verify_axiom_samples,
)
from covercat.normal_forms import good_basis, is_good, perm_cycles
from covercat.scalars import ONE, Cyclotomic, RootOfUnity
from test_normal_forms import change_of_good_basis_deltas, rescaling, scales

F = Fraction


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


def rand_auto(rng, n, orders=12):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    coeff = [
        RootOfUnity(Fraction(rng.randrange(orders), orders))
        for _ in range(n)
    ]
    return Autoequivalence(n, perm, coeff)


def test_01_two_sheet_classification_table(capsys):
    with budget(1):
        assert cli.main(["classify", "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = [
            (
                c["summary"]["sigma_pattern"],
                c["summary"]["tau_pattern"],
                c["summary"]["a12"],
                c["summary"]["b12"],
                c["summary"]["c1_over_c2"],
            )
            for c in report["classes"]
        ]
    # exponents of roots of unity: "1/2" is -1, "0/1" is +1
    assert rows == [
        ("id", "(12)", "1/2", "0/1", "1/2"),
        ("(12)", "id", "0/1", "1/2", "1/2"),
        ("(12)", "(12)", "0/1", "1/2", "1/2"),
    ]


def test_02_connected_covering_counts():
    with budget(30):
        counts = {k: len(connected_coverings(k)) for k in range(2, 9)}
    assert counts == {2: 2, 3: 0, 4: 4, 5: 0, 6: 6, 7: 0, 8: 8}


def test_03_duality_involution():
    with budget(10):
        recs = classify(2)
        d0 = dual_triple(recs[0].triple)
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
        for rec in recs + classify(4, sample_size=30, seed=5):
            t = rec.triple
            dd = dual_triple(dual_triple(t))
            assert (
                strongly_isomorphic((dd.sigma, dd.tau), (t.sigma, t.tau))
                is not None
            )


def test_04_pairing_factor_anti_symmetry():
    with budget(20):
        checked = cli.sweep_anti_symmetry(limit=501, seed=0)
    assert checked >= 500


def test_05_skew_sign_law():
    with budget(60):
        checked = cli.sweep_skew_law(ns=(2, 3))
    # two sheets contribute four pairs; three sheets contribute none
    assert checked == 4


def test_06_good_basis_suite():
    with budget(30):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(1, 7)
            s = rand_auto(rng, n)
            rebased = conjugate(good_basis(s), s)
            assert is_good(rebased)
            for orbit in perm_cycles(rebased.object_map):
                for i in orbit:
                    for j in orbit:
                        assert rebased.a(i, j) == ONE
        # full cycles become strict n-torsion functors
        for n in (2, 3, 4, 5, 6):
            perm = list(range(2, n + 1)) + [1]
            coeff = [
                RootOfUnity(Fraction(rng.randrange(12), 12))
                for _ in range(n)
            ]
            raw = Autoequivalence(n, perm, coeff)
            s = conjugate(good_basis(raw), raw)
            power = Autoequivalence.identity(n)
            for _ in range(n):
                power = s.compose(power)
            assert power == Autoequivalence.identity(n)
        # per-orbit rescales of a good basis are recovered exactly
        for _ in range(30):
            s = rand_auto(rng, 5)
            b1 = good_basis(s)
            g2 = scales(b1)
            expected = []
            for orbit in perm_cycles(s.object_map):
                mlen = len(orbit)
                d = RootOfUnity(Fraction(rng.randrange(mlen), mlen))
                expected.append(d)
                i = orbit[0]
                for k in range(mlen):
                    g2[i - 1] = g2[i - 1] * (d ** (-k))
                    i = s(i)
            deltas = change_of_good_basis_deltas(b1, rescaling(g2), s)
            assert deltas == expected
            for delta, orbit in zip(deltas, perm_cycles(s.object_map)):
                assert delta ** len(orbit) == ONE


def test_07_root_order_bound_exhaustive():
    with budget(120):
        checked = cli.sweep_root_bound(ns=(2, 3))
    # 8 indecomposable commuting pairs on two sheets, 225 on three
    assert checked == 233


def test_08_differential_squares_to_t():
    with budget(10):
        checked = cli.sweep_d_squared(per_n=100, seed=0)
    assert checked == 300


def test_09_universal_sequence_suite():
    with budget(20):
        for rec in classify(2):
            tr = rec.triple
            rng = random.Random(1)
            for _ in range(100):
                # interior objects: at the boundary the two injective
                # middles coincide and the column roles are ambiguous
                x = F(rng.randrange(0, 48), 48)
                y = x + F(rng.randrange(-47, 48), 48)
                i = rng.randrange(1, 3)
                m = make_mf(x, y, i, tr.sigma)
                seq = universal_sequence(m, tr)
                assert seq.p.compose(seq.j).is_zero()
                assert seq.retraction.compose(seq.j) == type(
                    seq.j
                ).identity([m])
                assert seq.p.compose(seq.section) == type(
                    seq.p
                ).identity([seq.target])
                # the flipped representative is the same stored object
                flip = make_mf(y - 1, x - 1, tr.sigma(i), tr.sigma)
                other = universal_sequence(flip, tr)
                assert other.p.matrix == seq.p.matrix
                assert list(other.middle) == list(seq.middle)
                assert other.target == seq.target


def test_10_example_triangle_and_universal_pattern():
    with budget(5):
        for rec in classify(2):
            tr = rec.triple
            sigma = tr.sigma
            X = make_mf(F(1, 4), F(1, 2), 1, sigma)
            Y = make_mf(F(1, 4), F(3, 4), 1, sigma)
            T = triangle_from(hom_mf(X, Y)[0], tr)
            assert list(T.Z) == [MFObject(F(3, 2), F(3, 4), 1, sigma)]

            def at(m, ti, si, x, sheet):
                return _block_scalar_at(
                    m, ti, si, canonical_point(CoverPoint(x, sheet), sigma)
                )

            assert at(T.f, 0, 0, F(3, 4), 1) == Cyclotomic.one()
            assert at(T.g, 0, 0, F(3, 4), 1) == Cyclotomic.one()
            assert at(
                T.h, 0, 0, F(1, 2), tr.tau(1)
            ) == Cyclotomic.from_root(tr.phi.c[0])

            U = universal_virtual_triangle(
                (F(1, 4), F(1, 2), 1), F(1, 8), F(1, 3), tr
            )
            assert list(U.Z) == [MFObject(F(11, 8), F(11, 12), 1, sigma)]
            g1 = at(U.g, 0, 0, F(11, 12), 1)
            g2 = at(U.g, 0, 1, F(11, 12), 1)
            assert {g1, g2} == {Cyclotomic.one(), -Cyclotomic.one()}
            assert at(
                U.h, 0, 0, F(1, 2), tr.tau(1)
            ) == Cyclotomic.from_root(-tr.phi.c[0])
            assert "sign_equivalent_to" in U.notes


def test_11_triangulated_axiom_sampling():
    with budget(60):
        for rec in classify(2):
            report = verify_axiom_samples(
                rec.triple, sample_size=50, seed=0
            )
            assert report["all_passed"], report["failures"]
            assert report["square_completions"] >= 50
