"""Tests for point-set generation, the multiplication actions, and the
finite-level projections."""

from fractions import Fraction

import numpy as np
import pytest

from horopoints.arith import NotCoprime, mod_inverse, residue_count_formula, totient
from horopoints.points import (
    HorocycleSample,
    PointSetSpec,
    PrimeDividesModulus,
    apply_M,
    gen_full,
    gen_monomial,
    gen_point_set,
    gen_triple,
    project_level,
    project_level_direct,
    project_level_stated,
    verify_invariance,
)
from horopoints.sl2 import invariant_height


def test_gen_full_examples():
    ps = gen_full(1, Fraction(1, 2))
    assert len(ps) == 1 and ps[0].xpoint.z == 1j

    ps = gen_full(5, Fraction(1, 2))
    assert [s.k for s in ps] == [0, 1, 2, 3, 4]
    for s in ps:
        assert abs(s.xpoint.z - (s.k + 1j) / 5) < 1e-15
        assert s.torus1 == Fraction(s.k, 5)

    ps = gen_full(4, Fraction(1))
    for s in ps:
        assert abs(s.xpoint.z - (s.k / 4 + 1j / 16)) < 1e-16


def test_gen_monomial_examples():
    ps = gen_monomial(PointSetSpec(n=5, d=2))
    assert sorted(str(s.torus1) for s in ps) == ["1/5", "4/5"]
    assert len(ps) == 2

    assert len(gen_monomial(PointSetSpec(n=5, d=1))) == 4

    with pytest.raises(NotCoprime):
        gen_monomial(PointSetSpec(n=6, d=1, a=3))


def test_gen_monomial_count_matches_formula():
    for n in range(1, 200):
        for d in (1, 2, 3, 4, 6, 12):
            assert len(gen_monomial(PointSetSpec(n=n, d=d))) == residue_count_formula(n, d)


def test_gen_monomial_pair_puts_b_on_surface():
    ps = gen_monomial(PointSetSpec(n=7, d=1, a=1, b=3))
    for s in ps:
        assert abs(s.xpoint.z.real - (3 * s.k % 7) / 7) < 1e-15
        assert s.torus1 == Fraction(s.k % 7, 7)
        assert s.torus2 is None


def test_gen_point_set_dispatches_on_variant():
    spec = PointSetSpec(n=9, alpha=Fraction(1), d=2)
    full = gen_point_set(spec, "full")
    assert (len(full), full.spec.d, full.spec.alpha) == (9, 1, Fraction(1))
    assert gen_point_set(spec, "monomial").residues.tolist() == \
        gen_monomial(spec).residues.tolist()
    assert gen_point_set(spec, "triple").with_second
    with pytest.raises(ValueError):
        gen_point_set(spec, "quadruple")


def test_gen_triple_examples():
    ps = gen_triple(PointSetSpec(n=5, d=1))
    pairs = {(str(s.torus1), str(s.torus2)) for s in ps}
    assert pairs == {("1/5", "1/5"), ("2/5", "3/5"), ("3/5", "2/5"), ("4/5", "4/5")}

    ps = gen_triple(PointSetSpec(n=2, d=1))
    assert len(ps) == 1
    s = ps[0]
    assert (s.torus1, s.torus2) == (Fraction(1, 2), Fraction(1, 2))
    assert abs(s.xpoint.z - (1 + 1j) / 2) < 1e-15

    ps = gen_triple(PointSetSpec(n=7, d=3))
    assert sorted(s.k for s in ps) == [1, 6]

    with pytest.raises(NotCoprime):
        gen_triple(PointSetSpec(n=6, d=1, c=2))


def test_triple_inverse_structure():
    # reconstructing the residue from torus1 and inverting reproduces torus2
    for n in (7, 12, 45):
        for spec in (PointSetSpec(n=n, d=1, a=2 if n % 2 else 1, b=5 if n % 5 else 1),
                     PointSetSpec(n=n, d=2)):
            for s in gen_triple(spec):
                r = mod_inverse(spec.a, n) * (s.torus1 * n) % n
                assert r == s.k % n
                assert s.torus2 == Fraction(spec.b * mod_inverse(int(r), n) % n, n)


def test_apply_M_examples():
    s = HorocycleSample(k=1, n=7)
    assert apply_M(s, 3, 1, +1).k == 2  # 9 mod 7
    assert apply_M(apply_M(s, 3, 1, +1), 3, 1, -1).k == s.k
    with pytest.raises(PrimeDividesModulus):
        apply_M(HorocycleSample(k=1, n=9), 3, 1)
    # on a triple sample: first torus coordinate times p^(2d), second by its inverse
    t = apply_M(HorocycleSample(k=1, n=5, b=1), 2, 1)
    assert t.k == 4
    assert (t.torus1, t.torus2) == (Fraction(4, 5), Fraction(4, 5))
    with pytest.raises(PrimeDividesModulus):
        apply_M(HorocycleSample(k=1, n=4, b=1), 2, 1)


def test_apply_M_totient_cycle():
    # phi(n)-fold composition is the identity on every sample
    for n, p, d in [(5, 2, 1), (7, 3, 2), (9, 2, 1)]:
        s = HorocycleSample(k=1, n=n, b=1)
        t = s
        for _ in range(totient(n)):
            t = apply_M(t, p, d)
        assert t.k == s.k


def test_verify_invariance_examples():
    assert verify_invariance(PointSetSpec(n=7, d=1), 2)
    assert verify_invariance(PointSetSpec(n=7, d=1, primitive=False), 2)
    with pytest.raises(PrimeDividesModulus):
        verify_invariance(PointSetSpec(n=9, d=1), 3)


def test_verify_invariance_sweep():
    for n in range(1, 300):
        for p in (2, 3, 5):
            if n % p == 0:
                continue
            for d in (1, 2, 3):
                assert verify_invariance(PointSetSpec(n=n, d=d), p), (n, p, d)


def test_high_alpha_heights():
    # alpha > 1: every primitive point sits above n^(2 alpha - 2) in the cusp
    for alpha in (Fraction(5, 4), Fraction(3, 2)):
        exponent = 2 * float(alpha) - 2
        for n in (50, 101):
            spec = PointSetSpec(n=n, alpha=alpha, d=1)
            ps = gen_monomial(spec)
            floor = float(n) ** exponent * (1 - 1e-6)
            assert (ps.heights() >= floor).all()
            assert invariant_height(ps[0].xpoint) >= floor


def test_generation_deterministic():
    a = gen_monomial(PointSetSpec(n=999, d=4))
    b = gen_monomial(PointSetSpec(n=999, d=4))
    assert np.array_equal(a.residues, b.residues)
    assert np.array_equal(a.heights(), b.heights())


def test_project_level_examples():
    lp = project_level(5, (2,), (0,), (0,))
    assert lp.pairs == frozenset(
        (Fraction(k, 5), Fraction(k, 5)) for k in range(5)
    )

    lp = project_level(5, (2,), (1,), (0,))
    firsts = {p[0] for p in lp.pairs}
    # the set is generated by 2/5 mod 2, giving exactly five pairs
    assert firsts == {Fraction(0), Fraction(2, 5), Fraction(4, 5), Fraction(6, 5), Fraction(8, 5)}
    assert len(lp.pairs) == 5

    with pytest.raises(NotCoprime):
        project_level(4, (2,), (1,), (0,))


def test_project_level_two_paths_agree():
    for n in (5, 7, 11, 25):
        for places in ((2,), (3,), (2, 3)):
            width = len(places)
            for l in np.ndindex(*([3] * width)):
                for m in np.ndindex(*([3] * width)):
                    a = project_level_stated(n, places, l, m)
                    b = project_level_direct(n, places, l, m)
                    assert a == b, (n, places, l, m)


def test_project_level_pair_counts():
    # the pair set always has exactly n elements (period n in k)
    for n in (5, 7, 11):
        for l, m in [((1,), (0,)), ((2,), (1,)), ((0,), (2,))]:
            lp = project_level(n, (2,), l, m)
            assert len(lp.pairs) == n
