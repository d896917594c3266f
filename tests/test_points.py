"""Tests for point-set generation, invariance under the multiplication
maps, and the finite-level projections."""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from oracles import invariant_by_sorting, reduce, torus_coordinates

from horopoints import arith
from horopoints.arith import Modulus, NotCoprime, mod_inverse, residue_count_formula
from horopoints.points import (
    PointSetSpec,
    PrimeDividesModulus,
    gen_full,
    gen_monomial,
    gen_point_set,
    gen_triple,
    project_level,
    project_level_direct,
    project_level_stated,
    validate_projection,
    verify_invariance,
)


def _surface_points(ps) -> np.ndarray:
    return ps.x_reals() + 1j * ps.scale_height


def _torus1(ps) -> list[Fraction]:
    return [Fraction(int(t), ps.n) for t in ps.torus1_numerators()]


def _torus2(ps) -> list[Fraction]:
    return [Fraction(int(t), ps.n) for t in ps.torus2_numerators()]


def test_gen_full_examples():
    ps = gen_full(1, Fraction(1, 2))
    assert len(ps) == 1 and _surface_points(ps)[0] == 1j

    ps = gen_full(5, Fraction(1, 2))
    assert ps.residues.tolist() == [0, 1, 2, 3, 4]
    ks = np.arange(5)
    assert np.abs(_surface_points(ps) - (ks + 1j) / 5).max() < 1e-15
    assert _torus1(ps) == [Fraction(k, 5) for k in range(5)]

    ps = gen_full(4, Fraction(1))
    assert np.abs(_surface_points(ps) - (np.arange(4) / 4 + 1j / 16)).max() < 1e-16
    assert ps.scale_height == 1 / 16


def test_gen_monomial_examples():
    ps = gen_monomial(PointSetSpec(n=5, d=2))
    assert sorted(str(t) for t in _torus1(ps)) == ["1/5", "4/5"]
    assert len(ps) == 2

    assert len(gen_monomial(PointSetSpec(n=5, d=1))) == 4


def test_spec_multipliers_must_be_units():
    # every generator receives a spec, which refuses a multiplier sharing a
    # factor with n; c counts too, though a pair set does not read it
    for fields in ({"a": 3}, {"b": 2}, {"c": 2}, {"a": 0}):
        with pytest.raises(NotCoprime):
            PointSetSpec(n=6, **fields)
    assert PointSetSpec(n=6, a=5, b=7, c=-1).c == -1
    assert PointSetSpec(n=1, a=0).n == 1


def test_gen_monomial_count_matches_formula():
    for n in range(1, 200):
        mod = Modulus(n)
        for d in (1, 2, 3, 4, 6, 12):
            assert len(gen_monomial(PointSetSpec(n=n, d=d))) == residue_count_formula(mod, d)


def test_gen_monomial_pair_puts_b_on_surface():
    ps = gen_monomial(PointSetSpec(n=7, d=1, a=1, b=3))
    ks = ps.residues
    assert np.abs(ps.x_reals() - (3 * ks % 7) / 7).max() < 1e-15
    assert _torus1(ps) == [Fraction(int(k) % 7, 7) for k in ks]
    assert not ps.with_second
    with pytest.raises(ValueError):
        ps.torus2_numerators()


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
    pairs = {(str(t1), str(t2)) for t1, t2 in zip(_torus1(ps), _torus2(ps))}
    assert pairs == {("1/5", "1/5"), ("2/5", "3/5"), ("3/5", "2/5"), ("4/5", "4/5")}

    ps = gen_triple(PointSetSpec(n=2, d=1))
    assert len(ps) == 1
    assert (_torus1(ps)[0], _torus2(ps)[0]) == (Fraction(1, 2), Fraction(1, 2))
    assert abs(_surface_points(ps)[0] - (1 + 1j) / 2) < 1e-15

    ps = gen_triple(PointSetSpec(n=7, d=3))
    assert sorted(ps.residues.tolist()) == [1, 6]


def test_triple_inverse_structure():
    # reconstructing the residue from torus1 and inverting reproduces torus2,
    # and every coordinate matches the oracle built from the residue alone
    for n in (7, 12, 45):
        for spec in (PointSetSpec(n=n, d=1, a=2 if n % 2 else 1, b=5 if n % 5 else 1),
                     PointSetSpec(n=n, d=2, c=7 if n % 7 else 1)):
            ps = gen_triple(spec)
            zs = _surface_points(ps)
            for i, (k, t1, t2) in enumerate(zip(ps.residues, _torus1(ps), _torus2(ps))):
                r = mod_inverse(spec.a, n) * (t1 * n) % n
                assert r == k % n
                assert t2 == Fraction(spec.b * mod_inverse(int(r), n) % n, n)
                o1, o2, oz = torus_coordinates(ps, i)
                assert (o1, o2) == (t1, t2) and abs(oz - zs[i]) < 1e-15


def test_triple_views_invert_their_own_keys(monkeypatch):
    # a triple set holds no inverses: each view inverts its keys by the
    # table's invert when its second torus is first read, and only then
    monkeypatch.setattr(arith, "BLOCK", 8)
    calls = []
    invert = Modulus.invert
    monkeypatch.setattr(Modulus, "invert", lambda mod, keys: calls.append(len(keys))
                        or invert(mod, keys))
    for n in (7, 45, 101):
        mod = Modulus(n)
        for d in (1, 2):
            ps = gen_triple(PointSetSpec(n=n, d=d), mod)
            assert ps.with_second and calls == []
            for view in ps.blocks():
                view.heights()
                assert calls == []
                t2 = view.torus2_numerators()
                assert view.torus2_numerators() is t2 and calls == [len(view)]
                assert (view.residues * t2 % n == 1 % n).all()
                calls.clear()
        assert "units" not in vars(mod) and "inverses" not in vars(mod)
    assert not any(gen(PointSetSpec(n=7)).with_second
                   for gen in (gen_monomial, lambda spec: gen_full(spec.n, spec.alpha)))


def test_views_refer_to_no_set(monkeypatch):
    # a view holds slices of arrays, so the set it came from can die first
    monkeypatch.setattr(arith, "BLOCK", 4)
    ps = gen_triple(PointSetSpec(n=31, d=2))
    ps.reduced_xy()
    view = next(ps.blocks())
    ref = weakref.ref(ps)
    del ps
    gc.collect()
    assert ref() is None
    assert len(view) == 4 and view.torus2_numerators().size == view.heights().size == 4


def test_views_of_an_unreduced_set_reduce_to_its_slices(monkeypatch):
    monkeypatch.setattr(arith, "BLOCK", 5)
    spec = PointSetSpec(n=101, alpha=Fraction(5, 4), d=2, c=3)
    views = list(gen_triple(spec).blocks())
    xs, ys = gen_triple(spec).reduced_xy()
    lo = 0
    for view in views:
        vx, vy = view.reduced_xy()
        hi = lo + len(view)
        assert vx.tobytes() == xs[lo:hi].tobytes() and vy.tobytes() == ys[lo:hi].tobytes()
        lo = hi
    assert lo == len(xs)


def test_views_compute_their_torus_numerators_once(monkeypatch):
    # a view keeps its numerators, read-only and equal to its slice of the
    # set's; the whole set computes them afresh on each call
    monkeypatch.setattr(arith, "BLOCK", 8)
    ps = gen_triple(PointSetSpec(n=101, d=2, a=3, b=5))
    assert ps.torus1_numerators() is not ps.torus1_numerators()
    for lo, view in zip(range(0, len(ps), 8), ps.blocks()):
        for read, whole in ((view.torus1_numerators, ps.torus1_numerators()),
                            (view.torus2_numerators, ps.torus2_numerators())):
            nums = read()
            assert read() is nums and not nums.flags.writeable
            assert np.array_equal(nums, whole[lo:lo + 8])


def test_verify_invariance_examples():
    assert verify_invariance(Modulus(7), 1, 2)
    with pytest.raises(PrimeDividesModulus):
        verify_invariance(Modulus(9), 1, 3)
    # the degree is checked by the table's residue sets
    with pytest.raises(ValueError, match="d >= 1"):
        verify_invariance(Modulus(7), 0, 2)


def test_triple_reads_a_given_table():
    # with the table of n, the triple set is the one built without one, and
    # a table of another n is refused
    for n, d in ((1, 1), (12, 1), (45, 2), (101, 3)):
        mod = Modulus(n)
        spec = PointSetSpec(n=n, d=d)
        held, bare = gen_triple(spec, mod), gen_triple(spec)
        assert np.array_equal(held.residues, bare.residues)
        assert np.array_equal(held.residues, gen_monomial(spec).residues)
        assert np.array_equal(held.torus2_numerators(), bare.torus2_numerators())
    with pytest.raises(ValueError):
        gen_triple(PointSetSpec(n=12), Modulus(13))


def test_verify_invariance_sweep():
    for n in range(1, 300):
        mod = Modulus(n)
        for p in (2, 3, 5):
            if n % p == 0:
                continue
            for d in (1, 2, 3):
                assert verify_invariance(mod, d, p), (n, p, d)


def test_verify_invariance_matches_the_sorting_oracle():
    for n in range(1, 2001):
        mod = Modulus(n)
        for d in range(1, 5):
            for p in (2, 3, 5, 7):
                if n % p:
                    want = invariant_by_sorting(mod.residues(d), pow(p, 2 * d, n), n)
                    assert verify_invariance(mod, d, p) is want, (n, p, d)
                else:
                    with pytest.raises(PrimeDividesModulus):
                        verify_invariance(mod, d, p)


class _PlantedTable:
    """A stand-in for the table of n whose residue sets are given, not computed."""

    def __init__(self, n, residues):
        self.n = n
        self.planted = np.array(residues, dtype=np.int64)

    def residues(self, d):
        return self.planted


@pytest.mark.parametrize("n, residues, p, d, invariant", [
    (7, [1, 2], 2, 1, False),          # 2^2 = 4 maps {1, 2} onto {4, 1}
    (13, [1, 3, 5, 9], 3, 1, False),   # 3^2 = 9: three keys stay inside, 5 -> 6 leaves
    (13, [1, 3, 9], 5, 1, False),      # 5^2 = 12 = -1 moves every key out
    (13, [1, 3, 9], 3, 1, True),       # 9 permutes the cube roots of unity
    (7, [1, 2, 4], 2, 2, True),        # 2^4 = 2 permutes the squares
])
def test_verify_invariance_on_a_planted_residue_set(n, residues, p, d, invariant):
    table = _PlantedTable(n, residues)
    assert verify_invariance(table, d, p) is invariant
    assert invariant_by_sorting(table.planted, pow(p, 2 * d, n), n) is invariant


def test_high_alpha_heights():
    # alpha > 1: every primitive point sits above n^(2 alpha - 2) in the cusp
    for alpha in (Fraction(5, 4), Fraction(3, 2)):
        exponent = 2 * float(alpha) - 2
        for n in (50, 101):
            spec = PointSetSpec(n=n, alpha=alpha, d=1)
            ps = gen_monomial(spec)
            floor = float(n) ** exponent * (1 - 1e-6)
            assert (ps.heights() >= floor).all()
            assert reduce(_surface_points(ps)[0]).height >= floor


def test_generation_deterministic():
    a = gen_monomial(PointSetSpec(n=999, d=4))
    b = gen_monomial(PointSetSpec(n=999, d=4))
    assert np.array_equal(a.residues, b.residues)
    assert np.array_equal(a.heights(), b.heights())


def test_project_level_examples():
    pairs = project_level(5, (2,), (0,), (0,))
    assert pairs == frozenset(
        (Fraction(k, 5), Fraction(k, 5)) for k in range(5)
    )

    pairs = project_level(5, (2,), (1,), (0,))
    firsts = {p[0] for p in pairs}
    # the set is generated by 2/5 mod 2, giving exactly five pairs
    assert firsts == {Fraction(0), Fraction(2, 5), Fraction(4, 5), Fraction(6, 5), Fraction(8, 5)}
    assert len(pairs) == 5

    with pytest.raises(NotCoprime):
        project_level(4, (2,), (1,), (0,))


@pytest.mark.parametrize("path", [project_level, project_level_stated, project_level_direct])
def test_projection_cases_are_validated_by_both_paths(path):
    # 4 is coprime to 7 but not a place: both paths once gave 7 pairs for it
    for n, places, l, m in ((7, (4,), (1,), (0,)), (7, (1,), (0,), (0,)),
                            (7, (2,), (1, 0), (0,)), (7, (2,), (-1,), (0,)),
                            (0, (2,), (1,), (0,))):
        with pytest.raises(ValueError):
            path(n, places, l, m)
    assert validate_projection(7, [2, 3], [1, 0], [0, 2]) == ((2, 3), (1, 0), (0, 2))


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
            assert len(project_level(n, (2,), l, m)) == n
