"""Tests for averages, sum identities, the discrepancy operator, and rate
estimation."""

import cmath
import gc
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import discrepancy_l2_reference, weyl_sum_full, weyl_sums_all_residues

from horopoints import arith
from horopoints.arith import Modulus, kloosterman_sum, weil_bound, weyl_means
from horopoints.observables import AutomorphicKernel, HeightBand, Product, TorusChar, TwoTorusChar
from horopoints.points import (
    PointSet,
    PointSetSpec,
    gen_full,
    gen_monomial,
    gen_point_set,
    gen_triple,
)
from horopoints.stats import (
    EmptySet,
    InsufficientData,
    NoPrimesAvailable,
    NotExpanding,
    PairwiseMean,
    cusp_mass,
    discrepancy_l2,
    empirical_average,
    rate_fit,
    subset_averages,
    toral_correlation,
)


def _empty_set() -> PointSet:
    return PointSet(PointSetSpec(n=5), np.empty(0, dtype=np.int64), x_mult=1)


def test_empirical_average_examples():
    ps = gen_full(12, Fraction(1, 2))
    assert empirical_average(ps, TorusChar(0)) == 1.0
    # geometric sum: 1 if n | m else 0
    assert abs(empirical_average(ps, TorusChar(24)) - 1.0) < 1e-12
    assert abs(empirical_average(ps, TorusChar(5))) < 1e-12

    ps = gen_triple(PointSetSpec(n=5, d=1))
    emp = empirical_average(ps, TwoTorusChar(1, 1))
    assert abs(emp - kloosterman_sum(1, 1, Modulus(5)) / 4) < 1e-12
    assert abs(emp - 0.09549150281252627) < 1e-9

    with pytest.raises(EmptySet):
        empirical_average(_empty_set(), TorusChar(1))


def test_empirical_average_permutation_stable():
    ps = gen_triple(PointSetSpec(n=997, d=1))
    obs = TwoTorusChar(1, 2)
    base = empirical_average(ps, obs)
    residues = ps.residues.copy()
    rng = np.random.default_rng(3)
    for _ in range(3):
        rng.shuffle(residues)
        shuffled = PointSet(ps.spec, residues.copy(), ps.x_mult, table=Modulus(ps.n),
                            with_second=True)
        assert abs(empirical_average(shuffled, obs) - base) < 1e-12


_BLOCKED_N = 100003  # 7 blocks of units


def _blocked_cases():
    kernels = (AutomorphicKernel(1.0, "smooth"), AutomorphicKernel(2.0, "indicator"))
    for d in (1, 2):
        spec = PointSetSpec(n=_BLOCKED_N, d=d, b=3)
        for obs in (TorusChar(5), *kernels, HeightBand(1.5),
                    Product((TorusChar(1), kernels[0]))):
            yield pytest.param(gen_monomial, spec, obs, id=f"monomial-d{d}-{obs.describe()}")
        for obs in (TwoTorusChar(1, -1), Product((TwoTorusChar(2, 1), kernels[1]))):
            yield pytest.param(gen_triple, replace(spec, b=1, c=2), obs,
                               id=f"triple-d{d}-{obs.describe()}")
    # the deep set takes the most inversion rounds; its exact heights are all sqrt(n)
    band = HeightBand(_BLOCKED_N ** 0.5)
    yield pytest.param(gen_monomial, PointSetSpec(n=_BLOCKED_N, alpha=Fraction(5, 4)), band,
                       id=f"monomial-alpha5/4-{band.describe()}")


@pytest.mark.numpy_tree
@pytest.mark.parametrize("gen, spec, obs", list(_blocked_cases()))
def test_blocked_average_is_bit_identical_to_the_whole_array(gen, spec, obs, monkeypatch):
    ps = gen(spec)
    assert len(ps) > 2 * arith.BLOCK
    got = empirical_average(ps, obs)
    # the whole set as one block, evaluated by one eval_many and one mean
    monkeypatch.setattr(arith, "BLOCK", len(ps))
    whole = gen(spec)
    want = complex(np.asarray(obs.eval_many(whole), dtype=complex).mean())
    assert repr(got) == repr(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ps.reduced_xy(), whole.reduced_xy()))


@dataclass(frozen=True, eq=False)
class _Lookup:
    """A test double of an observable: the value at a point is values[key]."""

    values: np.ndarray

    def _slots(self):
        return {"t1"}

    def eval_many(self, ps: PointSet) -> np.ndarray:
        return self.values[ps.residues]


def _wide_values(length: int) -> np.ndarray:
    """Complex values whose parts have magnitudes across 1e-8..1e8 and
    either sign, so the order of their additions shows in the last bits."""
    rng = np.random.default_rng(length)
    parts = 10.0 ** rng.uniform(-8.0, 8.0, size=(2, length))
    parts *= rng.choice([-1.0, 1.0], size=(2, length))
    return parts[0] + 1j * parts[1]


_PRIME_NEAR_1E6 = 999983


# around numpy's split rule: one point past a leaf, two leaves and 7 over,
# a length with m % 8 != 0 whose first split is not a multiple of BLOCK,
# and a prime near 1e6 (a tree six levels deep)
@pytest.mark.numpy_tree
@pytest.mark.parametrize("length", [arith.BLOCK + 1, 2 * arith.BLOCK + 7,
                                    5 * arith.BLOCK + 3, _PRIME_NEAR_1E6])
def test_tree_walk_is_bit_identical_to_mean(length):
    values = _wide_values(length)
    ps = PointSet(PointSetSpec(n=1000003), np.arange(length, dtype=np.int64), x_mult=1)
    assert length % 8 != 0
    assert repr(empirical_average(ps, _Lookup(values))) == repr(complex(values.mean()))


@pytest.mark.numpy_tree
def test_tree_walk_with_blocks_below_numpys_unsplit_node(monkeypatch):
    # numpy adds a node of up to 64 values unsplit, so smaller blocks may not
    # split it either
    monkeypatch.setattr(arith, "BLOCK", 8)
    values = _wide_values(1003)
    ps = PointSet(PointSetSpec(n=1009), np.arange(len(values), dtype=np.int64), x_mult=1)
    assert repr(empirical_average(ps, _Lookup(values))) == repr(complex(values.mean()))


_ACCUMULATOR_LENGTHS = [1, 7, 8, 63, 64, 65, 127, 128, 129, arith.BLOCK - 1, arith.BLOCK,
                        arith.BLOCK + 1, 3 * arith.BLOCK + 5]


def _chunked_means(values: np.ndarray, seed: int):
    """The accumulator's mean of values fed in chunks of random sizes, from
    empty to past a leaf, for three bounds on the chunk size."""
    rng = np.random.default_rng(seed)
    for top in (3, 70, 2 * arith.BLOCK):
        acc, lo = PairwiseMean(len(values)), 0
        while lo < len(values):
            hi = lo + int(rng.integers(0, top + 1))
            acc.add(values[lo:hi])
            lo = hi
        yield top, acc.mean()


@pytest.mark.numpy_tree
@pytest.mark.parametrize("length", _ACCUMULATOR_LENGTHS)
def test_accumulator_in_any_chunks_is_bit_identical_to_mean(length):
    # the chunks straddle the leaves
    values = _wide_values(length)
    want = repr(complex(values.mean()))
    for top, mean in _chunked_means(values, length + 1):
        assert repr(mean) == want, top
    # real values are held as they come and made complex one leaf at a time
    acc = PairwiseMean(length)
    for lo in range(0, length, 100):
        acc.add(values.real[lo:lo + 100].copy())
    assert repr(acc.mean()) == repr(complex(values.real.astype(complex).mean()))


@pytest.mark.numpy_tree
@pytest.mark.parametrize("length", [1003, 4099])
def test_accumulator_with_leaves_below_numpys_unsplit_node(monkeypatch, length):
    # blocks of 8 make leaves of numpy's unsplit 64, so the tree above them
    # is many levels deep and its order of additions shows in the last bits
    monkeypatch.setattr(arith, "BLOCK", 8)
    values = _wide_values(length)
    for top, mean in _chunked_means(values, length):
        assert repr(mean) == repr(complex(values.mean())), top


@pytest.mark.numpy_tree
def test_accumulator_takes_exactly_its_length():
    acc = PairwiseMean(3)
    acc.add(np.ones(2))
    with pytest.raises(ValueError, match="fewer"):
        acc.mean()
    with pytest.raises(ValueError, match="more"):
        acc.add(np.ones(2))
    with pytest.raises(EmptySet):
        PairwiseMean(0)


def _walk_observables(variant):
    kernel = AutomorphicKernel(1.0, "smooth")
    # the product shares its kernel with the bare one
    if variant == "triple":
        return [TwoTorusChar(1, -1), kernel, Product((TwoTorusChar(2, 1), kernel)),
                HeightBand(1.5)]
    return [TorusChar(3), kernel, Product((TorusChar(1), kernel)), HeightBand(1.5)]


_WALK_SPECS = {"full": PointSetSpec(n=1), "monomial": PointSetSpec(n=1, b=3),
               "triple": PointSetSpec(n=1, a=2, c=3)}


def _walk_cases():
    for variant in ("monomial", "triple"):
        for d_values in ([1, 2], [2, 3], [1, 2, 3, 4]):
            yield variant, d_values
    yield "full", [1]


@pytest.mark.numpy_tree
@pytest.mark.parametrize("block", [3, 64, 100])
@pytest.mark.parametrize("variant, d_values", list(_walk_cases()))
def test_subset_walk_is_bit_identical(monkeypatch, block, variant, d_values):
    # each d-set is the subset of the set of the gcd g whose keys are
    # (d/g)-th powers; its averages in the shared walk, whose subset leaves
    # straddle the walked set's leaves, are those of the d-set alone
    monkeypatch.setattr(arith, "BLOCK", block)
    observables = _walk_observables(variant)
    g = gcd(*d_values)
    for n in (1729, 2017):
        spec = replace(_WALK_SPECS[variant], n=n)
        ps = gen_point_set(replace(spec, d=g), variant)
        masks = [None if d == g else arith.power_mask([ps.residues], d // g, n)
                 for d in d_values]
        got = subset_averages(ps, observables, masks)
        for d, per_obs in zip(d_values, got):
            alone = gen_point_set(replace(spec, d=d), variant)
            assert [repr(z) for z in per_obs] == \
                [repr(empirical_average(alone, obs)) for obs in observables], (n, d)


@pytest.mark.numpy_tree
def test_subset_walk_evaluates_each_distinct_factor_once_per_leaf(monkeypatch):
    monkeypatch.setattr(arith, "BLOCK", 100)
    ps = gen_monomial(PointSetSpec(n=2017))
    calls = []

    def evaluate(factor, view):
        calls.append((factor.describe(), len(view)))
        return factor.eval_many(view)

    mask = arith.power_mask([ps.residues], 2, ps.n)
    subset_averages(ps, _walk_observables("monomial"), [None, mask], evaluate)
    # torus_char(m=3), the kernel, torus_char(m=1) and the band, per leaf of
    # at most 100 points; the product reads the bare kernel's values
    factors = ["torus_char(m=3)", "kernel(R=1.0,smooth)", "torus_char(m=1)",
               "height_band(1.5,inf)"]
    leaves = [calls[i:i + 4] for i in range(0, len(calls), 4)]
    assert all([name for name, _ in leaf] == factors for leaf in leaves)
    assert all(len({size for _, size in leaf}) == 1 for leaf in leaves)
    sizes = [leaf[0][1] for leaf in leaves]
    assert sum(sizes) == len(ps) == 2016 and max(sizes) <= 100


@pytest.mark.numpy_tree
def test_subset_walk_refuses_a_mask_beyond_the_set():
    ps = gen_monomial(PointSetSpec(n=2017, d=2))
    beyond = np.zeros(ps.n, dtype=bool)
    beyond[[1, 5]] = True  # 5 is not a square mod 2017
    with pytest.raises(ValueError, match="fewer"):
        subset_averages(ps, [TorusChar(1)], [beyond])


def test_average_leaves_no_cycle_holding_the_set():
    # the set dies when its holder drops it, without waiting for the cycle
    # collector, so an equidist run frees it before the next n
    gc.disable()
    try:
        ps = gen_monomial(PointSetSpec(n=_BLOCKED_N))
        ref = weakref.ref(ps)
        empirical_average(ps, Product((TorusChar(1), AutomorphicKernel(1.0, "smooth"))))
        del ps
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.numpy_tree
def test_summing_block_sums_in_a_row_is_not_mean():
    # what the tree walk guards against: the same leaves added left to right
    values = _wide_values(_PRIME_NEAR_1E6)
    in_a_row = sum(np.add.reduce(values[lo:lo + arith.BLOCK])
                   for lo in range(0, len(values), arith.BLOCK))
    assert complex(in_a_row / len(values)) != complex(values.mean())


def test_average_is_the_same_before_and_after_the_set_is_reduced(monkeypatch):
    # each leaf view reduces its own points, whether or not the caller
    # reduced the set first, so that does not move a bit
    monkeypatch.setattr(arith, "BLOCK", 1000)
    spec = PointSetSpec(n=10007, d=2, c=3)
    for obs in (AutomorphicKernel(1.0, "smooth"), Product((TwoTorusChar(1, 2),
                                                           HeightBand(1.5)))):
        ps = gen_triple(spec)
        before = empirical_average(ps, obs)
        fresh = gen_triple(spec)
        fresh.reduced_xy()
        assert repr(empirical_average(fresh, obs)) == repr(before)
        assert repr(empirical_average(ps, obs)) == repr(before)


def brute_kloosterman(m1, m2, n):
    total = 0j
    for k in range(n):
        if gcd(k, n) == 1:
            kbar = pow(k, -1, n) if n > 1 else 0
            total += cmath.exp(2j * cmath.pi * ((m1 * k + m2 * kbar) % n) / n)
    return total


def _kloosterman_average(n, m1, m2):
    # the two-torus character averaged over the triple set, as criterion c01 takes it
    return empirical_average(gen_triple(PointSetSpec(n=n)), TwoTorusChar(m1, m2))


@st.composite
def _modulus_and_frequencies(draw):
    n = draw(st.integers(1, 3000))
    freq = st.integers(-2 * n, 2 * n)
    return n, draw(freq), draw(freq)


@settings(deadline=None)
@given(_modulus_and_frequencies())
@example((1, 0, 0))
@example((1, 2, -1))
@example((12, 0, 0))
@example((30, 6, -60))
def test_kloosterman_average_two_paths(case):
    # the triple-set average against the exponential-sum definition
    n, m1, m2 = case
    mod = Modulus(n)
    phi = mod.phi
    avg = _kloosterman_average(n, m1, m2)
    assert abs(avg * phi - kloosterman_sum(m1, m2, mod)) <= 1e-9
    if n <= 200:
        assert abs(avg * phi - brute_kloosterman(m1, m2, n)) <= 1e-9
    if (m1, m2) != (0, 0):
        assert abs(avg) <= weil_bound(m1, m2, mod) / phi + 1e-9


def test_kloosterman_average_examples():
    assert abs(_kloosterman_average(5, 1, 1) - 0.09549150281252627) < 1e-9
    assert _kloosterman_average(17, 0, 0) == 1.0
    assert abs(_kloosterman_average(6, 1, 0) - 0.5) < 1e-12


def test_weyl_sum_closed_form():
    assert abs(weyl_means(Modulus(6))[2]) < 1e-12
    assert abs(weyl_means(Modulus(6))[6] - 1.0) < 1e-12
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 2000))
        m = int(rng.integers(-2 * n, 2 * n + 1))
        val = weyl_means(Modulus(n))[gcd(m, n)]
        expected = 1.0 if m % n == 0 else 0.0
        assert abs(val - expected) <= 1e-10, (n, m)


def test_weyl_bulk_matches_scalar():
    rng = np.random.default_rng(29)
    for n in (1, 2, 17, 240, 1009):
        means = weyl_means(Modulus(n))
        for m in rng.integers(-2 * n, 2 * n + 1, size=8):
            assert abs(means[gcd(int(m), n)] - weyl_sum_full(n, int(m))) <= 1e-10


def test_weyl_means_are_one_per_divisor():
    # the divisors are those of n from its factorization, each once
    for n in (1, 12, 64, 360, 1009, 9240):
        assert sorted(weyl_means(Modulus(n))) == [g for g in range(1, n + 1) if n % g == 0]


def test_weyl_divisor_mean_matches_the_fft_at_every_frequency():
    # the sum of m, read at gcd(m, n) (gcd(0, n) = n), against the FFT of the
    # all-ones vector at m, for every residue m of every n <= 300
    for n in range(1, 301):
        means = weyl_means(Modulus(n))
        fft = weyl_sums_all_residues(n)
        for m in range(n):
            assert abs(means[gcd(m, n)] - fft[m]) <= 1e-12, (n, m)


def test_toral_correlation_rule():
    assert toral_correlation([[2]], [3], [6]) == 1.0
    assert toral_correlation([[2]], [3], [5]) == 0.0
    assert toral_correlation([[3, 1], [1, 2]], [1, 0], [3, 1]) == 1.0
    assert toral_correlation([[3, 1], [1, 2]], [1, 0], [3, 2]) == 0.0
    with pytest.raises(NotExpanding):
        toral_correlation([[1, 0], [0, 2]], [1, 0], [1, 0])
    with pytest.raises(NotExpanding):
        toral_correlation([[1]], [1], [1])


def _grid_correlation(A, m_in, m_out, L=512):
    """Quadrature oracle: <e_{m_in} o T_A, e_{m_out}> on an exact L^d grid."""
    A = np.atleast_2d(np.asarray(A))
    dim = A.shape[0]
    axes = [np.arange(L) / L for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.ravel() for m in mesh])  # dim x L^dim
    fin = np.exp(2j * np.pi * (np.asarray(m_in) @ (A @ xs)))
    fout = np.exp(2j * np.pi * (np.asarray(m_out) @ xs))
    return (fin * np.conj(fout)).mean()


def test_toral_correlation_against_grid_quadrature():
    # grid sums of characters are exact below the alias frequency
    rng = np.random.default_rng(57)
    checked = 0
    while checked < 60:
        A = rng.integers(-10, 11, size=(2, 2))
        eig = np.linalg.eigvals(A.astype(float))
        if not (np.abs(eig) > 1.0 + 1e-9).all():
            continue
        m_in = rng.integers(-10, 11, size=2)
        m_out = rng.integers(-10, 11, size=2)
        got = toral_correlation(A, m_in, m_out)
        oracle = _grid_correlation(A, m_in, m_out)
        assert abs(got - oracle) < 1e-9, (A, m_in, m_out)
        checked += 1


def test_discrepancy_examples():
    res = discrepancy_l2(100, 0.4)
    assert res.prime_count == 1 and res.l2_value == 1.0

    res = discrepancy_l2(1009, 0.2)  # primes below 1009^0.2 ~ 3.99: {2, 3}
    assert res.prime_count == 2 and abs(res.l2_value - 0.5) < 1e-15

    with pytest.raises(ValueError):
        discrepancy_l2(100, 0.6)
    with pytest.raises(NoPrimesAvailable):
        discrepancy_l2(6, 0.3)  # 6^0.3 < 2


def test_discrepancy_matches_closed_form_and_shrinks():
    values = []
    for n in (1003, 10003, 100003, 1000003):
        res = discrepancy_l2(n, 0.4)
        assert abs(res.l2_value - res.closed_form) < 1e-9
        assert abs(res.l2_value - 1.0 / res.prime_count) < 1e-15
        values.append(res.l2_value)
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [101, 1003, 1009, 10007, 100003, 1000003])
def test_discrepancy_equals_the_frequency_multiset(n):
    # c10's four primes, a small prime and a composite: the multiset of the
    # frequencies m * p^(2d) gives the same float, whatever d and m are
    for beta in (0.2, 0.4):
        res = discrepancy_l2(n, beta)
        for d in (1, 2, 7):
            for m in (1, -1, 5):
                assert res.l2_value == discrepancy_l2_reference(n, beta, d, m), (beta, d, m)
                assert res.closed_form == res.l2_value == 1.0 / res.prime_count


def test_rate_fit():
    ns = [10, 100, 1000, 10000]
    kappa, resid = rate_fit(ns, [n ** -0.5 for n in ns])
    assert abs(kappa - 0.5) < 1e-12 and resid < 1e-12

    kappa, resid = rate_fit(ns, [0.37] * 4)
    assert abs(kappa) < 1e-12

    rng = np.random.default_rng(101)
    errs = [3.0 * n ** -0.3 * (1 + rng.uniform(-0.01, 0.01)) for n in ns]
    kappa, resid = rate_fit(ns, errs)
    assert 0.28 <= kappa <= 0.32

    with pytest.raises(InsufficientData):
        rate_fit([10, 100], [0.1, 0.01])
    with pytest.raises(InsufficientData):
        rate_fit(ns, [0.0, 0.0, 1e-16, 0.0])


def test_cusp_mass_examples():
    ps = gen_full(2, Fraction(1, 2))  # heights {2, 1}
    assert cusp_mass(ps, [1.5, 0.5]) == ([0.5, 1.0], 1.0)
    with pytest.raises(EmptySet):
        cusp_mass(_empty_set(), [1.0])


def test_cusp_mass_high_alpha():
    ps = gen_monomial(PointSetSpec(n=401, alpha=Fraction(5, 4), d=1))
    assert cusp_mass(ps, [10.0])[0] == [1.0]


def _cusp_mass_cases():
    # with BLOCK = 64, full sets of 127 to 129 points and of 1000, and at the
    # shipped BLOCK a monomial set of 32770 points, 2 above 2 * BLOCK
    for alpha in (Fraction(1, 2), Fraction(5, 4)):
        for n in (127, 128, 129, 1000):
            yield pytest.param(64, lambda n=n, alpha=alpha: gen_full(n, alpha),
                               id=f"full-{n}-alpha{alpha}")
        yield pytest.param(arith.BLOCK, lambda alpha=alpha: gen_monomial(
            PointSetSpec(n=32771, alpha=alpha)), id=f"monomial-32771-alpha{alpha}")


@pytest.mark.numpy_tree
@pytest.mark.parametrize("block, make", list(_cusp_mass_cases()))
def test_cusp_mass_is_the_whole_bool_mean(monkeypatch, block, make):
    # each share is numpy's mean() of the whole bool array h > T, bit for
    # bit: it sums the bools as doubles, exactly, and divides by the length
    monkeypatch.setattr(arith, "BLOCK", block)
    h = make().reduced_xy()[1]
    thresholds = [*np.random.default_rng(len(h)).choice(h, 6), h.min(), h.max(), 1.0]
    shares, lowest = cusp_mass(make(), thresholds)
    assert [share.hex() for share in shares] == \
        [float((h > T).mean()).hex() for T in thresholds]
    assert lowest == h.min()
