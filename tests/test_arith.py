"""Unit tests for the arithmetic layer.

Expected values are frozen from independent brute-force oracles defined in
this file (divisor scans, residue scans, direct summation); the library code
under test never computes its own expectations.
"""

import cmath
from math import ceil, gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import kloosterman_sum_reference, mask_sieve_units, moebius_mu, ramanujan_sum

from horopoints import arith
from horopoints.arith import (
    Modulus,
    NotCoprime,
    factorize,
    is_prime,
    kloosterman_sum,
    mod_inverse,
    next_prime,
    powmod,
    primes_coprime,
    residue_count_formula,
    totient,
    weil_bound,
)


# ---------------------------------------------------------------------------
# oracles

def brute_gcd(a, b):
    if a == b == 0:
        return 0
    best = 1
    for d in range(1, min(x for x in (a, b) if x) + 1):
        if a % d == 0 and b % d == 0:
            best = d
    return best


def brute_totient(n):
    return sum(1 for k in range(n) if gcd(k, n) == 1) if n > 1 else 1


def brute_factorize(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_residues(n, d):
    return {pow(k, d, n) for k in range(n) if gcd(k, n) == 1}


def brute_ramanujan(n, m):
    return sum(cmath.exp(2j * cmath.pi * m * k / n) for k in range(n) if gcd(k, n) == 1)


def brute_kloosterman(m1, m2, n):
    total = 0j
    for k in range(n):
        if gcd(k, n) == 1:
            kbar = pow(k, -1, n) if n > 1 else 0
            total += cmath.exp(2j * cmath.pi * ((m1 * k + m2 * kbar) % n) / n)
    return total


def gcd_scan_units(n):
    # one np.gcd per residue
    ks = np.arange(n, dtype=np.int64)
    return ks[np.gcd(ks, n) == 1]


def unique_residue_array(n, d):
    # the earlier bulk residue set: powers of the gcd-scan units, np.unique
    return np.unique(powmod(gcd_scan_units(n), d, n))


def _assert_same_sorted_int64(got, want, key):
    assert got.dtype == np.int64, key
    assert np.array_equal(got, want), key
    assert (np.diff(got) > 0).all(), key


# ---------------------------------------------------------------------------

def test_gcd_examples():
    assert gcd(0, 7) == 7
    assert gcd(12, 18) == 6 == brute_gcd(12, 18)
    assert gcd(35, 64) == 1 == brute_gcd(35, 64)
    assert gcd(0, 0) == 0


def test_mod_inverse_examples():
    # scan oracle for 3 mod 7
    assert [x for x in range(7) if 3 * x % 7 == 1] == [5]
    assert mod_inverse(3, 7) == 5
    for n in (2, 5, 17, 100):
        assert mod_inverse(1, n) == 1
    with pytest.raises(NotCoprime):
        mod_inverse(2, 4)


def test_mod_inverse_involution():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 5000))
        k = int(rng.integers(1, n))
        if gcd(k, n) != 1:
            continue
        kbar = mod_inverse(k, n)
        assert 0 <= kbar < n
        assert k * kbar % n == 1
        assert mod_inverse(kbar, n) == k % n


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4 == brute_totient(12)
    assert totient(49) == 42 == brute_totient(49)


def test_totient_brute_force_sweep():
    # full comparison against the coprime count up to 10^4
    for n in range(1, 10_001):
        ks = np.arange(n, dtype=np.int64)
        expected = int((np.gcd(ks, n) == 1).sum()) if n > 1 else 1
        assert totient(n) == expected, n


def test_factorize_and_divisors():
    assert factorize(1) == {}
    assert factorize(9973 * 9973) == {9973: 2}
    assert factorize(2 ** 10 * 3 ** 4 * 101) == {2: 10, 3: 4, 101: 1}
    # the largest n in the domain, a semiprime of two primes near its root
    # and a power of two; 10^7-scale semiprimes lie beyond the domain
    assert factorize(2 ** 31 - 1) == {2 ** 31 - 1: 1}
    assert factorize(46327 * 46337) == {46327: 1, 46337: 1}
    assert factorize(2 ** 30) == {2: 30}
    for n in (10_000_019 * 10_000_079, 2 ** 31, 0):
        with pytest.raises(ValueError):
            factorize(n)
    assert Modulus(12).tau == 6


def test_next_prime_and_is_prime():
    assert [next_prime(10 ** k) for k in (3, 4, 5, 6)] == [1009, 10007, 100003, 1000003]
    assert is_prime(2) and is_prime(1000003) and not is_prime(1000001)


def test_primes_coprime_examples():
    assert primes_coprime(6, 10) == (5, 7)
    assert primes_coprime(1, 10) == (2, 3, 5, 7)
    assert primes_coprime(30, 2) == ()
    assert primes_coprime(100, 6.31) == (3,)
    # Python ints, so p^(2d) is exact beyond int64
    p = primes_coprime(1, 100)[-1]
    assert type(p) is int and p ** 12 == 97 ** 12 > 2 ** 63


def test_units_and_inverses():
    for n in (1, 2, 7, 12, 360):
        mod = Modulus(n)
        u = mod.units
        assert len(u) == totient(n) == mod.phi
        ub = mod.inverses
        assert (u * ub % n == (1 % n)).all()
        # the kept inverses of the units are those that invert computes
        assert mod.inverses is ub
        assert np.array_equal(mod.invert(u), ub)
        # the table's arrays are shared by its readers, so nobody may write them
        assert not (u.flags.writeable or ub.flags.writeable or mod.roots.flags.writeable
                    or mod.residues(2).flags.writeable)


@pytest.mark.parametrize("n", [1, 7, arith.BLOCK, arith.BLOCK + 1, 3 * arith.BLOCK + 5])
def test_root_table_filled_by_blocks_is_one_call_over_all_phases(n):
    # the table is filled one block of phases at a time, with the bits of one
    # roots_of_unity call over [0, n)
    want = arith.roots_of_unity(np.arange(n), n)
    assert np.array_equal(Modulus(n).roots.view(np.uint64), want.view(np.uint64))


def test_units_match_gcd_scan_oracle():
    for n in range(1, 2001):
        _assert_same_sorted_int64(Modulus(n).units, gcd_scan_units(n), n)


def test_residue_array_matches_unique_oracle():
    for n in range(1, 2001):
        mod = Modulus(n)
        for d in (1, 2, 3, 4, 6, 12):
            _assert_same_sorted_int64(mod.residues(d), unique_residue_array(n, d), (n, d))


@pytest.mark.parametrize("n", [10007, 100003, 1000003])
def test_unit_and_residue_sets_match_oracle_at_large_primes(n):
    mod = Modulus(n)
    _assert_same_sorted_int64(mod.units, gcd_scan_units(n), n)
    for d in (1, 2):
        _assert_same_sorted_int64(mod.residues(d), unique_residue_array(n, d), (n, d))


@pytest.mark.parametrize("n", [100003, 255255])
def test_residue_sets_of_several_blocks_match_unique_oracle(n):
    # 255255 = 3*5*7*11*13*17: 92160 units, six blocks
    mod = Modulus(n)
    assert len(mod.units) > 2 * arith.BLOCK
    for d in (2, 3, 4, 6):
        _assert_same_sorted_int64(mod.residues(d), unique_residue_array(n, d), (n, d))


@pytest.mark.parametrize("n", [1729, 2017, 255255])
def test_power_mask_marks_the_residue_sets(n):
    # the d-th powers are the (d/g)-th powers of the degree-g set, so the mask
    # of the degree-g keys marks the degree-d set, a subset of them
    mod = Modulus(n)
    for g, d in ((1, 2), (1, 6), (2, 4), (2, 6), (3, 6)):
        mask = arith.power_mask([mod.residues(g)], d // g, n)
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(np.flatnonzero(mask), mod.residues(d)), (g, d)
        assert mask[mod.residues(g)].sum() == len(mod.residues(d))


# one-segment, empty, prime-power, squarefree and seven-prime moduli, and
# random primes, some of several segments of arith.BLOCK values
_SIEVED_MODULI = st.one_of(st.sampled_from([1, 2, 2 ** 20, 997 ** 2, 999999, 510510]),
                           st.integers(2, 2 * 10 ** 6).map(next_prime))


@settings(deadline=None, max_examples=25)
@given(n=_SIEVED_MODULI, cuts=st.lists(st.floats(0, 1), min_size=2, max_size=2),
       d=st.integers(2, 6))
@example(n=999999, cuts=[0.3, 0.7], d=2)
def test_segment_sieve_matches_the_mask_sieve(n, cuts, d):
    # the unit ranges, at cuts of [0, phi) that fall anywhere in a segment,
    # the inverses and the residue sets, all sieved before the whole units
    # are built, and the units have the bytes of those read from one n-byte
    # mask; once the units are built, a range is a slice of them
    want = mask_sieve_units(n)
    mod = Modulus(n)
    lo, hi = sorted(int(c * mod.phi) for c in cuts)
    assert mod.unit_range(lo, hi).tobytes() == want[lo:hi].tobytes(), (lo, hi)
    # the inverse of a unit is the one unit that inverts it
    inv = mod.inverses
    assert (want * inv % n == 1 % n).all() and np.sort(inv).tobytes() == want.tobytes()
    assert mod.residues(d).tobytes() == np.unique(powmod(want, d, n)).tobytes()
    assert "units" not in vars(mod)
    assert mod.units.tobytes() == want.tobytes()
    assert mod.unit_range(lo, hi).tobytes() == want[lo:hi].tobytes()


def test_segment_sieve_cuts_at_and_across_segment_bounds():
    # 2^20 has 64 segments of 8192 units each; 510510 = 2*3*5*7*11*13*17
    # has 92160 units over 32 segments
    for n in (2 ** 20, 510510):
        want, mod = mask_sieve_units(n), Modulus(n)
        b = arith.BLOCK
        for lo, hi in ((0, 0), (0, 1), (b - 1, b + 1), (b // 2, 3 * b // 2 + 7),
                       (mod.phi - 1, mod.phi), (mod.phi, mod.phi), (0, mod.phi)):
            assert mod.unit_range(lo, hi).tobytes() == want[lo:hi].tobytes(), (n, lo, hi)


def test_primes_and_factors_near_one_million_match_brute_force():
    primes = arith.primes_upto(1_000_000)
    assert primes.dtype == np.int64 and len(primes) == 78498 and primes[-1] == 999983
    # the sieve is sized to x: every prime below x and none at it
    for x in (0, 2, 2.5, 3, 10, 10.5, 97, 97.0001, 1000):
        assert arith.primes_upto(x).tolist() == [
            p for p in range(2, ceil(x)) if brute_factorize(p) == {p: 1}], x
    for m in [*range(999_900, 1_000_001), 2 ** 19, 997 * 991]:
        got = factorize(m)
        assert got == brute_factorize(m), m
        assert all(type(p) is int for p in got), m


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 2 ** 31 - 1))
@example(n=1)
@example(n=2 ** 31 - 1)
@example(n=46327 * 46337)
def test_factorize_is_an_ascending_prime_factorization(n):
    got = factorize(n)
    assert list(got) == sorted(got)
    assert all(is_prime(p) and e >= 1 for p, e in got.items())
    product = 1
    for p, e in got.items():
        product *= p ** e
    assert product == n


def test_bulk_paths_reject_moduli_beyond_int64():
    for n in ((1 << 31) + 11, 1 << 31, 0, -5):
        with pytest.raises(ValueError):
            Modulus(n)
    with pytest.raises(ValueError):
        powmod(np.arange(3), 2, 1 << 31)


# 0, 1, every power of two and one less below 2^32, and the rest below 2^31
_EXPONENTS = st.one_of(
    st.sampled_from([0, 1, *(2 ** k for k in range(32)), *(2 ** k - 1 for k in range(2, 33))]),
    st.integers(0, 2 ** 31 - 1))


@settings(deadline=None, max_examples=300)
@given(base=st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), min_size=1, max_size=8),
       exp=_EXPONENTS,
       n=st.one_of(st.sampled_from([1, 2, 2 ** 31 - 1]), st.integers(1, 2 ** 31 - 1)))
@example(base=[-1, 0, 1], exp=0, n=1)
@example(base=[-5, 7, -(2 ** 63)], exp=2 ** 31 - 1, n=2 ** 31 - 1)
@example(base=[-3, 3], exp=2 ** 30, n=2)
def test_powmod_matches_python_pow(base, exp, n):
    keys = np.array(base, dtype=np.int64)
    got = powmod(keys, exp, n)
    assert got.tolist() == [pow(b, exp, n) for b in base]
    assert got.dtype == keys.dtype and not np.shares_memory(got, keys)
    assert keys.tolist() == base


# prime powers and powers of two, where the unit group and the d-th power map
# take their special shapes
_PRIME_POWERS = sorted({p ** e for p in (3, 5, 7, 11, 13, 31, 101, 1009)
                        for e in range(1, 12) if p ** e <= 200_000})
_POWERS_OF_TWO = [2 ** e for e in range(18)]


@settings(deadline=None, max_examples=60)
@given(n=st.one_of(st.integers(1, 3000), st.sampled_from(_PRIME_POWERS),
                   st.sampled_from(_POWERS_OF_TWO)),
       d=st.integers(1, 12), m1=st.integers(-10 ** 4, 10 ** 4), m2=st.integers(-10 ** 4, 10 ** 4))
@example(n=999983, d=2, m1=1, m2=-3)
@example(n=1, d=1, m1=0, m2=0)
@example(n=2, d=5, m1=1, m2=1)
@example(n=2 ** 17, d=12, m1=7, m2=0)
def test_modulus_table_matches_brute_oracles(n, d, m1, m2):
    mod = Modulus(n)
    coprime = gcd_scan_units(n)
    _assert_same_sorted_int64(mod.units, coprime, n)
    assert mod.phi == len(coprime) == sum(1 for k in range(n) if gcd(k, n) == 1)
    assert mod.tau == int(np.count_nonzero(n % np.arange(1, n + 1) == 0))
    assert mod.factors == factorize(n)
    assert mod.inverses.tolist() == [pow(k, -1, n) for k in coprime.tolist()]
    want = sorted({pow(k, d, n) for k in coprime.tolist()})
    assert mod.residues(d).tolist() == want
    assert mod.residues(d) is mod.residues(d)
    # the root-table gather sums the same terms as the direct exp
    assert kloosterman_sum(m1, m2, mod) == kloosterman_sum_reference(m1, m2, n)


def _residue_set(n, d):
    return set(Modulus(n).residues(d).tolist())


def test_residue_set_examples():
    assert _residue_set(5, 1) == {1, 2, 3, 4} == brute_residues(5, 1)
    assert _residue_set(7, 2) == {1, 2, 4} == brute_residues(7, 2)
    assert _residue_set(15, 2) == {1, 4} == brute_residues(15, 2)
    with pytest.raises(ValueError):
        Modulus(6).residues(0)


def test_residue_set_random_against_brute():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 400))
        d = int(rng.integers(1, 13))
        assert _residue_set(n, d) == brute_residues(n, d), (n, d)


def test_residue_count_formula_examples():
    # odd prime power: phi(7)/gcd(phi(7), 2) = 6/2
    assert residue_count_formula(Modulus(7), 2) == 3 == len(brute_residues(7, 2))
    # 2-power with even d: phi(8)/(2*gcd(2^(3-2), 2)) = 4/4
    assert residue_count_formula(Modulus(8), 2) == 1 == len(brute_residues(8, 2))
    assert residue_count_formula(Modulus(15), 2) == 2 == len(brute_residues(15, 2))
    # odd d at 2-powers: the d-th power map is onto the units
    for r in range(1, 8):
        for d in (1, 3, 5, 7, 9, 11):
            assert residue_count_formula(Modulus(2 ** r), d) == len(brute_residues(2 ** r, d))


def test_residue_count_formula_sweep():
    for n in range(1, 301):
        mod = Modulus(n)
        for d in range(1, 9):
            assert residue_count_formula(mod, d) == len(mod.residues(d)), (n, d)


def test_ramanujan_examples():
    # c_n(m) = S(m, 0; n): the library sums it as a Kloosterman sum, the
    # oracle takes the closed form
    assert moebius_mu(1) == 1 and moebius_mu(6) == 1
    assert moebius_mu(4) == 0 and moebius_mu(30) == -1
    direct = brute_ramanujan(6, 1)
    assert abs(direct - 1) < 1e-12
    assert ramanujan_sum(6, 1) == 1
    assert abs(kloosterman_sum(1, 0, Modulus(6)) - 1) < 1e-12
    for n in (1, 2, 9, 10, 36):
        assert ramanujan_sum(n, 0) == totient(n)
        assert abs(kloosterman_sum(0, 0, Modulus(n)) - totient(n)) < 1e-9
    assert abs(brute_ramanujan(4, 2) - (-2)) < 1e-12
    assert ramanujan_sum(4, 2) == -2
    assert abs(kloosterman_sum(2, 0, Modulus(4)) - (-2)) < 1e-12


def test_ramanujan_closed_form_matches_direct():
    # full stated range, direct sums vectorized per modulus, against the
    # closed form and against the library's S(m, 0; n)
    ms = np.arange(-20, 21)
    for n in range(1, 501):
        mod = Modulus(n)
        u = mod.units
        direct = np.exp((2j * np.pi / n) * (ms[:, None] * u[None, :] % n)).sum(axis=1)
        closed = np.array([ramanujan_sum(n, int(m)) for m in ms], dtype=float)
        library = np.array([kloosterman_sum(int(m), 0, mod) for m in ms])
        assert np.abs(direct - closed).max() < 1e-9, n
        assert np.abs(library - closed).max() < 1e-9, n


def test_kloosterman_examples():
    assert kloosterman_sum(0, 0, Modulus(11)) == totient(11)
    s = kloosterman_sum(1, 1, Modulus(5))
    assert abs(s - brute_kloosterman(1, 1, 5)) < 1e-12
    assert abs(s.real - 0.3819660112501051) < 1e-12
    assert abs(kloosterman_sum(1, 0, Modulus(6)) - ramanujan_sum(6, 1)) < 1e-9


def _kloosterman_table(mod, m_max):
    """All S(m1, m2; n) for |m_i| <= m_max via cumulative power ladders, as a
    matrix whose entry (m1 + m_max, m2 + m_max) is S(m1, m2; n)."""
    n, u, ub = mod.n, mod.units, mod.inverses
    e1 = np.exp((2j * np.pi / n) * u)
    e2 = np.exp((2j * np.pi / n) * ub)

    def ladder(base):
        # row m_max + m holds base^m
        powers = np.empty((2 * m_max + 1, len(base)), dtype=complex)
        powers[m_max] = 1.0
        for m in range(1, m_max + 1):
            powers[m_max + m] = powers[m_max + m - 1] * base
            powers[m_max - m] = np.conj(powers[m_max + m])
        return powers

    return ladder(e1) @ ladder(e2).T


def test_kloosterman_real_symmetric_weil():
    # the Weil bound and symmetry over the full stated sweep: every n up to
    # 5000 and every |m1|, |m2| <= 5
    rng = np.random.default_rng(3)
    ms = range(-5, 6)
    for n in range(1, 5001):
        mod = Modulus(n)
        table = _kloosterman_table(mod, 5)
        assert (np.abs(table.imag) <= 1e-9).all(), (n, np.argwhere(np.abs(table.imag) > 1e-9))
        assert (np.abs(table - table.T) <= 1e-9).all(), n
        # no bound at the trivial frequency (0, 0)
        weil = np.array([[weil_bound(m1, m2, mod) if (m1, m2) != (0, 0) else np.inf
                          for m2 in ms] for m1 in ms])
        over = np.abs(table) > weil + 1e-9
        assert not over.any(), (n, np.argwhere(over) - 5)
        # the ladder agrees with the library's root-table summation
        if n % 257 == 0 or n < 4:
            m1, m2 = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            assert abs(table[m1 + 5, m2 + 5] - kloosterman_sum(m1, m2, mod)) <= 1e-9
