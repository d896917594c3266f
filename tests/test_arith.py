"""Unit tests for the arithmetic layer.

Expected values are frozen from independent brute-force oracles defined in
this file (divisor scans, residue scans, direct summation); the library code
under test never computes its own expectations.
"""

import cmath
from math import gcd

import numpy as np
import pytest
from oracles import moebius_mu, ramanujan_sum

from horopoints.arith import (
    NotCoprime,
    divisor_count,
    factorize,
    is_prime,
    kloosterman_sum,
    mod_inverse,
    next_prime,
    powmod,
    primes_coprime,
    residue_array,
    residue_count_formula,
    totient,
    units,
    unit_inverses,
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


def brute_residues(n, d, a=1):
    return {a * pow(k, d, n) % n for k in range(n) if gcd(k, n) == 1}


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
    # the earlier bulk units(): one np.gcd per residue
    ks = np.arange(n, dtype=np.int64)
    return ks[np.gcd(ks, n) == 1]


def unique_residue_array(n, d, a=1):
    # the earlier bulk residue_array(): powers of the gcd-scan units, np.unique
    r = powmod(gcd_scan_units(n), d, n)
    if a % n != 1:
        r = (r * (a % n)) % n
    return np.unique(r)


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
    # beyond the sieve: 10^7-scale semiprime
    p, q = 10_000_019, 10_000_079
    assert factorize(p * q) == {p: 1, q: 1}
    assert divisor_count(12) == 6


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
        u = units(n)
        assert len(u) == totient(n)
        ub = unit_inverses(n)
        assert (u * ub % n == (1 % n)).all()


def test_units_match_gcd_scan_oracle():
    for n in range(1, 2001):
        _assert_same_sorted_int64(units(n), gcd_scan_units(n), n)


def test_residue_array_matches_unique_oracle():
    for n in range(1, 2001):
        for d in (1, 2, 3, 4, 6, 12):
            for a in (1, 5):
                if gcd(a, n) != 1:
                    continue
                _assert_same_sorted_int64(residue_array(n, d, a),
                                          unique_residue_array(n, d, a), (n, d, a))


@pytest.mark.parametrize("n", [10007, 100003, 1000003])
def test_unit_and_residue_sets_match_oracle_at_large_primes(n):
    _assert_same_sorted_int64(units(n), gcd_scan_units(n), n)
    for d in (1, 2):
        _assert_same_sorted_int64(residue_array(n, d), unique_residue_array(n, d), (n, d))


def test_bulk_paths_reject_moduli_beyond_int64():
    n = (1 << 31) + 11
    with pytest.raises(ValueError):
        residue_array(n, 2)
    with pytest.raises(ValueError):
        kloosterman_sum(1, 1, n)


def _residue_set(n, d, a=1):
    return set(residue_array(n, d, a).tolist())


def test_residue_set_examples():
    assert _residue_set(5, 1) == {1, 2, 3, 4} == brute_residues(5, 1)
    assert _residue_set(7, 2) == {1, 2, 4} == brute_residues(7, 2)
    assert _residue_set(15, 2) == {1, 4} == brute_residues(15, 2)
    with pytest.raises(NotCoprime):
        residue_array(6, 1, a=3)


def test_residue_set_random_against_brute():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 400))
        d = int(rng.integers(1, 13))
        a = int(rng.integers(1, n + 1))
        if gcd(a, n) != 1:
            continue
        assert _residue_set(n, d, a) == brute_residues(n, d, a), (n, d, a)


def test_residue_count_formula_examples():
    # odd prime power: phi(7)/gcd(phi(7), 2) = 6/2
    assert residue_count_formula(7, 2) == 3 == len(brute_residues(7, 2))
    # 2-power with even d: phi(8)/(2*gcd(2^(3-2), 2)) = 4/4
    assert residue_count_formula(8, 2) == 1 == len(brute_residues(8, 2))
    assert residue_count_formula(15, 2) == 2 == len(brute_residues(15, 2))
    # odd d at 2-powers: the d-th power map is onto the units
    for r in range(1, 8):
        for d in (1, 3, 5, 7, 9, 11):
            assert residue_count_formula(2 ** r, d) == len(brute_residues(2 ** r, d))


def test_residue_count_formula_sweep():
    for n in range(1, 301):
        for d in range(1, 9):
            assert residue_count_formula(n, d) == len(residue_array(n, d)), (n, d)


def test_ramanujan_examples():
    # c_n(m) = S(m, 0; n): the library sums it as a Kloosterman sum, the
    # oracle takes the closed form
    assert moebius_mu(1) == 1 and moebius_mu(6) == 1
    assert moebius_mu(4) == 0 and moebius_mu(30) == -1
    direct = brute_ramanujan(6, 1)
    assert abs(direct - 1) < 1e-12
    assert ramanujan_sum(6, 1) == 1
    assert abs(kloosterman_sum(1, 0, 6) - 1) < 1e-12
    for n in (1, 2, 9, 10, 36):
        assert ramanujan_sum(n, 0) == totient(n)
        assert abs(kloosterman_sum(0, 0, n) - totient(n)) < 1e-9
    assert abs(brute_ramanujan(4, 2) - (-2)) < 1e-12
    assert ramanujan_sum(4, 2) == -2
    assert abs(kloosterman_sum(2, 0, 4) - (-2)) < 1e-12


def test_ramanujan_closed_form_matches_direct():
    # full stated range, direct sums vectorized per modulus, against the
    # closed form and against the library's S(m, 0; n)
    ms = np.arange(-20, 21)
    for n in range(1, 501):
        u = units(n)
        direct = np.exp((2j * np.pi / n) * (ms[:, None] * u[None, :] % n)).sum(axis=1)
        closed = np.array([ramanujan_sum(n, int(m)) for m in ms], dtype=float)
        library = np.array([kloosterman_sum(int(m), 0, n) for m in ms])
        assert np.abs(direct - closed).max() < 1e-9, n
        assert np.abs(library - closed).max() < 1e-9, n


def test_kloosterman_examples():
    assert kloosterman_sum(0, 0, 11) == totient(11)
    s = kloosterman_sum(1, 1, 5)
    assert abs(s - brute_kloosterman(1, 1, 5)) < 1e-12
    assert abs(s.real - 0.3819660112501051) < 1e-12
    assert abs(kloosterman_sum(1, 0, 6) - ramanujan_sum(6, 1)) < 1e-9


def _kloosterman_table(n, m_max):
    """All S(m1, m2; n) for |m_i| <= m_max via cumulative power ladders."""
    u = units(n)
    ub = unit_inverses(n)
    e1 = np.exp((2j * np.pi / n) * u)
    e2 = np.exp((2j * np.pi / n) * ub)

    def ladder(base):
        powers = {0: np.ones_like(base)}
        for m in range(1, m_max + 1):
            powers[m] = powers[m - 1] * base
            powers[-m] = np.conj(powers[m])
        return powers

    p1, p2 = ladder(e1), ladder(e2)
    return {(m1, m2): (p1[m1] * p2[m2]).sum()
            for m1 in range(-m_max, m_max + 1) for m2 in range(-m_max, m_max + 1)}


def test_kloosterman_real_symmetric_weil():
    # the Weil bound and symmetry over the full stated sweep: every n up to
    # 5000 and every |m1|, |m2| <= 5
    rng = np.random.default_rng(3)
    for n in range(1, 5001):
        table = _kloosterman_table(n, 5)
        for (m1, m2), s in table.items():
            assert abs(s.imag) <= 1e-9, (n, m1, m2)
            assert abs(s - table[m2, m1]) <= 1e-9
            if (m1, m2) != (0, 0):
                assert abs(s) <= weil_bound(m1, m2, n) + 1e-9, (n, m1, m2)
        # the ladder agrees with the library's direct summation
        if n % 257 == 0 or n < 4:
            m1, m2 = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            assert abs(table[m1, m2] - kloosterman_sum(m1, m2, n)) <= 1e-9
