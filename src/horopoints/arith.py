"""Exact modular and multiplicative arithmetic underlying the point sets.

Integers are plain Python ints (arbitrary precision), so nothing here can
silently overflow.  Bulk helpers use int64 numpy arrays and need a modulus
below 2^31, so that every intermediate product fits; above it they raise
ValueError.
Factorization is trial division, in the same range n < 2^31; prime lists
come from a sieve built on each call, and primality tests of any size from
deterministic Miller-Rabin, so no prime table outlives a call.
Exponential sums accumulate in float64 through numpy's pairwise summation,
which is deterministic and keeps the rounding error at O(log n * eps).
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property
from math import gcd

import numpy as np

__all__ = [
    "NotCoprime",
    "gcd",
    "is_prime",
    "next_prime",
    "factorize",
    "totient",
    "mod_inverse",
    "primes_upto",
    "primes_coprime",
    "powmod",
    "roots_of_unity",
    "power_mask",
    "Modulus",
    "residue_count_formula",
    "kloosterman_sum",
    "weil_bound",
    "weyl_means",
]


class NotCoprime(ValueError):
    """An operation required coprime arguments and did not get them."""


# int64 modular products are exact only below this modulus
_INT64_MOD_LIMIT = 1 << 31

# residues per block wherever a point set or a residue set is walked in
# blocks (the residue sets, power masks, inverses and root table here,
# PointSet.blocks, which PointSet.reduced_xy and the sample dump walk, and
# the leaves of the summation tree that the averages of stats walk; the
# harness writers write harness._ROWS_PER_WRITE rows at a time): 16384
# float64 temporaries stay in cache; 4096 and 65536 were both slower on large_n
BLOCK = 16384


# ---------------------------------------------------------------------------
# primes and factorization

def primes_upto(x: float) -> np.ndarray:
    """All primes p with p < x, ascending, by a sieve of Eratosthenes over
    the integers below x, built on each call."""
    if x <= 2:
        return np.empty(0, dtype=np.int64)
    size = math.ceil(x)
    sieve = np.ones(size, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def primes_coprime(n: int, x: float) -> tuple[int, ...]:
    """The prime set P(n, x): primes below x that do not divide n, ascending.

    Python ints, so that powers such as p^(2d) do not overflow.
    """
    if x <= 0:
        raise ValueError("cutoff must be positive")
    return tuple(int(p) for p in primes_upto(x) if n % int(p) != 0)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    r, d = 0, n - 1
    while d % 2 == 0:
        r += 1
        d //= 2
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(2, n)
    while not is_prime(k):
        k += 1
    return k


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {p: exponent}, ascending in p, by trial
    division by 2 and then by the odd numbers up to sqrt(n).

    The domain is 1 <= n < 2^31, that of Modulus and powmod, so at most
    about 23170 divisions are made.
    """
    if not 1 <= n < _INT64_MOD_LIMIT:
        raise ValueError("factorize needs 1 <= n < 2^31")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def totient(n: int) -> int:
    """Euler's phi via factorization (1 <= n < 2^31)."""
    return _totient_of(factorize(n))


def _totient_of(factors: dict[int, int]) -> int:
    phi = 1
    for p, e in factors.items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


# ---------------------------------------------------------------------------
# residues

def mod_inverse(k: int, n: int) -> int:
    """Inverse of k mod n, canonical representative in [0, n)."""
    try:
        return pow(k, -1, n)
    except ValueError as exc:
        raise NotCoprime(f"{k} is not invertible mod {n}") from exc


def powmod(base: np.ndarray, exp: int, n: int) -> np.ndarray:
    """Vectorized base**exp mod n by square-and-multiply (n < 2^31, exp >= 0),
    as a new array of base's dtype.

    The result starts as the power of base at the lowest set bit of exp, and
    squaring stops at its top bit, so no product by one and no square that
    no bit reads is made.
    """
    if n >= _INT64_MOD_LIMIT:
        raise ValueError("powmod is an int64 bulk path; need n < 2^31")
    power = np.mod(base, n)
    if exp == 0:
        return np.ones_like(power) % n
    while not exp & 1:
        power *= power
        power %= n
        exp >>= 1
    result = power.copy()
    exp >>= 1
    while exp:
        power *= power
        power %= n
        if exp & 1:
            result *= power
            result %= n
        exp >>= 1
    return result


def roots_of_unity(phases: np.ndarray, n: int) -> np.ndarray:
    """e(j/n) = exp(2 pi i j / n) at each integer phase j, elementwise.

    numpy's complex exp works one element at a time, so a root depends on
    its phase alone, never on its place in the array: Modulus.roots, built
    by this expression, holds the same floats as any call on its phases.
    """
    return np.exp((2j * np.pi / n) * phases)


def power_mask(blocks, e: int, n: int) -> np.ndarray:
    """The bool mask over [0, n) (n bytes) that marks k^e mod n for each key
    k of blocks, int64 key arrays raised one at a time by :func:`powmod`.
    Over the unit blocks of n and e = d it marks the degree-d residue set;
    over the keys of the degree-g set's views and e = d / g, the same one."""
    seen = np.zeros(n, dtype=bool)
    for keys in blocks:
        seen[powmod(keys, e, n)] = True
    return seen


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays, shared by every later reader: the tables of a Modulus
    # and the reduced coordinates of a PointSet
    a.flags.writeable = False
    return a


class Modulus:
    """The arithmetic of one modulus n (1 <= n < 2^31), built once per n.

    Holds the factorization, phi and tau, read by every per-n check.  The
    units are read as ranges of unit indices, each sieved by unit_range; the
    whole ascending units, their aligned inverses, the root table e(j/n) and
    the d-th power residue sets are built on first use and kept.  The arrays
    are read-only, since every reader of the table shares them.  A table
    lives as long as the work on its n: nothing caches it across moduli.
    """

    def __init__(self, n: int):
        if not 1 <= n < _INT64_MOD_LIMIT:
            raise ValueError("Modulus is an int64 bulk path; need 1 <= n < 2^31")
        self.n = n
        self.factors = factorize(n)
        self.phi = _totient_of(self.factors)
        self.tau = math.prod(e + 1 for e in self.factors.values())
        self._residues: dict[int, np.ndarray] = {}

    def unit_range(self, lo: int, hi: int) -> np.ndarray:
        """The units of index lo..hi-1 (0 <= lo <= phi, hi cut to phi) in
        ascending order: a slice of units once they are built, else sieved
        one segment of BLOCK values at a time, each segment's multiples of
        the primes of n cleared in a mask of its own, so no n-byte mask is
        made.  The first segment is bisected for by the count of units below
        a segment start x, sum mu(g) ceil(x / g) over the squarefree g | n."""
        if "units" in vars(self):
            return self.units[lo:hi]
        step, terms = BLOCK, [(1, 1)]
        for p in self.factors:
            terms += [(g * p, -mu) for g, mu in terms]

        def below(seg: int) -> int:
            return sum(mu * -(-seg * step // g) for g, mu in terms)

        seg = bisect.bisect_right(range(-(-self.n // step)), lo, key=below) - 1
        out = np.empty(min(hi, self.phi) - lo, dtype=np.int64)
        skip, filled = lo - below(seg), 0
        while filled < len(out):
            start = seg * step
            keep = np.ones(min(step, self.n - start), dtype=bool)
            for p in self.factors:
                keep[-start % p::p] = False
            found = np.flatnonzero(keep)[skip:skip + len(out) - filled]
            out[filled:filled + len(found)] = found + start
            filled += len(found)
            seg, skip = seg + 1, 0
        return out

    @cached_property
    def units(self) -> np.ndarray:
        """The ascending units: unit_range over [0, phi)."""
        return _read_only(self.unit_range(0, self.phi))

    def invert(self, keys: np.ndarray) -> np.ndarray:
        """Inverses mod n of a 1-D int64 array of units, aligned elementwise:
        keys^(phi - 1) mod n by :func:`powmod`, one block of BLOCK keys at a
        time into one int64 array, so the temporaries stay one block long."""
        out = np.empty(len(keys), dtype=np.int64)
        for lo in range(0, len(keys), BLOCK):
            out[lo:lo + BLOCK] = powmod(keys[lo:lo + BLOCK], self.phi - 1, self.n)
        return out

    @cached_property
    def inverses(self) -> np.ndarray:
        """Inverses of the units, aligned elementwise (k * kbar = 1 mod n),
        inverted one unit block at a time."""
        out = np.empty(self.phi, dtype=np.int64)
        for lo in range(0, self.phi, BLOCK):
            out[lo:lo + BLOCK] = self.invert(self.unit_range(lo, lo + BLOCK))
        return _read_only(out)

    @cached_property
    def roots(self) -> np.ndarray:
        """e(j/n) for j in [0, n), indexed by j: roots_of_unity over [0, n),
        so a gather of phases gives their roots_of_unity bit for bit.  It is
        filled one block of BLOCK phases at a time (roots_of_unity works
        elementwise, so the bits are those of one call over [0, n)), and the
        temporaries stay one block long."""
        out = np.empty(self.n, dtype=complex)
        for lo in range(0, self.n, BLOCK):
            out[lo:lo + BLOCK] = roots_of_unity(np.arange(lo, min(lo + BLOCK, self.n)), self.n)
        return _read_only(out)

    def residues(self, d: int) -> np.ndarray:
        """Sorted unique int64 array of k^d mod n over the units k.

        The d = 1 set is the units array itself.  Otherwise the powers of the
        unit blocks are marked in a :func:`power_mask` (n bytes) and read
        back in ascending order, which deduplicates and sorts them in time
        linear in n where a sort-based unique is O(phi(n) log phi(n)).
        """
        if d < 1:
            raise ValueError("need d >= 1")
        if d == 1:
            return self.units
        res = self._residues.get(d)
        if res is None:
            blocks = (self.unit_range(lo, lo + BLOCK) for lo in range(0, self.phi, BLOCK))
            res = self._residues[d] = _read_only(np.flatnonzero(
                power_mask(blocks, d, self.n)).astype(np.int64, copy=False))
        return res


def residue_count_formula(mod: Modulus, d: int) -> int:
    """Predicted size of {k^d mod n : gcd(k, n) = 1}, multiplicatively from
    the factorization in the table of n.

    Odd prime powers contribute phi(p^r) / gcd(phi(p^r), d) (the unit group
    is cyclic).  At p = 2 the unit group of Z/2^r is Z/2 x Z/2^(r-2) for
    r >= 2, so the image of the d-th power map has size
    (2 / gcd(2, d)) * (2^(r-2) / gcd(2^(r-2), d)); 2^1 contributes 1.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    count = 1
    for p, r in mod.factors.items():
        if p == 2:
            if r == 1:
                block = 1
            else:
                half = 1 << (r - 2)
                block = (2 // gcd(2, d)) * (half // gcd(half, d))
        else:
            phi_pr = p ** (r - 1) * (p - 1)
            block = phi_pr // gcd(phi_pr, d)
        count *= block
    return count


# ---------------------------------------------------------------------------
# exponential sums

def kloosterman_sum(m1: int, m2: int, mod: Modulus) -> complex:
    """S(m1, m2; n) = sum over units k of e((m1*k + m2*kbar)/n).

    The value is real (k <-> n-k pairs terms into conjugates); the complex
    return type keeps the roundoff in the imaginary part visible.  Each term
    is gathered from the root table of n, which holds e(j/n) exactly as a
    direct exp of the phase j would give it.
    """
    n = mod.n
    phase = (m1 % n) * mod.units % n
    if m2 % n:
        phase = (phase + (m2 % n) * mod.inverses) % n
    return complex(mod.roots[phase].sum())


def weil_bound(m1: int, m2: int, mod: Modulus) -> float:
    """tau(n) * sqrt(gcd(m1, m2, n)) * sqrt(n), valid for (m1, m2) != (0, 0)."""
    if m1 == 0 and m2 == 0:
        raise ValueError("bound requires (m1, m2) != (0, 0)")
    g = gcd(gcd(abs(m1), abs(m2)), mod.n)
    return mod.tau * math.sqrt(g) * math.sqrt(mod.n)


def weyl_means(mod: Modulus) -> dict[int, complex]:
    """The full Weyl sums (1/n) sum_{k<n} e(mk/n), one per divisor g of n:
    entry g is the sum of every m with gcd(m, n) = g (of m = 0 at g = n).

    For such m, mk mod n runs over the multiples jg, j < n/g, each g times
    as k runs over [0, n), so the sum is the mean of the root table of n at
    stride g: 1 at g = n, 0 at every other g.  The divisors come from the
    factorization in the table.
    """
    divisors = [1]
    for p, e in mod.factors.items():
        divisors = [g * p ** i for g in divisors for i in range(e + 1)]
    return {g: complex(mod.roots[::g].mean()) for g in divisors}
