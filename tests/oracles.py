"""Independent scalar oracles shared by the test modules.

Each is the textbook definition, computed one term at a time; the library
computes the same quantities through its bulk paths only.
"""

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from horopoints.arith import NotCoprime, factorize, mod_inverse, powmod, totient
from horopoints.observables import (
    _kernel_profile_indicator,
    _kernel_profile_smooth,
)
from horopoints.sl2 import NumericalDegeneracy


def mobius(g, z: complex) -> complex:
    """(az + b)/(cz + d) for a matrix g with entries() (a, b, c, d)."""
    a, b, c, d = g.entries()
    return (a * z + b) / (c * z + d)


def moebius_mu(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def ramanujan_sum(n: int, m: int) -> int:
    """c_n(m) by the closed form mu(n/g) * phi(n) / phi(n/g), g = gcd(m, n)."""
    q = n // gcd(abs(m), n)
    return moebius_mu(q) * totient(n) // totient(q)


def weyl_sum_full(n: int, m: int) -> complex:
    """(1/n) * sum_{k<n} e(mk/n), summed term by term."""
    return sum(cmath.exp(2j * cmath.pi * (m * k % n) / n) for k in range(n)) / n


def weyl_sums_all_residues(n: int) -> np.ndarray:
    """All n full Weyl sums at once: entry m holds (1/n) sum_k e(mk/n), the
    conjugated DFT of the all-ones vector over n, 1 at m = 0 and 0 elsewhere;
    e(mk/n) depends on m only mod n, so the residues cover every integer m."""
    return np.conj(np.fft.fft(np.ones(n))) / n


def kloosterman_sum_reference(m1: int, m2: int, n: int) -> complex:
    """S(m1, m2; n) with one direct exp per unit, over units found by a gcd
    scan and their inverses by powmod (no table)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return complex(1.0)
    ks = np.arange(n, dtype=np.int64)
    u = ks[np.gcd(ks, n) == 1]
    phase = (m1 % n) * u % n
    if m2 % n:
        phase = (phase + (m2 % n) * powmod(u, totient(n) - 1, n)) % n
    return complex(np.exp((2j * np.pi / n) * phase).sum())


def discrepancy_l2_reference(n: int, beta: float, d: int, m: int) -> float:
    """sum multiplicity^2 / count^2 over the integer frequencies m * p^(2d),
    p over the primes below n^beta that do not divide n (found by trial
    division), counted in a multiset and divided exactly."""
    cutoff = float(n) ** beta
    primes = [p for p in range(2, math.ceil(cutoff))
              if p < cutoff and n % p and all(p % q for q in range(2, math.isqrt(p) + 1))]
    freqs = Counter(m * p ** (2 * d) for p in primes)
    return float(Fraction(sum(k * k for k in freqs.values()), len(primes) ** 2))


def mask_sieve_units(n: int) -> np.ndarray:
    """The ascending units of n as int64, by an n-byte mask over [0, n)
    from which the multiples of each prime of n are cleared."""
    keep = np.ones(n, dtype=bool)
    for p in factorize(n):
        keep[::p] = False
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def invariant_by_sorting(residues: np.ndarray, factor: int, n: int) -> bool:
    """True iff multiplying the ascending residue array by factor mod n and
    sorting the image gives the array back."""
    return bool(np.array_equal(np.sort(residues * (factor % n) % n), residues))


def torus_coordinates(ps, i: int) -> tuple[Fraction, Fraction | None, complex]:
    """(torus1, torus2 or None, surface point z) of point i, from its residue.

    Exact fractions from the spec and the residue alone, not from the
    coordinate arrays of the point set.
    """
    spec, n, r = ps.spec, ps.n, int(ps.residues[i])
    t1 = Fraction(spec.a * r % n, n)
    t2 = Fraction(spec.b * pow(r, -1, n) % n, n) if ps.with_second else None
    x = (ps.x_mult * r % n) / n
    return t1, t2, complex(x, float(n) ** (-2 * float(spec.alpha)))


@dataclass(frozen=True)
class IntegerMatrix2:
    """An SL2(Z) element (determinant exactly one)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"determinant {det} != 1")

    def __matmul__(self, other: "IntegerMatrix2") -> "IntegerMatrix2":
        return IntegerMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ReducedPoint:
    """Fundamental-domain representative z with its reducing lattice element."""

    z: complex
    reducer: IntegerMatrix2
    height: float


def reduce(z: complex) -> ReducedPoint:
    """Gauss-reduce one point into |Re z| <= 1/2, |z| >= 1, accumulating gamma.

    Alternates z -> z - round(Re z) with z -> -1/z, in complex arithmetic.
    Boundary convention: on |z| = 1 pick Re z <= 0, and Re z = 1/2 maps
    to -1/2 (tolerance 1e-12), as in reduce_many.
    """
    tol = 1e-12
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("point must lie in the upper half plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(5000):
        m = round(z.real)
        if m:
            z -= m
            a -= m * c
            b -= m * d
        r2 = z.real * z.real + z.imag * z.imag
        if r2 < 1.0 - tol or (abs(r2 - 1.0) <= tol and z.real > tol):
            z = -1.0 / z
            a, b, c, d = -c, -d, a, b
            if not (z.imag > 0 and math.isfinite(z.imag)):
                raise NumericalDegeneracy("Im z underflowed during reduction")
        else:
            break
    else:
        raise NumericalDegeneracy("reduction did not terminate")
    if z.real > 0.5 - tol:
        z -= 1
        a -= c
        b -= d
    return ReducedPoint(z, IntegerMatrix2(a, b, c, d), z.imag)


def intersection_witness(k: int, n: int) -> IntegerMatrix2:
    """gamma = (n, -k; kbar, (1 - k*kbar)/n) for a unit k mod n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if gcd(k, n) != 1:
        raise NotCoprime(f"k={k} is not a unit mod {n}")
    kbar = mod_inverse(k % n, n)
    return IntegerMatrix2(n, -k, kbar, (1 - k * kbar) // n)


def witness_holds(k: int, n: int) -> bool:
    """gamma * u_{k/n} * a_n^-1 == v_{kbar/n}, compared in integers after
    scaling by n: n * gamma * u * a^-1 = (ga, ga k n + gb n^2; gc, gc k n + gd n^2)
    must equal n * v = (n, 0; kbar, n)."""
    ga, gb, gc, gd = intersection_witness(k, n).entries()
    kbar = mod_inverse(k % n, n)
    return (ga, ga * k * n + gb * n * n, gc, gc * k * n + gd * n * n) == (n, 0, kbar, n)


def haar_kernel_reference(radius: float, profile: str) -> float:
    """6 * int_0^R k(r) sinh r dr by 40-node Gauss-Legendre on [0, R], with
    k = 1 (indicator) or the bump (1 - (r/R)^2)^2 (smooth)."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    r = 0.5 * radius * (nodes + 1.0)
    k = np.ones_like(r) if profile == "indicator" else (1.0 - (r / radius) ** 2) ** 2
    return 6.0 * 0.5 * radius * float(np.dot(weights, k * np.sinh(r)))


def kernel_values_reference(xf, yf, radius: float, profile: str, orbit,
                            stab: int) -> np.ndarray:
    """Kernel values by one full sweep per orbit point: the profile sees every
    point, also those outside its support."""
    prof = _kernel_profile_indicator if profile == "indicator" else _kernel_profile_smooth
    total = np.zeros_like(xf)
    for w in orbit:
        dx = xf - w.real
        dy = yf - w.imag
        cosh_d = 1.0 + (dx * dx + dy * dy) / (2.0 * yf * w.imag)
        total += prof(cosh_d, radius)
    return stab * total
