"""Independent scalar oracles shared by the test modules.

Each is the textbook definition, computed one term at a time; the library
computes the same quantities through its bulk paths only.
"""

import cmath
from fractions import Fraction
from math import gcd

from horopoints.arith import factorize, totient


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
