"""Geometry of the modular surface: exact SL2(Z) elements, fundamental-domain
reduction, heights, and the exact horocycle/horosphere intersection witness.

Points of the surface are complex numbers z in the upper half plane, taken
up to the SL2(Z) action; the reduced representative names the orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import NotCoprime, gcd, mod_inverse

__all__ = [
    "NumericalDegeneracy",
    "IntegerMatrix2",
    "ReducedPoint",
    "reduce",
    "reduce_many",
    "invariant_height",
    "intersection_witness",
    "verify_intersection",
]

_BOUNDARY_TOL = 1e-12
_MAX_REDUCE_STEPS = 5000


class NumericalDegeneracy(ArithmeticError):
    """The imaginary part degenerated below double precision."""


@dataclass(frozen=True)
class IntegerMatrix2:
    """Exact SL2(Z) element (determinant exactly one)."""

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
    """Gauss-reduce into |Re z| <= 1/2, |z| >= 1, accumulating gamma.

    Alternates the translation z -> z - round(Re z) with the inversion
    z -> -1/z.  Boundary convention: on |z| = 1 pick Re z <= 0, and Re z = 1/2
    maps to -1/2 (tolerance 1e-12), so the representative is unique and
    reduction is idempotent.
    """
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("point must lie in the upper half plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_REDUCE_STEPS):
        m = round(z.real)
        if m:
            z -= m
            a -= m * c
            b -= m * d
        r2 = z.real * z.real + z.imag * z.imag
        if r2 < 1.0 - _BOUNDARY_TOL or (
            abs(r2 - 1.0) <= _BOUNDARY_TOL and z.real > _BOUNDARY_TOL
        ):
            z = -1.0 / z
            a, b, c, d = -c, -d, a, b
            if not (z.imag > 0 and math.isfinite(z.imag)):
                raise NumericalDegeneracy("Im z underflowed during reduction")
        else:
            break
    else:
        raise NumericalDegeneracy("reduction did not terminate")
    if z.real > 0.5 - _BOUNDARY_TOL:
        z -= 1
        a -= c
        b -= d
    return ReducedPoint(z, IntegerMatrix2(a, b, c, d), z.imag)


def invariant_height(z: complex) -> float:
    """Cusp excursion Im(z_F) of the reduced representative; Gamma-invariant."""
    return reduce(z).height


def reduce_many(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized reduction of z = x + iy (y scalar or array) to (x_F, y_F).

    Semantics match :func:`reduce` including boundary conventions;
    property tests pin the two paths together.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    if np.isscalar(y) or np.ndim(y) == 0:
        y = np.full_like(x, float(y))
    else:
        y = np.array(y, dtype=np.float64, copy=True)
    if not (y > 0).all():
        raise ValueError("all points must lie in the upper half plane")
    for _ in range(_MAX_REDUCE_STEPS):
        x -= np.rint(x)
        r2 = x * x + y * y
        inv = (r2 < 1.0 - _BOUNDARY_TOL) | (
            (np.abs(r2 - 1.0) <= _BOUNDARY_TOL) & (x > _BOUNDARY_TOL)
        )
        if not inv.any():
            break
        r2i = r2[inv]
        xi = x[inv]
        x[inv] = -xi / r2i
        y[inv] = y[inv] / r2i
    else:
        raise NumericalDegeneracy("vectorized reduction did not terminate")
    x[x > 0.5 - _BOUNDARY_TOL] -= 1.0
    return x, y


# ---------------------------------------------------------------------------
# intersection witness

def intersection_witness(k: int, n: int) -> IntegerMatrix2:
    """The lattice element carrying u_{k/n} a_n^-1 onto the opposite horocycle.

    Returns gamma = (n, -k; kbar, (1 - k*kbar)/n), which satisfies
    gamma * u_{k/n} * a_n^-1 = v_{kbar/n} exactly in rational arithmetic.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if gcd(k, n) != 1:
        raise NotCoprime(f"k={k} is not a unit mod {n}")
    kbar = mod_inverse(k % n, n)
    return IntegerMatrix2(n, -k, kbar, (1 - k * kbar) // n)


def verify_intersection(k: int, n: int) -> bool:
    """Exact rational check that the witness equation holds."""
    gamma = intersection_witness(k, n)
    kbar = mod_inverse(k % n, n)
    u = ((Fraction(1), Fraction(k, n)), (Fraction(0), Fraction(1)))
    a_inv = ((Fraction(1, n), Fraction(0)), (Fraction(0), Fraction(n)))
    ga, gb, gc, gd = gamma.entries()
    gm = ((Fraction(ga), Fraction(gb)), (Fraction(gc), Fraction(gd)))

    def mul(p, q):
        return (
            (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
        )

    prod = mul(mul(gm, u), a_inv)
    v = ((Fraction(1), Fraction(0)), (Fraction(kbar, n), Fraction(1)))
    return prod == v
