"""Geometry of the modular surface: reduction to the fundamental domain and
the exact horocycle/horosphere intersection witness.

Points of the surface are complex numbers z in the upper half plane, taken
up to the SL2(Z) action; the reduced representative names the orbit.
"""

from __future__ import annotations

import numpy as np

from .arith import Modulus

__all__ = [
    "NumericalDegeneracy",
    "reduce_many",
    "verify_intersection",
]

_BOUNDARY_TOL = 1e-12
_MAX_REDUCE_STEPS = 5000


class NumericalDegeneracy(ArithmeticError):
    """The imaginary part degenerated below double precision."""


def reduce_many(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-reduce z = x + iy (x 1-D, y scalar or array) into |x| <= 1/2, |z| >= 1.

    Alternates the translation z -> z - round(Re z) with the inversion
    z -> -1/z on the points inside the unit circle.  Boundary convention: on
    |z| = 1 pick Re z <= 0, and Re z = 1/2 maps to -1/2 (tolerance 1e-12), so
    the representative is unique and reduction is idempotent.

    Returns new float64 arrays.  Each point is reduced on its own, and a
    settled point is a fixed point of the loop, so a point gets the same
    bits whatever else is reduced beside it.

    Valid while every inverted Im z stays a finite positive float; otherwise
    (|z|^2 underflows to 0 at a tiny Im z) raises NumericalDegeneracy rather
    than return NaN or infinite coordinates.
    """
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    if y.ndim == 0:
        y = np.full_like(x, y)
    elif y.shape != x.shape:
        raise ValueError("x and y must have the same shape")
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
        with np.errstate(divide="ignore", invalid="ignore"):
            x[inv] = -x[inv] / r2i
            yi = y[inv] / r2i
        if not ((yi > 0) & (yi < np.inf)).all():
            raise NumericalDegeneracy("Im z left the positive floats during reduction")
        y[inv] = yi
    else:
        raise NumericalDegeneracy("reduction did not terminate")
    x[x > 0.5 - _BOUNDARY_TOL] -= 1.0
    return x, y


def verify_intersection(mod: Modulus) -> tuple[int, int]:
    """Check the intersection witness of every unit k mod n, read with its
    inverse kbar from the arithmetic table of n; (checked, passed).

    The witness gamma = (n, -k; kbar, e) satisfies
    gamma * u_{k/n} * a_n^-1 = (1, 0; kbar/n, n*e + k*kbar), so it carries
    u_{k/n} a_n^-1 onto v_{kbar/n} exactly when e = (1 - k*kbar)/n is an
    integer, i.e. n*e + k*kbar = 1.  Evaluated in int64 over the units, which
    is exact: k, kbar < n < 2^31.
    """
    n, k, kbar = mod.n, mod.units, mod.inverses
    kk = k * kbar
    e = (1 - kk) // n
    return len(k), int(np.count_nonzero(n * e + kk == 1))
