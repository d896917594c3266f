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
# the floats r2 with |r2 - 1| <= _BOUNDARY_TOL are exactly those in
# [_ON_CIRCLE_LO, _ON_CIRCLE_HI): r2 - 1 is exact near 1, 1 - tol rounds up
# to the first float in the band and 1 + tol up to the first float above it
_ON_CIRCLE_LO = 1.0 - _BOUNDARY_TOL
_ON_CIRCLE_HI = 1.0 + _BOUNDARY_TOL
_MAX_REDUCE_STEPS = 5000


class NumericalDegeneracy(ArithmeticError):
    """The imaginary part degenerated below double precision."""


def reduce_many(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-reduce z = x + iy (x 1-D, y scalar or array) into |x| <= 1/2, |z| >= 1.

    Alternates the translation z -> z - round(Re z) with the inversion
    z -> -1/z on the points inside the unit circle.  Boundary convention: on
    |z| = 1 pick Re z <= 0, and Re z = 1/2 maps to -1/2 (tolerance 1e-12), so
    the representative is unique and reduction is idempotent.

    Returns new float64 arrays.  Each round runs over every point in two
    reused float buffers and two bool buffers: the inverted coordinates are
    computed for all points and selected into place (np.copyto with
    where=), so no point is gathered or scattered.  A settled point is a
    fixed point of the round, and each point goes through the same
    operations in the same order, so a point gets the same bits whatever
    else is reduced beside it.

    Valid while every inverted Im z stays a finite positive float; otherwise
    (|z|^2 underflows to 0 at a tiny Im z) raises NumericalDegeneracy rather
    than return NaN or infinite coordinates.  Only the points inverted in a
    round are checked, so an infinite Im z passes through unchanged.
    """
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    if y.ndim == 0:
        y = np.full_like(x, y)
    elif y.shape != x.shape:
        raise ValueError("x and y must have the same shape")
    if not (y > 0).all():
        raise ValueError("all points must lie in the upper half plane")
    r2, t = np.empty_like(x), np.empty_like(x)
    inv, m = np.empty(x.shape, dtype=bool), np.empty(x.shape, dtype=bool)
    for _ in range(_MAX_REDUCE_STEPS):
        x -= np.rint(x, out=t)
        np.multiply(x, x, out=r2)
        r2 += np.multiply(y, y, out=t)
        # invert inside the circle, and on it (|r2 - 1| <= tol, which is
        # _ON_CIRCLE_LO <= r2 < _ON_CIRCLE_HI) when Re z > tol
        np.greater(x, _BOUNDARY_TOL, out=inv)
        inv &= np.less(r2, _ON_CIRCLE_HI, out=m)
        inv |= np.less(r2, _ON_CIRCLE_LO, out=m)
        if not inv.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.negative(x, out=t), r2, out=t)
            np.copyto(x, t, where=inv)
            # r2 < 1 + tol at an inverted point, so y / r2 cannot round to
            # 0: Im z leaves the positive floats only at inf (or NaN)
            np.divide(y, r2, out=t)
            np.less(t, np.inf, out=m)
        # inv > m: inverted, and the new Im z is not finite
        if np.greater(inv, m, out=m).any():
            raise NumericalDegeneracy("Im z left the positive floats during reduction")
        np.copyto(y, t, where=inv)
    else:
        raise NumericalDegeneracy("reduction did not terminate")
    np.subtract(x, 1.0, out=x, where=x > 0.5 - _BOUNDARY_TOL)
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
