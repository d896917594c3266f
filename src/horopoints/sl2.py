"""Geometry of the modular surface: reduction to the fundamental domain and
the exact horocycle/horosphere intersection witness.

Points of the surface are complex numbers z in the upper half plane, taken
up to the SL2(Z) action; the reduced representative names the orbit.
"""

from __future__ import annotations

import numpy as np

from . import arith
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


def reduce_many(x: np.ndarray, y, out: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-reduce z = x + iy (x 1-D, y scalar or array) into |x| <= 1/2, |z| >= 1.

    Alternates the translation z -> z - round(Re z) with the inversion
    z -> -1/z on the points inside the unit circle.  Boundary convention: on
    |z| = 1 pick Re z <= 0, and Re z = 1/2 maps to -1/2 (tolerance 1e-12), so
    the representative is unique and reduction is idempotent.

    The points are reduced in place in blocks of arith.BLOCK, in the float64
    pair out (new arrays if None; out may be (x, y) themselves).  Each point
    is reduced on its own, and a settled point is a fixed point of the loop,
    so every block gives the bits a one-block reduction gives.

    Valid while every inverted Im z stays a finite positive float; otherwise
    (|z|^2 underflows to 0 at a tiny Im z) raises NumericalDegeneracy rather
    than return NaN or infinite coordinates.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar_y = np.ndim(y) == 0
    if scalar_y:
        y = float(y)
    else:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != x.shape:
            raise ValueError("x and y must have the same shape")
    xs, ys = (np.empty_like(x), np.empty_like(x)) if out is None else out
    step = arith.BLOCK
    for lo in range(0, len(x), step):
        xb, yb = xs[lo:lo + step], ys[lo:lo + step]
        if xs is not x:
            xb[...] = x[lo:lo + step]
        if scalar_y:
            yb[...] = y
        elif ys is not y:
            yb[...] = y[lo:lo + step]
        _reduce_block(xb, yb)
    return xs, ys


def _reduce_block(x: np.ndarray, y: np.ndarray) -> None:
    """reduce_many on one block, in place."""
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
