"""Geometry of the modular surface: generator matrices, the Moebius action,
fundamental-domain reduction, heights, and the exact horocycle/horosphere
intersection witness.

Points of the surface are represented as (z, theta) with z in the upper half
plane via z(g) = g.i, so left cosets match SL2(Z)-orbits on H.  The frame
angle theta is tracked mod pi (the center +-I acts trivially); every
observable in this package is frame-independent, the angle is carried along
for forward compatibility.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import NotCoprime, gcd, mod_inverse

__all__ = [
    "NonPositiveDiagonal",
    "NumericalDegeneracy",
    "RealMatrix2",
    "IntegerMatrix2",
    "FramedPoint",
    "ReducedPoint",
    "make_u",
    "make_a",
    "make_v",
    "mobius",
    "to_point",
    "reduce",
    "reduce_many",
    "invariant_height",
    "adjoint_height",
    "intersection_witness",
    "verify_intersection",
]

_DET_TOL = 1e-9
_BOUNDARY_TOL = 1e-12
_MAX_REDUCE_STEPS = 5000


class NonPositiveDiagonal(ValueError):
    """Diagonal flow parameter y must be positive."""


class NumericalDegeneracy(ArithmeticError):
    """The imaginary part degenerated below double precision."""


@dataclass(frozen=True)
class RealMatrix2:
    """Determinant-one 2x2 real matrix (tolerance 1e-9 at construction)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not abs(det - 1.0) <= _DET_TOL:
            raise ValueError(f"determinant {det} is not 1 within {_DET_TOL}")

    def __matmul__(self, other: "RealMatrix2") -> "RealMatrix2":
        return RealMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "RealMatrix2":
        return RealMatrix2(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


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

    def inverse(self) -> "IntegerMatrix2":
        return IntegerMatrix2(self.d, -self.b, -self.c, self.a)

    def to_real(self) -> RealMatrix2:
        return RealMatrix2(float(self.a), float(self.b), float(self.c), float(self.d))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = IntegerMatrix2(1, 0, 0, 1)


def make_u(t: float) -> RealMatrix2:
    """Upper unipotent u_t = (1 t; 0 1)."""
    return RealMatrix2(1.0, float(t), 0.0, 1.0)


def make_a(y: float) -> RealMatrix2:
    """Diagonal a_y = (y 0; 0 1/y); conjugation gives a_y u_t a_y^-1 = u_{y^2 t}."""
    if y <= 0:
        raise NonPositiveDiagonal(f"y={y} must be positive")
    return RealMatrix2(float(y), 0.0, 0.0, 1.0 / float(y))


def make_v(s: float) -> RealMatrix2:
    """Lower unipotent v_s = (1 0; s 1)."""
    return RealMatrix2(1.0, 0.0, float(s), 1.0)


def mobius(g, z: complex) -> complex:
    """(az + b)/(cz + d); maps the upper half plane to itself."""
    a, b, c, d = g.entries()
    return (a * z + b) / (c * z + d)


@dataclass(frozen=True)
class FramedPoint:
    """Point (z, theta): z in the upper half plane, frame angle in [0, pi)."""

    z: complex
    theta: float = 0.0

    def __post_init__(self):
        if not self.z.imag > 0:
            raise ValueError(f"Im z = {self.z.imag} must be positive")
        object.__setattr__(self, "theta", self.theta % math.pi)


@dataclass(frozen=True)
class ReducedPoint:
    """Fundamental-domain representative with its reducing lattice element."""

    point: FramedPoint
    reducer: IntegerMatrix2
    height: float


def to_point(g: RealMatrix2) -> FramedPoint:
    """z(g) = g.i with the frame angle from the Iwasawa rotation part."""
    a, b, c, d = g.entries()
    z = mobius(g, 1j)
    theta = -2.0 * math.atan2(c, d)
    return FramedPoint(z, theta)


def reduce(p: FramedPoint | complex) -> ReducedPoint:
    """Gauss-reduce into |Re z| <= 1/2, |z| >= 1, accumulating gamma.

    Alternates the translation z -> z - round(Re z) with the inversion
    z -> -1/z.  Boundary convention: on |z| = 1 pick Re z <= 0, and Re z = 1/2
    maps to -1/2 (tolerance 1e-12), so the representative is unique and
    reduction is idempotent.
    """
    if isinstance(p, FramedPoint):
        z, theta = p.z, p.theta
    else:
        z, theta = complex(p), 0.0
    if not z.imag > 0:
        raise ValueError("point must lie in the upper half plane")
    z0 = z
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
    gamma = IntegerMatrix2(a, b, c, d)
    theta_red = theta - 2.0 * cmath.phase(c * z0 + d)
    return ReducedPoint(FramedPoint(z, theta_red), gamma, z.imag)


def invariant_height(p: FramedPoint | complex) -> float:
    """Cusp excursion Im(z_F) of the reduced representative; Gamma-invariant."""
    return reduce(p).height


def reduce_many(
    x: np.ndarray, y, with_matrices: bool = False
):
    """Vectorized reduction of z = x + iy (y scalar or array).

    Returns (x_F, y_F) or (x_F, y_F, (a, b, c, d)) with int64 matrix entry
    arrays.  Semantics match :func:`reduce` including boundary conventions;
    property tests pin the two paths together.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    if np.isscalar(y) or np.ndim(y) == 0:
        y = np.full_like(x, float(y))
    else:
        y = np.array(y, dtype=np.float64, copy=True)
    if not (y > 0).all():
        raise ValueError("all points must lie in the upper half plane")
    # the matrix entries are tracked only on request; x and y take the same
    # float operations either way
    if with_matrices:
        a = np.ones(x.shape, dtype=np.int64)
        b = np.zeros(x.shape, dtype=np.int64)
        c = np.zeros(x.shape, dtype=np.int64)
        d = np.ones(x.shape, dtype=np.int64)
    for _ in range(_MAX_REDUCE_STEPS):
        m = np.rint(x)
        x -= m
        if with_matrices:
            mi = m.astype(np.int64)
            a -= mi * c
            b -= mi * d
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
        if with_matrices:
            ai, bi = a[inv].copy(), b[inv].copy()
            a[inv], b[inv] = -c[inv], -d[inv]
            c[inv], d[inv] = ai, bi
    else:
        raise NumericalDegeneracy("vectorized reduction did not terminate")
    fix = x > 0.5 - _BOUNDARY_TOL
    if fix.any():
        x[fix] -= 1.0
        if with_matrices:
            a[fix] -= c[fix]
            b[fix] -= d[fix]
    if with_matrices:
        return x, y, (a, b, c, d)
    return x, y


# ---------------------------------------------------------------------------
# adjoint-lattice height

# basis of the integral Lie algebra: H = (-1 0; 0 1), X = (0 1; 0 0), Y = (0 0; 1 0)
_H = np.array([[-1.0, 0.0], [0.0, 1.0]])
_X = np.array([[0.0, 1.0], [0.0, 0.0]])
_Y = np.array([[0.0, 0.0], [1.0, 0.0]])


def adjoint_height(g: RealMatrix2, bound: int | None = None) -> float:
    """sup of 1 / ||Ad(g^-1) v||_inf over nonzero integral lattice vectors.

    Vectors are v = x*H + u*X + w*Y with integer coefficients of magnitude at
    most `bound` (default 4 * (1 + invariant_height), enough because the
    adjoint orbit of the minimizing vector stays short).  The enumeration is
    pruned exactly: any v beating the best candidate must have coefficients
    below rowsum(Ad(g)) * best_norm.
    """
    if bound is None:
        bound = math.ceil(4.0 * (1.0 + invariant_height(to_point(g))))
    if bound < 1:
        raise ValueError("bound must be >= 1")
    a, b, c, d = g.entries()
    ginv = np.array([[d, -b], [-c, a]])
    gm = np.array([[a, b], [c, d]])
    images = [ginv @ m @ gm for m in (_H, _X, _Y)]
    # trace-free: coordinates (m11, m12, m21) determine the matrix and its sup norm
    cols = np.array([[im[0, 0], im[0, 1], im[1, 0]] for im in images]).T  # 3x3
    inv_cols = np.linalg.inv(cols)
    rowsums = np.abs(inv_cols).sum(axis=1)

    def grid_min(bounds: np.ndarray) -> float:
        axes = [np.arange(-bb, bb + 1) for bb in bounds]
        xg, ug, wg = np.meshgrid(*axes, indexing="ij")
        coeff = np.stack([xg.ravel(), ug.ravel(), wg.ravel()])
        nz = np.any(coeff != 0, axis=0)
        coeff = coeff[:, nz]
        vals = cols @ coeff
        return float(np.abs(vals).max(axis=0).min())

    best = grid_min(np.array([1, 1, 1]))
    eff = np.minimum(bound, np.floor(rowsums * best * (1 + 1e-12)).astype(np.int64))
    eff = np.maximum(eff, 1)
    if (eff > 1).any():
        if np.prod(2 * eff + 1) > 5e7:
            raise ValueError("effective search grid too large; pass a smaller bound")
        best = min(best, grid_min(eff))
    return 1.0 / best


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
