"""Observable families on the torus, the two-torus, and the modular surface,
each paired with an exact or closed-form Haar expectation.

Surface observables are point-pair invariant kernels (functions of hyperbolic
distance summed over the modular group) and height-band indicators; their
Haar targets come from the unfolding identity and the cusp-strip area formula
respectively, with no spectral theory involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .arith import _read_only, roots_of_unity
from .points import PointSet
from .sl2 import reduce_many

__all__ = [
    "RadiusTooLarge",
    "HaarTarget",
    "TorusChar",
    "TwoTorusChar",
    "AutomorphicKernel",
    "HeightBand",
    "Product",
    "Observable",
]

_RADIUS_CAP = 3.0
_DEDUP_DECIMALS = 12
_FLOOR_IM = math.sqrt(3.0) / 2.0
_FUND_VOL = math.pi / 3.0
# bounds the translations of the c = 0 orbit row, about 38 * Im z_c at R = 3;
# each is a candidate of the Python enumeration loop, and each kept one an
# orbit point that the kernel sweeps over its window of heights
_ORBIT_GUARD = 10 ** 5


class RadiusTooLarge(ValueError):
    """Kernel radius exceeds the enumeration certification bound."""


@dataclass(frozen=True)
class HaarTarget:
    """Haar-measure expectation, either exact or from a numeric oracle."""

    value: float
    exact: bool


# ---------------------------------------------------------------------------
# automorphic kernel machinery

def _min_cosh_to_strip(w: complex, y_bot: float, y_top: float) -> float:
    """cosh of the minimal distance from w to {|Re| <= 1/2, y_bot <= Im <= y_top}."""
    dx = max(0.0, abs(w.real) - 0.5)
    yw = w.imag
    ystar = math.sqrt(dx * dx + yw * yw)
    ystar = min(max(ystar, y_bot), y_top)
    return 1.0 + (dx * dx + (yw - ystar) ** 2) / (2.0 * yw * ystar)


def _orbit_points(radius: float, center: complex, slack: float = 1.0) -> tuple[np.ndarray, int]:
    """Modular orbit points of `center` reachable from the fundamental domain.

    Returns (points, stabilizer_order).  The enumeration sweeps bottom rows
    (c, d) and translations with exact geometric cutoffs scaled by `slack`;
    candidates are kept when their distance to the relevant strip is at most
    the radius.  Doubling `slack` must not change any kernel value, which the
    test suite asserts.  A centre whose c = 0 row spans more than
    _ORBIT_GUARD translations at slack 1 raises ValueError before any
    candidate is made.  Memoized on the argument values, so a call that
    leaves out the default slack and one that passes it share one entry;
    every kernel of (radius, center) reads the same points, so they are
    read-only.
    """
    return _enumerate_orbit(radius, center, slack)


@lru_cache(maxsize=None)
def _enumerate_orbit(radius: float, center: complex, slack: float) -> tuple[np.ndarray, int]:
    xf, yf = reduce_many([center.real], center.imag)
    xc, yc = float(xf[0]), float(yf[0])
    zc = complex(xc, yc)
    cosh_r = math.cosh(radius)
    span = 2.0 * _row_halfwidth(yc, math.exp(radius) * yc, cosh_r)
    if not span <= _ORBIT_GUARD:
        raise ValueError(f"center {center} reduces to height {yc:.6g}: its orbit "
                         f"spans about {span:.3g} translations, above the "
                         f"{_ORBIT_GUARD} guard")
    y_top = math.exp(radius) * yc * (1.0 + 1e-9) * slack
    y_bot = _FLOOR_IM / (math.exp(radius) * slack) / (1.0 + 1e-9)
    # |c*zc + d|^2 <= yc / y_bot so that Im w stays above the floor
    q_cap = yc / y_bot * slack
    c_cap = int(math.floor(math.sqrt(q_cap) / yc)) + 1

    candidates: list[tuple[complex, bool]] = []  # (point, fixes_center)
    for c in range(0, c_cap + 1):
        if c == 0:
            ds = [1]
        else:
            span = math.sqrt(max(q_cap - (c * yc) ** 2, 0.0))
            lo = math.floor(-c * xc - span)
            hi = math.ceil(-c * xc + span)
            ds = [d for d in range(lo, hi + 1) if math.gcd(c, d) == 1]
        for d in ds:
            # a*d - b*c = 1 (normalize the gcd sign so the determinant is +1)
            g, a0, b0 = _ext_gcd(d, -c)
            if g == -1:
                a0, b0 = -a0, -b0
            denom = complex(c, 0) * zc + d
            if abs(denom) ** 2 > q_cap * (1 + 1e-9):
                continue
            w0 = (complex(a0, 0) * zc + b0) / denom
            yw = w0.imag
            y_ref = min(math.exp(radius) * yw, y_top)
            r_h = _row_halfwidth(yw, y_ref, cosh_r) * slack
            j_lo = math.floor(-0.5 - r_h - w0.real)
            j_hi = math.ceil(0.5 + r_h - w0.real)
            for j in range(j_lo, j_hi + 1):
                w = w0 + j
                if _min_cosh_to_strip(w, _FLOOR_IM, y_top) <= cosh_r * (1 + 1e-9) + 1e-9:
                    fixes = abs(w - zc) < 1e-9
                    candidates.append((w, fixes))

    stab = sum(1 for _, fixes in candidates if fixes)
    pts = np.array([w for w, _ in candidates], dtype=complex)
    keyed = np.round(pts.real, _DEDUP_DECIMALS) + 1j * np.round(pts.imag, _DEDUP_DECIMALS)
    _, idx = np.unique(keyed, return_index=True)
    return _read_only(pts[np.sort(idx)]), stab


def _row_halfwidth(yw: float, y_ref: float, cosh_r: float) -> float:
    """Half-width of the translations of one orbit row that can reach the strip."""
    return math.sqrt(max(2.0 * yw * y_ref * (cosh_r - 1.0), 0.0))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _kernel_profile_indicator(cosh_d: np.ndarray, radius: float) -> np.ndarray:
    """1.0 on cosh d <= cosh(R) (1 + 1e-12), else 0.0, written over cosh_d."""
    return np.less_equal(cosh_d, math.cosh(radius) * (1 + 1e-12), out=cosh_d)


def _kernel_profile_smooth(cosh_d: np.ndarray, radius: float) -> np.ndarray:
    """(1 - (r/R)^2)^2 at r = arccosh(cosh d) <= R, else 0.0, written over
    cosh_d.  Every caller passes cosh d = 1 + q with q >= 0, or NaN or
    inf, so arccosh never sees an argument below 1."""
    r = np.arccosh(cosh_d, out=cosh_d)
    # r > R and NaN clamp to R, whose bump is (1 - 1)^2 = +0.0 exactly
    np.fmin(r, radius, out=r)
    r /= radius
    r *= r
    np.subtract(1.0, r, out=r)
    r *= r
    return r


def _smooth_sinh_moment(radius: float) -> float:
    """int_0^R (1 - (r/R)^2)^2 sinh r dr as the positive series
    sum_j R^(2j+2) / ((2j+1)! (j+1)(j+2)(j+3)), termwise from
    int_0^1 (1 - t^2)^2 t^(2j+1) dt = 1 / ((j+1)(j+2)(j+3)); summed until a
    term no longer changes the float sum."""
    r2 = radius * radius
    power, total, j = r2, 0.0, 0  # power = R^(2j+2) / (2j+1)!
    while True:
        grown = total + power / ((j + 1) * (j + 2) * (j + 3))
        if grown == total:
            return total
        total, j = grown, j + 1
        power *= r2 / (2 * j * (2 * j + 1))


def _height_keys(y: np.ndarray) -> np.ndarray:
    """The top 16 bits of positive float64 heights: a uint16 key that is
    monotone in the height, with 16 bins per octave."""
    keys = np.empty(np.shape(y), dtype=np.uint16)
    bits = np.asarray(y, dtype=np.float64).view(np.uint64)
    return np.right_shift(bits, np.uint64(48), out=keys, casting="unsafe")


def _kernel_values(xf: np.ndarray, yf: np.ndarray, radius: float, profile: str,
                   orbit: np.ndarray, stab: int) -> np.ndarray:
    """stab * sum over the orbit of prof(cosh d(z, w)) at each point z.

    The points are ordered by height (a stable radix argsort of
    _height_keys), and each orbit point w = u + iv is swept only over the
    contiguous run of keys whose heights can come within the cut
    c = cosh(R) (1 + 1e-9) of it: y in v (c -+ sqrt(c^2 - 1 - dx^2 / v^2)),
    widened by 1e-9, where dx is the distance from u to the range of the
    non-NaN x (a NaN point adds +0.0 wherever it sits).  The profile is
    evaluated in place on the whole run; outside its support it is exactly
    +0.0, so each point sums the same values in the same orbit order as a
    full sweep, bit for bit.

    cosh d = 1 + ((x - u)^2 + (y - v)^2) / (2 y v) is computed with the
    operations and operands of that formula.  _orbit_points emits the
    translates w0 + j of an orbit row together, so (y - v)^2 and 2 y v are
    computed once per run of equal v, over the union of its translates' runs.
    """
    prof = _kernel_profile_indicator if profile == "indicator" else _kernel_profile_smooth
    cut = math.cosh(radius) * (1 + 1e-9)
    keys = _height_keys(yf)
    order = np.argsort(keys, kind="stable")
    keys, xs, ys = keys.take(order), xf.take(order), yf.take(order)

    u, v = orbit.real, orbit.imag
    x_lo = np.fmin.reduce(xf, initial=np.inf)
    x_hi = np.fmax.reduce(xf, initial=-np.inf)
    dx = np.maximum(np.maximum(x_lo - u, u - x_hi), 0.0)
    disc = cut * cut - 1.0 - (dx / v) ** 2
    half = np.sqrt(np.maximum(disc, 0.0))
    lo = keys.searchsorted(_height_keys(v * (cut - half) * (1 - 1e-9)), "left")
    hi = keys.searchsorted(_height_keys(v * (cut + half) * (1 + 1e-9)), "right")
    lo, hi = lo.tolist(), np.where(disc >= 0.0, hi, lo).tolist()

    total = np.zeros_like(xs)
    dy2_buf, den_buf, cosh_buf = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
    rows = np.flatnonzero(np.diff(v, prepend=np.nan, append=np.nan))
    for a, b in zip(rows[:-1].tolist(), rows[1:].tolist()):
        swept = [j for j in range(a, b) if lo[j] < hi[j]]
        if not swept:
            continue
        row_lo, row_hi = min(lo[j] for j in swept), max(hi[j] for j in swept)
        dy2 = np.subtract(ys[row_lo:row_hi], v[a], out=dy2_buf[:row_hi - row_lo])
        dy2 *= dy2
        den = np.multiply(ys[row_lo:row_hi], 2.0, out=den_buf[:row_hi - row_lo])
        den *= v[a]
        for j in swept:
            run = slice(lo[j] - row_lo, hi[j] - row_lo)
            cosh_d = np.subtract(xs[lo[j]:hi[j]], u[j], out=cosh_buf[:hi[j] - lo[j]])
            cosh_d *= cosh_d
            cosh_d += dy2[run]
            cosh_d /= den[run]
            cosh_d += 1.0
            total[lo[j]:hi[j]] += prof(cosh_d, radius)
    total *= stab
    out = np.empty_like(total)
    out[order] = total
    return out


# ---------------------------------------------------------------------------
# observable variants

def _phase_roots(ps: PointSet, phases: np.ndarray) -> np.ndarray:
    """e(phase/n) at each phase, bit for bit roots_of_unity(phases, n): read
    from the root table of ps.table once another reader has built it."""
    table = ps.table
    if table is not None and "roots" in vars(table):
        return table.roots.take(phases)
    return roots_of_unity(phases, ps.n)


@dataclass(frozen=True)
class TorusChar:
    """e(m * t) on the first torus coordinate."""

    m: int

    def _slots(self):
        return {"t1"}

    def eval_many(self, ps: PointSet) -> np.ndarray:
        n = ps.n
        return _phase_roots(ps, (self.m % n) * ps.torus1_numerators() % n)

    def haar(self) -> HaarTarget:
        return HaarTarget(1.0 if self.m == 0 else 0.0, exact=True)

    def describe(self) -> str:
        return f"torus_char(m={self.m})"


@dataclass(frozen=True)
class TwoTorusChar:
    """e(m1 * t + m2 * s) on the torus pair of a triple set."""

    m1: int
    m2: int

    def _slots(self):
        return {"t1", "t2"}

    def eval_many(self, ps: PointSet) -> np.ndarray:
        n = ps.n
        nums = ((self.m1 % n) * ps.torus1_numerators()
                + (self.m2 % n) * ps.torus2_numerators()) % n
        return _phase_roots(ps, nums)

    def haar(self) -> HaarTarget:
        return HaarTarget(1.0 if self.m1 == self.m2 == 0 else 0.0, exact=True)

    def describe(self) -> str:
        return f"two_torus_char(m1={self.m1},m2={self.m2})"


@dataclass(frozen=True)
class AutomorphicKernel:
    """Point-pair invariant kernel summed over the modular group.

    profile 'indicator' is 1 on distance <= radius; 'smooth' is the C^1 bump
    (1 - (r/radius)^2)^2.  The radius is capped at 3, the range over which
    the orbit enumeration is certified complete.
    """

    radius: float
    profile: str = "smooth"
    center: complex = 1j

    def __post_init__(self):
        if not 0 < self.radius <= _RADIUS_CAP:
            raise RadiusTooLarge(f"radius {self.radius} outside (0, {_RADIUS_CAP}]")
        if self.profile not in ("indicator", "smooth"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if not (cmath.isfinite(self.center) and self.center.imag > 0):
            raise ValueError("center must be a finite point of the upper half plane")
        # enumerates (and caches) the orbit, so a centre past the guard fails here
        _orbit_points(self.radius, self.center)

    def _slots(self):
        return {"x"}

    def _values(self, xf: np.ndarray, yf: np.ndarray) -> np.ndarray:
        return _kernel_values(xf, yf, self.radius, self.profile,
                              *_orbit_points(self.radius, self.center))

    def values_at(self, zs: np.ndarray) -> np.ndarray:
        """Kernel values at upper-half-plane points, in the shape of zs."""
        zs = np.asarray(zs, dtype=complex)
        return self._values(*reduce_many(zs.real.ravel(), zs.imag.ravel())).reshape(zs.shape)

    def eval_many(self, ps: PointSet) -> np.ndarray:
        return self._values(*ps.reduced_xy())

    def haar(self) -> HaarTarget:
        # unfolding: (3/pi) * 2*pi * int_0^R k(r) sinh(r) dr
        if self.profile == "indicator":
            # 6 (cosh R - 1), written without the cancellation at small R
            return HaarTarget(12.0 * math.sinh(self.radius / 2.0) ** 2, exact=False)
        return HaarTarget(6.0 * _smooth_sinh_moment(self.radius), exact=False)

    def describe(self) -> str:
        extra = "" if self.center == 1j else f",center={self.center}"
        return f"kernel(R={self.radius},{self.profile}{extra})"


@dataclass(frozen=True)
class HeightBand:
    """Indicator of the height Im z_F of the reduced point in (lower, upper];
    lower >= 1 keeps the cusp-strip area formula exact."""

    lower: float
    upper: float = math.inf

    def __post_init__(self):
        if not 1.0 <= self.lower < self.upper:
            raise ValueError("need 1 <= lower < upper")

    def _slots(self):
        return {"x"}

    def eval_many(self, ps: PointSet) -> np.ndarray:
        h = ps.heights()
        return ((h > self.lower) & (h <= self.upper)).astype(np.float64)

    def haar(self) -> HaarTarget:
        inv_upper = 0.0 if math.isinf(self.upper) else 1.0 / self.upper
        return HaarTarget((1.0 / self.lower - inv_upper) / _FUND_VOL, exact=True)

    def describe(self) -> str:
        return f"height_band({self.lower},{self.upper})"


@dataclass(frozen=True)
class Product:
    """Product of component observables over disjoint coordinate factors."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product needs at least one factor")
        used: set[str] = set()
        for f in self.factors:
            slots = f._slots()
            if used & slots:
                raise ValueError("product components must use disjoint factors")
            used |= slots

    def _slots(self):
        out: set[str] = set()
        for f in self.factors:
            out |= f._slots()
        return out

    def eval_many(self, ps: PointSet) -> np.ndarray:
        return self.combine(f.eval_many(ps) for f in self.factors)

    @staticmethod
    def combine(values) -> np.ndarray:
        """The values of a product from its factors' value arrays, given in
        factor order: the first array itself, times each next one in turn."""
        out = None
        for vals in values:
            out = vals if out is None else out * vals
        return out

    def haar(self) -> HaarTarget:
        value, exact = 1.0, True
        for f in self.factors:
            t = f.haar()
            value *= t.value
            exact = exact and t.exact
        return HaarTarget(value, exact=exact)

    def describe(self) -> str:
        return "*".join(f.describe() for f in self.factors)


Observable = Union[TorusChar, TwoTorusChar, AutomorphicKernel, HeightBand, Product]
