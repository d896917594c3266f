"""Generators for the rational point sets, their invariance under the
multiplication maps r -> p^(2d) r, and finite-level projections.

A point is keyed by the residue r that generates all of its coordinates:
torus1 = a*r/n, torus2 = b*rbar/n (triples only), and the surface point
u_{c*r/n} a_{n^alpha}^{-1}, i.e. z = (c*r mod n)/n + i*n^(-2*alpha).  For the
full set r runs over all residues; for monomial sets r runs over the
deduplicated d-th power residues of units, so collisions of k^d across unit
classes are counted once (sets, not multisets).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from . import arith
from .arith import _INT64_MOD_LIMIT, Modulus, NotCoprime, gcd, is_prime, mod_inverse
from .sl2 import reduce_many

__all__ = [
    "PrimeDividesModulus",
    "PointSetSpec",
    "PointSet",
    "VARIANTS",
    "gen_full",
    "gen_monomial",
    "gen_triple",
    "gen_point_set",
    "verify_invariance",
    "validate_projection",
    "project_level",
    "project_level_direct",
    "project_level_stated",
]


class PrimeDividesModulus(ValueError):
    """The acting prime must be coprime to the modulus."""


def _scale_height(n: int, alpha: Fraction | float) -> float:
    # n^(-2 alpha) via exp/log, 1.0 at n = 1; relative error ~1e-16, under the 1e-13 budget
    return math.exp(-2.0 * float(alpha) * math.log(n))


def _height_is_normal(n: int, alpha: Fraction | float) -> bool:
    return _scale_height(n, alpha) >= sys.float_info.min


@dataclass(frozen=True)
class PointSetSpec:
    """Parameters of a point-set family.

    alpha is the horocycle expansion exponent (height n^(-2*alpha)); d the
    monomial degree; a, b, c the unit multipliers on the first torus, second
    torus, and surface coordinates, which must be units mod n: a*b*c
    shares no factor with n, else NotCoprime.  Monomial and triple sets run
    over the units k, gcd(k, n) = 1.
    """

    n: int
    alpha: Fraction = Fraction(1, 2)
    d: int = 1
    a: int = 1
    b: int = 1
    c: int = 1

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if gcd(self.a * self.b * self.c, self.n) != 1:
            raise NotCoprime(f"a*b*c={self.a * self.b * self.c} shares a factor "
                             f"with n={self.n}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not _height_is_normal(self.n, self.alpha):
            raise ValueError(f"the height {self.n}^(-2*{self.alpha}) is below the "
                             "smallest normal float")

    def check_schedule(self, n_schedule: list[int]) -> None:
        """Raise what replace(self, n=n) raises at the first n of the
        ascending schedule where it raises, without a spec per n.  The
        multipliers take one gcd per n.  The height n^(-2 alpha) falls as n
        grows, so it is tested at the largest n, and only when it is too
        small there is the first n where it is too small bisected for."""
        units = self.a * self.b * self.c
        first = next((n for n in n_schedule if n < 1 or gcd(units, n) != 1), None)
        if n_schedule and not _height_is_normal(n_schedule[-1], self.alpha):
            low = n_schedule[bisect.bisect_left(
                n_schedule, True, key=lambda n: not _height_is_normal(n, self.alpha))]
            first = low if first is None else min(first, low)
        if first is not None:
            replace(self, n=first)


class PointSet:
    """A point set as coordinate arrays keyed by the residues of one spec.

    len() is the number of points.  Generation is deterministic (keys
    ascending), so averages downstream are order-stable.  The keys are an
    int64 array, or with keys None (at d = 1) the units of table, the
    arithmetic of n the set came from.  A set with_second has a second
    torus, the keys' inverses, which a view takes by table.invert once.
    modulus is table when the caller of gen_triple handed it over, else
    None; the torus characters read its root table.  view(lo, hi) is a
    slice of the set, and blocks() walks it as views of arith.BLOCK
    consecutive points.  A view computes each torus numerator array once,
    for all the characters evaluated on it; a whole set keeps none, so no
    full-length array derived from the keys outlives its call.
    """

    def __init__(self, spec: PointSetSpec, keys: np.ndarray | None, x_mult: int,
                 table: Modulus | None = None, with_second: bool = False,
                 modulus: Modulus | None = None):
        self.spec = spec
        self._keys = keys
        self.x_mult = x_mult
        self.table = table
        self.with_second = with_second
        self.modulus = modulus
        self._reduced: tuple[np.ndarray, np.ndarray] | None = None
        # the torus numerator arrays a view has computed, by slot; None on a
        # whole set, which keeps none
        self._numerators: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return self.table.phi if self._keys is None else len(self._keys)

    @property
    def residues(self) -> np.ndarray:
        """The keys: the held array, or the table's units, sieved per read."""
        return self.table.unit_range(0, len(self)) if self._keys is None else self._keys

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def scale_height(self) -> float:
        return _scale_height(self.spec.n, self.spec.alpha)

    def torus1_numerators(self) -> np.ndarray:
        return self._torus_numerators("t1", self.spec.a, lambda: self.residues)

    def torus2_numerators(self) -> np.ndarray:
        if not self.with_second:
            raise ValueError("point set has no second torus coordinate")
        return self._torus_numerators("t2", self.spec.b,
                                      lambda: self.table.invert(self.residues))

    def _torus_numerators(self, slot: str, mult: int, keys: Callable) -> np.ndarray:
        """mult * keys() mod n; a view keeps it, read-only, for its later readers."""
        held = self._numerators
        if held is None:
            return (mult % self.n) * keys() % self.n
        if slot not in held:
            held[slot] = arith._read_only((mult % self.n) * keys() % self.n)
        return held[slot]

    def x_reals(self) -> np.ndarray:
        return ((self.x_mult % self.n) * self.residues % self.n) / float(self.n)

    def reduced_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Fundamental-domain coordinates of the surface points, cached.

        Each view of blocks() is reduced on its own into its slice of the
        two arrays, so no other full-length array is made.  Every later
        observable of the set reads the two arrays, so they are read-only.
        """
        if self._reduced is None:
            xs, ys = np.empty(len(self)), np.empty(len(self))
            lo = 0
            for block in self.blocks():
                hi = lo + len(block)
                xs[lo:hi], ys[lo:hi] = reduce_many(block.x_reals(), self.scale_height)
                lo = hi
            self._reduced = (arith._read_only(xs), arith._read_only(ys))
        return self._reduced

    def heights(self) -> np.ndarray:
        return self.reduced_xy()[1]

    def view(self, lo: int, hi: int) -> PointSet:
        """The points lo..hi-1 of this set, in key order, as a view.

        A view holds its own keys, a slice of this set's or sieved from the
        table, and shares the table; it refers to no set.  It reduces its own
        points when first read on the surface, with the bits of this set's
        reduced_xy, and keeps the torus numerators it computes.
        """
        keys = self.table.unit_range(lo, hi) if self._keys is None else self._keys[lo:hi]
        view = PointSet(self.spec, keys, self.x_mult, self.table, self.with_second, self.modulus)
        view._numerators = {}
        return view

    def blocks(self) -> Iterator[PointSet]:
        """Views of arith.BLOCK consecutive points each, in key order."""
        step = arith.BLOCK
        for lo in range(0, len(self), step):
            yield self.view(lo, lo + step)


def gen_full(n: int, alpha: Fraction | float) -> PointSet:
    """All n rational points k/n, k = 0..n-1, at height n^(-2*alpha)."""
    spec = PointSetSpec(n=n, alpha=Fraction(alpha), d=1)
    if n >= _INT64_MOD_LIMIT:
        raise ValueError("bulk generation requires n < 2^31")
    return PointSet(spec, np.arange(n, dtype=np.int64), x_mult=1)


def gen_monomial(spec: PointSetSpec) -> PointSet:
    """Deduplicated pairs (a*k^d/n, u_{b*k^d/n} a_{n^alpha}^{-1}) over units k.

    The second coefficient of a pair set rides on the surface coordinate.
    len equals residue_count_formula(Modulus(n), d).
    """
    mod = Modulus(spec.n)
    return PointSet(spec, None if spec.d == 1 else mod.residues(spec.d), x_mult=spec.b,
                    table=mod)


def gen_triple(spec: PointSetSpec, modulus: Modulus | None = None) -> PointSet:
    """Triples (a*k^d/n, b*inv(k^d)/n, u_{c*k^d/n} a_{n^alpha}^{-1}) over units.

    The canonical family fixes alpha = 1/2; other alphas are accepted for
    exploration only.  The residues come from modulus, the arithmetic table
    of n, when one is given, and the set keeps it; each view inverts its own
    keys when its second torus is first read.
    """
    mod = Modulus(spec.n) if modulus is None else modulus
    if mod.n != spec.n:
        raise ValueError(f"the table of n={mod.n} was given for n={spec.n}")
    return PointSet(spec, None if spec.d == 1 else mod.residues(spec.d), x_mult=spec.c,
                    table=mod, with_second=True, modulus=modulus)


# per variant of gen_point_set: the spec fields its generator reads besides
# n and alpha, and the coordinates its points carry, named as observables
# name the slots they read (t1 and t2 the two tori, x the surface)
VARIANTS = {
    "full": ((), ("t1", "x")),
    "monomial": (("d", "a", "b"), ("t1", "x")),
    "triple": (("d", "a", "b", "c"), ("t1", "t2", "x")),
}


def gen_point_set(spec: PointSetSpec, variant: str) -> PointSet:
    """The point set of a variant name, one of VARIANTS."""
    if variant == "full":
        return gen_full(spec.n, spec.alpha)
    if variant == "monomial":
        return gen_monomial(spec)
    if variant == "triple":
        return gen_triple(spec)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# multiplication actions

def verify_invariance(mod: Modulus, d: int, p: int) -> bool:
    """True iff multiplication by p^(2d) permutes mod.residues(d) exactly,
    and so every point set of (n, d): with unit multipliers a point's
    coordinates are a bijective function of its residue key.

    p is a unit mod n (else PrimeDividesModulus), so multiplying by p^(2d)
    is injective, and the image equals the set exactly when it lies in it:
    each image key is looked up in a bool mask of the set over [0, n).
    """
    n = mod.n
    if gcd(p, n) != 1:
        raise PrimeDividesModulus(f"p={p} divides n={n}")
    res = mod.residues(d)
    member = np.zeros(n, dtype=bool)
    member[res] = True
    return bool(member[res * pow(p, 2 * d, n) % n].all())


# ---------------------------------------------------------------------------
# finite-level projections

def validate_projection(n: int, places, l, m) -> tuple[tuple, tuple, tuple]:
    """(places, l, m) as tuples, once n >= 1, l and m align with places,
    every exponent is >= 0 and every place is a prime not dividing n
    (NotCoprime if one divides it); ValueError otherwise."""
    places, l, m = tuple(places), tuple(l), tuple(m)
    if n < 1 or len(l) != len(places) or len(m) != len(places):
        raise ValueError("need n >= 1 and exponent vectors aligned with the places")
    if any(e < 0 for e in l + m):
        raise ValueError("exponents must be non-negative")
    for p in places:
        if not is_prime(p):
            raise ValueError(f"place {p} is not prime")
        if n % p == 0:
            raise NotCoprime(f"place {p} divides n={n}")
    return places, l, m


def _levels(n: int, finite_places, l, m) -> tuple[int, int, int]:
    """(S^(l v m), S^l, S^m) of a projection case, which is validated first."""
    places, l, m = validate_projection(n, finite_places, l, m)
    return (math.prod(p ** max(a, b) for p, a, b in zip(places, l, m)),
            math.prod(p ** e for p, e in zip(places, l)),
            math.prod(p ** e for p, e in zip(places, m)))


def project_level_stated(n: int, finite_places, l, m) -> frozenset:
    """The closed-form projection set {(S^(lvm) k/n mod S^l, ... mod S^m)}."""
    s_join, s_l, s_m = _levels(n, finite_places, l, m)
    pairs = set()
    for k in range(n):
        t = Fraction(s_join * k, n)
        pairs.add((t % s_l, t % s_m))
    return frozenset(pairs)


def project_level_direct(n: int, finite_places, l, m) -> frozenset:
    """The projection computed pointwise through strong approximation.

    For each k an integer r = k/n mod S^(lvm) is chosen so k/n - r is
    divisible by S^(lvm); the pair is (k/n - r) mod S^l and mod S^m.
    """
    s_join, s_l, s_m = _levels(n, finite_places, l, m)
    n_inv = mod_inverse(n % s_join, s_join)
    pairs = set()
    for k in range(n):
        r = (k * n_inv) % s_join
        t = Fraction(k, n) - r
        pairs.add((t % s_l, t % s_m))
    return frozenset(pairs)


def project_level(n: int, finite_places, l, m) -> frozenset:
    """Project the rational points to level (S^l, S^m): the set of pairs
    (t mod S^l, t mod S^m), t = S^(l v m) * k / n, as exact rationals with
    representatives in [0, S^l) x [0, S^m).  Both computation paths are
    evaluated and must agree exactly."""
    stated = project_level_stated(n, finite_places, l, m)
    direct = project_level_direct(n, finite_places, l, m)
    if stated != direct:
        raise ArithmeticError(
            f"projection paths disagree for n={n}, places={finite_places}, l={l}, m={m}"
        )
    return stated
