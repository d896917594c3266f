"""Empirical averages against Haar targets, exponential-sum identities,
the prime-averaged discrepancy operator, and decay-rate estimation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import arith
from .arith import primes_coprime
from .observables import Observable
from .points import PointSet

__all__ = [
    "EmptySet",
    "InsufficientData",
    "NoPrimesAvailable",
    "NotExpanding",
    "DiscrepancyResult",
    "empirical_average",
    "weyl_sums_all_residues",
    "toral_correlation",
    "discrepancy_l2",
    "rate_fit",
    "cusp_mass",
]

_ERROR_FLOOR = 1e-15
# numpy's pairwise sum adds a node of at most this many complex values in
# one unrolled loop, unsplit
_PAIRWISE_LEAF = 64


class EmptySet(ValueError):
    """An average over zero samples was requested."""


class InsufficientData(ValueError):
    """The rate fit needs at least three usable points."""


class NoPrimesAvailable(ValueError):
    """The prime window of the discrepancy operator is empty."""


class NotExpanding(ValueError):
    """The toral endomorphism must have all eigenvalues outside the unit circle."""


def empirical_average(ps: PointSet, obs: Observable) -> complex:
    """Arithmetic mean of the observable over the point set, bit for bit the
    mean() of one complex array of all its values, without that array.

    numpy sums a contiguous complex array pairwise: a node of m > 64 values
    splits after its first (m - m % 8) // 2 values (half its 2m doubles,
    rounded down to a multiple of 8), so the tree is fixed by the length
    alone.  The same tree is walked over the points in key order, and each
    node of at most arith.BLOCK points is a leaf: the observable is
    evaluated on that view of the set and summed by np.add.reduce, which
    builds the leaf's subtree itself (from a +0.0 start, as mean() does at
    the root, so at most the sign of a zero partial sum differs, and the
    total's does not).  The child sums are added in tree order, and the
    total is divided by the length as ndarray.mean divides.

    Every value is computed on its own point, whatever slice it is
    evaluated in, so the bits are those of the whole array, while only one
    leaf of values (16 bytes per point) is alive.  Adding the leaves' sums
    left to right instead would change the tree, and with it the last bits.
    Permuting the points moves the value by at most O(len * eps).  An
    observable of the surface reduces the set first, for its views to share.
    """
    if len(ps) == 0:
        raise EmptySet("point set is empty")
    if "x" in obs._slots():
        ps.reduced_xy()
    total = _node_sum(ps, obs, 0, len(ps))
    return complex(total.dtype.type(total / len(ps)))


def _node_sum(ps: PointSet, obs: Observable, lo: int, hi: int) -> np.complex128:
    """The sum of the observable over the points lo..hi-1 of the set, added
    as numpy's pairwise sum adds a node of that many values."""
    size = hi - lo
    if size <= max(arith.BLOCK, _PAIRWISE_LEAF):
        return np.add.reduce(np.asarray(obs.eval_many(ps.view(lo, hi)), dtype=complex))
    mid = lo + (size - size % 8) // 2
    return _node_sum(ps, obs, lo, mid) + _node_sum(ps, obs, mid, hi)


def weyl_sums_all_residues(n: int) -> np.ndarray:
    """All n full Weyl sums at once: entry m holds (1/n) sum_k e(mk/n).

    This is the DFT of the all-ones vector, 1 at m = 0 and 0 elsewhere;
    e(mk/n) depends on m only mod n, so the residues cover every integer m.
    """
    ones = np.ones(n)
    return np.conj(np.fft.fft(ones)) / n


def toral_correlation(matrix, m_in, m_out) -> float:
    """<e_{m_in} o T_A, e_{m_out}> for an expanding integer matrix A.

    By orthogonality of characters this is 1 exactly when A^T m_in = m_out
    and 0 otherwise; the bookkeeping is exact integer arithmetic, the
    expansion check is numeric.  The level of the torus does not enter.
    """
    A = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    if A.shape[0] != A.shape[1] or A.shape[0] not in (1, 2):
        raise ValueError("matrix must be 1x1 or 2x2")
    eig = np.linalg.eigvals(A.astype(np.float64))
    if not (np.abs(eig) > 1.0 + 1e-12).all():
        raise NotExpanding(f"eigenvalues {eig} not all outside the unit circle")
    vin = np.atleast_1d(np.asarray(m_in, dtype=np.int64))
    vout = np.atleast_1d(np.asarray(m_out, dtype=np.int64))
    if vin.shape != (A.shape[0],) or vout.shape != (A.shape[0],):
        raise ValueError("frequency vectors must match the matrix size")
    return 1.0 if np.array_equal(A.T @ vin, vout) else 0.0


@dataclass(frozen=True)
class DiscrepancyResult:
    """Exact L^2 norm of the prime-averaged discrepancy on one character."""

    n: int
    beta: float
    d: int
    m: int
    l2_value: float
    closed_form: float
    prime_count: int


def discrepancy_l2(n: int, beta: float, d: int, m: int) -> DiscrepancyResult:
    """L^2 norm squared of the discrepancy operator applied to e_m.

    The operator averages F over the maps t -> p^(2d) t for primes p in
    P(n, n^beta) and subtracts the mean.  On the character e_m (m != 0) the
    average is (1/pi_n) * sum_p e_{m p^(2d)}, so by orthogonality the norm
    squared is sum multiplicity^2 / pi_n^2 over the integer frequencies
    m * p^(2d) -- equal to 1/pi_n since distinct primes give distinct
    frequencies.  Everything is exact frequency bookkeeping, no sampling.
    """
    if not 0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    if m == 0:
        raise ValueError("m must be nonzero")
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    ps = primes_coprime(n, float(n) ** beta)
    if len(ps) == 0:
        raise NoPrimesAvailable(f"P({n}, {n}^{beta}) is empty")
    freqs = Counter(m * p ** (2 * d) for p in ps)
    count = len(ps)
    l2 = Fraction(sum(mult * mult for mult in freqs.values()), count * count)
    return DiscrepancyResult(
        n=n, beta=beta, d=d, m=m,
        l2_value=float(l2),
        closed_form=1.0 / count,
        prime_count=count,
    )


def rate_fit(n_values: Sequence[int], errors: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of log error = const - kappa * log n.

    Errors at or below the 1e-15 floor are treated as exact cancellations and
    excluded.  Returns (kappa, rms residual).
    """
    pairs = [(n, e) for n, e in zip(n_values, errors) if e > _ERROR_FLOOR]
    if len(pairs) < 3:
        raise InsufficientData("need >= 3 points with positive error")
    logn = np.log([p[0] for p in pairs])
    loge = np.log([p[1] for p in pairs])
    slope, intercept = np.polyfit(logn, loge, 1)
    resid = loge - (slope * logn + intercept)
    return float(-slope), float(np.sqrt(np.mean(resid ** 2)))


def cusp_mass(ps: PointSet, T: float) -> float:
    """Fraction of the points whose invariant height exceeds T."""
    if len(ps) == 0:
        raise EmptySet("point set is empty")
    return float((ps.heights() > T).mean())
