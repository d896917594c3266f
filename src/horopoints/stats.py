"""Empirical averages against Haar targets, toral correlations, the
prime-averaged discrepancy operator, and decay-rate estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import arith
from .arith import primes_coprime
from .observables import Observable, Product
from .points import PointSet

__all__ = [
    "EmptySet",
    "InsufficientData",
    "NoPrimesAvailable",
    "NotExpanding",
    "DiscrepancyResult",
    "PairwiseMean",
    "empirical_average",
    "subset_averages",
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
    mean() of one complex array of all its values, without that array: the
    one-set, one-observable case of :func:`subset_averages`.  Permuting the
    points moves the value by at most O(len * eps)."""
    return subset_averages(ps, [obs])[0][0]


def subset_averages(ps: PointSet, observables, masks=(None,),
                    evaluate: Callable | None = None) -> list[list[complex]]:
    """The average of each observable over each subset of the point set, in
    one walk of the set: entry [s][j] is, bit for bit, empirical_average of
    observable j over subset s, taken as a set of its own.

    A mask is None for the whole set, else a bool mask over [0, n) that
    marks the keys of a subset of the set (marking a key the set lacks
    raises ValueError).  The set is walked in the views that are the leaves
    of its own summation tree (see :class:`PairwiseMean`); on each, every
    distinct factor of the observables (the factors of a Product, or the
    observable itself) is evaluated once, by evaluate(factor, view), by
    default factor.eval_many(view), and each observable's values are formed
    from them as Product.eval_many forms them.  The values of each subset's
    points, picked out by its mask in key order, feed its own accumulator.
    Every value is computed on its own point, whatever view it is evaluated
    in, so each subset's average has the bits of its own set's.  A leaf view
    reduces its own points once, for all the factors that read the surface.
    """
    if len(ps) == 0:
        raise EmptySet("point set is empty")
    # the distinct factors, numbered, and each observable as its factors' numbers
    number: dict = {}
    terms = [[number.setdefault(f, len(number)) for f in _factors_of(obs)]
             for obs in observables]
    factors = list(number)
    sums = [[PairwiseMean(len(ps) if mask is None else int(np.count_nonzero(mask)))
             for _ in observables] for mask in masks]
    lo = 0
    for size, _ in _leaf_plan(len(ps)):
        _feed_leaf(ps.view(lo, lo + size), factors, terms, masks, sums, evaluate)
        lo += size
    return [[acc.mean() for acc in per_obs] for per_obs in sums]


def _factors_of(obs: Observable) -> tuple:
    return obs.factors if isinstance(obs, Product) else (obs,)


def _feed_leaf(view: PointSet, factors, terms, masks, sums, evaluate: Callable | None) -> None:
    """Evaluate each factor on the view once, and feed each observable's
    values on it to the accumulators of every subset; the view's values die
    on return, before the next leaf is evaluated."""
    values = [f.eval_many(view) if evaluate is None else evaluate(f, view) for f in factors]
    members = [None if mask is None else mask[view.residues] for mask in masks]
    for j, term in enumerate(terms):
        obs_values = Product.combine(values[i] for i in term)
        for per_obs, member in zip(sums, members):
            per_obs[j].add(obs_values if member is None else obs_values[member])


def _leaf_plan(length: int) -> list[list[int]]:
    """The leaves of numpy's pairwise-summation tree over length values, in
    order, as [size, merges]: a node of at most max(arith.BLOCK, 64) values
    is a leaf, any other splits after its first (m - m % 8) // 2, and after a
    leaf is summed, merges pending pairs of sibling sums are added."""
    if length <= max(arith.BLOCK, _PAIRWISE_LEAF):
        return [[length, 0]]
    half = (length - length % 8) // 2
    left, right = _leaf_plan(half), _leaf_plan(length - half)
    right[-1][1] += 1
    return left + right


class PairwiseMean:
    """The mean of length values fed in order, in chunks of any sizes, bit
    for bit the mean() of one contiguous complex array of them.

    numpy sums a contiguous complex array pairwise: a node of m > 64 values
    splits after its first (m - m % 8) // 2 values (half its 2m doubles,
    rounded down to a multiple of 8), so the tree is fixed by the length
    alone.  Each node of at most arith.BLOCK values is a leaf here: the
    values fed are held as they come until a leaf is whole, then the leaf is
    converted to complex and summed by np.add.reduce, which builds its
    subtree itself (from a +0.0 start, as mean() does at the root, so at
    most the sign of a zero partial sum differs, and the total's does not).
    Sibling sums are added in tree order, and the total is divided by the
    length as ndarray.mean divides.  At most a leaf of values, and the
    chunk that completes it, is held at a time.  Adding the leaves' sums
    left to right instead would change the tree, and with it the last bits.
    """

    def __init__(self, length: int):
        if length < 1:
            raise EmptySet("point set is empty")
        self.length = length
        self._plan = _leaf_plan(length)
        self._leaf = 0
        self._held: list[np.ndarray] = []
        self._count = 0
        self._sums: list[np.complex128] = []

    def add(self, values: np.ndarray) -> None:
        """Feed the next values, a 1-D array of any length and numeric dtype."""
        while len(values):
            if self._leaf == len(self._plan):
                raise ValueError(f"more than {self.length} values fed")
            size, merges = self._plan[self._leaf]
            take = size - self._count
            if len(values) < take:
                self._held.append(values)
                self._count += len(values)
                return
            leaf, values = values[:take], values[take:]
            if self._held:
                leaf = np.concatenate([*self._held, leaf], dtype=complex)
                self._held, self._count = [], 0
            self._sums.append(np.add.reduce(np.asarray(leaf, dtype=complex)))
            for _ in range(merges):
                right = self._sums.pop()
                self._sums[-1] = self._sums[-1] + right
            self._leaf += 1

    def mean(self) -> complex:
        if self._leaf < len(self._plan):
            raise ValueError(f"fewer than {self.length} values fed")
        total = self._sums[0]
        return complex(total.dtype.type(total / self.length))


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
    l2_value: float
    closed_form: float
    prime_count: int


def discrepancy_l2(n: int, beta: float) -> DiscrepancyResult:
    """L^2 norm squared of the discrepancy operator applied to e_m.

    The operator averages F over the maps t -> p^(2d) t for primes p in
    P(n, n^beta) and subtracts the mean.  On the character e_m (m != 0) the
    average is (1/pi_n) * sum_p e_{m p^(2d)}, so by orthogonality the norm
    squared is sum multiplicity^2 / pi_n^2 over the integer frequencies
    m * p^(2d).  By unique factorisation distinct primes give distinct
    frequencies, so every multiplicity is 1 and the norm squared is exactly
    1/pi_n for every d >= 1 and m != 0: only the prime count enters.
    """
    if not 0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    if n < 1:
        raise ValueError("need n >= 1")
    count = len(primes_coprime(n, float(n) ** beta))
    if count == 0:
        raise NoPrimesAvailable(f"P({n}, {n}^{beta}) is empty")
    return DiscrepancyResult(n=n, beta=beta, l2_value=1.0 / count,
                             closed_form=1.0 / count, prime_count=count)


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


def cusp_mass(ps: PointSet, thresholds: Sequence[float]) -> tuple[list[float], float]:
    """The share of the points whose height exceeds each threshold, as the
    exact count over len(ps) (the bits of numpy's bool mean() over the set),
    and the lowest height, in one walk of the set's block views."""
    if len(ps) == 0:
        raise EmptySet("point set is empty")
    above = [0] * len(thresholds)
    lowest = np.inf
    for block in ps.blocks():
        h = block.heights()
        above = [count + int(np.count_nonzero(h > T)) for count, T in zip(above, thresholds)]
        lowest = min(lowest, h.min())
    return [count / len(ps) for count in above], float(lowest)
