"""Tests for the SL2 geometry layer: reduction, heights, and the
intersection witness."""

import math
import warnings
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import IntegerMatrix2, intersection_witness, mobius, reduce, witness_holds

from horopoints import arith, sl2
from horopoints.arith import Modulus, NotCoprime, mod_inverse, totient
from horopoints.sl2 import NumericalDegeneracy, reduce_many, verify_intersection


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def _random_gamma(rng, max_entry=50):
    """Random SL2(Z) element with bounded entries, via generator words."""
    T = IntegerMatrix2(1, 1, 0, 1)
    Tinv = IntegerMatrix2(1, -1, 0, 1)
    S = IntegerMatrix2(0, -1, 1, 0)
    while True:
        g = IntegerMatrix2(1, 0, 0, 1)
        for _ in range(int(rng.integers(1, 9))):
            g = g @ (T, Tinv, S)[rng.integers(0, 3)]
        if max(abs(e) for e in g.entries()) <= max_entry:
            return g


# ---------------------------------------------------------------------------

def test_mobius_examples():
    ident = IntegerMatrix2(1, 0, 0, 1)
    assert mobius(ident, 0.3 + 2j) == 0.3 + 2j
    S = IntegerMatrix2(0, -1, 1, 0)
    assert _close(mobius(S, 1j), 1j)
    T = IntegerMatrix2(1, 1, 0, 1)
    assert mobius(T, 1j) == 1 + 1j


def _reduce1(z: complex) -> complex:
    xf, yf = reduce_many([z.real], z.imag)
    return complex(xf[0], yf[0])


def test_reduce_examples():
    zf = _reduce1(0.7 + 1j)
    assert _close(zf, -0.3 + 1j, 1e-12)
    assert abs(zf) >= 1.0

    assert _reduce1(0.5j) == 2j
    assert _close(_reduce1(0.25j), 4j, 1e-12)

    # hand reduction (1+i)/2 -> invert -> translate -> i
    assert _close(_reduce1((1 + 1j) / 2), 1j, 1e-12)


def test_reduce_boundary_conventions():
    # |z| = 1 with positive real part flips to the left boundary
    zf = _reduce1(complex(math.cos(1.2), math.sin(1.2)))
    assert zf.real <= 0 and _close(abs(zf), 1.0)
    # Re = +1/2 maps to -1/2
    assert _close(_reduce1(0.5 + 2j), -0.5 + 2j, 1e-12)
    # corner: the |z|=1, Re=1/2 point lands on the left corner
    assert _close(_reduce1(complex(0.5, math.sqrt(3) / 2)),
                  complex(-0.5, math.sqrt(3) / 2), 1e-9)


def _exact_mobius(g, z: complex) -> tuple[Fraction, Fraction]:
    # floats are dyadic rationals, so the forward map is computed exactly
    a, b, c, d = g.entries()
    zr, zi = Fraction(z.real), Fraction(z.imag)
    nr, ni = a * zr + b, a * zi
    dr, di = c * zr + d, c * zi
    den = dr * dr + di * di
    return ((nr * dr + ni * di) / den, (ni * dr - nr * di) / den)


def test_reduce_roundtrip_small():
    # forward check in exact rational arithmetic: the oracle's reducer carries
    # z onto the reduce_many representative, up to the float rounding of z_F
    # itself (relative at large heights)
    rng = np.random.default_rng(5)
    x = rng.uniform(-5, 5, 500)
    y = 10 ** rng.uniform(-5, 3, 500)
    xf, yf = reduce_many(x, y)
    for i in range(500):
        z, zf = complex(x[i], y[i]), complex(xf[i], yf[i])
        wr, wi = _exact_mobius(reduce(z).reducer, z)
        scale = max(1.0, abs(zf))
        assert abs(float(wr) - zf.real) <= 1e-9 * scale
        assert abs(float(wi) - zf.imag) <= 1e-9 * scale
        assert abs(zf.real) <= 0.5 + 1e-12
        assert abs(zf) >= 1.0 - 1e-12


def test_reduce_roundtrip_bulk():
    # 1e5 points, Im from 1e-8 to 1e8.  The oracle's reducer of each z
    # carries the bulk representative back to z; that backward identity
    # reducer^{-1} * z_F = z is contracting, so an absolute 1e-9 is meaningful
    # at every height; extended precision covers the matrix products.
    rng = np.random.default_rng(17)
    x = rng.uniform(-2.0, 2.0, 100_000)
    y = 10 ** rng.uniform(-8.0, 8.0, 100_000)
    xf, yf = reduce_many(x, y)
    assert (np.abs(xf) <= 0.5 + 1e-12).all()
    assert (xf * xf + yf * yf >= 1.0 - 1e-9).all()
    entries = np.array([reduce(complex(xi, yi)).reducer.entries()
                        for xi, yi in zip(x.tolist(), y.tolist())], dtype=np.int64)
    a, b, c, d = (entries[:, i].astype(np.clongdouble) for i in range(4))
    w = xf.astype(np.clongdouble) + 1j * yf.astype(np.clongdouble)
    back = (d * w - b) / (-c * w + a)
    err = np.abs(back - (x.astype(np.clongdouble) + 1j * y.astype(np.clongdouble)))
    assert float(err.max()) < 1e-9


def test_reduce_idempotent():
    rng = np.random.default_rng(9)
    x = rng.uniform(-3, 3, 200)
    y = 10 ** rng.uniform(-4, 2, 200)
    xf, yf = reduce_many(x, y)
    # boundary points may re-reduce through the convention
    inner = (np.abs(np.hypot(xf, yf) - 1.0) >= 1e-9) & (np.abs(np.abs(xf) - 0.5) >= 1e-9)
    assert inner.sum() > 150
    again = reduce_many(xf[inner], yf[inner])
    assert np.array_equal(again[0], xf[inner]) and np.array_equal(again[1], yf[inner])


def test_invariant_height_examples():
    hs = reduce_many([0.0, 0.0, 0.5], [9.0, 1.0, 0.5])[1]
    assert _close(hs[0], 9.0)  # a_3 . i
    assert _close(hs[1], 1.0)
    # z = u_{1/2} a_{2^(-1/2)} . i = (1+i)/2 reduces to i
    assert _close(hs[2], 1.0)


def test_invariant_height_gamma_invariance():
    rng = np.random.default_rng(23)
    zs = [complex(rng.uniform(-1, 1), 10 ** rng.uniform(-2, 1)) for _ in range(200)]
    gzs = np.array([mobius(_random_gamma(rng), z) for z in zs])
    zs = np.array(zs)
    hs = reduce_many(zs.real, zs.imag)[1]
    ghs = reduce_many(gzs.real, gzs.imag)[1]
    assert np.abs(hs - ghs).max() <= 1e-9


def test_reduce_many_heights_match_scalar():
    rng = np.random.default_rng(31)
    x = rng.uniform(-2, 2, 400)
    y = 10 ** rng.uniform(-6, 2, 400)
    hs = reduce_many(x, y)[1]
    for i in range(0, 400, 7):
        assert _close(hs[i], reduce(complex(x[i], y[i])).height, 1e-9 * max(1, hs[i]))


def test_reduce_rejects_lower_half_plane():
    for x, y in ((1.0, -1.0), (0.3, 0.0), (-2.0, 0.0)):
        with pytest.raises(ValueError):
            reduce_many([x], y)
    with pytest.raises(ValueError):
        reduce_many(np.array([0.1, 0.2]), np.array([1.0, 0.0]))


def test_reduce_many_fails_closed_when_height_underflows():
    # at n = 10007, alpha = 30 some points reach x = 0 with y^2 below the
    # smallest float, so |z|^2 = 0; the reduction raises, with no numpy warning
    n = 10007
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDegeneracy):
            reduce_many(np.arange(1, n) / n, n ** -60.0)
        with pytest.raises(NumericalDegeneracy):
            reduce_many([0.0], 1e-170)
    # the same points one level up reduce to finite heights
    assert np.isfinite(reduce_many(np.arange(1, n) / n, n ** -2.0)[1]).all()


def test_reduce_many_passes_infinite_heights_through():
    # an infinite Im z is never inverted, and the degeneracy check reads only
    # the points inverted in a round, so it passes through, also beside
    # points that are inverted, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xf, yf = reduce_many([0.3, 0.7], math.inf)
        assert xf.tobytes() == np.array([0.3, 0.7 - 1.0]).tobytes()
        assert yf.tobytes() == np.array([math.inf, math.inf]).tobytes()
        x = np.array([0.3, 0.1, 0.7, 0.45, 2.5])
        y = np.array([math.inf, 0.01, math.inf, 0.2, math.inf])
        got = reduce_many(x, y)
        for i in range(len(x)):
            alone = reduce_many(x[i:i + 1], y[i:i + 1])
            for g, a in zip(got, alone):
                assert g[i:i + 1].tobytes() == a.tobytes(), i
        assert np.isinf(got[1][[0, 2, 4]]).all() and np.isfinite(got[1][[1, 3]]).all()
        # an underflowing point beside an infinite height still raises
        with pytest.raises(NumericalDegeneracy):
            reduce_many([0.3, 0.0], [math.inf, 1e-170])


def test_reduce_on_circle_band_is_a_half_open_float_interval():
    # reduce_many reads |r2 - 1| <= tol as LO <= r2 < HI; check it at the
    # floats on both sides of each end (r2 - 1 is exact there)
    tol, lo, hi = sl2._BOUNDARY_TOL, sl2._ON_CIRCLE_LO, sl2._ON_CIRCLE_HI
    for end in (lo, hi):
        for r2 in (np.nextafter(np.nextafter(end, 0.0), 0.0), np.nextafter(end, 0.0), end,
                   np.nextafter(end, 2.0)):
            assert (abs(r2 - 1.0) <= tol) == (lo <= r2 < hi), r2


def _boundary_points():
    """Points anywhere in a strip of the upper half plane, on |z| = 1, at
    Re z = +-1/2 and at the corners of F."""
    generic = st.tuples(st.floats(-3.0, 3.0), st.floats(1e-4, 1e3))
    circle = st.floats(1e-3, math.pi - 1e-3).map(lambda t: (math.cos(t), math.sin(t)))
    edge = st.tuples(st.sampled_from([-0.5, 0.5, 1.5, -2.5]), st.floats(1e-3, 10.0))
    corner = st.sampled_from([(-0.5, math.sqrt(3.0) / 2.0), (0.5, math.sqrt(3.0) / 2.0)])
    return st.one_of(generic, circle, edge, corner)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(_boundary_points(), min_size=1, max_size=40), data=st.data())
def test_reduce_many_commutes_with_permutation(points, data):
    # blocks, the select rounds and the kernel's height order all rely on each
    # point being reduced on its own: a permuted array reduces to the
    # permuted bits
    perm = np.array(data.draw(st.permutations(range(len(points)))), dtype=np.int64)
    x, y = (np.array(c, dtype=np.float64) for c in zip(*points))
    want = reduce_many(x, y)
    got = reduce_many(x[perm], y[perm])
    for g, w in zip(got, want):
        assert g.tobytes() == w[perm].tobytes()


def test_intersection_witness_examples():
    w = intersection_witness(2, 5)
    assert w.entries() == (5, -2, 3, -1)
    assert intersection_witness(1, 2).entries() == (2, -1, 1, 0)
    with pytest.raises(NotCoprime):
        intersection_witness(2, 4)
    assert witness_holds(2, 5) and witness_holds(1, 2)
    # the unit 0 of Z/1 is the one witness at n = 1
    assert verify_intersection(Modulus(1)) == (1, 1)
    assert verify_intersection(Modulus(2)) == (1, 1)
    assert verify_intersection(Modulus(5)) == (4, 4)
    assert verify_intersection(Modulus(12)) == (4, 4)


def test_intersection_witness_sweep():
    for n in range(1, 80):
        phi = totient(n)
        assert verify_intersection(Modulus(n)) == (phi, phi), n
        for k in range(n if n > 1 else 1):
            if gcd(k, n) == 1:
                assert witness_holds(k, n), (k, n)


def test_verify_intersection_catches_a_wrong_inverse(monkeypatch):
    # one inverse off by one in the table makes exactly one unit fail, at
    # every position
    for n in (7, 12, 101):
        mod = Modulus(n)
        true_inverses = mod.inverses
        phi = totient(n)
        for i in range(phi):
            kbar = true_inverses.copy()
            kbar[i] = (kbar[i] + 1) % n
            monkeypatch.setattr(mod, "inverses", kbar)
            assert verify_intersection(mod) == (phi, phi - 1), (n, i)
        monkeypatch.undo()
        assert verify_intersection(mod) == (phi, phi)


def test_witness_maps_horocycle_exactly():
    # gamma * u_{k/n} * a_n^{-1} lands on the opposite unipotent numerically too
    for k, n in [(2, 5), (3, 7), (5, 12)]:
        gamma = np.array(intersection_witness(k, n).entries(), dtype=float).reshape(2, 2)
        u = np.array([[1.0, k / n], [0.0, 1.0]])
        a_inv = np.array([[1.0 / n, 0.0], [0.0, float(n)]])
        v = np.array([[1.0, 0.0], [mod_inverse(k, n) / n, 1.0]])
        assert np.allclose(gamma @ u @ a_inv, v, atol=1e-9)


_B = arith.BLOCK


def _reduction_inputs(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """count points spread over the strip, with about a quarter on |z| = 1
    (some at Re z = -1/2 and 1/2, where the boundary convention decides) and
    a quarter at a half-integer or integer Re z off the circle."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, count)
    y = 10 ** rng.uniform(-4.0, 1.0, count)
    kind = rng.integers(0, 4, count)
    theta = rng.uniform(0.0, np.pi, count)
    on_circle = kind == 0
    x[on_circle], y[on_circle] = np.cos(theta[on_circle]), np.sin(theta[on_circle])
    corner = on_circle & (rng.random(count) < 0.3)
    x[corner] = rng.choice([-0.5, 0.5], int(corner.sum()))
    y[corner] = math.sqrt(3.0) / 2.0
    edge = kind == 1
    x[edge] = rng.choice([-0.5, 0.5, 0.0, 1.5, -2.5], int(edge.sum()))
    return x, y


@pytest.mark.parametrize("count", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize("scalar_y", [False, True])
def test_blocked_reduction_is_bit_identical_to_one_block(count, scalar_y):
    # reduce_many reduces each point on its own, so PointSet.reduced_xy,
    # which reduces one block of _B points per call, gets the bits of one
    # call over the whole set
    x, y = _reduction_inputs(count, seed=count)
    if scalar_y:
        y = 0.03
    want = reduce_many(x, y)
    blocked = (np.empty(count), np.empty(count))
    for lo in range(0, count, _B):
        part = reduce_many(x[lo:lo + _B], y if scalar_y else y[lo:lo + _B])
        for out, got in zip(blocked, part):
            out[lo:lo + _B] = got
    for got, one_call in zip(blocked, want):
        assert got.tobytes() == one_call.tobytes()
    # each point alone, at every block edge and at 1000 other points (a
    # call per point over the whole set would take seconds)
    edges = [i for lo in range(0, count + 1, _B) for i in (lo - 1, lo) if 0 <= i < count]
    rng = np.random.default_rng(count)
    for i in sorted({*edges, *rng.integers(0, count, 1000 if count else 0).tolist()}):
        alone = reduce_many(x[i:i + 1], y if scalar_y else y[i:i + 1])
        for got, one_call in zip(alone, want):
            assert got.tobytes() == one_call[i:i + 1].tobytes(), i


def test_blocked_reduction_raises_from_a_later_block():
    x, y = _reduction_inputs(3 * _B + 7, seed=5)
    bad = 2 * _B + 3
    for value in (0.0, -1.0):
        y_bad = y.copy()
        y_bad[bad] = value
        with pytest.raises(ValueError, match="upper half plane"):
            reduce_many(x, y_bad)
    # |z|^2 underflows at this point only
    x_deg, y_deg = x.copy(), y.copy()
    x_deg[bad], y_deg[bad] = 0.0, 1e-170
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDegeneracy):
            reduce_many(x_deg, y_deg)
