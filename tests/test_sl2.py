"""Tests for the SL2 geometry layer: reduction, heights, and the
intersection witness."""

import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from oracles import mobius

from horopoints.arith import NotCoprime, mod_inverse
from horopoints.sl2 import (
    IntegerMatrix2,
    intersection_witness,
    invariant_height,
    reduce,
    reduce_many,
    verify_intersection,
)


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


def test_reduce_examples():
    r = reduce(0.7 + 1j)
    assert _close(r.z, -0.3 + 1j, 1e-12)
    assert abs(r.z) >= 1.0

    r = reduce(0.5j)
    assert _close(r.z, 2j, 1e-12) and r.height == 2.0

    r = reduce(0.25j)
    assert _close(r.z, 4j, 1e-12) and _close(r.height, 4.0)

    # hand reduction (1+i)/2 -> invert -> translate -> i
    r = reduce((1 + 1j) / 2)
    assert _close(r.z, 1j, 1e-12) and _close(r.height, 1.0)


def test_reduce_boundary_conventions():
    # |z| = 1 with positive real part flips to the left boundary
    z = complex(math.cos(1.2), math.sin(1.2))
    r = reduce(z)
    assert r.z.real <= 0 and _close(abs(r.z), 1.0)
    # Re = +1/2 maps to -1/2
    r = reduce(0.5 + 2j)
    assert _close(r.z, -0.5 + 2j, 1e-12)
    # corner: the |z|=1, Re=1/2 point lands on the left corner
    r = reduce(complex(0.5, math.sqrt(3) / 2))
    assert _close(r.z, complex(-0.5, math.sqrt(3) / 2), 1e-9)


def _exact_mobius(g, z: complex) -> tuple[Fraction, Fraction]:
    # floats are dyadic rationals, so the forward map is computed exactly
    a, b, c, d = g.entries()
    zr, zi = Fraction(z.real), Fraction(z.imag)
    nr, ni = a * zr + b, a * zi
    dr, di = c * zr + d, c * zi
    den = dr * dr + di * di
    return ((nr * dr + ni * di) / den, (ni * dr - nr * di) / den)


def test_reduce_roundtrip_small():
    # forward check in exact rational arithmetic: mobius(reducer, z) = z_F,
    # up to the float rounding of z_F itself (relative at large heights)
    rng = np.random.default_rng(5)
    for _ in range(500):
        z = complex(rng.uniform(-5, 5), 10 ** rng.uniform(-5, 3))
        r = reduce(z)
        wr, wi = _exact_mobius(r.reducer, z)
        scale = max(1.0, abs(r.z))
        assert abs(float(wr) - r.z.real) <= 1e-9 * scale
        assert abs(float(wi) - r.z.imag) <= 1e-9 * scale
        assert abs(r.z.real) <= 0.5 + 1e-12
        assert abs(r.z) >= 1.0 - 1e-12


def test_reduce_roundtrip_bulk():
    # 1e5 points, Im from 1e-8 to 1e8.  The scalar path's reducer of each z
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
    # exact-rational forward spot checks across the same sweep
    for i in range(0, 100_000, 9973):
        r = reduce(complex(x[i], y[i]))
        wr, wi = _exact_mobius(r.reducer, complex(x[i], y[i]))
        scale = max(1.0, abs(r.z))
        assert abs(float(wr) - r.z.real) <= 1e-9 * scale
        assert abs(float(wi) - r.z.imag) <= 1e-9 * scale


def test_reduce_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-4, 2))
        zf = reduce(z).z
        if abs(abs(zf) - 1.0) < 1e-9 or abs(abs(zf.real) - 0.5) < 1e-9:
            continue  # boundary points may re-reduce through the convention
        again = reduce(zf)
        assert again.reducer.entries() == (1, 0, 0, 1)


def test_invariant_height_examples():
    assert _close(invariant_height(9j), 9.0)  # a_3 . i
    assert _close(invariant_height(1j), 1.0)
    # z = u_{1/2} a_{2^(-1/2)} . i = (1+i)/2 reduces to i
    assert _close(invariant_height(0.5 + 0.5j), 1.0)


def test_invariant_height_gamma_invariance():
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = complex(rng.uniform(-1, 1), 10 ** rng.uniform(-2, 1))
        g = _random_gamma(rng)
        assert _close(invariant_height(z), invariant_height(mobius(g, z)), 1e-9)


def test_reduce_many_heights_match_scalar():
    rng = np.random.default_rng(31)
    x = rng.uniform(-2, 2, 400)
    y = 10 ** rng.uniform(-6, 2, 400)
    hs = reduce_many(x, y)[1]
    for i in range(0, 400, 7):
        assert _close(hs[i], invariant_height(complex(x[i], y[i])), 1e-9 * max(1, hs[i]))


def test_reduce_rejects_lower_half_plane():
    for z in (1.0 - 1j, 0.3, -2.0 + 0j):
        with pytest.raises(ValueError):
            reduce(z)
    with pytest.raises(ValueError):
        reduce_many(np.array([0.1, 0.2]), np.array([1.0, 0.0]))


def test_intersection_witness_examples():
    w = intersection_witness(2, 5)
    assert w.entries() == (5, -2, 3, -1)
    assert intersection_witness(1, 2).entries() == (2, -1, 1, 0)
    with pytest.raises(NotCoprime):
        intersection_witness(2, 4)
    assert verify_intersection(2, 5)
    assert verify_intersection(1, 2)


def test_intersection_witness_sweep():
    for n in range(1, 80):
        for k in range(n if n > 1 else 1):
            if gcd(k, n) == 1:
                assert verify_intersection(k, n), (k, n)


def test_witness_maps_horocycle_exactly():
    # gamma * u_{k/n} * a_n^{-1} lands on the opposite unipotent numerically too
    for k, n in [(2, 5), (3, 7), (5, 12)]:
        gamma = np.array(intersection_witness(k, n).entries(), dtype=float).reshape(2, 2)
        u = np.array([[1.0, k / n], [0.0, 1.0]])
        a_inv = np.array([[1.0 / n, 0.0], [0.0, float(n)]])
        v = np.array([[1.0, 0.0], [mod_inverse(k, n) / n, 1.0]])
        assert np.allclose(gamma @ u @ a_inv, v, atol=1e-9)
