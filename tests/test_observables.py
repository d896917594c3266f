"""Tests for the observable families and their Haar expectations."""

import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    IntegerMatrix2,
    haar_kernel_reference,
    kernel_values_reference,
    mobius,
    reduce,
    torus_coordinates,
)

from horopoints import arith, observables
from horopoints.arith import Modulus, roots_of_unity
from horopoints.observables import (
    AutomorphicKernel,
    HeightBand,
    Product,
    RadiusTooLarge,
    TorusChar,
    TwoTorusChar,
)
from horopoints.points import PointSetSpec, gen_full, gen_monomial, gen_triple
from horopoints.sl2 import reduce_many


# ---------------------------------------------------------------------------
# oracle: kernel values by exhaustive enumeration over bounded matrix entries

def _dist(z, w):
    return math.acosh(1.0 + (abs(z - w) ** 2) / (2.0 * z.imag * w.imag))


def brute_kernel(z, radius, profile="indicator", center=1j, bound=10):
    """Sum k(dist(gamma z, center)) over SL2(Z) entries <= bound, mod +-I."""
    total = 0.0
    seen = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c != 1:
                        continue
                    key = (a, b, c, d) if (c, d) > (0, 0) or (c == d == 0 and a > 0) \
                        else (-a, -b, -c, -d)
                    if key in seen:
                        continue
                    seen.add(key)
                    w = mobius(IntegerMatrix2(a, b, c, d), z)
                    r = _dist(w, center)
                    if r <= radius:
                        if profile == "indicator":
                            total += 1.0
                        else:
                            total += (1.0 - (r / radius) ** 2) ** 2
    return total


def scalar_value(obs, ps, i: int) -> complex:
    """One observable at point i, from the exact coordinates of the oracle."""
    t1, t2, z = torus_coordinates(ps, i)
    if isinstance(obs, TorusChar):
        return cmath.exp(2j * math.pi * float(obs.m * t1 % 1))
    if isinstance(obs, TwoTorusChar):
        return cmath.exp(2j * math.pi * float((obs.m1 * t1 + obs.m2 * t2) % 1))
    if isinstance(obs, AutomorphicKernel):
        return obs.values_at([z])[0]
    if isinstance(obs, HeightBand):
        return 1.0 if obs.lower < reduce(z).height <= obs.upper else 0.0
    return math.prod(scalar_value(f, ps, i) for f in obs.factors)


def test_torus_char_examples():
    ps = gen_full(4, Fraction(1, 2))  # k = 0, 1, 2, 3
    assert np.abs(TorusChar(2).eval_many(ps) - np.array([1, -1, 1, -1])).max() < 1e-12
    assert (TorusChar(0).eval_many(ps) == 1.0).all()


def test_two_torus_char():
    ps = gen_triple(PointSetSpec(n=5, d=1))
    vals = TwoTorusChar(1, 1).eval_many(ps)
    scalar = np.array([scalar_value(TwoTorusChar(1, 1), ps, i) for i in range(len(ps))])
    assert np.allclose(vals, scalar, atol=1e-12)
    with pytest.raises(ValueError):
        TwoTorusChar(1, 1).eval_many(gen_monomial(PointSetSpec(n=5, d=1)))


# n = 1 and 2, a prime, a prime power, a composite, and the cap itself
_GATHERED_MODULI = (1, 2, 1009, 3 ** 6, 1000, arith.BLOCK)
_FREQUENCIES = (*range(-3, 4), 10 ** 30 + 7)


def _characters(ps):
    # the characters of the tori that ps carries
    yield from (TorusChar(m) for m in _FREQUENCIES)
    if ps.with_second:
        yield from (TwoTorusChar(m1, m2) for m1 in range(-3, 4) for m2 in range(-3, 4))
        yield from (TwoTorusChar(10 ** 30 + 7, m2) for m2 in (-3, 1))


def _sets_with_and_without_the_table(n, mod):
    # each pair: a triple set or view generated from the table, and the same
    # points without one; a triple set is the one generator handed a table
    for d in (1, 2):
        spec = PointSetSpec(n=n, d=d)
        held, bare = gen_triple(spec, mod), gen_triple(spec)
        yield held, bare
        yield from zip(held.blocks(), bare.blocks())


@pytest.mark.parametrize("n", _GATHERED_MODULI)
def test_gathered_characters_equal_exp_bit_for_bit(n):
    # a set that holds the table of n <= BLOCK gathers its characters from the
    # root table; a set without one takes the exp of the same phases
    mod = Modulus(n)
    for held, bare in _sets_with_and_without_the_table(n, mod):
        assert held.modulus is mod and bare.modulus is None
        for obs in _characters(held):
            got, want = obs.eval_many(held), obs.eval_many(bare)
            assert got.dtype == want.dtype == complex
            assert got.tobytes() == want.tobytes(), (n, obs)
    assert "roots" in vars(mod)
    # the exp of one phase at a time, the tail of a vectorised loop, gives the
    # same bits as the table built over [0, n)
    for j in np.unique(np.linspace(0, n - 1, 600).astype(np.int64)).tolist():
        single = roots_of_unity(np.array([j], dtype=np.int64), n)
        assert single.tobytes() == mod.roots[j:j + 1].tobytes(), (n, j)


def test_characters_above_the_cap_take_the_exp_and_build_no_root_table():
    n = arith.next_prime(arith.BLOCK + 1)
    mod = Modulus(n)
    pairs = list(_sets_with_and_without_the_table(n, mod))
    assert len(pairs) > 4  # the d = 1 set spans two views
    for held, bare in pairs:
        assert held.modulus is mod
        for obs in _characters(held):
            assert obs.eval_many(held).tobytes() == obs.eval_many(bare).tobytes(), obs
    assert "roots" not in vars(mod)


def test_kernel_at_center_matches_brute_enumeration():
    ker = AutomorphicKernel(radius=1.0, profile="indicator")
    assert ker.values_at([1j, 10j]).tolist() == [10.0, 0.0]
    assert brute_kernel(1j, 1.0) == 10.0 and brute_kernel(10j, 1.0) == 0.0
    zs = (0.3 + 0.8j, -0.2 + 1.5j, 0.1 + 0.4j)
    for z, value in zip(zs, ker.values_at(zs)):
        assert abs(value - brute_kernel(z, 1.0)) < 1e-9, z
    ker_s = AutomorphicKernel(radius=1.0, profile="smooth")
    zs = (1j, 0.3 + 0.8j, 0.45 + 1.1j)
    for z, value in zip(zs, ker_s.values_at(zs)):
        assert abs(value - brute_kernel(z, 1.0, "smooth")) < 1e-9, z


def test_kernel_gamma_invariance():
    # 1e4 trials: batched points, each pushed by a random lattice element
    ker = AutomorphicKernel(radius=1.0, profile="smooth")
    T = IntegerMatrix2(1, 1, 0, 1)
    S = IntegerMatrix2(0, -1, 1, 0)
    rng = np.random.default_rng(41)
    pool = []
    while len(pool) < 64:
        g = IntegerMatrix2(1, 0, 0, 1)
        for _ in range(int(rng.integers(1, 8))):
            g = g @ (T, S)[rng.integers(0, 2)]
        pool.append(g.entries())
    pool = np.array(pool, dtype=np.int64)
    z = rng.uniform(-2, 2, 10_000) + 1j * 10 ** rng.uniform(-1.5, 1.0, 10_000)
    pick = pool[rng.integers(0, len(pool), 10_000)]
    a, b, c, d = (pick[:, i] for i in range(4))
    gz = (a * z + b) / (c * z + d)
    assert np.abs(ker.values_at(z) - ker.values_at(gz)).max() < 1e-9
    # the kernel at the oracle's reduced point agrees with the batch path
    for i in range(0, 10_000, 1313):
        zf = reduce(complex(z[i])).z
        assert abs(ker.values_at([zf])[0] - ker.values_at(z[i : i + 1])[0]) < 1e-12


def test_kernel_enumeration_complete_under_widening():
    # widening every search bound must not move any value beyond 1e-12
    grid = np.array([complex(x, y) for x in (-0.4, 0.0, 0.3) for y in (0.9, 1.7, 6.0, 19.0)])
    xf, yf = reduce_many(grid.real, grid.imag)
    for radius in (1.0, 2.0, 3.0):
        for profile in ("indicator", "smooth"):
            narrow, wide = (observables._kernel_values(
                xf, yf, radius, profile, *observables._orbit_points(radius, 1j, slack))
                for slack in (1.0, 2.0))
            assert np.array_equal(narrow, AutomorphicKernel(radius, profile).values_at(grid))
            assert np.abs(narrow - wide).max() <= 1e-12


_B = arith.BLOCK


@settings(max_examples=60, deadline=None)
@given(count=st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 7]),
       profile=st.sampled_from(["indicator", "smooth"]),
       radius=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
       slack=st.sampled_from([1.0, 2.0]),
       center=st.sampled_from([1j, 0.3 + 1.2j, -0.5 + math.sqrt(3.0) / 2.0 * 1j, 0.1 + 4.0j,
                               0.5 + 1.3j, cmath.exp(1.2j)]),
       heights=st.sampled_from(["spread", "equal", "tall"]),
       wide_x=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_kernel_is_bit_identical_to_the_full_sweep(count, profile, radius, slack,
                                                           center, heights, wide_x, seed):
    # the kernel sweeps each orbit point over a window of heights; the points
    # below stress the windows: equal heights (as at alpha = 5/4), heights up
    # to 1e6, x outside [-1/2, 1/2], and centres on the boundary of F
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, count) if wide_x else rng.uniform(-0.5, 0.5, count)
    top = 6.0 if heights == "tall" else 1.5
    y = 10 ** rng.uniform(math.log10(math.sqrt(3.0) / 2.0), top, count)
    orbit, stab = observables._orbit_points(radius, center, slack)
    if heights == "equal":
        # one height for the whole block: an orbit height or a random one
        y[:] = rng.choice([*orbit.imag, y[0] if count else 1.0])
    else:
        # half the points sit on hyperbolic circles around orbit points, at
        # cosh distance cosh(R) * (1 + delta): on both sides of the
        # indicator's 1e-12 and the candidates' 1e-9 cut, and at distance R
        ring = rng.random(count) < 0.5
        w = orbit[rng.integers(0, len(orbit), count)][ring]
        delta = rng.choice([0.0, -1e-12, 1e-12, 2e-12, -1e-9, 1e-9, 2e-9], w.size)
        cosh_r = math.cosh(radius) * (1.0 + delta)
        theta = rng.uniform(0.0, 2.0 * math.pi, w.size)
        rad = w.imag * np.sqrt(np.maximum(cosh_r * cosh_r - 1.0, 0.0))
        x[ring] = w.real + rad * np.cos(theta)
        y[ring] = w.imag * cosh_r + rad * np.sin(theta)
    got = observables._kernel_values(x, y, radius, profile, orbit, stab)
    want = kernel_values_reference(x, y, radius, profile, orbit, stab)
    assert got.tobytes() == want.tobytes()
    # the public path reduces the points first and reads the slack-1 orbit
    xf, yf = reduce_many(x, y)
    got = AutomorphicKernel(radius, profile, center).values_at(x + 1j * y)
    want = kernel_values_reference(xf, yf, radius, profile,
                                   *observables._orbit_points(radius, center))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("profile", ["indicator", "smooth"])
@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_kernel_nan_point_leaves_its_block_mates_alone(radius, profile):
    # reduce_many passes a NaN x through; the kernel gives it 0.0, and its
    # neighbour the bits it gets alone (a NaN in the height windows would
    # silently zero the whole block)
    ker = AutomorphicKernel(radius, profile)
    got = ker.values_at([complex(math.nan, 1.0), 0.1 + 1.1j])
    alone = ker.values_at([0.1 + 1.1j])
    assert got[0] == 0.0 and alone[0] > 0.0
    assert got[1:].tobytes() == alone.tobytes()


@pytest.fixture(scope="module")
def horocycle_sets():
    n = 100003
    return {"monomial_d1": gen_monomial(PointSetSpec(n=n, d=1)),
            "monomial_d2": gen_monomial(PointSetSpec(n=n, d=2)),
            "triple": gen_triple(PointSetSpec(n=n, a=2, b=3, c=5))}


@pytest.mark.parametrize("center", [1j, 0.1 + 4.0j], ids=["i", "high"])
@pytest.mark.parametrize("profile", ["indicator", "smooth"])
@pytest.mark.parametrize("radius", [1.0, 3.0])
@pytest.mark.parametrize("name", ["monomial_d1", "monomial_d2", "triple"])
def test_kernel_on_horocycle_sets_is_bit_identical_to_the_full_sweep(horocycle_sets, name,
                                                                     radius, profile, center):
    xf, yf = horocycle_sets[name].reduced_xy()
    orbit, stab = observables._orbit_points(radius, center)
    got = observables._kernel_values(xf, yf, radius, profile, orbit, stab)
    want = kernel_values_reference(xf, yf, radius, profile, orbit, stab)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("profile", ["indicator", "smooth"])
def test_kernel_recomputes_the_row_terms_at_every_change_of_height(profile):
    # the R = 3 orbit of i comes as runs of equal height; dealing its points
    # out one run at a time makes a height recur after other heights
    orbit, stab = observables._orbit_points(3.0, 1j)
    starts = np.flatnonzero(np.diff(orbit.imag, prepend=np.nan) != 0)
    runs = [list(run) for run in np.split(orbit, starts[1:])]
    dealt = np.array([run[k] for k in range(max(map(len, runs))) for run in runs
                      if k < len(run)])
    dealt_runs = 1 + np.count_nonzero(np.diff(dealt.imag) != 0)
    assert len(runs) == 10 and dealt_runs > len(np.unique(orbit.imag))

    xf, yf = gen_monomial(PointSetSpec(n=10007, d=1)).reduced_xy()
    got = observables._kernel_values(xf, yf, 3.0, profile, dealt, stab)
    want = kernel_values_reference(xf, yf, 3.0, profile, dealt, stab)
    assert got.tobytes() == want.tobytes()


def test_kernel_values_at_keeps_the_shape_of_its_input():
    ker = AutomorphicKernel(radius=1.0, profile="indicator")
    at_i = ker.values_at(1j)
    assert at_i.shape == () and float(at_i) == 10.0
    zs = [[1j, 2j], [10j, 0.3 + 0.8j]]
    grid = ker.values_at(zs)
    assert grid.shape == (2, 2)
    assert np.array_equal(grid.ravel(), ker.values_at(np.ravel(zs)))
    assert ker.values_at([]).shape == (0,)


def test_observables_leave_the_reduced_coordinates_as_they_were():
    ps = gen_monomial(PointSetSpec(n=10007, d=1))
    before = [a.tobytes() for a in ps.reduced_xy()]
    AutomorphicKernel(3.0).eval_many(ps)
    Product((TorusChar(1), AutomorphicKernel(1.0))).eval_many(ps)
    assert [a.tobytes() for a in ps.reduced_xy()] == before
    view = next(ps.blocks())
    for a in ps.reduced_xy() + view.reduced_xy():
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_kernel_haar_examples():
    t = AutomorphicKernel(radius=1.0, profile="indicator").haar()
    # ball area 4*pi*sinh^2(R/2) over the surface volume pi/3
    assert abs(t.value - 12.0 * math.sinh(0.5) ** 2) < 1e-10
    assert not t.exact
    # the smooth-kernel targets of c08 (R = 1) and of the R = 3 benchmark kernel
    assert AutomorphicKernel(radius=1.0).haar().value == 1.0425099998193956
    assert AutomorphicKernel(radius=3.0).haar().value == 13.052485690455743

    for radius in np.geomspace(1e-6, 3.0, 41):
        for profile in ("indicator", "smooth"):
            got = AutomorphicKernel(radius=float(radius), profile=profile).haar().value
            want = haar_kernel_reference(float(radius), profile)
            assert abs(got - want) <= 1e-13 * want, (radius, profile, got, want)


def test_height_band_haar():
    t = HeightBand(2.0).haar()
    assert t.exact and abs(t.value - 3.0 / (2 * math.pi)) < 1e-15
    with pytest.raises(ValueError):
        HeightBand(0.5)
    # additivity over a partition of (1, inf)
    cuts = [1.0, 1.5, 2.0, 4.0, 16.0, math.inf]
    total = sum(HeightBand(a, b).haar().value
                for a, b in zip(cuts[:-1], cuts[1:]))
    assert abs(total - 3.0 / math.pi) < 1e-12


def test_height_band_eval():
    ps = gen_full(2, Fraction(1, 2))  # heights {2, 1}
    vals = HeightBand(1.5).eval_many(ps)
    assert vals.tolist() == [1.0, 0.0]  # k=0 reduces to 2i, k=1 to i


def test_torus_char_haar():
    assert TorusChar(3).haar().value == 0.0
    assert TorusChar(0).haar().value == 1.0
    assert TwoTorusChar(0, 0).haar().value == 1.0
    assert TwoTorusChar(2, -1).haar().value == 0.0


def test_radius_cap():
    with pytest.raises(RadiusTooLarge):
        AutomorphicKernel(radius=3.5)


def test_center_high_in_the_cusp_fails_closed():
    # 1e-20j reduces to 1e20j: the c = 0 orbit row alone spans ~3.8e21 translations
    with pytest.raises(ValueError, match="guard"):
        AutomorphicKernel(radius=3.0, center=1e-20j)
    for center in (complex(math.nan, 1.0), complex(math.inf, 1.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            AutomorphicKernel(radius=1.0, center=center)
    # 0.01j reduces to 100j, whose orbit at R = 3 has 2005 points
    ker = AutomorphicKernel(radius=3.0, center=0.01j)
    assert len(observables._orbit_points(3.0, 0.01j)[0]) == 2005
    assert ker.values_at([100j])[0] == ker.values_at([0.01j])[0] > 0


def test_kernel_orbit_is_enumerated_once_per_kernel():
    # a new kernel enumerates its orbit once, when it is made; its
    # evaluations, a call of the shape (radius, center), which perfbench's
    # tracer makes, and one that passes the default slack all hit the cache
    misses = observables._enumerate_orbit.cache_info().misses
    ker = AutomorphicKernel(radius=1.0 + 1.0 / 7.0)
    assert observables._enumerate_orbit.cache_info().misses == misses + 1
    misses += 1
    ps = gen_full(7, Fraction(1, 2))
    assert np.array_equal(ker.eval_many(ps), ker.eval_many(ps))
    assert ker.values_at([1j, 2j]).shape == (2,)
    assert observables._orbit_points(ker.radius, ker.center)[0].size > 0
    assert observables._orbit_points(ker.radius, ker.center, 1.0)[0].size > 0
    assert observables._enumerate_orbit.cache_info().misses == misses


def test_kernel_orbit_is_read_only():
    # every kernel of (radius, center) reads the cached orbit: a write to it
    # raises, and the kernel keeps its value
    ker = AutomorphicKernel(radius=1.0, profile="indicator")
    assert ker.values_at([1j])[0] == 10.0
    orbit, _ = observables._orbit_points(1.0, 1j)
    with pytest.raises(ValueError):
        orbit[0] = 50j
    assert ker.values_at([1j])[0] == 10.0


_RHO = complex(0.5, math.sqrt(3) / 2)
# (radius, center, point count, stabilizer order, sha256 of the points'
# complex128 bytes) of _enumerate_orbit at slack 1: i and rho are the elliptic
# points of orders 2 and 3, 0.3 + 1.1i and 2i have trivial stabilizers
PINNED_ORBITS = [
    (0.5, 1j, 3, 2,
     "d33a37e882c2b1ea992f602a59dd2ad9ec0d679d92086207152b3845e8f20965"),
    (0.5, complex(0.3, 1.1), 6, 1,
     "a79a937fa9a6e57c4df8ad61b2d72119ce2f0298c439aa8910990f5462b8f910"),
    (0.5, 2j, 3, 1,
     "ac8770830c6bc83e259a74451c406e8ed9ac460601f66d54faacf6f3178a3bc2"),
    (0.5, _RHO, 2, 3,
     "dd5532382b41d98ea7d791ee356a97acc9441283f92e8c9faca65543a72ee4d9"),
    (1.0, 1j, 5, 2,
     "081cf81a38adb43e3c42817dee3aa2d2075912aabd52f1538d4aa4b9082eba53"),
    (1.0, complex(0.3, 1.1), 11, 1,
     "90866a0c1bfde9186491e0d521cfd7558f705384df4590c8d1e8da28a026f484"),
    (1.0, 2j, 12, 1,
     "cf144f44fb62afdb2e5d8f2fa86a628af8f6bb7a6d7a0cc9f7d049a735377635"),
    (1.0, _RHO, 4, 3,
     "81cb9a66f6ec4ad206b3c64547592c15070e561390c759c2e39dd8b443791959"),
    (2.0, 1j, 17, 2,
     "37ee8a76ef27822c2af9ab2d84888fdd1074f974847c715c69f22636e4332575"),
    (2.0, complex(0.3, 1.1), 37, 1,
     "4f7fb38d2299d675b15af9cf4a1aeb118473381e88493a72ee59a0ba886afa96"),
    (2.0, 2j, 42, 1,
     "1a9a477f45ccf771a9200c2bdbe338e80d704094b04d1aba1833b1d200db77e8"),
    (2.0, _RHO, 16, 3,
     "c4d3d61032e013b662311bccf45dc47fb066703f583c07ac4addb561dfd48fa9"),
    (3.0, 1j, 57, 2,
     "b320668aa126b4b9a088934994ec64cb87b37295f90b740165e14ae5b38013c6"),
    (3.0, complex(0.3, 1.1), 119, 1,
     "1a3e09ebd07e0a229a145497cee1fc8f9ad00030a0d6084260ed9c4849770028"),
    (3.0, 2j, 126, 1,
     "6b62faadfd4425704374884aeadb1e388dbb7e46a66c387eae1fbe6236d51706"),
    (3.0, _RHO, 40, 3,
     "c914f57bc55793a3d8c83f6e448a63c1a38be42a20fbf8ddd1158a35c33b009a"),
]


@pytest.mark.parametrize("radius, center, count, stabilizer, digest", PINNED_ORBITS)
def test_orbit_points_are_pinned(radius, center, count, stabilizer, digest):
    pts, stab = observables._enumerate_orbit(radius, center, 1.0)
    assert (len(pts), stab) == (count, stabilizer)
    assert hashlib.sha256(pts.astype("<c16").tobytes()).hexdigest() == digest


def test_product():
    prod = Product((TorusChar(1), AutomorphicKernel(1.0)))
    ps = gen_full(7, Fraction(1, 2))
    vals = prod.eval_many(ps)
    byhand = TorusChar(1).eval_many(ps) * AutomorphicKernel(1.0).eval_many(ps)
    assert np.allclose(vals, byhand, atol=1e-12)
    assert prod.haar().value == 0.0
    with pytest.raises(ValueError):
        Product((TorusChar(1), TorusChar(2)))
    with pytest.raises(ValueError):
        Product((TwoTorusChar(1, 0), TorusChar(1)))
    # an empty product would average to NaN errors
    with pytest.raises(ValueError):
        Product(())


def test_eval_many_matches_scalar():
    full = gen_full(31, Fraction(1, 2))
    triple = gen_triple(PointSetSpec(n=45, d=2, a=2, b=7, c=4))
    for ps, obs in ((full, TorusChar(2)), (full, AutomorphicKernel(1.0)),
                    (full, HeightBand(1.2, 5.0)),
                    (full, Product((TorusChar(1), HeightBand(1.1)))),
                    (triple, Product((TwoTorusChar(1, -2), AutomorphicKernel(1.0))))):
        bulk = np.asarray(obs.eval_many(ps), dtype=complex)
        scalar = np.array([scalar_value(obs, ps, i) for i in range(len(ps))], dtype=complex)
        assert np.allclose(bulk, scalar, atol=1e-9), obs


def test_unfolding_trend():
    # empirical kernel averages drift toward the unfolded Haar value
    ker = AutomorphicKernel(radius=1.0, profile="smooth")
    target = ker.haar().value
    errs = []
    for n in (997, 10007):
        ps = gen_full(n, Fraction(1, 2))
        errs.append(abs(np.mean(ker.eval_many(ps)) - target))
    assert errs[1] < errs[0]

