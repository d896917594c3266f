"""Memory ceilings of the blockwise paths at n = 1000003.

numpy reports its array buffers to tracemalloc, so the peaks below count
the bytes a call allocates, whatever the machine or allocator.  Each
ceiling is the call's output plus a few MiB of per-block temporaries: a
full-length temporary (8 MB of int64 or float64 per million points) breaks
it.
"""

import tracemalloc

import pytest

from horopoints.arith import Modulus
from horopoints.observables import AutomorphicKernel, Product, TorusChar
from horopoints.points import PointSetSpec, gen_monomial
from horopoints.stats import empirical_average

N = 1000003
MIB = 1 << 20


def _peak_bytes(call):
    """(call(), the most bytes it held allocated at once beyond what was live
    before it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def mod():
    return Modulus(N)


def test_residue_set_peak(mod):
    res, peak = _peak_bytes(lambda: mod.residues(2))
    # the output, the n-byte seen mask and one block of powers
    assert peak <= res.nbytes + N + 2 * MIB, peak


def test_reduced_xy_peak(mod):
    ps = gen_monomial(PointSetSpec(n=N), mod)
    (xs, ys), peak = _peak_bytes(ps.reduced_xy)
    assert xs.nbytes + ys.nbytes == 16 * len(ps)
    assert peak <= 16 * len(ps) + 8 * MIB, peak


def test_empirical_average_peak(mod):
    ps = gen_monomial(PointSetSpec(n=N), mod)
    ps.reduced_xy()
    obs = Product((TorusChar(1), AutomorphicKernel(1.0, "smooth")))
    # one complex value per point, which the mean reads
    _, peak = _peak_bytes(lambda: empirical_average(ps, obs))
    assert peak <= 16 * len(ps) + 4 * MIB, peak
