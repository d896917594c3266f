"""Memory ceilings of the blockwise paths at n = 1000003, and of the
streaming sample dump at n = 200003.

numpy reports its array buffers to tracemalloc, so the peaks below count
the bytes a call allocates, whatever the machine or allocator.  Each
ceiling is the call's output plus a few MiB of per-block temporaries: a
full-length temporary (8 MB of int64 or float64 per million points) breaks
it.  A table build allocates next to nothing, since no unit is sieved
before one is read.  An average outputs one number, and no point set holds
its units (each view sieves its own keys), so the ceiling of an average,
of an equidist run and of a cusp_mass run is the temporaries alone; such a
run builds neither the units nor the inverses of its table.  A full Weyl
row's ceiling is the root table of its table.  The dump's ceiling is its
one unreduced point set plus about a MiB of encoded text and block
temporaries: a block of 16384 encoded rows instead of a chunk of 1024
breaks it, and so do full-length reduced coordinates.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from horopoints.arith import Modulus
from horopoints.harness import run
from horopoints.observables import AutomorphicKernel, Product, TorusChar, TwoTorusChar
from horopoints.points import PointSetSpec, gen_triple
from horopoints.stats import empirical_average, subset_averages

N = 1000003
MIB = 1 << 20
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.fixture
def tables(monkeypatch):
    """The arithmetic tables built while the test runs."""
    built = []
    init = Modulus.__init__

    def record(table, n):
        init(table, n)
        built.append(table)

    monkeypatch.setattr(Modulus, "__init__", record)
    return built


def _no_units_built(tables) -> bool:
    return bool(tables) and not any("units" in vars(t) or "inverses" in vars(t)
                                    for t in tables)


def test_modulus_build_peak(tables):
    # the factorization, phi and tau; the units wait for their first reader
    _, peak = _peak_bytes(lambda: Modulus(N))
    assert peak <= MIB, peak
    assert _no_units_built(tables)


def test_residue_set_peak(mod):
    res, peak = _peak_bytes(lambda: mod.residues(2))
    # the output, the n-byte seen mask and one block of powers
    assert peak <= res.nbytes + N + 2 * MIB, peak


def test_reduced_xy_peak(mod):
    # a set that holds its table, whose views sieve their own keys
    ps = gen_triple(PointSetSpec(n=N), mod)
    (xs, ys), peak = _peak_bytes(ps.reduced_xy)
    assert xs.nbytes + ys.nbytes == 16 * len(ps)
    assert peak <= 16 * len(ps) + 8 * MIB, peak


def test_empirical_average_peak(mod):
    ps = gen_triple(PointSetSpec(n=N), mod)
    ps.reduced_xy()
    obs = Product((TorusChar(1), AutomorphicKernel(1.0, "smooth")))
    # one leaf of at most arith.BLOCK values and the kernel's buffers, not
    # one complex value per point (16 MB)
    _, peak = _peak_bytes(lambda: empirical_average(ps, obs))
    assert peak <= 4 * MIB, peak


def test_average_leaves_no_numerator_array_on_the_set(mod):
    # each leaf view sieves its keys, inverts them and computes its torus
    # numerators once for every character, and drops them with the view: the
    # d = 1 set holds its table, and no array derived from its keys
    ps = gen_triple(PointSetSpec(n=N), mod)
    subset_averages(ps, [TwoTorusChar(1, 2), TwoTorusChar(-1, 1), TorusChar(3)])
    held = []
    for value in vars(ps).values():
        if isinstance(value, dict):
            value = tuple(value.values())
        held += [a for a in (value if isinstance(value, tuple) else (value,))
                 if isinstance(a, np.ndarray)]
    assert held == []


def test_weyl_row_peak(tmp_path, tables):
    # one weyl_full row at n = 1000003 on a fresh table: its root table, which
    # is filled one block at a time, and a few MiB of block temporaries, not an
    # n-point FFT of ones (38.3 MiB traced); the row reads no unit
    cfg = {"schema_version": 1, "kind": "kloosterman", "weyl_full": True, "n_schedule": [N]}
    man, peak = _peak_bytes(lambda: run(cfg, out_dir=tmp_path))
    assert man.all_passed
    assert peak <= 16 * N + 4 * MIB, peak
    assert _no_units_built(tables)


def _shipped_run_peak(tmp_path, stem: str, **changes) -> int:
    cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    cfg["point_set"].update(changes)
    assert max(cfg["n_schedule"]) == N
    man, peak = _peak_bytes(lambda: run(cfg, out_dir=tmp_path))
    assert man.all_passed
    return peak


def test_equidist_run_peak(tmp_path, tables):
    # c08 at n = 1000003: a few MiB of block temporaries, among them the
    # n-byte mask of its d = 2 subset, marked from the keys of the d = 1
    # set's views; the set's units (8 MB), its reduced x and y (16 MB) or a
    # full-length array of values breaks it
    peak = _shipped_run_peak(tmp_path, "c08_equidist_trend")
    assert peak <= 4 * MIB, peak
    assert _no_units_built(tables)


def test_cusp_mass_run_peak(tmp_path, tables):
    # c06 at n = 1000003, under the ceiling of c08: the keys and heights of
    # one view at a time
    peak = _shipped_run_peak(tmp_path, "c06_cusp_mass_half")
    assert peak <= 4 * MIB, peak
    assert _no_units_built(tables)


def test_triple_cusp_mass_run_inverts_no_key(tmp_path, tables, monkeypatch):
    # c06 on the triple set of the same points: no view reads its second
    # torus, so no key is inverted
    calls = []
    invert = Modulus.invert
    monkeypatch.setattr(Modulus, "invert", lambda table, keys: calls.append(len(keys))
                        or invert(table, keys))
    peak = _shipped_run_peak(tmp_path, "c06_cusp_mass_half", variant="triple")
    assert calls == []
    assert peak <= 4 * MIB, peak
    assert _no_units_built(tables)


def test_inverses_peak():
    mod = Modulus(N)
    inv, peak = _peak_bytes(lambda: mod.inverses)
    assert inv.nbytes == 8 * mod.phi
    assert peak <= inv.nbytes + 2 * MIB, peak


def test_invert_peak(mod):
    # the keys of a d = 2 triple set's second torus
    keys = mod.residues(2)
    inv, peak = _peak_bytes(lambda: mod.invert(keys))
    assert inv.nbytes == keys.nbytes
    assert peak <= inv.nbytes + 2 * MIB, peak


# a triple set of 200002 points: its units and inverses take 3.2 MB, and
# reduced coordinates would take 3.2 MB more, but each block view reduces its
# own points as it is encoded; its csv dump is 22 MB and its json dump 38 MB.
# Rows are encoded 1024 at a time, each 100-250 bytes across its cells, its
# line and the joined chunk; the traced peaks are 4.6 MiB (json) and 4.5 MiB
# (csv), 7.3 and 7.1 MiB with the set reduced whole, and 16.4 and 14.0 MiB
# with chunks of 16384 rows
DUMP_N = 200003
DUMP_CEILING = 6 * MIB


# the two-n schedule holds n = 200003 in csv (a schedule is a set of n, so
# two distinct n); one format each keeps the traced formatting to ~30 s
@pytest.mark.parametrize("fmt, schedule", [("json", [DUMP_N]), ("csv", [199999, DUMP_N])],
                         ids=["json_one_n", "csv_two_n"])
def test_generate_peak(tmp_path, fmt, schedule):
    # rows are streamed one chunk at a time and one set is alive at a time,
    # so the peak grows neither with the rows of a set nor with the schedule
    cfg = {"schema_version": 1, "kind": "generate", "format": fmt,
           "n_schedule": schedule, "point_set": {"variant": "triple"}}
    _, peak = _peak_bytes(lambda: run(cfg, out_dir=tmp_path))
    assert (tmp_path / f"samples.{fmt}").stat().st_size > 20 * 10 ** 6 * len(schedule)
    assert peak <= DUMP_CEILING, peak
