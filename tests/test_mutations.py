"""Planted defects that a criterion must catch (ROADMAP item 15).

Each test plants one defect by monkeypatching, runs a shipped config on its
schedule in tests/test_golden.py (truncated for the costly configs), and
asserts that the run that passes without the defect fails with it.
"""

import cmath
import json
from functools import cached_property
from pathlib import Path

import numpy as np
from test_golden import CASES

from horopoints import arith, observables, points
from horopoints.arith import Modulus
from horopoints.harness import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _golden_config(stem: str) -> dict:
    cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    if CASES[stem] is not None:
        cfg["n_schedule"] = CASES[stem]
    return cfg


def _plant(monkeypatch, name: str, build) -> None:
    """Replace the cached whole-table array name of every Modulus by build(mod)."""
    prop = cached_property(build)
    prop.__set_name__(Modulus, name)
    monkeypatch.setattr(Modulus, name, prop)


def test_c03_catches_two_unit_inverses_swapped(monkeypatch, tmp_path):
    # the built inverses of units 1 and 2 of every n with phi > 2 trade
    # places; c01 and c02 read the same inverses on both sides and pass
    cfg = _golden_config("c03_intersection_witness")
    assert run(cfg, out_dir=tmp_path / "clean").all_passed
    build = Modulus.inverses.func

    def swapped(mod):
        inverses = build(mod).copy()
        if len(inverses) > 2:
            inverses[[1, 2]] = inverses[[2, 1]]
        return arith._read_only(inverses)

    _plant(monkeypatch, "inverses", swapped)
    assert not run(cfg, out_dir=tmp_path / "swapped").all_passed


def test_c04_and_c05_catch_the_last_unit_dropped(monkeypatch, tmp_path):
    # the built units of every n lose their last entry: the degree-1 residue
    # set is one short of the counting formula and not closed under p^2
    cfgs = [_golden_config(stem) for stem in ("c04_cardinality", "c05_invariance")]
    assert all(run(cfg, out_dir=tmp_path / f"clean{i}").all_passed
               for i, cfg in enumerate(cfgs))
    build = Modulus.units.func
    _plant(monkeypatch, "units", lambda mod: build(mod)[:-1])
    assert not any(run(cfg, out_dir=tmp_path / f"dropped{i}").all_passed
                   for i, cfg in enumerate(cfgs))


def test_c04_and_c05_catch_a_residue_marked_beyond_the_set(monkeypatch, tmp_path):
    # every built mask of a degree d >= 2 also marks its last unmarked
    # residue: the set read off it is one too many for the counting formula,
    # and its extra key leaves the set under p^(2d)
    cfgs = [_golden_config(stem) for stem in ("c04_cardinality", "c05_invariance")]
    assert all(run(cfg, out_dir=tmp_path / f"clean{i}").all_passed
               for i, cfg in enumerate(cfgs))
    build = Modulus.residue_mask

    def overmarked(mod, d):
        fresh = d not in mod._masks
        mask = build(mod, d)
        if fresh and d >= 2 and not mask.all():
            mask = mask.copy()
            mask[np.flatnonzero(~mask)[-1]] = True
            mod._masks[d] = arith._read_only(mask)
        return mask

    monkeypatch.setattr(Modulus, "residue_mask", overmarked)
    assert not any(run(cfg, out_dir=tmp_path / f"marked{i}").all_passed
                   for i, cfg in enumerate(cfgs))


def test_c08_catches_the_last_orbit_point_dropped(monkeypatch, tmp_path):
    # every kernel's orbit loses its last point, so the kernel averages stop
    # falling towards the Haar value; the cache is cleared on both sides, so
    # no other test reads an orbit enumerated here
    cfg = _golden_config("c08_equidist_trend")
    enumerate_orbit = observables._enumerate_orbit
    enumerate_orbit.cache_clear()
    try:
        assert run(cfg, out_dir=tmp_path / "clean").all_passed

        def short(*key):
            orbit, order = enumerate_orbit(*key)
            return orbit[:-1], order

        monkeypatch.setattr(observables, "_enumerate_orbit", short)
        assert not run(cfg, out_dir=tmp_path / "dropped").all_passed
    finally:
        enumerate_orbit.cache_clear()


def test_c07_catches_every_97th_height_lowered(monkeypatch, tmp_path):
    # every 97th height of each reduction of a set's points scaled by 0.999:
    # the lowest alpha = 5/4 height falls below sqrt(n)
    cfg = _golden_config("c07_cusp_escape")
    assert run(cfg, out_dir=tmp_path / "clean").all_passed
    reduce_many = points.reduce_many

    def lowered(x, y):
        xs, ys = reduce_many(x, y)
        ys[::97] *= 0.999
        return xs, ys

    monkeypatch.setattr(points, "reduce_many", lowered)
    assert not run(cfg, out_dir=tmp_path / "lowered").all_passed


def test_c09_catches_a_root_turned_by_a_microradian(monkeypatch, tmp_path):
    # entry j = 5 of every root table of n > 5 turned by 1e-6 rad: the mean at
    # stride 1 moves by about 1e-6 / n, above the 1e-10 tolerance for n <= 60
    cfg = _golden_config("c09_weyl_exactness")
    assert run(cfg, out_dir=tmp_path / "clean").all_passed
    build = Modulus.roots.func

    def turned(mod):
        roots = build(mod).copy()
        if mod.n > 5:
            roots[5] *= cmath.exp(1e-6j)
        return arith._read_only(roots)

    monkeypatch.setattr(Modulus, "roots", property(turned))
    assert not run(cfg, out_dir=tmp_path / "turned").all_passed
