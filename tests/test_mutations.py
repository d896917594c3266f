"""Planted defects that a criterion must catch (ROADMAP item 15).

Each test plants one defect by monkeypatching, runs a shipped config on the
truncated schedule of tests/test_golden.py, and asserts that the run that
passes without the defect fails with it.
"""

import cmath
import json
from functools import cached_property
from pathlib import Path

from test_golden import CASES

from horopoints import arith
from horopoints.arith import Modulus
from horopoints.harness import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _golden_config(stem: str) -> dict:
    cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
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
