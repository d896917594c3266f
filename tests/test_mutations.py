"""Planted defects that a criterion must catch (ROADMAP item 15).

Each test plants one defect by monkeypatching, runs a shipped config on the
truncated schedule of tests/test_golden.py, and asserts that the run that
passes without the defect fails with it.
"""

import cmath
import json
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
