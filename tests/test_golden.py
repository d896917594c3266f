"""Golden payloads of the shipped criterion configs.

The cheap configs run as shipped; c01, c03, c04, c05 and c09 run with a
truncated schedule, so every kind and both kloosterman modes are covered.
Each run is compared with a fixture under tests/golden/: the manifest's
output list and verdict exactly, exact cells (integers, fractions, booleans,
strings) byte for byte, and float cells within 1e-12 relative (1e-15
absolute, for values that are rounding noise around zero).

Record the fixtures again with ``PYTHONPATH=src python tests/test_golden.py``
only when a payload is meant to change.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from horopoints.harness import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# config stem -> n_schedule that replaces the shipped one (None: as shipped)
CASES = {
    "c01_kloosterman_identity": {"start": 1, "stop": 8},
    "c02_kloosterman_decay": None,
    "c03_intersection_witness": {"start": 1, "stop": 60},
    "c04_cardinality": {"start": 1, "stop": 24},
    "c05_invariance": {"start": 1, "stop": 30},
    "c06_cusp_mass_half": None,
    "c07_cusp_escape": None,
    "c08_equidist_trend": None,
    "c09_weyl_exactness": {"start": 1, "stop": 60},
    "c10_discrepancy": None,
    "c11_toral_mixing": None,
    "c12_projection": None,
}
REL_TOL = 1e-12
ABS_TOL = 1e-15


def _config(stem: str) -> dict:
    cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    if CASES[stem] is not None:
        cfg["n_schedule"] = CASES[stem]
    return cfg


def _run(stem: str, out: Path) -> dict:
    manifest = run(_config(stem), out_dir=out)
    return {
        "outputs": manifest.outputs,
        "all_passed": manifest.all_passed,
        "payloads": {name: (out / name).read_text() for name in manifest.outputs},
    }


def _is_float_literal(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return any(c in cell for c in ".eEnN")  # 1.5, 1e-05, nan, inf


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare_csv(name: str, got: str, want: str) -> None:
    assert got.endswith("\n") == want.endswith("\n"), f"{name}: final newline"
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{name}: row count"
    assert got_lines[0] == want_lines[0], f"{name}: header"
    rows = [(g.split(","), w.split(",")) for g, w in zip(got_lines[1:], want_lines[1:])]
    width = len(want_lines[0].split(","))
    floats = [any(_is_float_literal(w[j]) for _, w in rows if len(w) == width)
              for j in range(width)]
    for i, (g, w) in enumerate(rows, start=1):
        assert len(g) == len(w), f"{name} line {i}: cell count"
        for j, (gc, wc) in enumerate(zip(g, w)):
            if floats[j]:
                assert _same_float(float(gc), float(wc)), f"{name} line {i}: {gc} != {wc}"
            else:
                assert gc == wc, f"{name} line {i}: {gc!r} != {wc!r}"


def _compare_json(where: str, got, want) -> None:
    assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys"
        for key in want:
            _compare_json(f"{where}.{key}", got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(f"{where}[{i}]", g, w)
    elif isinstance(want, float):
        assert _same_float(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_payloads_match_golden(stem, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    got = _run(stem, tmp_path)
    assert got["outputs"] == want["outputs"]
    assert got["all_passed"] == want["all_passed"]
    for name in want["outputs"]:
        if name.endswith(".csv"):
            _compare_csv(name, got["payloads"][name], want["payloads"][name])
        else:
            _compare_json(name, json.loads(got["payloads"][name]),
                          json.loads(want["payloads"][name]))


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            golden = _run(stem, Path(tmp))
        (GOLDEN_DIR / f"{stem}.json").write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
