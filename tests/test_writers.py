"""Byte identity of the payload writers against a row-by-row oracle.

The oracle is the writer the harness used before sample payloads were built
per column: every cell goes through an isinstance dispatch, and JSON goes
through json.dumps(sort_keys=True, indent=2).  The harness must produce the
same bytes for sample dumps and for small row tables.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from horopoints.harness import _float_cells, run, write_csv, write_rows
from horopoints.points import PointSetSpec, gen_point_set

SAMPLE_HEADER = ["k", "n", "alpha", "d", "torus1", "torus2", "re_z", "im_z", "height"]


def _oracle_fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _oracle_json_cell(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def _oracle_text(header, rows, fmt) -> bytes:
    if fmt == "json":
        payload = {
            "schema_version": 1,
            "columns": header,
            "rows": [[_oracle_json_cell(v) for v in row] for row in rows],
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    lines = [",".join(header)]
    lines.extend(",".join(_oracle_fmt_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _oracle_sample_rows(n_schedule, point_set):
    rows = []
    for n in n_schedule:
        spec = PointSetSpec(n=n, alpha=Fraction(point_set["alpha"]), d=point_set["d"],
                            a=point_set["a"], b=point_set["b"], c=point_set["c"])
        ps = gen_point_set(spec, point_set["variant"])
        spec = ps.spec
        heights = ps.heights()
        t1s = ps.torus1_numerators()
        t2s = ps.torus2_numerators() if ps.with_second else None
        xs = ps.x_reals()
        y = float(ps.scale_height)
        for i in range(len(ps)):
            rows.append((
                int(ps.residues[i]),
                n,
                spec.alpha,
                spec.d,
                Fraction(int(t1s[i]), n),
                Fraction(int(t2s[i]), n) if t2s is not None else "",
                float(xs[i]),
                y,
                float(heights[i]),
            ))
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant", ["full", "monomial", "triple"])
def test_sample_payload_matches_row_oracle(tmp_path, variant, fmt):
    schedule = [1, 2, 8, 12, 1009]
    for d in (1, 2, 3):
        for alpha in ("1/2", "1", "5/4"):
            point_set = {"variant": variant, "d": d, "alpha": alpha,
                         "a": 5, "b": 7, "c": 11}
            out = tmp_path / f"{d}-{alpha.replace('/', '_')}"
            man = run({"schema_version": 1, "kind": "generate", "format": fmt,
                       "n_schedule": schedule, "point_set": point_set}, out_dir=out)
            assert man.outputs == [f"samples.{fmt}"]
            expected = _oracle_text(SAMPLE_HEADER,
                                    _oracle_sample_rows(schedule, point_set), fmt)
            assert (out / f"samples.{fmt}").read_bytes() == expected, (variant, d, alpha)


SMALL_HEADER = ["n", "x", "flag", "label", "q", "other"]
SMALL_ROWS = [
    (1, 0.1, True, "", Fraction(3, 4), None),
    (-2, math.nan, False, "a b", Fraction(0, 1), Fraction(-5, 3)),
    (3, math.inf, True, "x|y", Fraction(7), 1e-300),
    (10 ** 20, -math.inf, False, "q\"uote", Fraction(1, 2), -0.0),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [SMALL_ROWS, []], ids=["table", "empty"])
def test_write_rows_matches_row_oracle(tmp_path, fmt, rows):
    name = write_rows(tmp_path, "t", SMALL_HEADER, rows, fmt)
    assert name == f"t.{fmt}"
    assert (tmp_path / name).read_bytes() == _oracle_text(SMALL_HEADER, rows, fmt)


def test_write_rows_spells_non_finite_floats(tmp_path):
    write_rows(tmp_path, "t", SMALL_HEADER, SMALL_ROWS, "csv")
    write_rows(tmp_path, "t", SMALL_HEADER, SMALL_ROWS, "json")
    csv_rows = (tmp_path / "t.csv").read_text().splitlines()
    assert csv_rows[2].split(",")[1] == "nan"
    assert csv_rows[3].split(",")[1] == "inf"
    assert csv_rows[4].split(",")[1] == "-inf"
    text = (tmp_path / "t.json").read_text()
    assert "      NaN," in text and "      Infinity," in text and "      -Infinity," in text


def test_write_rows_without_columns(tmp_path):
    for fmt in ("csv", "json"):
        write_rows(tmp_path, "e", [], [], fmt)
        assert (tmp_path / f"e.{fmt}").read_bytes() == _oracle_text([], [], fmt)


def test_write_csv_matches_row_oracle(tmp_path):
    write_csv(tmp_path / "w.csv", SMALL_HEADER, SMALL_ROWS)
    assert (tmp_path / "w.csv").read_bytes() == _oracle_text(SMALL_HEADER, SMALL_ROWS, "csv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_column_cells_match_row_oracle(fmt):
    values = [0.1, math.nan, math.inf, -math.inf, -0.0, 1e22, 5e-324]
    cell = _oracle_fmt_cell if fmt == "csv" else (
        lambda v: json.dumps(_oracle_json_cell(v)))
    assert _float_cells(np.array(values), fmt) == [cell(v) for v in values]
    assert _float_cells(np.array(values[:1] + values[4:]), fmt) == \
        [cell(v) for v in values[:1] + values[4:]]
