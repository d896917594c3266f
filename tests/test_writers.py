"""Byte identity of the payload writers against a row-by-row oracle.

The oracle is the writer the harness used before tables were streamed in
blocks of rows: every cell goes through an isinstance dispatch, and JSON goes
through json.dumps(sort_keys=True, indent=2) of the whole payload.  The
harness must produce the same bytes for sample dumps and for small row
tables, whatever the block and chunk sizes, and a write that raises must
leave no partial payload.
"""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from horopoints import arith, harness
from horopoints.harness import _float_cells, run, write_csv, write_rows
from horopoints.points import VARIANTS, PointSetSpec, gen_point_set

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
        fields = {f: point_set[f] for f in ("d", "a", "b", "c") if f in point_set}
        spec = PointSetSpec(n=n, alpha=Fraction(point_set["alpha"]), **fields)
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
    # each variant is sent the fields it reads
    reads = VARIANTS[variant][0]
    for d in (1, 2, 3) if "d" in reads else (1,):
        for alpha in ("1/2", "1", "5/4"):
            fields = {"d": d, "a": 5, "b": 7, "c": 11}
            point_set = {"variant": variant, "alpha": alpha,
                         **{f: v for f, v in fields.items() if f in reads}}
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


def _table_of(count: int) -> list[tuple]:
    """count rows cycling through SMALL_ROWS, each with its index in front."""
    return [(i, *SMALL_ROWS[i % len(SMALL_ROWS)]) for i in range(count)]


_B = 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3])
def test_write_rows_is_byte_identical_across_blocks(tmp_path, monkeypatch, fmt, count):
    monkeypatch.setattr(harness, "_ROWS_PER_WRITE", _B)
    header, rows = ["i", *SMALL_HEADER], _table_of(count)
    write_rows(tmp_path, "t", header, rows, fmt)
    assert (tmp_path / f"t.{fmt}").read_bytes() == _oracle_text(header, rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("variant", ["full", "monomial", "triple"])
def test_sample_payload_does_not_depend_on_the_block_size(tmp_path, monkeypatch,
                                                          variant, fmt):
    cfg = {"schema_version": 1, "kind": "generate", "format": fmt, "n_schedule": [7, 11],
           "point_set": {"variant": variant, **({} if variant == "full" else {"d": 2, "b": 3})}}
    run(cfg, out_dir=tmp_path / "default")
    name = f"samples.{fmt}"
    expected = (tmp_path / "default" / name).read_bytes()
    # (arith.BLOCK, harness._ROWS_PER_WRITE): chunks far above the block,
    # equal to it, below it without dividing it, and just above it
    for block, chunk in [(2, 1024), (2, 2), (5, 2), (2, 3)]:
        monkeypatch.setattr(arith, "BLOCK", block)
        monkeypatch.setattr(harness, "_ROWS_PER_WRITE", chunk)
        run(cfg, out_dir=tmp_path / f"{block}-{chunk}")
        assert (tmp_path / f"{block}-{chunk}" / name).read_bytes() == expected, (block, chunk)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_writes_at_most_rows_per_write_rows_at_a_time(tmp_path, monkeypatch, fmt):
    sizes = []
    encoded = harness._encoded_blocks

    def counted(rows, fmt):
        assert isinstance(rows, harness.RowStream)
        for chunk in encoded(rows, fmt):
            sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(harness, "_encoded_blocks", counted)
    run({"schema_version": 1, "kind": "generate", "format": fmt, "n_schedule": [5003],
         "point_set": {"variant": "triple"}}, out_dir=tmp_path)
    assert len(sizes) > 1 and max(sizes) <= harness._ROWS_PER_WRITE
    assert sum(sizes) == len(gen_point_set(PointSetSpec(n=5003), "triple"))


# sha256 of the dumps of two sets a little over one arith.BLOCK, two views each
PINNED_DUMPS = [
    ("triple", 1, 20011, "csv",
     "c8c47beea4171261e78d53fd7168447aab2a9c22e750ccbcb1085716929d81e8"),
    ("triple", 1, 20011, "json",
     "4d96f6ba2fa319dd8cef2b2e10bd5e41952f89fbb4cbdae788f3535c580aaf7c"),
    ("monomial", 2, 40009, "csv",
     "5085503bf07c91a4857e0c5235509e314d9890bfd8189df3b2b73264d88b85ff"),
    ("monomial", 2, 40009, "json",
     "eb4bfb7c41b025d20701fa3017ddc43ea9a976edbb36841f32f5c285b765a6fd"),
]


@pytest.mark.parametrize("variant, d, n, fmt, digest", PINNED_DUMPS,
                         ids=[f"{v}_d{d}_{fmt}" for v, d, _, fmt, _ in PINNED_DUMPS])
def test_sample_dump_bytes_are_pinned(tmp_path, variant, d, n, fmt, digest):
    # the columns come from IEEE + - * /, rint and repr, so the bytes are
    # those of any platform
    assert len(gen_point_set(PointSetSpec(n=n, d=d), variant)) > arith.BLOCK
    run({"schema_version": 1, "kind": "generate", "format": fmt, "n_schedule": [n],
         "point_set": {"variant": variant, "d": d}}, out_dir=tmp_path)
    data = (tmp_path / f"samples.{fmt}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_raising_dump_leaves_no_partial_payload(tmp_path, monkeypatch, fmt):
    cfg = {"schema_version": 1, "kind": "generate", "format": fmt, "n_schedule": [101],
           "point_set": {"variant": "triple"}}
    run(cfg, out_dir=tmp_path / "fresh")
    earlier = (tmp_path / "fresh" / f"samples.{fmt}").read_bytes()
    # 100 points: six blocks of 16 are written before the last one raises
    monkeypatch.setattr(arith, "BLOCK", 16)
    cells = harness._float_cells

    def fail_in_the_last_block(values, fmt):
        if len(values) < 16:
            raise RuntimeError("disk gone")
        return cells(values, fmt)

    monkeypatch.setattr(harness, "_float_cells", fail_in_the_last_block)
    for out in ("empty", "fresh"):
        with pytest.raises(RuntimeError, match="disk gone"):
            run(cfg, out_dir=tmp_path / out)
    assert sorted(p.name for p in (tmp_path / "empty").iterdir()) == []
    # a rerun that fails keeps the earlier payload whole
    assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == \
        ["manifest.json", f"samples.{fmt}"]
    assert (tmp_path / "fresh" / f"samples.{fmt}").read_bytes() == earlier


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_raising_row_table_leaves_no_partial_payload(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(harness, "_ROWS_PER_WRITE", 2)

    def rows():
        yield from SMALL_ROWS
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        write_rows(tmp_path, "t", SMALL_HEADER, rows(), fmt)
    assert list(tmp_path.iterdir()) == []
