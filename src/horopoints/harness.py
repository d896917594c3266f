"""Experiment harness: JSON configs, deterministic CSV/JSON reports, run
manifests, and SVG plot emission.

Re-running an identical config reproduces bit-identical CSV/JSON payloads;
wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice, product, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .arith import (
    Modulus,
    is_prime,
    kloosterman_sum,
    power_mask,
    residue_count_formula,
    weil_bound,
    weyl_means,
)
from .observables import (
    AutomorphicKernel,
    HeightBand,
    Observable,
    Product,
    TorusChar,
    TwoTorusChar,
)
from .points import (
    VARIANTS,
    PointSetSpec,
    gen_point_set,
    gen_triple,
    project_level,
    validate_projection,
    verify_invariance,
)
from .sl2 import verify_intersection
from .stats import (
    InsufficientData,
    NoPrimesAvailable,
    NotExpanding,
    cusp_mass,
    discrepancy_l2,
    rate_fit,
    subset_averages,
    toral_correlation,
)
from .svg import NoData, render_loglog_plot

__all__ = [
    "ConfigInvalid",
    "ResourceExhausted",
    "ExperimentConfig",
    "RunManifest",
    "load_config",
    "run",
    "emit_plot",
    "NoData",
]

ENV_OUT_DIR = "HOROPOINTS_OUT"
SCHEMA_VERSION = 1
_N_GUARD = 10 ** 8
# bounds the entries of a schedule, of the m_range frequency grid and of the
# toral instances; the largest shipped one (c05's schedule) has 5000
_SCHEDULE_GUARD = 10 ** 5


class ConfigInvalid(ValueError):
    """The experiment configuration does not validate."""


class ResourceExhausted(RuntimeError):
    """The requested n or schedule exceeds the desk-scale guards."""


# ---------------------------------------------------------------------------
# config

@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    raw: dict
    n_schedule: list[int]
    observables: list[Observable]
    out_dir: Path | None
    format: str
    params: dict

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(_canonical_json(self.raw).encode()).hexdigest()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _invalid(what: str):
    """Raise a parse error of the block as ConfigInvalid, naming what."""
    try:
        yield
    except ConfigInvalid:
        raise
    except KeyError as exc:
        raise ConfigInvalid(f"{what}: missing {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigInvalid(f"{what}: {exc}") from exc


def _int(value) -> int:
    """An integer, also from an integral float or a string; a bool is not one."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """A finite number, also from a string; a bool is not one."""
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _bool(value) -> bool:
    """A JSON boolean; the string "false" or the number 0 is not one."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _parse_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 6)
    return Fraction(x)


@dataclass(frozen=True)
class Param:
    """A config key of a kind.  parse reads one value (many: each entry of a
    non-empty list, with no entry repeated, which would write its rows or
    table twice), test must hold for it (need says what it asks), and an
    absent or null key takes the default, unless it is required."""

    key: str
    parse: Callable
    default: object = None
    many: bool = False
    test: Callable | None = None
    need: str = ""
    required: bool = False

    def read(self, raw: dict):
        value = raw.get(self.key)
        if value is None and self.required:
            raise ConfigInvalid(f"{self.key} is required")
        if value is None:
            return self.default
        with _invalid(self.key):
            if not self.many:
                return self._one(value)
            if not isinstance(value, list) or not value:
                raise ValueError(f"expected a non-empty list, got {value!r}")
            parsed = [self._one(v) for v in value]
            if len(set(parsed)) < len(parsed):
                raise ValueError(f"{value!r} repeats an entry")
            return parsed

    def _one(self, value):
        parsed = self.parse(value)
        if self.test is not None and not self.test(parsed):
            raise ValueError(f"{value!r} is not {self.need}")
        return parsed


def parse_observable(rec: dict) -> Observable:
    """Tagged observable records from the config format."""
    if not isinstance(rec, dict) or "type" not in rec:
        raise ConfigInvalid(f"observable record needs a 'type': {rec!r}")
    t = rec["type"]
    with _invalid(f"bad observable record {rec!r}"):
        if t == "torus_char":
            return TorusChar(m=_int(rec["m"]))
        if t == "two_torus_char":
            return TwoTorusChar(m1=_int(rec["m1"]), m2=_int(rec["m2"]))
        if t == "kernel":
            center = rec.get("center")
            if center is not None and (not isinstance(center, (list, tuple))
                                       or len(center) != 2):
                raise ValueError(f"center {center!r} is not a pair [x, y]")
            return AutomorphicKernel(
                radius=_float(rec["radius"]),
                profile=rec.get("profile", "smooth"),
                center=1j if center is None else complex(_float(center[0]), _float(center[1])),
            )
        if t == "height_band":
            upper = rec.get("upper")
            return HeightBand(lower=_float(rec["lower"]),
                              upper=math.inf if upper is None else _float(upper))
        if t == "product":
            return Product(tuple(parse_observable(f) for f in rec["factors"]))
    raise ConfigInvalid(f"unknown observable type {t!r}")


def _toral(value) -> dict | None:
    """The toral block of invariance: how many matrices, with entries up to what."""
    if not value:
        return None
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    unknown = sorted(set(value) - {"count", "max_entry"})
    if unknown:
        raise ValueError(f"has no field {', '.join(map(repr, unknown))}")
    count, max_entry = _int(value.get("count", 1000)), _int(value.get("max_entry", 10))
    if count < 0 or max_entry < 1:
        raise ValueError("needs count >= 0 and max_entry >= 1")
    _check_length(count, "toral count")
    return {"count": count, "max_entry": max_entry}


def _case(value) -> tuple:
    """A projection case (n, places, l, m), checked by project_level's own
    validator; both of its paths walk every k < n and hold up to n pairs, so
    n is bounded as a schedule's length is."""
    n = _int(value["n"])
    places, l, m = validate_projection(
        n, *(map(_int, value[key]) for key in ("places", "l", "m")))
    _check_length(n, f"the projection of n={n}")
    return n, places, l, m


def _m_range(value) -> int:
    """m_range >= 0, whose (2 m_range + 1)^2 frequency pairs are each one row."""
    m = _int(value)
    if m < 0:
        raise ValueError(f"{value!r} is not >= 0")
    _check_length((2 * m + 1) ** 2, f"m_range {m}")
    return m


def _check_length(length: int, what: str = "n_schedule") -> None:
    if length > _SCHEDULE_GUARD:
        raise ResourceExhausted(
            f"{what} has {length} entries, above the {_SCHEDULE_GUARD} guard")


def _parse_schedule(raw) -> list[int]:
    """The sorted distinct n of a list or a range.  The length is checked
    before a range is listed."""
    if isinstance(raw, list):
        _check_length(len(raw))
        sched = [_int(n) for n in raw]
    elif isinstance(raw, dict) and "stop" in raw:
        start, step = _int(raw.get("start", 1)), _int(raw.get("step", 1))
        if start < 1 or step < 1:
            raise ValueError("a range needs start >= 1 and step >= 1")
        span = range(start, _int(raw["stop"]) + 1, step)
        _check_length(len(span))
        sched = list(span)
    else:
        raise ValueError("must be a list or a range object")
    if not sched:
        raise ConfigInvalid("n schedule is empty")
    if min(sched) < 1:
        raise ConfigInvalid("n values must be >= 1")
    if max(sched) > _N_GUARD:
        raise ResourceExhausted(f"n = {max(sched)} exceeds the 1e8 guard")
    return sorted(set(sched))


_POINT_SET_DEFAULTS = {"alpha": "1/2", "d": 1, "a": 1, "b": 1, "c": 1,
                       "primitive": True, "variant": "monomial"}


def _parse_point_set(raw) -> tuple[dict, PointSetSpec]:
    """The point_set record with its defaults, kept raw for the equidist
    report, which writes it verbatim; and its spec at n = 1."""
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"point_set must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(_POINT_SET_DEFAULTS))
    if unknown:
        raise ConfigInvalid(f"point_set has no field {', '.join(map(repr, unknown))}")
    ps = {**_POINT_SET_DEFAULTS, **raw}
    if not isinstance(ps["variant"], str) or ps["variant"] not in VARIANTS:
        raise ConfigInvalid(f"unknown point set variant {ps['variant']!r}")
    if ps["primitive"] is not True:
        raise ConfigInvalid(f"primitive must be true, got {ps['primitive']!r}; "
                            'variant "full" gives every residue')
    spec = PointSetSpec(n=1, alpha=_parse_fraction(ps["alpha"]), d=_int(ps["d"]),
                        a=_int(ps["a"]), b=_int(ps["b"]), c=_int(ps["c"]))
    return ps, spec


_SCHEDULE = Param("n_schedule", _parse_schedule, required=True)
# a (record, spec) pair; only the kinds that build point sets declare it
_POINT_SET = Param("point_set", _parse_point_set, _parse_point_set({}))
_M_RANGE = Param("m_range", _m_range, 2)
_FORMAT = Param("format", str, "csv", test=lambda f: f in ("csv", "json"),
                need="csv or json")


def _admit_point_set(params: dict) -> None:
    """Raise ConfigInvalid for the first scheduled n at which the spec fails,
    for a point_set field or d_values that the variant does not read or a d
    beside d_values, and for an observable of a coordinate its points lack."""
    record, spec = params["point_set"]
    # the spec at each scheduled n checks its multipliers and its height
    with _invalid("point_set"):
        spec.check_schedule(params["n_schedule"])
    variant = record["variant"]
    reads, carries = VARIANTS[variant]
    unread = [f for f in ("d", "a", "b", "c")
              if f not in reads and getattr(spec, f) != _POINT_SET_DEFAULTS[f]]
    if "d" not in reads and params.get("d_values") not in (None, [1]):
        unread.append("d_values")
    if unread:
        raise ConfigInvalid(f"variant {variant!r} reads no {', '.join(unread)}")
    if params.get("d_values") is not None and spec.d != _POINT_SET_DEFAULTS["d"]:
        raise ConfigInvalid(f"point_set d={spec.d} is not read beside d_values; "
                            "list every degree in d_values")
    for obs in params.get("observables", []):
        lacking = obs._slots() - set(carries)
        if lacking:
            raise ConfigInvalid(f"{obs.describe()} reads {', '.join(sorted(lacking))}, "
                                f"which the points of variant {variant!r} do not carry")


def load_config(source) -> ExperimentConfig:
    """Parse and validate a config from a dict or from the path of a JSON file;
    of the kind's keys, only those it declares are read."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config file {source} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read config {source}: {exc}") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config must be a JSON object or the path of one, got {raw!r}")

    if raw.get("schema_version") != SCHEMA_VERSION or isinstance(raw["schema_version"], bool):
        raise ConfigInvalid(f"schema_version must be {SCHEMA_VERSION}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigInvalid(f"unknown kind {kind!r}")

    params = {p.key: p.read(raw) for p in KINDS[kind].params}
    if KINDS[kind].admit is not None:
        KINDS[kind].admit(params)
    out_dir = raw.get("out_dir") or os.environ.get(ENV_OUT_DIR)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigInvalid(f"out_dir must be a path string, got {out_dir!r}")
    return ExperimentConfig(
        kind=kind,
        raw=raw,
        n_schedule=params.get("n_schedule", []),
        observables=params.get("observables", []),
        out_dir=Path(out_dir) if out_dir else None,
        format=_FORMAT.read(raw),
        params=params,
    )


def _ignored_keys(cfg: ExperimentConfig) -> list[str]:
    """The sorted top-level keys of the config that load_config did not read."""
    declared = {p.key for p in (*KINDS[cfg.kind].params, _FORMAT)}
    return sorted(set(cfg.raw) - declared - {"schema_version", "kind", "out_dir"})


# ---------------------------------------------------------------------------
# deterministic writers
#
# Every row table is streamed to its file in chunks of at most
# _ROWS_PER_WRITE rows, each row already encoded for the format: rows of
# Python values are encoded one row at a time, and a RowStream brings its
# own encoded chunks.  An encoded row costs about 100-250 bytes across its
# cells, its line and the joined chunk, against 8-16 bytes for a numeric
# coordinate, so a chunk is smaller than an arith.BLOCK view of points.
# A payload is written beside its name and renamed onto it only once whole.

_ROWS_PER_WRITE = 1024


def _fmt_cell(v) -> str:
    """A CSV cell."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _json_cell(v) -> str:
    """A JSON cell, as json.dumps writes it inside a list."""
    if isinstance(v, Fraction):
        v = f"{v.numerator}/{v.denominator}"
    elif not isinstance(v, (bool, int, float, str)):
        v = str(v)
    return json.dumps(v)


def _json_array(items, level: int) -> str:
    """Encoded JSON values as an array, laid out as by json.dumps(indent=2)."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


_CELL_ENCODERS = {"csv": _fmt_cell, "json": _json_cell}
# a row of encoded cells as one CSV line, or as a JSON array inside "rows"
_ROW_ENCODERS = {"csv": ",".join, "json": lambda cells: _json_array(cells, 2)}


class RowStream:
    """A row table made one chunk at a time while it is written.

    Iterating yields lists of rows already encoded for the format they are
    written in; it can be read once.  len() is the number of rows yielded
    so far, so the row count once the table is written.
    """

    def __init__(self, chunks: Iterator[list[str]]):
        self._chunks = chunks
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[list[str]]:
        for chunk in self._chunks:
            self._count += len(chunk)
            yield chunk


def _fraction_cells(numerators: np.ndarray, denominator: int, fmt: str) -> list[str]:
    """numerator/denominator in lowest terms; 0 is 0/1, as for Fraction."""
    g = np.gcd(numerators, denominator)
    q = '"' if fmt == "json" else ""
    return [f"{q}{a}/{b}{q}"
            for a, b in zip((numerators // g).tolist(), (denominator // g).tolist())]


def _float_cells(values: np.ndarray, fmt: str) -> list[str]:
    """Shortest round-trip reprs; JSON spells non-finite values NaN/Infinity."""
    if np.isfinite(values).all():
        return list(map(repr, values.tolist()))
    return list(map(_CELL_ENCODERS[fmt], values.tolist()))


def _encoded_blocks(rows, fmt: str) -> Iterator[list[str]]:
    """The rows of a table as lists of encoded rows, at most _ROWS_PER_WRITE
    each; rows of Python values are encoded as the lists are made."""
    if isinstance(rows, RowStream):
        return iter(rows)
    encode, join = _CELL_ENCODERS[fmt], _ROW_ENCODERS[fmt]
    lines = (join([encode(v) for v in row]) for row in rows)
    return iter(lambda: list(islice(lines, _ROWS_PER_WRITE)), [])


def _stream_csv(fh, header: list[str], chunks) -> None:
    fh.write(",".join(header) + "\n")
    for chunk in chunks:
        if chunk:
            fh.write("\n".join(chunk))
            fh.write("\n")


def _stream_json(fh, header: list[str], chunks) -> None:
    # the bytes of json.dumps(payload, sort_keys=True, indent=2) + "\n" for
    # payload {"schema_version", "columns", "rows"}, without building payload
    columns = _json_array([json.dumps(h) for h in header], 1)
    fh.write(f'{{\n  "columns": {columns},\n  "rows": ')
    pad = "\n    "
    sep = "[" + pad
    for chunk in chunks:
        if chunk:
            fh.write(sep)
            fh.write(("," + pad).join(chunk))
            sep = "," + pad
    fh.write("[]" if sep.startswith("[") else "\n  ]")
    fh.write(f',\n  "schema_version": {SCHEMA_VERSION}\n}}\n')


@contextmanager
def _replacing(path: Path):
    """A text file to write, beside path; renamed onto path when the block
    ends and deleted if it raises, so path never holds a partial payload."""
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with open(part, "w") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_csv(path: Path, header: list[str], rows) -> None:
    """Stream rows (tuples of values, or a csv RowStream) to path as CSV."""
    with _replacing(path) as fh:
        _stream_csv(fh, header, _encoded_blocks(rows, "csv"))


def write_json(path: Path, payload: dict) -> None:
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_rows(out: Path, stem: str, header: list[str], rows, fmt: str) -> str:
    """Persist a row table as CSV or as a JSON record list; returns the name.

    rows are tuples of values or a RowStream in the format fmt; len(rows) is
    the row count once written.
    """
    if fmt == "json":
        name = f"{stem}.json"
        with _replacing(out / name) as fh:
            _stream_json(fh, header, _encoded_blocks(rows, "json"))
    else:
        name = f"{stem}.csv"
        write_csv(out / name, header, rows)
    return name


@contextmanager
def _stage(clocks: dict, name: str):
    """Add the wall time of the block to clocks[name]."""
    t0 = time.monotonic()
    try:
        yield
    finally:
        clocks[name] = clocks.get(name, 0.0) + (time.monotonic() - t0)


@dataclass
class RunManifest:
    kind: str
    config_hash: str
    tool_version: str
    outputs: list[str]
    all_passed: bool
    wall_clock_s: dict = field(default_factory=dict)
    out_dir: Path | None = None
    ignored_keys: list[str] = field(default_factory=list)

    def write(self, path: Path) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config_sha256": self.config_hash,
            "tool_version": self.tool_version,
            "outputs": self.outputs,
            "all_passed": self.all_passed,
            "wall_clock_s": {k: round(v, 6) for k, v in self.wall_clock_s.items()},
            "ignored_keys": self.ignored_keys,
        }
        write_json(path, payload)


# ---------------------------------------------------------------------------
# experiments

@dataclass(frozen=True)
class Table:
    """A payload table: file stem and columns, the last of which is the row's
    verdict.  An optional table is written only when it has rows."""

    stem: str
    header: tuple[str, ...]
    optional: bool = False


@dataclass(frozen=True)
class Kind:
    """An experiment kind, declared once in KINDS.

    params are the config keys the kind declares; load_config reads these
    and no others.  The driver maps rows(cfg, item), one row list per table,
    over the items, the param named by items: with a declared point_set,
    the unreduced point set of each n, or, with on_modulus, the arithmetic
    table (arith.Modulus) of each n, dropped with its rows.  once(cfg) makes
    the last table's rows once per run; check(cfg, tables) is a whole-table
    check beside the verdict columns.  A hard kind checks exact identities,
    so a failure flips the CLI status.  A kind with a body runs body(cfg,
    out) instead.  admit(params) raises ConfigInvalid or ResourceExhausted
    at load time for an item that cannot run.
    """

    params: tuple[Param, ...] = ()
    tables: tuple[Table, ...] = ()
    rows: Callable | None = None
    hard: bool = False
    check: Callable | None = None
    once: Callable | None = None
    items: str = "n_schedule"
    on_modulus: bool = False
    body: Callable | None = None
    admit: Callable | None = None


def _staged_point_set(cfg: ExperimentConfig, clocks: dict, n: int):
    """The point set of the config's spec at n, unreduced; its generation
    timed into clocks."""
    record, spec = cfg.params["point_set"]
    with _stage(clocks, "generate"):
        return gen_point_set(replace(spec, n=n), record["variant"])


def _run_tables(cfg: ExperimentConfig, out: Path):
    """The driver of every kind without a body."""
    kind = KINDS[cfg.kind]
    items = cfg.params[kind.items]
    tables: list[list] = [[] for _ in kind.tables]
    clocks: dict = {}
    # rebinding item drops the previous point set or table before the next
    for item in items:
        if "point_set" in cfg.params:
            item = _staged_point_set(cfg, clocks, item)
        elif kind.on_modulus:
            with _stage(clocks, "table"):
                item = Modulus(item)
        with _stage(clocks, "evaluate"):
            rows = kind.rows(cfg, item)
        for table, chunk in zip(tables, rows):
            table.extend(chunk)
    if kind.once is not None:
        with _stage(clocks, "evaluate"):
            tables[-1] = kind.once(cfg)
    ok = all(row[-1] for table in tables for row in table)
    if kind.check is not None:
        ok = ok and kind.check(cfg, tables)
    with _stage(clocks, "write"):
        outputs = [write_rows(out, table.stem, list(table.header), rows, cfg.format)
                   for table, rows in zip(kind.tables, tables)
                   if rows or not table.optional]
    return outputs, ok, clocks


_SAMPLE_HEADER = ["k", "n", "alpha", "d", "torus1", "torus2", "re_z", "im_z", "height"]


def _samples_of(cfg: ExperimentConfig, n: int, clocks: dict) -> Iterator[list[str]]:
    """The encoded sample rows of the set of n, at most _ROWS_PER_WRITE at a
    time; the numeric columns are computed once per block view.

    The set is generated unreduced, each block view reduces its own points
    as it is encoded, and one set is alive at a time along the schedule.
    """
    fmt = cfg.format
    cell, join = _CELL_ENCODERS[fmt], _ROW_ENCODERS[fmt]
    ps = _staged_point_set(cfg, clocks, n)
    n_cell, alpha_cell, d_cell = cell(n), cell(ps.spec.alpha), cell(ps.spec.d)
    im_z_cell, no_torus2 = cell(float(ps.scale_height)), cell("")
    for block in ps.blocks():
        with _stage(clocks, "reduce"):
            heights = block.heights()
        with _stage(clocks, "generate"):
            t1s = block.torus1_numerators()
            t2s = block.torus2_numerators() if ps.with_second else None
            xs = block.x_reals()
        for lo in range(0, len(block), _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            with _stage(clocks, "format"):
                chunk = list(map(join, zip(
                    map(str, block.residues[rows].tolist()),
                    repeat(n_cell),
                    repeat(alpha_cell),
                    repeat(d_cell),
                    _fraction_cells(t1s[rows], n, fmt),
                    _fraction_cells(t2s[rows], n, fmt) if t2s is not None else repeat(no_torus2),
                    _float_cells(xs[rows], fmt),
                    repeat(im_z_cell),
                    _float_cells(heights[rows], fmt),
                )))
            yield chunk


def _run_generate(cfg: ExperimentConfig, out: Path):
    clocks = {"generate": 0.0, "reduce": 0.0, "format": 0.0}
    chunks = (rows for n in cfg.n_schedule for rows in _samples_of(cfg, n, clocks))
    with _stage(clocks, "write"):
        name = write_rows(out, "samples", _SAMPLE_HEADER, RowStream(chunks), cfg.format)
    # the writer pulls every chunk, so the write stage holds the generate,
    # reduce and format stages; take them out, so that no two stages overlap
    pulled = clocks["generate"] + clocks["reduce"] + clocks["format"]
    clocks["write"] = max(clocks["write"] - pulled, 0.0)
    return [name], True, clocks


def _run_equidist(cfg: ExperimentConfig, out: Path):
    """Walks one point set per n, that of d = g, the gcd of d_values: the
    set of each d is the subset of its keys that are (d/g)-th powers, marked
    in one n-byte mask per d other than g, and a point's coordinates depend
    on its key alone, not on d.  subset_averages averages every observable
    over every d-subset in that one walk, evaluating each distinct factor
    once per leaf, with the bits of an average over the set of each d
    generated on its own.  The set and its masks die when averages
    returns, before the next set is generated."""
    record, spec = cfg.params["point_set"]
    d_values = cfg.params["d_values"] or [spec.d]
    g = math.gcd(*d_values)
    targets = [obs.haar() for obs in cfg.observables]
    n_values = cfg.n_schedule
    outputs = []
    obs_payload = []
    clocks: dict = {}

    def evaluate(factor, view):
        with _stage(clocks, f"evaluate:{factor.describe()}"):
            return factor.eval_many(view)

    def averages(n):
        with _stage(clocks, "generate"):
            ps = gen_point_set(replace(spec, n=n, d=g), record["variant"])
            masks = [None if d == g else power_mask(ps.residues, d // g, n)
                     for d in d_values]
        with _stage(clocks, "evaluate"):
            return subset_averages(ps, cfg.observables, masks, evaluate)

    per_n = [averages(n) for n in n_values]
    ok = True
    for k, d in enumerate(d_values):
        for i, (obs, target) in enumerate(zip(cfg.observables, targets)):
            empirical = [avgs[k][i] for avgs in per_n]
            haar = target.value
            errors = [abs(z - haar) for z in empirical]
            # errors at or below 10 eps |haar| (and rate_fit's floor) are exact
            # cancellations with no rate information; the fit needs three others
            usable = [(n, e) for n, e in zip(n_values, errors)
                      if e > 10.0 * np.finfo(float).eps * abs(haar)]
            try:
                kappa, residual = rate_fit([n for n, _ in usable], [e for _, e in usable])
            except InsufficientData:
                kappa = residual = None
            if cfg.params["require_decay"]:
                # the smallest n is pre-asymptotic: the trend and the decay fit
                # both start at the second point
                ok &= all(a >= b for a, b in zip(errors[1:], errors[2:]))
                try:
                    tail_kappa, tail_residual = rate_fit(n_values[1:], errors[1:])
                    ok &= tail_kappa > 0 and tail_residual < 0.5
                except InsufficientData:
                    ok = False
            stem = f"equidist_{i}" if len(d_values) == 1 else f"equidist_d{d}_{i}"
            with _stage(clocks, "write"):
                outputs.append(write_rows(
                    out, stem, ["n", "empirical_re", "empirical_im", "haar", "abs_error"],
                    [(n, z.real, z.imag, haar, e)
                     for n, z, e in zip(n_values, empirical, errors)],
                    cfg.format))
            obs_payload.append({
                "d": d,
                "observable": obs.describe(),
                "n_values": n_values,
                "empirical_re": [z.real for z in empirical],
                "empirical_im": [z.imag for z in empirical],
                "haar": haar,
                "haar_exact": target.exact,
                "errors": errors,
                "fitted_kappa": kappa,
                "fit_residual": residual,
            })
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "equidist",
        "variant": record["variant"],
        "point_set": record,
        "observables": obs_payload,
    }
    with _stage(clocks, "write"):
        write_json(out / "equidist.json", payload)
    outputs.append("equidist.json")
    return outputs, ok, clocks


def _kloosterman_rows(cfg: ExperimentConfig, mod: Modulus):
    n = mod.n
    if cfg.params["weyl_full"]:
        # the full Weyl sum of every frequency m, read from the root table that
        # the Kloosterman rows gather from, one sum per divisor gcd(m, n), must
        # match the 0/1 closed form
        dev = max(abs(mean - (g == n)) for g, mean in weyl_means(mod).items())
        return [], [(n, dev, dev <= 1e-10)]
    # the triple set's two-torus averages against S(m1, m2; n) / phi(n), and
    # the Weil bound off the trivial frequency
    m_range, tol = cfg.params["m_range"], 1e-9
    phi = mod.phi
    freqs = list(product(range(-m_range, m_range + 1), repeat=2))
    # every character of the grid averaged in one walk of the set
    averages = subset_averages(gen_triple(PointSetSpec(n=n), mod),
                               [TwoTorusChar(m1, m2) for m1, m2 in freqs])[0]
    rows = []
    for (m1, m2), avg in zip(freqs, averages):
        good = abs(avg - kloosterman_sum(m1, m2, mod) / phi) <= tol
        if (m1, m2) != (0, 0):
            good &= abs(avg) <= weil_bound(m1, m2, mod) / phi + tol
        rows.append((n, m1, m2, avg.real, avg.imag, good))
    return rows, []


def _admit_m_range(params: dict) -> None:
    if params["weyl_full"] and params["m_range"] != _M_RANGE.default:
        raise ConfigInvalid("weyl_full sums every residue frequency and reads no m_range")


def _invariance_rows(cfg: ExperimentConfig, mod: Modulus):
    n = mod.n
    return ([(n, p, d, verify_invariance(mod, d, p))
             for d in cfg.params["d_values"] for p in cfg.params["primes"]
             if n % p],)


def _toral_rows(cfg: ExperimentConfig):
    # seeded random expanding matrices: the correlation must match the
    # frequency transport rule A^T m_in = m_out on every instance
    toral = cfg.params["toral"]
    if toral is None:
        return []
    max_entry = toral["max_entry"]
    rng = np.random.default_rng(cfg.params["seed"])
    val = toral_correlation([[3, 1], [1, 2]], [1, 0], [3, 1])
    rows = [(-1, True, val, val == 1.0)]
    while len(rows) <= toral["count"]:
        size = 2 if rng.random() < 0.5 else 1
        A = rng.integers(-max_entry, max_entry + 1, size=(size, size))
        m_in = rng.integers(-max_entry, max_entry + 1, size=size)
        # half the trials see the transported frequency, half a decoy
        m_out = (A.T @ m_in if rng.random() < 0.5
                 else rng.integers(-max_entry, max_entry + 1, size=size))
        try:
            val = toral_correlation(A, m_in, m_out)
        except NotExpanding:
            continue
        expected = 1.0 if np.array_equal(A.T @ m_in, m_out) else 0.0
        rows.append((len(rows) - 1, True, val, val == expected))
    return rows


def _cardinality_rows(cfg: ExperimentConfig, mod: Modulus):
    # the degree-d residue set is the key array of every point set of (n, d)
    sizes = ((d, len(mod.residues(d)), residue_count_formula(mod, d))
             for d in cfg.params["d_values"])
    return ([(mod.n, d, generated, formula, generated == formula)
             for d, generated, formula in sizes],)


def _discrepancy_rows(cfg: ExperimentConfig, n: int):
    # d and m do not enter the value, so each window is found once, and the
    # rows keep the order of product(betas, d_values, m_values)
    rows = []
    for beta in cfg.params["betas"]:
        res = discrepancy_l2(n, beta)
        match = abs(res.l2_value - res.closed_form) <= 1e-9
        rows += [(n, beta, d, m, res.l2_value, res.closed_form, res.prime_count, match)
                 for d, m in product(cfg.params["d_values"], cfg.params["m_values"])]
    return (rows,)


def _prime_windows(params: dict) -> None:
    # every prime window that discrepancy_l2 averages over holds a prime
    for n, beta in product(params["n_schedule"], params["betas"]):
        try:
            discrepancy_l2(n, beta)
        except NoPrimesAvailable:
            raise ConfigInvalid(f"the prime window P({n}, {n}^{beta}) is empty") from None


def _discrepancy_falls(cfg: ExperimentConfig, tables) -> bool:
    # every (beta, d, m) series of L2 values falls along the schedule
    rule = cfg.params["require_decreasing"]
    if rule is None:
        return True
    series: dict[tuple, list[float]] = {}
    for row in tables[0]:
        series.setdefault(row[1:4], []).append(row[4])
    falls = operator.gt if rule == "strict" else operator.ge
    return all(all(map(falls, v, v[1:])) for v in series.values())


def _cusp_mass_rows(cfg: ExperimentConfig, ps):
    n = ps.n
    rows = []
    masses, lowest = cusp_mass(ps, cfg.params["thresholds"])
    for T, mass in zip(cfg.params["thresholds"], masses):
        expected = 3.0 / (math.pi * T)
        rel = abs(mass - expected) / expected
        rel_tol = cfg.params["rel_tol"]
        good = (mass == 1.0 if cfg.params["expect_full_mass"]
                else rel_tol is None or rel <= rel_tol)
        rows.append((n, T, mass, expected, rel, good))
    if not cfg.params["min_height_sqrt_n"]:
        return rows, []
    return rows, [(n, lowest, math.sqrt(n), lowest >= math.sqrt(n) * (1.0 - 1e-6))]


def _projection_rows(cfg: ExperimentConfig, case):
    n, places, l, m = case
    try:
        count, agree = len(project_level(n, places, l, m)), True
    except ArithmeticError:
        count, agree = -1, False
    return ([(n, "|".join(map(str, places)), "|".join(map(str, l)),
              "|".join(map(str, m)), count, agree)],)


def _intersection_rows(cfg: ExperimentConfig, mod: Modulus):
    checked, passed = verify_intersection(mod)
    return ([(mod.n, checked, passed, checked == passed)],)


def _d_values(default) -> Param:
    return Param("d_values", _int, default, many=True, test=lambda d: d >= 1, need=">= 1")


# in the order of the CLI subcommands; the kinds that build point sets
# declare a point_set, and invariance, which draws its toral instances, a seed
KINDS: dict[str, Kind] = {
    "equidist": Kind(body=_run_equidist, admit=_admit_point_set, params=(
        _SCHEDULE, _POINT_SET,
        Param("observables", parse_observable, many=True, required=True),
        _d_values(None), Param("require_decay", _bool, False))),
    # weyl_full writes the weyl table instead of the kloosterman one
    "kloosterman": Kind(
        hard=True, rows=_kloosterman_rows, admit=_admit_m_range, on_modulus=True,
        params=(_SCHEDULE, _M_RANGE, Param("weyl_full", _bool, False)),
        tables=(Table("kloosterman", ("n", "m1", "m2", "avg_re", "avg_im", "ok"), True),
                Table("weyl", ("n", "max_abs_error", "ok"), True))),
    "invariance": Kind(
        hard=True, rows=_invariance_rows, once=_toral_rows, on_modulus=True,
        params=(_SCHEDULE,
                Param("primes", _int, [2, 3, 5], many=True, test=is_prime, need="prime"),
                _d_values([1]), Param("toral", _toral),
                Param("seed", _int, 0, test=lambda s: s >= 0, need=">= 0")),
        tables=(Table("invariance", ("n", "p", "d", "invariant")),
                Table("toral", ("instance", "expanding", "rule_value", "match"), True))),
    "cardinality": Kind(
        hard=True, rows=_cardinality_rows, on_modulus=True,
        params=(_SCHEDULE, _d_values(list(range(1, 13)))),
        tables=(Table("cardinality", ("n", "d", "generated", "formula", "match")),)),
    "discrepancy": Kind(
        hard=True, rows=_discrepancy_rows, check=_discrepancy_falls, admit=_prime_windows,
        params=(_SCHEDULE,
                Param("betas", _float, [0.2, 0.4], many=True, test=lambda b: 0 < b < 0.5,
                      need="in (0, 1/2)"),
                _d_values([1]),
                Param("m_values", _int, [1], many=True, test=bool, need="nonzero"),
                Param("require_decreasing", str, need="strict or nonincreasing",
                      test=lambda rule: rule in ("strict", "nonincreasing"))),
        tables=(Table("discrepancy", ("n", "beta", "d", "m", "l2", "closed_form",
                                      "prime_count", "match")),)),
    "cusp_mass": Kind(
        rows=_cusp_mass_rows, admit=_admit_point_set,
        # the mass above T is 3/(pi T) only for T >= 1, the range of HeightBand
        params=(_SCHEDULE, _POINT_SET,
                Param("thresholds", _float, [2.0, 4.0, 8.0], many=True,
                      test=lambda t: t >= 1, need=">= 1"),
                Param("rel_tol", _float, test=lambda t: t >= 0, need=">= 0"),
                Param("expect_full_mass", _bool, False),
                Param("min_height_sqrt_n", _bool, False)),
        tables=(Table("cusp_mass", ("n", "T", "mass", "expected", "rel_err", "ok")),
                Table("heights", ("n", "min_height", "sqrt_n", "ok"), True))),
    "projection": Kind(
        hard=True, rows=_projection_rows, items="cases",
        params=(Param("cases", _case, many=True, required=True),),
        tables=(Table("projection", ("n", "places", "l", "m", "pairs", "agree")),)),
    "intersection": Kind(
        hard=True, rows=_intersection_rows, on_modulus=True, params=(_SCHEDULE,),
        tables=(Table("intersection", ("n", "units_checked", "verified", "ok")),)),
    "generate": Kind(body=_run_generate, admit=_admit_point_set,
                     params=(_SCHEDULE, _POINT_SET)),
}


def run(config, out_dir=None) -> RunManifest:
    """Execute one experiment config and persist CSV/JSON plus a manifest."""
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    out = Path(out_dir) if out_dir else (cfg.out_dir or Path.cwd() / "horopoints-out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot make output directory {out}: {exc}") from exc
    t0 = time.monotonic()
    outputs, ok, clocks = (KINDS[cfg.kind].body or _run_tables)(cfg, out)
    clocks["total"] = time.monotonic() - t0
    manifest = RunManifest(
        kind=cfg.kind,
        config_hash=cfg.config_hash,
        tool_version=__version__,
        outputs=outputs,
        all_passed=bool(ok),
        wall_clock_s=clocks,
        out_dir=out,
        ignored_keys=_ignored_keys(cfg),
    )
    manifest.write(out / "manifest.json")
    return manifest


def _plottable(rec) -> bool:
    """Whether rec is an object with a string observable, d and fitted_kappa null or
    numbers, and n_values and errors equal-length lists of numbers; no bool or inf."""
    if not isinstance(rec, dict) or not isinstance(rec.get("observable"), str):
        return False
    ns, errors = rec.get("n_values"), rec.get("errors")
    scalars = [rec[key] for key in ("d", "fitted_kappa") if rec.get(key) is not None]
    return (isinstance(ns, list) and isinstance(errors, list) and len(ns) == len(errors)
            and all(type(x) in (int, float) and abs(x) != math.inf for x in scalars + ns + errors))


def emit_plot(report_paths, out_path) -> Path:
    """Render equidist JSON reports into one standalone log-log SVG."""
    paths = [Path(p) for p in (report_paths if isinstance(report_paths, (list, tuple))
                               else [report_paths])]
    curves = []
    for p in paths:
        payload = json.loads(p.read_text())
        records = payload.get("observables", []) if isinstance(payload, dict) else []
        if not isinstance(records, list) or not all(map(_plottable, records)):
            raise NoData(f"{p}: observables is not a list of records with n_values "
                         "and errors as equal-length lists of numbers")
        many_d = len({rec.get("d") for rec in records}) > 1
        for rec in records:
            label = rec["observable"]
            if many_d and rec.get("d") is not None:
                label += f" [d={rec['d']}]"
            curves.append({
                "label": label,
                "n_values": rec["n_values"],
                "errors": rec["errors"],
                "kappa": rec.get("fitted_kappa"),
            })
    if not curves:
        raise NoData("reports contain no observables")
    svg = render_loglog_plot(curves, title="equidistribution error vs n")
    out_path = Path(out_path)
    out_path.write_text(svg)
    return out_path
