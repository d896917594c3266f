"""Experiment harness: JSON configs, deterministic CSV/JSON reports, run
manifests, and SVG plot emission.

Re-running an identical config reproduces bit-identical CSV/JSON payloads;
wall-clock timings live only in the manifest.  Experiments parallelize over
the n schedule, with results merged in ascending n order regardless of the
thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .arith import (
    divisor_count,
    gcd,
    kloosterman_sum,
    next_prime,
    residue_count_formula,
    totient,
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
    PointSetSpec,
    gen_monomial,
    gen_point_set,
    gen_triple,
    project_level,
    verify_invariance,
)
from .sl2 import verify_intersection
from .stats import (
    InsufficientData,
    NotExpanding,
    cusp_mass,
    discrepancy_l2,
    empirical_average,
    equidist_report,
    kloosterman_average,
    rate_fit,
    toral_correlation,
    weyl_sums_all_residues,
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

KINDS = (
    "generate",
    "equidist",
    "kloosterman",
    "invariance",
    "cardinality",
    "discrepancy",
    "cusp_mass",
    "projection",
    "intersection",
)
# experiments whose checks are exact identities; a failure flips the exit status
HARD_KINDS = ("kloosterman", "invariance", "cardinality", "discrepancy",
              "projection", "intersection")


class ConfigInvalid(ValueError):
    """The experiment configuration does not validate."""


class ResourceExhausted(RuntimeError):
    """The requested n exceeds the desk-scale memory guard."""


# ---------------------------------------------------------------------------
# config

@dataclass
class ExperimentConfig:
    kind: str
    raw: dict
    n_schedule: list[int]
    point_set: dict
    observables: list[Observable]
    out_dir: Path | None
    threads: int
    seed: int
    format: str

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(_canonical_json(self.raw).encode()).hexdigest()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_fraction(x) -> Fraction:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 6)
    raise ConfigInvalid(f"cannot parse fraction from {x!r}")


def parse_observable(rec: dict) -> Observable:
    """Tagged observable records from the config format."""
    if not isinstance(rec, dict) or "type" not in rec:
        raise ConfigInvalid(f"observable record needs a 'type': {rec!r}")
    t = rec["type"]
    try:
        if t == "torus_char":
            return TorusChar(m=int(rec["m"]))
        if t == "two_torus_char":
            return TwoTorusChar(m1=int(rec["m1"]), m2=int(rec["m2"]))
        if t == "kernel":
            center = rec.get("center")
            return AutomorphicKernel(
                radius=float(rec["radius"]),
                profile=rec.get("profile", "smooth"),
                center=complex(center[0], center[1]) if center else 1j,
            )
        if t == "height_band":
            upper = rec.get("upper")
            return HeightBand(lower=float(rec["lower"]),
                              upper=math.inf if upper is None else float(upper))
        if t == "product":
            return Product(tuple(parse_observable(f) for f in rec["factors"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"bad observable record {rec!r}: {exc}") from exc
    raise ConfigInvalid(f"unknown observable type {t!r}")


def _range_bound(raw: dict, key: str, default=None) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"n_schedule range {key} must be an integer, got {value!r}")
    return value


def _parse_schedule(raw) -> list[int]:
    if isinstance(raw, list):
        sched = [int(n) for n in raw]
    elif isinstance(raw, dict) and "stop" in raw:
        # checked before the range is listed, so a huge stop cannot allocate
        start = _range_bound(raw, "start", 1)
        step = _range_bound(raw, "step", 1)
        if step < 1:
            raise ConfigInvalid("n_schedule range step must be >= 1")
        if start < 1:
            raise ConfigInvalid("n values must be >= 1")
        span = range(start, _range_bound(raw, "stop") + 1, step)
        if span and span[-1] > _N_GUARD:
            raise ResourceExhausted(f"n = {span[-1]} exceeds the 1e8 guard")
        sched = list(span)
    elif isinstance(raw, dict) and "count" in raw:
        start = int(raw["start"])
        factor = float(raw.get("factor", 10))
        count = int(raw["count"])
        snap = bool(raw.get("snap_to_prime", False))
        sched = []
        val = float(start)
        for _ in range(count):
            n = int(round(val))
            sched.append(next_prime(n) if snap else n)
            val *= factor
    else:
        raise ConfigInvalid("n_schedule must be a list, a range, or a ramp object")
    if not sched:
        raise ConfigInvalid("n schedule is empty")
    if any(n < 1 for n in sched):
        raise ConfigInvalid("n values must be >= 1")
    if max(sched) > _N_GUARD:
        raise ResourceExhausted(f"n = {max(sched)} exceeds the 1e8 guard")
    return sorted(set(sched))


def _path_exists(source) -> bool:
    try:
        return Path(source).exists()
    except (OSError, ValueError):
        # a JSON string can be longer than a file name may be, or hold a NUL
        return False


def _parse_json(text: str, what: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    return raw


def load_config(source) -> ExperimentConfig:
    """Parse and validate a config from a dict, a path, or a JSON string."""
    if isinstance(source, (str, Path)) and _path_exists(source):
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {source}: {exc}") from exc
        raw = _parse_json(text, f"config file {source}")
    elif isinstance(source, str):
        raw = _parse_json(source, "config string (not an existing file)")
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigInvalid(f"cannot load config from {source!r}")

    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigInvalid(f"schema_version must be {SCHEMA_VERSION}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigInvalid(f"unknown kind {kind!r}")

    needs_schedule = kind not in ("projection",)
    if needs_schedule and "n_schedule" not in raw:
        raise ConfigInvalid("n_schedule is required")
    n_schedule = _parse_schedule(raw["n_schedule"]) if needs_schedule else []

    ps = dict(raw.get("point_set", {}))
    ps.setdefault("alpha", "1/2")
    ps.setdefault("d", 1)
    ps.setdefault("a", 1)
    ps.setdefault("b", 1)
    ps.setdefault("c", 1)
    ps.setdefault("primitive", True)
    ps.setdefault("variant", "monomial")
    if ps["variant"] not in ("full", "monomial", "triple"):
        raise ConfigInvalid(f"unknown point set variant {ps['variant']!r}")
    # coprimality of the multipliers is checked against every scheduled n up front
    for n in n_schedule:
        if gcd(ps["a"] * ps["b"] * ps["c"], n) != 1:
            raise ConfigInvalid(f"multipliers not coprime to n={n}")

    observables = [parse_observable(r) for r in raw.get("observables", [])]

    out_dir = raw.get("out_dir") or os.environ.get(ENV_OUT_DIR)
    threads = int(raw.get("threads", 1))
    if threads < 1:
        raise ConfigInvalid("threads must be >= 1")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigInvalid("format must be csv or json")
    return ExperimentConfig(
        kind=kind,
        raw=raw,
        n_schedule=n_schedule,
        point_set=ps,
        observables=observables,
        out_dir=Path(out_dir) if out_dir else None,
        threads=threads,
        seed=int(raw.get("seed", 0)),
        format=fmt,
    )


def _spec_for(cfg: ExperimentConfig, n: int) -> PointSetSpec:
    ps = cfg.point_set
    return PointSetSpec(
        n=n,
        alpha=_parse_fraction(ps["alpha"]),
        d=int(ps["d"]),
        a=int(ps["a"]),
        b=int(ps["b"]),
        c=int(ps["c"]),
        primitive=bool(ps["primitive"]),
    )


# ---------------------------------------------------------------------------
# deterministic writers
#
# A row table reaches the writers either as rows of Python values, encoded
# cell by cell, or as EncodedColumns built from numpy arrays.  Both end in
# one CSV text builder and one JSON text builder.

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


_CELL_ENCODERS = {"csv": _fmt_cell, "json": _json_cell}


@dataclass
class EncodedColumns:
    """A row table held as columns of cells already encoded for one format.

    len() is the row count, as for a list of rows.
    """

    fmt: str
    columns: list[list[str]]

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


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


def _encoded_rows(rows, fmt: str):
    if isinstance(rows, EncodedColumns):
        if rows.fmt != fmt:
            raise ValueError(f"columns are encoded for {rows.fmt}, not {fmt}")
        return zip(*rows.columns)
    encode = _CELL_ENCODERS[fmt]
    return ([encode(v) for v in row] for row in rows)


def _csv_text(header: list[str], rows) -> str:
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _json_array(items, level: int) -> str:
    """Encoded JSON values as an array, laid out as by json.dumps(indent=2)."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _json_table_text(header: list[str], rows) -> str:
    # the bytes of json.dumps(payload, sort_keys=True, indent=2) + "\n" for
    # payload {"schema_version", "columns", "rows"}, without building payload
    columns = _json_array([json.dumps(h) for h in header], 1)
    body = _json_array([_json_array(r, 2) for r in rows], 1)
    return (f'{{\n  "columns": {columns},\n  "rows": {body},\n'
            f'  "schema_version": {SCHEMA_VERSION}\n}}\n')


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows (tuples of values, or EncodedColumns) as CSV."""
    path.write_text(_csv_text(header, _encoded_rows(rows, "csv")))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_rows(out: Path, stem: str, header: list[str], rows, fmt: str) -> str:
    """Persist a row table as CSV or as a JSON record list; returns the name.

    rows are tuples of values or EncodedColumns in the format fmt.
    """
    if fmt == "json":
        name = f"{stem}.json"
        (out / name).write_text(_json_table_text(header, _encoded_rows(rows, "json")))
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
        clocks[name] = clocks.get(name, 0.0) + time.monotonic() - t0


def _merge_clocks(clocks: dict, part: dict) -> None:
    """Add the stage times of one n (timed on any thread) into clocks."""
    for name, seconds in part.items():
        clocks[name] = clocks.get(name, 0.0) + seconds


@dataclass
class RunManifest:
    kind: str
    config_hash: str
    tool_version: str
    outputs: list[str]
    all_passed: bool
    wall_clock_s: dict = field(default_factory=dict)
    out_dir: Path | None = None

    def write(self, path: Path) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config_sha256": self.config_hash,
            "tool_version": self.tool_version,
            "outputs": self.outputs,
            "all_passed": self.all_passed,
            "wall_clock_s": {k: round(v, 6) for k, v in self.wall_clock_s.items()},
        }
        write_json(path, payload)


# ---------------------------------------------------------------------------
# experiments

def _map_schedule(cfg: ExperimentConfig, fn):
    """Apply fn(n) over the schedule, merged back in ascending n order."""
    if cfg.threads == 1 or len(cfg.n_schedule) <= 1:
        return [fn(n) for n in cfg.n_schedule]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, cfg.n_schedule))


_SAMPLE_HEADER = ["k", "n", "alpha", "d", "torus1", "torus2", "re_z", "im_z", "height"]


def _exp_generate(cfg: ExperimentConfig, out: Path):
    fmt = cfg.format
    cell = _CELL_ENCODERS[fmt]
    table = EncodedColumns(fmt, [[] for _ in _SAMPLE_HEADER])
    clocks: dict = {}
    for n in cfg.n_schedule:
        with _stage(clocks, "generate"):
            ps = gen_point_set(_spec_for(cfg, n), cfg.point_set["variant"])
            t1s = ps.torus1_numerators()
            t2s = ps.torus2_numerators() if ps.with_second else None
            xs = ps.x_reals()
            heights = ps.heights()
        with _stage(clocks, "format"):
            m = len(ps)
            spec = ps.spec
            cells = (
                list(map(str, ps.residues.tolist())),
                [cell(n)] * m,
                [cell(spec.alpha)] * m,
                [cell(spec.d)] * m,
                _fraction_cells(t1s, n, fmt),
                _fraction_cells(t2s, n, fmt) if t2s is not None else [cell("")] * m,
                _float_cells(xs, fmt),
                [cell(float(ps.scale_height))] * m,
                _float_cells(heights, fmt),
            )
            for column, chunk in zip(table.columns, cells):
                column.extend(chunk)
    with _stage(clocks, "write"):
        name = write_rows(out, "samples", _SAMPLE_HEADER, table, fmt)
    return [name], True, clocks


def _exp_equidist(cfg: ExperimentConfig, out: Path):
    if not cfg.observables:
        raise ConfigInvalid("equidist needs at least one observable")
    variant = cfg.point_set["variant"]
    d_values = [int(d) for d in cfg.raw.get("d_values", [cfg.point_set["d"]])]
    # the surface points are reduced up front only if an observable reads them
    on_surface = any("x" in obs._slots() for obs in cfg.observables)
    outputs = []
    obs_payload = []
    clocks: dict = {}
    for d in d_values:
        dcfg = replace(cfg, point_set={**cfg.point_set, "d": d})

        def work(n):
            part: dict = {}
            with _stage(part, "generate"):
                ps = gen_point_set(_spec_for(dcfg, n), variant)
            if on_surface:
                with _stage(part, "reduce"):
                    ps.reduced_xy()
            return n, ps, part

        sets = {}
        for n, ps, part in _map_schedule(dcfg, work):
            sets[n] = ps
            _merge_clocks(clocks, part)
        spec0 = _spec_for(dcfg, dcfg.n_schedule[0])
        for i, obs in enumerate(cfg.observables):
            with _stage(clocks, "evaluate"):
                rep = equidist_report(spec0, variant, obs, cfg.n_schedule,
                                      point_sets=sets)
            name = (f"equidist_{i}.csv" if len(d_values) == 1
                    else f"equidist_d{d}_{i}.csv")
            with _stage(clocks, "write"):
                write_csv(out / name,
                          ["n", "empirical_re", "empirical_im", "haar", "abs_error"],
                          rep.rows())
            outputs.append(name)
            obs_payload.append({
                "d": d,
                "observable": rep.observable,
                "n_values": rep.n_values,
                "empirical_re": [z.real for z in rep.empirical],
                "empirical_im": [z.imag for z in rep.empirical],
                "haar": rep.haar,
                "haar_exact": rep.haar_exact,
                "errors": rep.errors,
                "fitted_kappa": rep.fitted_kappa,
                "fit_residual": rep.fit_residual,
            })
    ok = True
    if cfg.raw.get("require_decay"):
        # the smallest n is pre-asymptotic: the trend and the decay fit both
        # start at the second point
        for rec in obs_payload:
            errs = rec["errors"]
            ok &= all(a >= b for a, b in zip(errs[1:], errs[2:]))
            try:
                kappa, resid = rate_fit(rec["n_values"][1:], errs[1:])
                ok &= kappa > 0 and resid < 0.5
            except InsufficientData:
                ok = False
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "equidist",
        "variant": variant,
        "point_set": cfg.point_set,
        "observables": obs_payload,
    }
    with _stage(clocks, "write"):
        write_json(out / "equidist.json", payload)
    outputs.append("equidist.json")
    return outputs, ok, clocks


def _exp_kloosterman(cfg: ExperimentConfig, out: Path):
    if cfg.raw.get("weyl_full"):
        return _exp_weyl_full(cfg, out)
    m_range = int(cfg.raw.get("m_range", 2))
    cross = bool(cfg.raw.get("cross_check", False))
    tol = 1e-9
    rows = []
    ok = True

    def work(n):
        local = []
        phi = totient(n)
        tau = divisor_count(n)
        ps = gen_triple(PointSetSpec(n=n)) if cross else None
        for m1 in range(-m_range, m_range + 1):
            for m2 in range(-m_range, m_range + 1):
                avg = kloosterman_average(n, m1, m2)
                closed = kloosterman_sum(m1, m2, n) / phi
                good = abs(avg - closed) <= tol
                if (m1, m2) != (0, 0):
                    g = gcd(gcd(abs(m1), abs(m2)), n)
                    good &= abs(avg) <= tau * math.sqrt(g * n) / phi + tol
                if cross and ps is not None:
                    emp = empirical_average(ps, TwoTorusChar(m1, m2))
                    good &= abs(emp - closed) <= tol
                local.append((n, m1, m2, avg.real, avg.imag, good))
        return local

    for chunk in _map_schedule(cfg, work):
        rows.extend(chunk)
    ok = all(r[-1] for r in rows)
    name = write_rows(out, "kloosterman",
                      ["n", "m1", "m2", "avg_re", "avg_im", "ok"], rows, cfg.format)
    return [name], ok, {}


def _exp_weyl_full(cfg: ExperimentConfig, out: Path):
    # full-set character sums for every residue frequency at once; the value
    # must match the 0/1 closed form, and periodicity in m covers |m| <= 2n
    tol = 1e-10

    def work(n):
        vals = weyl_sums_all_residues(n)
        dev = float(abs(vals[0] - 1.0))
        if n > 1:
            dev = max(dev, float(np.abs(vals[1:]).max()))
        return (n, dev, dev <= tol)

    rows = _map_schedule(cfg, work)
    ok = all(r[-1] for r in rows)
    name = write_rows(out, "weyl", ["n", "max_abs_error", "ok"], rows, cfg.format)
    return [name], ok, {}


def _exp_invariance(cfg: ExperimentConfig, out: Path):
    primes = [int(p) for p in cfg.raw.get("primes", [2, 3, 5])]
    d_values = [int(d) for d in cfg.raw.get("d_values", [1])]
    rows = []

    def work(n):
        local = []
        for d in d_values:
            for p in primes:
                if n % p == 0:
                    continue
                spec = _spec_for(cfg, n)
                spec = PointSetSpec(n=n, alpha=spec.alpha, d=d, a=spec.a,
                                    b=spec.b, c=spec.c, primitive=spec.primitive)
                local.append((n, p, d, verify_invariance(spec, p)))
        return local

    for chunk in _map_schedule(cfg, work):
        rows.extend(chunk)
    ok = all(r[-1] for r in rows)
    outputs = [write_rows(out, "invariance", ["n", "p", "d", "invariant"],
                          rows, cfg.format)]
    toral = cfg.raw.get("toral")
    if toral:
        toral_rows, toral_ok = _toral_block(toral, cfg.seed)
        ok &= toral_ok
        outputs.append(write_rows(
            out, "toral", ["instance", "expanding", "rule_value", "match"],
            toral_rows, cfg.format))
    return outputs, ok, {}


def _toral_block(spec: dict, seed: int):
    # seeded random expanding matrices: the correlation must match the
    # frequency transport rule A^T m_in = m_out on every instance
    count = int(spec.get("count", 1000))
    max_entry = int(spec.get("max_entry", 10))
    rng = np.random.default_rng(seed)
    rows = [(-1, True, toral_correlation([[3, 1], [1, 2]], [1, 0], [3, 1]),
             toral_correlation([[3, 1], [1, 2]], [1, 0], [3, 1]) == 1.0)]
    ok = bool(rows[0][-1])
    made = 0
    while made < count:
        size = 2 if rng.random() < 0.5 else 1
        A = rng.integers(-max_entry, max_entry + 1, size=(size, size))
        m_in = rng.integers(-max_entry, max_entry + 1, size=size)
        # half the trials see the transported frequency, half a decoy
        if rng.random() < 0.5:
            m_out = A.T @ m_in
        else:
            m_out = rng.integers(-max_entry, max_entry + 1, size=size)
        try:
            val = toral_correlation(A, m_in, m_out)
        except NotExpanding:
            continue
        expected = 1.0 if np.array_equal(A.T @ m_in, m_out) else 0.0
        good = val == expected
        ok &= good
        rows.append((made, True, val, good))
        made += 1
    return rows, ok


def _exp_cardinality(cfg: ExperimentConfig, out: Path):
    d_values = [int(d) for d in cfg.raw.get("d_values", list(range(1, 13)))]
    rows = []

    def work(n):
        local = []
        for d in d_values:
            spec = PointSetSpec(n=n, d=d)
            generated = len(gen_monomial(spec))
            formula = residue_count_formula(n, d)
            local.append((n, d, generated, formula, generated == formula))
        return local

    for chunk in _map_schedule(cfg, work):
        rows.extend(chunk)
    ok = all(r[-1] for r in rows)
    name = write_rows(out, "cardinality",
                      ["n", "d", "generated", "formula", "match"], rows, cfg.format)
    return [name], ok, {}


def _exp_discrepancy(cfg: ExperimentConfig, out: Path):
    betas = [float(b) for b in cfg.raw.get("betas", [0.2, 0.4])]
    d_values = [int(d) for d in cfg.raw.get("d_values", [1])]
    m_values = [int(m) for m in cfg.raw.get("m_values", [1])]
    monotone = cfg.raw.get("require_decreasing")  # 'strict' | 'nonincreasing'
    rows = []
    series: dict[tuple, list[float]] = {}
    for n in cfg.n_schedule:
        for beta in betas:
            for d in d_values:
                for m in m_values:
                    res = discrepancy_l2(n, beta, d, m)
                    rows.append((n, beta, d, m, res.l2_value, res.closed_form,
                                 res.prime_count,
                                 abs(res.l2_value - res.closed_form) <= 1e-9))
                    series.setdefault((beta, d, m), []).append(res.l2_value)
    ok = all(r[-1] for r in rows)
    if monotone == "strict":
        ok &= all(all(a > b for a, b in zip(v, v[1:])) for v in series.values())
    elif monotone == "nonincreasing":
        ok &= all(all(a >= b for a, b in zip(v, v[1:])) for v in series.values())
    name = write_rows(
        out, "discrepancy",
        ["n", "beta", "d", "m", "l2", "closed_form", "prime_count", "match"],
        rows, cfg.format)
    return [name], ok, {}


def _exp_cusp_mass(cfg: ExperimentConfig, out: Path):
    thresholds = [float(t) for t in cfg.raw.get("thresholds", [2.0, 4.0, 8.0])]
    rel_tol = cfg.raw.get("rel_tol")
    full_mass = bool(cfg.raw.get("expect_full_mass", False))
    floor_check = bool(cfg.raw.get("min_height_sqrt_n", False))
    rows = []
    height_rows = []

    def work(n):
        part: dict = {}
        with _stage(part, "generate"):
            ps = gen_point_set(_spec_for(cfg, n), cfg.point_set["variant"])
        with _stage(part, "reduce"):
            heights = ps.heights()
        local = []
        with _stage(part, "evaluate"):
            for T in thresholds:
                mass = cusp_mass(ps, T)
                expected = 3.0 / (math.pi * T)
                rel = abs(mass - expected) / expected
                if full_mass:
                    good = mass == 1.0
                elif rel_tol is not None:
                    good = rel <= float(rel_tol)
                else:
                    good = True
                local.append((n, T, mass, expected, rel, good))
            hrow = None
            if floor_check:
                lowest = float(heights.min())
                floor = math.sqrt(n) * (1.0 - 1e-6)
                hrow = (n, lowest, math.sqrt(n), lowest >= floor)
        return local, hrow, part

    clocks: dict = {}
    for local, hrow, part in _map_schedule(cfg, work):
        rows.extend(local)
        if hrow is not None:
            height_rows.append(hrow)
        _merge_clocks(clocks, part)
    ok = all(r[-1] for r in rows) and all(r[-1] for r in height_rows)
    with _stage(clocks, "write"):
        outputs = [write_rows(out, "cusp_mass",
                              ["n", "T", "mass", "expected", "rel_err", "ok"],
                              rows, cfg.format)]
        if height_rows:
            outputs.append(write_rows(out, "heights",
                                      ["n", "min_height", "sqrt_n", "ok"],
                                      height_rows, cfg.format))
    return outputs, ok, clocks


def _exp_projection(cfg: ExperimentConfig, out: Path):
    cases = cfg.raw.get("cases")
    if not cases:
        raise ConfigInvalid("projection needs a non-empty 'cases' list")
    rows = []
    ok = True
    for case in cases:
        n = int(case["n"])
        places = tuple(int(p) for p in case["places"])
        l = tuple(int(e) for e in case["l"])
        m = tuple(int(e) for e in case["m"])
        try:
            proj = project_level(n, places, l, m)
            agree = True
            count = len(proj.pairs)
        except ArithmeticError:
            agree = False
            count = -1
        ok &= agree
        rows.append((n, "|".join(map(str, places)), "|".join(map(str, l)),
                     "|".join(map(str, m)), count, agree))
    name = write_rows(out, "projection",
                      ["n", "places", "l", "m", "pairs", "agree"], rows, cfg.format)
    return [name], ok, {}


def _exp_intersection(cfg: ExperimentConfig, out: Path):
    def work(n):
        checked = passed = 0
        for k in range(1, max(n, 2)):
            if gcd(k, n) == 1:
                checked += 1
                passed += verify_intersection(k, n)
        return (n, checked, passed, checked == passed)

    rows = _map_schedule(cfg, work)
    ok = all(r[-1] for r in rows)
    name = write_rows(out, "intersection",
                      ["n", "units_checked", "verified", "ok"], rows, cfg.format)
    return [name], ok, {}


_EXPERIMENTS = {
    "generate": _exp_generate,
    "equidist": _exp_equidist,
    "kloosterman": _exp_kloosterman,
    "invariance": _exp_invariance,
    "cardinality": _exp_cardinality,
    "discrepancy": _exp_discrepancy,
    "cusp_mass": _exp_cusp_mass,
    "projection": _exp_projection,
    "intersection": _exp_intersection,
}


def run(config, out_dir=None) -> RunManifest:
    """Execute one experiment config and persist CSV/JSON plus a manifest."""
    cfg = config if isinstance(config, ExperimentConfig) else load_config(config)
    out = Path(out_dir) if out_dir else (cfg.out_dir or Path.cwd() / "horopoints-out")
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    outputs, ok, clocks = _EXPERIMENTS[cfg.kind](cfg, out)
    clocks = dict(clocks)
    clocks["total"] = time.monotonic() - t0
    manifest = RunManifest(
        kind=cfg.kind,
        config_hash=cfg.config_hash,
        tool_version=__version__,
        outputs=outputs,
        all_passed=bool(ok),
        wall_clock_s=clocks,
        out_dir=out,
    )
    manifest.write(out / "manifest.json")
    return manifest


def emit_plot(report_paths, out_path) -> Path:
    """Render equidist JSON reports into one standalone log-log SVG."""
    paths = [Path(p) for p in (report_paths if isinstance(report_paths, (list, tuple))
                               else [report_paths])]
    if not paths:
        raise NoData("no report files given")
    curves = []
    for p in paths:
        payload = json.loads(p.read_text())
        records = payload.get("observables", [])
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
