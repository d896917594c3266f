"""Tests for the experiment harness: config validation, deterministic
payloads, the CLI surface, and plot emission."""

import dataclasses
import json
import math
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from oracles import ramanujan_sum

from horopoints import arith, harness, points
from horopoints.arith import totient
from horopoints.cli import main
from horopoints.harness import (
    ConfigInvalid,
    ResourceExhausted,
    emit_plot,
    load_config,
    parse_observable,
    run,
)
from horopoints.observables import HeightBand, TorusChar
from horopoints.points import VARIANTS, PointSetSpec
from horopoints.svg import NoData


def _base(kind, **extra):
    cfg = {"schema_version": 1, "kind": kind, "n_schedule": [5, 7]}
    cfg.update(extra)
    return cfg


def _config_file(tmp_path, cfg: dict, name: str = "cfg.json") -> str:
    """The path of a file holding cfg as JSON, as the CLI's --config takes it."""
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        load_config(_base("nonsense"))
    with pytest.raises(ConfigInvalid):
        load_config({"kind": "kloosterman", "n_schedule": [5]})  # missing schema
    with pytest.raises(ConfigInvalid):
        load_config(_base("equidist", n_schedule=[]))
    with pytest.raises(ConfigInvalid):
        load_config(_base("equidist", point_set={"a": 5, "variant": "monomial"},
                          n_schedule=[10]))  # a shares a factor with n
    with pytest.raises(ResourceExhausted):
        load_config(_base("generate", n_schedule=[10 ** 9]))
    cfg = load_config(_base("kloosterman"))
    assert cfg.n_schedule == [5, 7]


def _first_spec_error(point_set: dict, n_schedule) -> str:
    """The error of the first n at which a spec of the point_set record is
    invalid, one spec per n."""
    _, spec = load_config(_base("generate", n_schedule=[1], point_set=point_set)) \
        .params["point_set"]
    for n in n_schedule:
        try:
            dataclasses.replace(spec, n=n)
        except (ValueError, ArithmeticError) as exc:
            return f"point_set: {exc}"
    raise AssertionError("every n is valid")


# at alpha = 40 the height is too small from n = 7010 on
@pytest.mark.parametrize("point_set", [{}, {"a": 7, "b": 11}, {"alpha": "40"},
                                       {"alpha": "40", "b": 7001}, {"alpha": "40", "b": 7013}],
                         ids=["valid", "multipliers", "height", "multipliers_first",
                              "height_first"])
def test_load_config_checks_a_long_schedule_without_a_spec_per_n(point_set, monkeypatch):
    # 100000 scheduled n cost a gcd each, the height one bisection, and a
    # failing schedule one spec more, at its first failing n
    schedule = {"stop": 100000}
    want = None if not point_set else _first_spec_error(point_set, range(1, 100001))
    built = []
    post_init = PointSetSpec.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(PointSetSpec, "__post_init__", counting)
    cfg = _base("generate", n_schedule=schedule, point_set=point_set)
    if want is None:
        assert len(load_config(cfg).n_schedule) == 100000
        assert built == [1]
    else:
        with pytest.raises(ConfigInvalid) as exc:
            load_config(cfg)
        assert str(exc.value) == want
        assert len(built) == 2 and built[0] == 1


def test_parse_observables():
    obs = parse_observable({"type": "product", "factors": [
        {"type": "torus_char", "m": 1},
        {"type": "kernel", "radius": 1.0, "profile": "indicator"},
    ]})
    assert obs.describe() == "torus_char(m=1)*kernel(R=1.0,indicator)"
    with pytest.raises(ConfigInvalid):
        parse_observable({"type": "warp_field"})
    with pytest.raises(ConfigInvalid):
        parse_observable({"radius": 1.0})


def test_run_kloosterman_and_determinism(tmp_path):
    cfg = _base("kloosterman", m_range=1)
    m1 = run(cfg, out_dir=tmp_path / "a")
    m2 = run(cfg, out_dir=tmp_path / "b")
    assert m1.all_passed and m2.all_passed
    pa = (tmp_path / "a" / "kloosterman.csv").read_bytes()
    pb = (tmp_path / "b" / "kloosterman.csv").read_bytes()
    assert pa == pb
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("wall_clock_s"), mb.pop("wall_clock_s")
    assert ma == mb


def test_equidist_report_structure(tmp_path):
    # the primitive (monomial d = 1) sets of a schedule given in any order
    run(_base("equidist", n_schedule=[4001, 101, 1009, 401],
              observables=[{"type": "torus_char", "m": 1}]), out_dir=tmp_path)
    (rec,) = json.loads((tmp_path / "equidist.json").read_text())["observables"]
    assert rec["n_values"] == [101, 401, 1009, 4001]
    assert rec["observable"] == "torus_char(m=1)"
    assert all(e >= 0 for e in rec["errors"])
    assert rec["haar"] == 0.0 and rec["haar_exact"]
    # the character sum over the units is a Ramanujan sum / phi
    for n, re_part in zip(rec["n_values"], rec["empirical_re"]):
        assert abs(re_part - ramanujan_sum(n, 1) / totient(n)) < 1e-12


def _spy_on_point_sets(monkeypatch) -> list:
    """Weak references to every set the harness generates; generating one
    while an earlier one is alive fails."""
    alive = []
    generate = harness.gen_point_set

    def spy(spec, variant):
        assert all(ref() is None for ref in alive), f"a set is alive at n={spec.n}"
        ps = generate(spec, variant)
        alive.append(weakref.ref(ps))
        return ps

    monkeypatch.setattr(harness, "gen_point_set", spy)
    return alive


def test_equidist_holds_one_point_set_at_a_time(tmp_path, monkeypatch):
    # each set must be dead by the time the next one is generated; the d = 2
    # points are a subset of the d = 1 set, so one set per n is generated
    alive = _spy_on_point_sets(monkeypatch)
    man = run(_base("equidist", n_schedule=[53, 101, 199, 401], d_values=[1, 2],
                    observables=[{"type": "kernel", "radius": 1.0},
                                 {"type": "torus_char", "m": 1}]),
              out_dir=tmp_path)
    assert man.all_passed and len(alive) == 4


@pytest.mark.parametrize("variant, d_values", [("monomial", [3, 1, 2]), ("monomial", [2, 4]),
                                               ("triple", [2, 3]), ("triple", [6, 2])])
def test_equidist_over_several_d_writes_each_d_as_alone(tmp_path, monkeypatch, variant,
                                                        d_values):
    # the sets of several d, averaged in one walk of the set of their gcd,
    # write the rows and records that a run of each d alone writes
    monkeypatch.setattr(arith, "BLOCK", 64)
    point_set = {"variant": variant, "b": 3} if variant == "monomial" else \
        {"variant": variant, "c": 2}
    observables = [{"type": "kernel", "radius": 1.0},
                   {"type": "product", "factors": [{"type": "torus_char", "m": 1},
                                                   {"type": "kernel", "radius": 1.0}]},
                   {"type": "height_band", "lower": 1.5}]
    cfg = _base("equidist", n_schedule=[1009, 1729, 2017], point_set=point_set,
                observables=observables, d_values=d_values)
    run(cfg, out_dir=tmp_path / "all")
    records = json.loads((tmp_path / "all" / "equidist.json").read_text())["observables"]
    assert [rec["d"] for rec in records] == [d for d in d_values for _ in observables]
    for d in d_values:
        run({**cfg, "d_values": [d]}, out_dir=tmp_path / f"d{d}")
        alone = json.loads((tmp_path / f"d{d}" / "equidist.json").read_text())["observables"]
        assert [rec for rec in records if rec["d"] == d] == alone
        for i in range(len(observables)):
            assert (tmp_path / "all" / f"equidist_d{d}_{i}.csv").read_bytes() == \
                (tmp_path / f"d{d}" / f"equidist_{i}.csv").read_bytes()


@pytest.mark.parametrize("variant", ["full", "monomial", "triple"])
def test_generate_holds_one_point_set_at_a_time(tmp_path, monkeypatch, variant):
    # the rows of a set are written before the next set is generated, and
    # the set dies with its last block view
    monkeypatch.setattr(arith, "BLOCK", 3)
    alive = _spy_on_point_sets(monkeypatch)
    run(_base("generate", n_schedule=[11, 13, 17], point_set={"variant": variant}),
        out_dir=tmp_path)
    assert len(alive) == 3


@pytest.mark.parametrize("stem", ["c06_cusp_mass_half", "c07_cusp_escape",
                                  "c08_equidist_trend"])
def test_surface_criteria_reduce_no_whole_set(tmp_path, monkeypatch, stem):
    # the view that reads a point reduces it: at n = 2003 the d = 1 set has
    # 2002 points, and no reduction may span more than a view of BLOCK
    monkeypatch.setattr(arith, "BLOCK", 64)
    reduced_xy = points.PointSet.reduced_xy
    sizes = []

    def spy(ps):
        sizes.append(len(ps))
        return reduced_xy(ps)

    monkeypatch.setattr(points.PointSet, "reduced_xy", spy)
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" /
                      f"{stem}.json").read_text())
    run({**cfg, "n_schedule": [2003]}, out_dir=tmp_path)
    assert sizes and max(sizes) <= 64, max(sizes)


# one small config per kind mapped over items, both kloosterman modes
PER_ITEM_CONFIGS = {
    "kloosterman": _base("kloosterman", n_schedule=[5, 7, 12, 30], m_range=1),
    "weyl_full": _base("kloosterman", n_schedule=list(range(1, 40)), weyl_full=True),
    "intersection": _base("intersection", n_schedule=list(range(1, 30))),
    "cardinality": _base("cardinality", n_schedule=[12, 16, 45], d_values=[1, 2, 3]),
    "invariance": _base("invariance", n_schedule=[7, 11, 49], primes=[2, 3],
                        d_values=[1, 2], toral={"count": 20}),
    "discrepancy": _base("discrepancy", n_schedule=[1009, 2003, 10007], betas=[0.3],
                         m_values=[1, 2], require_decreasing="nonincreasing"),
    "cusp_mass": _base("cusp_mass", n_schedule=[101, 103, 107], thresholds=[2.0],
                       min_height_sqrt_n=True, point_set={"alpha": "5/4"}),
    "projection": {"schema_version": 1, "kind": "projection",
                   "cases": [{"n": 5, "places": [2], "l": [1], "m": [0]},
                             {"n": 7, "places": [2, 3], "l": [1, 0], "m": [0, 2]},
                             {"n": 25, "places": [3], "l": [2], "m": [1]}]},
}


@pytest.mark.parametrize("name", sorted(PER_ITEM_CONFIGS))
def test_thread_count_does_not_change_bytes(tmp_path, name):
    # an old "threads" key loads, is ignored like any undeclared key, and
    # changes no payload byte
    cfg = PER_ITEM_CONFIGS[name]
    plain = run(cfg, out_dir=tmp_path / "plain")
    old = run({**cfg, "threads": 4}, out_dir=tmp_path / "t4")
    assert plain.all_passed and old.all_passed
    assert plain.outputs == old.outputs
    for out in plain.outputs:
        assert (tmp_path / "plain" / out).read_bytes() == (tmp_path / "t4" / out).read_bytes()
    # the driver times every item and the writes
    assert {"evaluate", "write", "total"} <= set(plain.wall_clock_s)


def test_generate_csv_columns(tmp_path):
    cfg = _base("generate", n_schedule=[5],
                point_set={"variant": "triple", "d": 1})
    run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "k,n,alpha,d,torus1,torus2,re_z,im_z,height"
    assert lines[1].startswith("1,5,1/2,1,1/5,1/5,")


def test_cardinality_invariance_discrepancy_projection(tmp_path):
    man = run(_base("cardinality", n_schedule=[12, 16, 45], d_values=[1, 2, 3]),
              out_dir=tmp_path / "card")
    assert man.all_passed
    man = run(_base("invariance", n_schedule=[7, 11, 49], primes=[2, 3], d_values=[1, 2]),
              out_dir=tmp_path / "inv")
    assert man.all_passed
    man = run(_base("discrepancy", n_schedule=[1009, 10007], betas=[0.3],
                    d_values=[1], m_values=[1]), out_dir=tmp_path / "disc")
    assert man.all_passed
    man = run({"schema_version": 1, "kind": "projection",
               "cases": [{"n": 5, "places": [2], "l": [1], "m": [0]},
                         {"n": 7, "places": [2, 3], "l": [1, 0], "m": [0, 2]}]},
              out_dir=tmp_path / "proj")
    assert man.all_passed


def test_intersection_experiment(tmp_path):
    man = run(_base("intersection", n_schedule=list(range(1, 40))), out_dir=tmp_path)
    assert man.all_passed
    rows = (tmp_path / "intersection.csv").read_text().splitlines()
    assert rows[0] == "n,units_checked,verified,ok"


def test_cusp_mass_experiment(tmp_path):
    man = run(_base("cusp_mass", n_schedule=[100003], thresholds=[2.0, 4.0],
                    rel_tol=0.2, point_set={"variant": "monomial", "d": 1}),
              out_dir=tmp_path)
    assert man.all_passed
    rows = (tmp_path / "cusp_mass.csv").read_text().splitlines()
    assert rows[0] == "n,T,mass,expected,rel_err,ok"


def test_emit_plot(tmp_path):
    cfg = _base("equidist", n_schedule=[101, 1009],
                observables=[{"type": "kernel", "radius": 1.0}],
                point_set={"variant": "monomial"})
    run(cfg, out_dir=tmp_path)
    out = emit_plot(tmp_path / "equidist.json", tmp_path / "plot.svg")
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<!-- data" in text and "kernel(R=1.0,smooth)" in text
    # the annotated slope is the report's fitted kappa, same code path
    payload = json.loads((tmp_path / "equidist.json").read_text())
    kappa = payload["observables"][0]["fitted_kappa"]
    if kappa is not None:
        assert f"slope -{kappa:.4f}" in text
    with pytest.raises(NoData):
        emit_plot([], tmp_path / "empty.svg")


def test_cli_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base("kloosterman", m_range=1)))
    assert main(["kloosterman", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    capsys.readouterr()
    # mismatched kind is a config error, which writes no payload
    for command in ("cardinality", "generate"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
        assert not out.exists()
    # every experiment, the sample dump included, needs a config
    assert main(["equidist"]) == 2
    assert main(["generate"]) == 2


def test_cli_generate_and_plot(tmp_path):
    gen = _config_file(tmp_path, _base("generate", n_schedule=[7],
                                       point_set={"variant": "triple"}), "gen.json")
    assert main(["generate", "--config", gen, "--out", str(tmp_path / "gen")]) == 0
    assert (tmp_path / "gen" / "samples.csv").exists()

    cfg_path = tmp_path / "eq.json"
    cfg_path.write_text(json.dumps(_base(
        "equidist", n_schedule=[101, 401],
        observables=[{"type": "height_band", "lower": 2.0}],
        point_set={"variant": "full"})))
    assert main(["equidist", "--config", str(cfg_path),
                 "--out", str(tmp_path / "eq")]) == 0
    assert main(["plot", str(tmp_path / "eq" / "equidist.json"),
                 "--out", str(tmp_path / "eq" / "p.svg")]) == 0


_PLOT_RECORD = {"observable": "x", "n_values": [101, 401, 1009], "errors": [0.1, 0.01, 0.001]}
# a report that is missing, not JSON, JSON without observables, observables
# that are not a list of records, or a record without its series, with a
# series that is not a list of finite numbers, with series of two lengths,
# or with a fitted_kappa that is not a number
PLOT_INPUTS = {
    "missing": None,
    "not_json": "n,abs_error\n101,0.5\n",
    "manifest": json.dumps({"schema_version": 1, "kind": "equidist", "outputs": []}),
    "not_an_object": "[1, 2]",
    "record_without_errors": json.dumps({"observables": [{"observable": "x"}]}),
    "record_not_an_object": json.dumps({"observables": ["x"]}),
    "observables_an_object": json.dumps({"observables": {"a": 1}}),
    "n_values_not_a_list": json.dumps({"observables": [{**_PLOT_RECORD, "n_values": 5}]}),
    "errors_not_numbers": json.dumps({"observables": [{**_PLOT_RECORD, "errors": ["a", 1, 2]}]}),
    "error_infinite": json.dumps({"observables": [{**_PLOT_RECORD, "errors": [1e400, 1, 2]}]}),
    "series_of_two_lengths": json.dumps({"observables": [{**_PLOT_RECORD, "errors": [0.1]}]}),
    "kappa_not_a_number": json.dumps({"observables": [{**_PLOT_RECORD, "fitted_kappa": [1]}]}),
}


@pytest.mark.parametrize("name", sorted(PLOT_INPUTS))
def test_cli_plot_fails_closed(tmp_path, capsys, name):
    report = tmp_path / "report.json"
    if PLOT_INPUTS[name] is not None:
        report.write_text(PLOT_INPUTS[name])
    svg = tmp_path / "p.svg"
    assert main(["plot", str(report), "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("plot error:") and len(err.strip().splitlines()) == 1
    assert not svg.exists()


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HOROPOINTS_OUT", str(tmp_path / "envout"))
    man = run(_base("kloosterman", m_range=0))
    assert man.out_dir == tmp_path / "envout"
    assert (tmp_path / "envout" / "kloosterman.csv").exists()


def test_json_format_payload(tmp_path):
    man = run(_base("cardinality", n_schedule=[12, 45], d_values=[2],
                    format="json"), out_dir=tmp_path)
    assert man.outputs == ["cardinality.json"]
    payload = json.loads((tmp_path / "cardinality.json").read_text())
    assert payload["columns"] == ["n", "d", "generated", "formula", "match"]
    assert payload["rows"][0] == [12, 2, 1, 1, True]  # squares mod 12 = {1}


def test_equidist_honours_format(tmp_path):
    cfg = _base("equidist", n_schedule=[53, 101],
                observables=[{"type": "torus_char", "m": 1}], format="json")
    man = run(cfg, out_dir=tmp_path)
    assert man.outputs == ["equidist_0.json", "equidist.json"]
    assert not (tmp_path / "equidist_0.csv").exists()
    payload = json.loads((tmp_path / "equidist_0.json").read_text())
    assert payload["columns"] == ["n", "empirical_re", "empirical_im", "haar", "abs_error"]
    assert [row[0] for row in payload["rows"]] == [53, 101]
    assert all(len(row) == 5 for row in payload["rows"])


def test_discrepancy_prime_windows_admit_the_shipped_schedules():
    shipped = Path(__file__).resolve().parent.parent / "configs" / "c10_discrepancy.json"
    assert load_config(shipped).n_schedule == [1009, 10007, 100003, 1000003]
    # the benchmark's discrepancy shape: primes near 1e4, 1e5, 1e6
    cfg = load_config(_base("discrepancy", n_schedule=[10007, 100003, 1000003],
                            betas=[0.2, 0.4], d_values=[1, 2], m_values=[1, 5]))
    assert cfg.params["betas"] == [0.2, 0.4]
    # the smallest admitted n at beta = 0.2 is 33: 33^0.2 > 2
    assert load_config(_base("discrepancy", n_schedule=[33], betas=[0.2]))
    with pytest.raises(ConfigInvalid, match="prime window"):
        load_config(_base("discrepancy", n_schedule=[31], betas=[0.2]))


COMMON_KEYS = {"schema_version", "kind", "format", "out_dir"}


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_keys_are_declared(path):
    # a dead or misspelt key would be ignored by the loader, and listed in
    # the manifest's ignored_keys
    raw = json.loads(path.read_text())
    declared = COMMON_KEYS | {p.key for p in harness.KINDS[raw["kind"]].params}
    assert set(raw) <= declared, sorted(set(raw) - declared)
    assert harness._ignored_keys(load_config(raw)) == []


def test_manifest_lists_the_ignored_keys(tmp_path):
    # a misspelt key runs with the default of the key it misses; the
    # manifest names it, sorted, beside keys the kind does not read
    man = run(_base("kloosterman", m_rang=7, threads=4, cross_check=True),
              out_dir=tmp_path / "k")
    manifest = json.loads((tmp_path / "k" / "manifest.json").read_text())
    assert manifest["ignored_keys"] == man.ignored_keys == ["cross_check", "m_rang", "threads"]
    # a projection reads its cases, and neither a schedule nor a seed
    case = {"n": 5, "places": [2], "l": [1], "m": [0]}
    man = run({"schema_version": 1, "kind": "projection", "cases": [case],
               "n_schedule": [5], "seed": 3}, out_dir=tmp_path / "p")
    assert man.ignored_keys == ["n_schedule", "seed"]
    assert run(_base("cardinality", format="json"), out_dir=tmp_path / "c").ignored_keys == []


# keys a kind does not declare, even ones that would not load where declared
UNDECLARED = {
    "point_set": {"variant": "triple", "primitive": True},
    "point_set_invalid": {"variant": "nonsense", "alpha": "abc"},
    "seed": 3,
    "seed_invalid": -1,
}


@pytest.mark.parametrize("kind", ["cardinality", "kloosterman"])
@pytest.mark.parametrize("name", sorted(UNDECLARED))
def test_undeclared_keys_load_and_are_listed_as_ignored(tmp_path, kind, name):
    # point_set is declared by the kinds that build point sets and seed by
    # invariance only; any other kind loads either unread, lists it in the
    # manifest's ignored_keys, and writes the payload of the run without it
    key = name.removesuffix("_invalid")
    assert key not in {p.key for p in harness.KINDS[kind].params}
    cfg = _base(kind, n_schedule=[5, 12])
    plain = run(cfg, out_dir=tmp_path / "plain")
    extra = run({**cfg, key: UNDECLARED[name]}, out_dir=tmp_path / "extra")
    assert plain.ignored_keys == [] and extra.ignored_keys == [key]
    assert plain.all_passed and extra.all_passed and plain.outputs == extra.outputs
    for out in plain.outputs:
        assert (tmp_path / "plain" / out).read_bytes() == (tmp_path / "extra" / out).read_bytes()


def test_declared_point_set_and_seed_are_read():
    # where declared, the same blocks are parsed and refused
    for kind in ("equidist", "cusp_mass", "generate"):
        assert "point_set" in {p.key for p in harness.KINDS[kind].params}
    with pytest.raises(ConfigInvalid, match="variant"):
        load_config(_base("generate", point_set=UNDECLARED["point_set_invalid"]))
    with pytest.raises(ConfigInvalid, match="seed"):
        load_config(_base("invariance", seed=-1))
    assert load_config(_base("invariance", seed=3)).params["seed"] == 3
    # the benchmark's invariance shape sends a point_set, which it ignores
    cfg = load_config(_base("invariance", point_set=UNDECLARED["point_set"], threads=1))
    assert harness._ignored_keys(cfg) == ["point_set", "threads"]


@pytest.mark.parametrize("via", ["out_dir", "flag"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, via):
    # a regular file where the directory, or one of its parents, would go
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = _base("cardinality")
    if via == "out_dir":
        cfg["out_dir"] = str(afile / "x")
        argv = ["cardinality", "--config", _config_file(tmp_path, cfg)]
    else:
        argv = ["cardinality", "--config", _config_file(tmp_path, cfg), "--out", str(afile)]
    with pytest.raises(ConfigInvalid, match="cannot make output directory"):
        run(load_config(cfg), out_dir=None if via == "out_dir" else afile)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory")
    assert len(err.strip().splitlines()) == 1
    assert afile.read_text() == "" and sorted(p.name for p in tmp_path.iterdir()) == \
        ["afile", "cfg.json"]


def test_config_commands_take_only_config_and_out(capsys):
    # a config file states the whole experiment: no flag sets a key of it
    for command in [k.replace("_", "-") for k in harness.KINDS]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = {word.strip("[],") for word in capsys.readouterr().out.split()
                   if word.startswith(("--", "[--"))}
        assert options == {"--help", "--config", "--out"}, (command, options)


def test_weyl_full_loads_without_an_m_range():
    # c09 and the benchmark's weyl shape set no m_range; the default loads too
    for extra in ({}, {"m_range": 2}):
        assert load_config(_base("kloosterman", weyl_full=True, **extra)).params["weyl_full"]


@pytest.mark.parametrize("stem", ["c04_cardinality", "c05_invariance"])
def test_residue_set_kinds_build_no_point_set(tmp_path, monkeypatch, stem):
    # the cardinality and invariance rows read the residue sets of the table
    # of n: once the config is loaded, no spec and no point set is made
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / f"{stem}.json")
                     .read_text())
    cfg = load_config({**raw, "n_schedule": [1, 2, 12, 45, 101, 210]})
    made = []
    for cls in (points.PointSetSpec, points.PointSet):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    assert points.PointSetSpec(n=3) and made == ["PointSetSpec"]
    made.clear()
    man = run(cfg, out_dir=tmp_path)
    assert man.all_passed and made == []


def test_config_without_schedule_is_invalid():
    with pytest.raises(ConfigInvalid, match="n_schedule is required"):
        load_config({"schema_version": 1, "kind": "generate"})


def test_malformed_json_config(tmp_path, capsys):
    # a config is a dict or the path of a JSON file holding an object
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1,,}')
    with pytest.raises(ConfigInvalid, match="not valid JSON"):
        load_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigInvalid, match="JSON object"):
        load_config(str(bad))
    for source in ([1, 2], None, 5):
        with pytest.raises(ConfigInvalid, match="JSON object"):
            load_config(source)
    # JSON text is not a path: it fails as a file that cannot be read
    missing = tmp_path / "missing.json"
    for source in (missing, '{"schema_version": 1, "kind": "kloosterman"}', "x\0y"):
        with pytest.raises(ConfigInvalid, match="^cannot read config "):
            load_config(source)
    for path in (bad, missing):
        assert main(["kloosterman", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1


def test_cli_resource_exhausted_exits_2(tmp_path, capsys):
    big = _config_file(tmp_path, _base("generate", n_schedule=[10 ** 9]))
    assert main(["generate", "--config", big, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_generate_honours_format(tmp_path):
    cfg = _base("generate", n_schedule=[7], point_set={"variant": "triple"}, format="json")
    assert main(["generate", "--config", _config_file(tmp_path, cfg),
                 "--out", str(tmp_path / "json")]) == 0
    assert (tmp_path / "json" / "samples.json").exists()
    assert not (tmp_path / "json" / "samples.csv").exists()
    payload = json.loads((tmp_path / "json" / "samples.json").read_text())
    assert payload["rows"][0][:6] == [1, 7, "1/2", 1, "1/7", "1/7"]
    # the manifest hashes the config as written in its file
    manifest = json.loads((tmp_path / "json" / "manifest.json").read_text())
    assert manifest["config_sha256"] == load_config(cfg).config_hash


def test_generate_manifest_stage_clocks(tmp_path):
    run(_base("generate", n_schedule=[7, 11]), out_dir=tmp_path)
    clocks = json.loads((tmp_path / "manifest.json").read_text())["wall_clock_s"]
    assert set(clocks) == {"generate", "reduce", "format", "write", "total"}
    assert all(v >= 0 for v in clocks.values())
    # the writer pulls the blocks, but the four stages do not overlap
    stages = clocks["generate"] + clocks["reduce"] + clocks["format"] + clocks["write"]
    assert stages <= clocks["total"] + 3e-6


def test_range_schedule_fails_closed():
    # a range is checked before it is listed: 1e12 entries are never allocated
    with pytest.raises(ResourceExhausted):
        load_config(_base("generate", n_schedule={"stop": 10 ** 12}))
    for bad in ({"stop": 10, "step": 0}, {"stop": 10, "step": -1},
                {"stop": "x"}, {"start": 1.5, "stop": 10}, {"stop": True},
                {"start": -10 ** 12, "stop": 5}):
        with pytest.raises(ConfigInvalid):
            load_config(_base("generate", n_schedule=bad))
    cfg = load_config(_base("generate", n_schedule={"start": 3, "stop": 11, "step": 4}))
    assert cfg.n_schedule == [3, 7, 11]
    # the guard applies to the largest scheduled n, not to stop
    cfg = load_config(_base("generate", n_schedule={"stop": 10 ** 12, "step": 10 ** 12}))
    assert cfg.n_schedule == [1]
    # the length is bounded before a range is listed
    guard = harness._SCHEDULE_GUARD
    assert len(load_config(_base("generate", n_schedule={"stop": guard})).n_schedule) == guard
    for too_long in ({"stop": guard + 1}, {"stop": 10 ** 8}, list(range(1, guard + 2))):
        with pytest.raises(ResourceExhausted):
            load_config(_base("generate", n_schedule=too_long))


def test_cusp_mass_and_equidist_manifest_stage_clocks(tmp_path):
    kernel = {"type": "kernel", "radius": 1.0}
    product = {"type": "product", "factors": [{"type": "torus_char", "m": 1}, kernel]}
    cases = {
        # each view reduces the points it reads, inside the evaluate stage
        "cusp": (_base("cusp_mass", n_schedule=[101, 103]),
                 {"generate", "evaluate", "write", "total"}),
        "surface": (_base("equidist", n_schedule=[101, 103], observables=[kernel]),
                    {"generate", "evaluate", "evaluate:kernel(R=1.0,smooth)",
                     "write", "total"}),
        "torus": (_base("equidist", n_schedule=[101, 103],
                        observables=[{"type": "torus_char", "m": 1}]),
                  {"generate", "evaluate", "evaluate:torus_char(m=1)", "write", "total"}),
        # one clock per distinct factor: the product's kernel is the bare one
        "both": (_base("equidist", n_schedule=[101, 103], d_values=[1, 2],
                       observables=[kernel, product]),
                 {"generate", "evaluate", "evaluate:kernel(R=1.0,smooth)",
                  "evaluate:torus_char(m=1)", "write", "total"}),
        # the arithmetic kinds build one table per n, the full Weyl check too
        "kloosterman": (_base("kloosterman", n_schedule=[101, 103], m_range=1),
                        {"table", "evaluate", "write", "total"}),
        "cardinality": (_base("cardinality", n_schedule=[101, 103]),
                        {"table", "evaluate", "write", "total"}),
        "weyl": (_base("kloosterman", n_schedule=[101, 103], weyl_full=True),
                 {"table", "evaluate", "write", "total"}),
    }
    for name, (cfg, stages) in cases.items():
        run(cfg, out_dir=tmp_path / name)
        clocks = json.loads((tmp_path / name / "manifest.json").read_text())["wall_clock_s"]
        assert set(clocks) == stages, name
        assert all(v >= 0 for v in clocks.values())
        # equidist's per-factor clocks are parts of its evaluate stage
        per_factor = [v for k, v in clocks.items() if k.startswith("evaluate:")]
        if per_factor:
            assert sum(per_factor) <= clocks["evaluate"] + 2e-6, name


def test_stage_clocks_keep_every_n_across_threads(tmp_path, monkeypatch):
    # the clock ticks 1 s per reading, so every stage span is 1 s; a stage
    # of some n left out of the run's clocks would show as a short sum
    ticks = iter(range(1, 10 ** 6))
    monkeypatch.setattr(harness, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    schedule = list(range(30, 90))
    cusp = run(_base("cusp_mass", n_schedule=schedule), out_dir=tmp_path / "cusp").wall_clock_s
    eq = run(_base("equidist", n_schedule=schedule, d_values=[1, 2],
                   observables=[{"type": "height_band", "lower": 2.0}]),
             out_dir=tmp_path / "eq").wall_clock_s
    m = len(schedule)
    assert [cusp[k] for k in ("generate", "evaluate", "write")] == [m, m, 1]
    # one generate and evaluate span per n for both d, as for cusp_mass;
    # each set is one leaf, whose one factor span and its two readings fall
    # inside the evaluate span of its n
    assert [eq[k] for k in ("generate", "evaluate", "write")] == [m, 3 * m, 3]
    assert eq["evaluate:height_band(2.0,inf)"] == m


# each must fail at load time as ConfigInvalid, and on the CLI exit 2, not a traceback
BAD_CONFIGS = {
    # a schedule is a list or a range; the geometric ramp form is gone
    "ramp_schedule": _base("generate", n_schedule={
        "start": 1000, "factor": 10, "count": 4, "snap_to_prime": True}),
    "schedule_entry_not_an_integer": _base("generate", n_schedule=["x"]),
    "alpha_not_a_fraction": _base("generate", point_set={"alpha": "abc"}),
    "alpha_negative": _base("generate", point_set={"alpha": "-1"}),
    "degree_zero": _base("generate", point_set={"d": 0}),
    "m_range_not_an_integer": _base("kloosterman", m_range="x"),
    # weyl_full sums every residue frequency, so an m_range was dropped
    "m_range_under_weyl_full": _base("kloosterman", weyl_full=True, m_range=3),
    "beta_beyond_one_half": _base("discrepancy", betas=[0.9]),
    # 5^0.2 < 2, so P(5, 5^0.2) holds no prime
    "empty_prime_window": _base("discrepancy", n_schedule=[5, 1009], betas=[0.2]),
    # 30^0.45 ~ 4.6, and 2 and 3 both divide 30
    "prime_window_of_divisors_only": _base("discrepancy", n_schedule=[30], betas=[0.45]),
    "case_without_places": {"schema_version": 1, "kind": "projection",
                            "cases": [{"n": 5, "l": [1], "m": [0]}]},
    # the row filter n % p means "coprime" only for a prime p
    "acting_prime_not_prime": _base("invariance", n_schedule=[6], primes=[4]),
    "place_not_prime": {"schema_version": 1, "kind": "projection",
                        "cases": [{"n": 5, "places": [30], "l": [0], "m": [1]}]},
    "seed_negative": _base("invariance", seed=-1, toral={"count": 5}),
    "out_dir_not_a_string": _base("cardinality", out_dir=5),
    "kernel_center_not_finite": _base("equidist", observables=[
        {"type": "kernel", "radius": 1.0, "center": [float("nan"), 1.0]}]),
    # a center is a pair [x, y]: one number raised an IndexError, a third was dropped
    "kernel_center_one_number": _base("equidist", observables=[
        {"type": "kernel", "radius": 1, "center": [0.5]}]),
    "kernel_center_three_numbers": _base("equidist", observables=[
        {"type": "kernel", "radius": 1, "center": [0.5, 1, 3]}]),
    # an empty product averaged to NaN errors and the run passed
    "product_without_factors": _base("equidist", observables=[
        {"type": "product", "factors": []}]),
    # reduces to 1e20j, whose orbit row spans ~3.8e21 translations at R = 3
    "kernel_center_high_in_the_cusp": _base("equidist", observables=[
        {"type": "kernel", "radius": 3.0, "center": [0, 1e-20]}]),
    # 7^(-800) underflows to 0.0
    "alpha_underflows_height": _base("cusp_mass", n_schedule=[7],
                                     point_set={"alpha": "400"}),
    # every residue is variant "full"; primitive takes no other value
    "primitive_false": _base("generate", n_schedule=[15],
                             point_set={"primitive": False, "d": 2}),
    # a flag is a JSON boolean: the string "false" would read as true
    "require_decay_string": _base("equidist", require_decay="false", observables=[
        {"type": "height_band", "lower": 2.0}]),
    "weyl_full_number": _base("kloosterman", weyl_full=1),
    "expect_full_mass_string": _base("cusp_mass", expect_full_mass="true"),
    "min_height_sqrt_n_number": _base("cusp_mass", min_height_sqrt_n=0),
    # 3/(pi T) is the mass above T only for T >= 1: T = 0.5 wrote an expected
    # mass of 1.91 and, without rel_tol, passed
    "cusp_mass_threshold_below_one": _base("cusp_mass", thresholds=[0.5]),
    # observable fields are not truncated or read from a boolean
    "torus_char_m_fractional": _base("equidist", observables=[
        {"type": "torus_char", "m": 1.5}]),
    "two_torus_char_m1_fractional": _base("equidist", observables=[
        {"type": "two_torus_char", "m1": 0.5, "m2": 1}]),
    "two_torus_char_m2_boolean": _base("equidist", observables=[
        {"type": "two_torus_char", "m1": 1, "m2": True}]),
    "kernel_radius_boolean": _base("equidist", observables=[
        {"type": "kernel", "radius": True}]),
    "height_band_lower_boolean": _base("equidist", observables=[
        {"type": "height_band", "lower": True}]),
    "height_band_upper_string": _base("equidist", observables=[
        {"type": "height_band", "lower": 2.0, "upper": "inf"}]),
    # an observable of the second torus on a set without one was a traceback
    "two_torus_char_on_monomial": _base("equidist", observables=[
        {"type": "two_torus_char", "m1": 1, "m2": 1}]),
    "two_torus_char_in_a_product_on_full": _base("equidist", point_set={"variant": "full"},
                                                 observables=[{"type": "product", "factors": [
                                                     {"type": "two_torus_char", "m1": 1,
                                                      "m2": 0}]}]),
    # a field the variant does not read was dropped: this wrote d = 1 and k/n
    "full_with_degree_and_multiplier": _base("generate", point_set={
        "variant": "full", "d": 3, "a": 2}),
    "full_with_surface_multiplier": _base("cusp_mass", point_set={"variant": "full", "c": 2}),
    "full_with_degrees": _base("equidist", point_set={"variant": "full"}, d_values=[1, 2],
                               observables=[{"type": "height_band", "lower": 2.0}]),
    "monomial_with_surface_multiplier": _base("generate", point_set={"c": 3}),
    # d_values replace point_set d: this ran d = 1 and 2 and recorded d = 3
    "degree_beside_d_values": _base("equidist", point_set={"d": 3}, d_values=[1, 2],
                                    observables=[{"type": "height_band", "lower": 2.0}]),
    # a repeated d wrote its table twice, or its rows twice
    "equidist_d_values_repeated": _base("equidist", d_values=[2, 1, 2], observables=[
        {"type": "height_band", "lower": 2.0}]),
    "cardinality_d_values_repeated": _base("cardinality", d_values=[2, 2]),
    # every list key refuses a repeat: these wrote each row twice
    "cusp_mass_thresholds_repeated": _base("cusp_mass", thresholds=[2.0, 2.0]),
    "invariance_primes_repeated": _base("invariance", primes=[2, 2]),
    # a misspelt field was dropped: this ran at alpha = 1/2 and passed
    "point_set_unknown_field": _base("cusp_mass", point_set={"alpah": "5/4"}),
    # this loaded as count 2 with the default max_entry 10
    "toral_unknown_field": _base("invariance", toral={"max_entyr": 3, "count": 2}),
    # true == 1 in Python: this loaded as version 1
    "schema_version_boolean": _base("cardinality", schema_version=True),
}


def test_schema_version_may_be_an_integral_float():
    assert load_config(_base("cardinality", schema_version=1.0)).n_schedule == [5, 7]


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_parameters_fail_closed_at_load(tmp_path, capsys, name):
    cfg = BAD_CONFIGS[name]
    with pytest.raises(ConfigInvalid):
        load_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    command = cfg["kind"].replace("_", "-")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_kernel_center_below_the_guard_loads_and_evaluates(tmp_path):
    cfg = _base("equidist", n_schedule=[101, 103], observables=[
        {"type": "kernel", "radius": 3.0, "center": [0, 0.01]}])
    assert load_config(cfg).observables[0].center == 0.01j
    manifest = run(cfg, out_dir=tmp_path)
    errors = json.loads((tmp_path / "equidist.json").read_text())["observables"][0]["errors"]
    assert manifest.outputs and len(errors) == 2 and all(math.isfinite(e) for e in errors)


def test_flags_and_observable_fields_load_from_json_types():
    cfg = load_config(_base("equidist", require_decay=False, observables=[
        {"type": "torus_char", "m": 2.0},
        {"type": "height_band", "lower": 2, "upper": None}]))
    assert cfg.params["require_decay"] is False
    assert cfg.observables == [TorusChar(2), HeightBand(2.0, math.inf)]


def test_primitive_accepts_only_true():
    record, _ = load_config(_base("generate", point_set={"primitive": True})).params["point_set"]
    assert record["primitive"]
    for value in (False, 1, "true", None):
        with pytest.raises(ConfigInvalid, match='variant "full"'):
            load_config(_base("generate", point_set={"primitive": value}))


def test_degenerate_reduction_fails_closed(tmp_path, capsys):
    # alpha = 30 loads at n = 10007 (height ~1e-240), but reducing its points
    # underflows |z|^2 to 0; the run ends in one line and exit 2, no payload
    cfg = _base("cusp_mass", n_schedule=[101, 10007], point_set={"alpha": "30"},
                thresholds=[10])
    load_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["cusp-mass", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and len(err.strip().splitlines()) == 1
    assert not list(out.glob("*"))


# each must fail at load time as ResourceExhausted, and on the CLI exit 2
# before any work starts
OVERSIZED_CONFIGS = {
    "m_range": _base("kloosterman", m_range=10 ** 4),
    "toral_count": _base("invariance", toral={"count": 10 ** 9}),
    # both projection paths hold up to n pairs: n = 300007 took 14 s and 277 MiB
    "projection_n": {"schema_version": 1, "kind": "projection",
                     "cases": [{"n": 10 ** 7 + 19, "places": [2], "l": [1], "m": [0]}]},
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_CONFIGS))
def test_oversized_work_fails_closed_at_load(tmp_path, capsys, name):
    cfg = OVERSIZED_CONFIGS[name]
    with pytest.raises(ResourceExhausted):
        load_config(cfg)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert main([cfg["kind"], "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_work_guards_sit_at_the_schedule_guard():
    # (2 * 157 + 1)^2 = 99225 frequency pairs load; (2 * 158 + 1)^2 = 100489 do not
    guard = harness._SCHEDULE_GUARD
    assert load_config(_base("kloosterman", m_range=157)).params["m_range"] == 157
    with pytest.raises(ResourceExhausted):
        load_config(_base("kloosterman", m_range=158))
    assert load_config(_base("invariance", toral={"count": guard})).params["toral"]["count"] \
        == guard
    with pytest.raises(ResourceExhausted):
        load_config(_base("invariance", toral={"count": guard + 1}))
    # a projection case holds up to n pairs; 99991 is the largest prime below the guard
    case = {"places": [2, 3], "l": [1, 0], "m": [0, 1]}
    assert load_config({"schema_version": 1, "kind": "projection",
                        "cases": [{**case, "n": 99991}]}).params["cases"] == \
        [(99991, (2, 3), (1, 0), (0, 1))]
    with pytest.raises(ResourceExhausted):
        load_config({"schema_version": 1, "kind": "projection",
                     "cases": [{**case, "n": 100003}]})


def test_discrepancy_at_a_large_degree_writes_one_over_the_prime_count(tmp_path):
    # d does not enter the value, so no frequency m * p^(2d) is built and a
    # degree of a million loads and runs at once
    n, beta = 1000003, 0.4
    cfg = _base("discrepancy", n_schedule=[n], betas=[beta], d_values=[10 ** 6])
    assert load_config(cfg).params["d_values"] == [10 ** 6]
    man = run(cfg, out_dir=tmp_path)
    assert man.all_passed
    count = len(arith.primes_coprime(n, float(n) ** beta))
    rows = (tmp_path / "discrepancy.csv").read_text().splitlines()
    assert rows[1:] == [f"{n},{beta},{10 ** 6},1,{1 / count!r},{1 / count!r},{count},true"]


def test_variants_declare_what_they_read_and_carry(tmp_path):
    # every field a variant reads changes its payload, and only the triple
    # set carries the second torus; the CLI refuses a field its variant ignores
    assert set(VARIANTS) == {"full", "monomial", "triple"}
    bad = _config_file(tmp_path, _base("generate", n_schedule=[7],
                                       point_set={"variant": "full", "d": 2}))
    assert main(["generate", "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()
    for variant, (reads, carries) in VARIANTS.items():
        base = run(_base("generate", point_set={"variant": variant}), out_dir=tmp_path / variant)
        payload = (tmp_path / variant / base.outputs[0]).read_bytes()
        for field in reads:
            out = tmp_path / f"{variant}-{field}"
            run(_base("generate", point_set={"variant": variant, field: 2 if field == "d" else 3}),
                out_dir=out)
            assert (out / base.outputs[0]).read_bytes() != payload, (variant, field)
        assert ("t2" in carries) == (variant == "triple")


def test_cli_has_a_subcommand_per_kind(capsys):
    # the ten subcommands in help order; every shipped config's kind has one
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = ("{equidist,kloosterman,invariance,cardinality,discrepancy,cusp-mass,"
              "projection,intersection,generate,plot}")
    assert listed in capsys.readouterr().out
    commands = listed.strip("{}").split(",")
    shipped = Path(__file__).resolve().parent.parent / "configs"
    for path in shipped.glob("c*.json"):
        assert json.loads(path.read_text())["kind"].replace("_", "-") in commands
    assert sorted(commands) == sorted([k.replace("_", "-") for k in harness.KINDS] + ["plot"])
