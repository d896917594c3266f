"""Config fuzzing: each shipped config, cut to a few small n, with one key
replaced by another JSON value.

load_config and the CLI must end in success, in exit 1 from a failed check
of an exact-equality kind, or in exit 2 with a one-line config or resource
error; never in a traceback.  Keys are mutated at the top level, inside the
point_set and toral objects, and inside the first observable or case record.
Every key takes each of a fixed set of edge values, then hypothesis draws
further values.  The numbers stay small or lie beyond the guards, so no
example runs at a large n.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horopoints.cli import main
from horopoints.harness import KINDS, ConfigInvalid, ResourceExhausted, load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}

# keys of drawn objects; the range keys and count are left out, so that a
# drawn object is neither a schedule nor a toral block of many entries
_NAMES = ["alpha", "d", "a", "b", "c", "variant", "primitive", "max_entry", "n",
          "places", "l", "m", "type", "m1", "m2", "radius", "profile", "center",
          "lower", "upper", "factors"]
_WORDS = ["", "x", "1/2", "5/4", "-1", "1e9", "nan", "full", "monomial", "triple",
          "strict", "nonincreasing", "csv", "json", "smooth", "indicator", "kernel",
          "torus_char", "two_torus_char", "height_band", "product"]

_scalars = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([10 ** 9, -10 ** 9, 2 ** 63, 10 ** 400]),
    st.floats(-20.0, 20.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 1e-300]),
    st.sampled_from(_WORDS),
    # no decimal digits: "9999" would parse as an integer and schedule 1..9999
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=4),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES), inner, max_size=3),
    max_leaves=6,
)


# composites among the acting primes and places, a negative seed, an alpha
# whose height underflows, and counts beyond the guards
EDGE_VALUES = [None, True, -1, 0, 4, 10 ** 9, 0.5, float("nan"), "x", "801/2",
               [], [4], [15], {}]


def _cut(cfg: dict) -> dict:
    """The config with a few small n, at most three projection cases and at
    most 20 toral instances.  The first case kept has a nonzero exponent, so
    a mutated place reaches the inverse of n modulo S^(l v m)."""
    cfg = json.loads(json.dumps(cfg))
    if isinstance(cfg.get("n_schedule"), list):
        cfg["n_schedule"] = [101, 211, 307]
    elif "n_schedule" in cfg:
        cfg["n_schedule"] = {"start": 1, "stop": 4}
    if "cases" in cfg:
        cfg["cases"] = cfg["cases"][1:4]
    if "toral" in cfg:
        cfg["toral"]["count"] = 20
    return cfg


def _paths(cfg: dict) -> list[tuple]:
    """Every top-level key, and every key one record down."""
    paths = []
    for key, value in cfg.items():
        paths.append((key,))
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
            paths.extend((key, 0, sub) for sub in value)
        elif isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
    return paths


def _mutate(cfg: dict, path: tuple, value) -> dict:
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return cfg


def _check(kind: str, cfg: dict) -> None:
    try:
        load_config(cfg)
        loaded = True
    except (ConfigInvalid, ResourceExhausted):
        loaded = False
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "cfg.json"
        config_path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([kind.replace("_", "-"), "--config", str(config_path),
                         "--out", str(Path(tmp) / "out")])
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("config error:", "resource error:")), \
            (cfg, lines)
    else:
        assert loaded and (code == 0 or code == 1 and KINDS[kind].hard), (cfg, code)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_with_one_edge_value(name):
    base = _cut(SHIPPED[name])
    for path in _paths(base):
        for value in EDGE_VALUES:
            _check(base["kind"], _mutate(base, path, value))


@pytest.mark.parametrize("name", sorted(SHIPPED))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_shipped_config_with_one_random_value(name, data):
    base = _cut(SHIPPED[name])
    path = data.draw(st.sampled_from(_paths(base)), label="path")
    _check(base["kind"], _mutate(base, path, data.draw(_values, label="value")))
