"""Every name a horopoints module exports must exist: tools that walk
__all__ (such as a tracer wrapping the public functions) fail on a stale
entry."""

import importlib
import pkgutil

import pytest

import horopoints

MODULES = sorted(m.name for m in pkgutil.iter_modules(horopoints.__path__))


def test_modules_found():
    assert {"arith", "sl2", "points", "observables", "stats", "harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"horopoints.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, (name, missing)
