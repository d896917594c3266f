"""Every name a horopoints module exports must exist: tools that walk
__all__ (such as a tracer wrapping the public functions) fail on a stale
entry."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing every module pulls in
    code = ("import importlib, sys, horopoints\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module('horopoints.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(horopoints.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
