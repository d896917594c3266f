"""The benchmark's tracer against the program it traces.

perfbench/tracer.py wraps harness writers, PointSet methods and observable
methods by name, counts with the arguments of write_rows and write_csv, and
reads observables._orbit_points(radius, center).  Here it is installed in a
fresh interpreter and one tiny config of each benchmark shape runs under it,
so a rename or a changed signature fails in this suite, not only in the
traced benchmark pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_KERNEL = {"type": "kernel", "radius": 1.0, "profile": "smooth"}
_SHAPES = {
    "kloosterman": {"kind": "kloosterman", "n_schedule": [5, 12], "m_range": 1},
    "weyl": {"kind": "kloosterman", "n_schedule": [5, 12], "weyl_full": True},
    "intersection": {"kind": "intersection", "n_schedule": [5, 12]},
    "cardinality": {"kind": "cardinality", "n_schedule": [5, 12], "d_values": [1, 2]},
    "invariance": {"kind": "invariance", "n_schedule": [5, 12], "d_values": [1, 2],
                   "primes": [2, 3, 5], "point_set": {"variant": "triple"}},
    "equidist": {"kind": "equidist", "n_schedule": [101, 103], "d_values": [1, 2],
                 "observables": [_KERNEL, {"type": "product", "factors": [
                     {"type": "torus_char", "m": 1}, _KERNEL]}]},
    "cusp_mass": {"kind": "cusp_mass", "n_schedule": [101, 103], "thresholds": [2.0]},
    "discrepancy": {"kind": "discrepancy", "n_schedule": [1009], "betas": [0.4],
                    "d_values": [1], "m_values": [1]},
    "generate_csv": {"kind": "generate", "n_schedule": [101], "format": "csv",
                     "point_set": {"variant": "triple"}},
    "generate_json": {"kind": "generate", "n_schedule": [101], "format": "json"},
}

_SCRIPT = """
import json, sys
from pathlib import Path
from tracer import Tracer

tracer = Tracer()
tracer.install()
from horopoints import harness

shapes, out = json.loads(sys.argv[1]), Path(sys.argv[2])
for i, (name, cfg) in enumerate(shapes.items()):
    tracer.experiment = i
    harness.run({"schema_version": 1, "threads": 1, **cfg}, out / name)
print(json.dumps({"summary": tracer.summary(),
                  "names": sorted({span[0] for span in tracer.spans})}))
"""


def test_tracer_installs_and_traces_every_benchmark_shape(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(_SHAPES), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout)
    metrics = traced["summary"]["metrics"]
    assert {"harness.write_rows", "observables.AutomorphicKernel.eval_many",
            "points.PointSet.reduced_xy"} <= set(traced["names"])
    assert metrics["harness.rows_written"] > 0
    assert metrics["observables.kernel.point_evals"] > 0
    assert metrics["harness.load_config_s"] > 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_SHAPES)
