"""One benchmark pass: a fresh interpreter imports horopoints, runs the
workload's experiments in order through ``harness.run`` and writes a JSON
record of timings, verdicts and payload digests.

Usage: python3 worker.py JOB.json T0   (started by run.py, which writes the
job and passes its time.monotonic() reading T0 from just before the start)

The import comes first so that ``setup_s`` is the time from interpreter
start (taken by the parent just before it starts this process) to
``import horopoints`` done.
"""

import time

import horopoints

_IMPORTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

_MANIFEST = "manifest.json"


def _payloads(out: Path) -> list[Path]:
    return sorted(p for p in out.iterdir() if p.name != _MANIFEST)


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _failing_rows(files: list[Path]) -> list[dict]:
    """First row whose verdict (last column) is false, per csv payload."""
    found = []
    for p in files:
        if p.suffix != ".csv":
            continue
        header, *rows = p.read_text().splitlines()
        bad = next((r for r in rows if r.rsplit(",", 1)[-1] == "false"), None)
        if bad is not None:
            found.append({"file": p.name, "header": header, "row": bad})
    return found


def main(job_path: str, t0: float) -> None:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    where = Path(horopoints.__file__).resolve().parent.parent
    if where != src:
        raise SystemExit(f"imported horopoints from {where}, expected {src}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from horopoints import harness

    out_root = Path(job["out"])
    runs = []
    t_start, cpu_start = time.monotonic(), time.process_time()
    for i, exp in enumerate(job["experiments"]):
        if tracer is not None:
            tracer.experiment = i
        t = time.perf_counter()
        try:
            passed, error = harness.run(exp["config"], out_root / f"e{i:02d}").all_passed, None
        except Exception as exc:  # a raising experiment is counted, not fatal
            passed, error = False, f"{type(exc).__name__}: {exc}"
        runs.append({"run_s": time.perf_counter() - t, "all_passed": passed,
                     "error": error})
    wall_s = time.monotonic() - t_start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, rec in enumerate(runs):
        out = out_root / f"e{i:02d}"
        files = _payloads(out) if out.is_dir() else []
        rec["digest"] = _digest(files)
        rec["payload_bytes"] = sum(p.stat().st_size for p in files)
        rec["failing_rows"] = [] if rec["all_passed"] else _failing_rows(files)
    shutil.rmtree(out_root, ignore_errors=True)

    record = {
        "setup_s": _IMPORTED - t0,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "experiments": runs,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "horopoints": horopoints.__version__},
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_spans(job["spans"])
    Path(job["record"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
