"""Benchmark for horopoints: seeded criterion-shaped experiments run through
``horopoints.harness.run``, timed end to end and, in traced passes, per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|large_n|dump --seed N \
        --seconds S --trace 0|1

A pass is a fresh interpreter (worker.py) that imports horopoints and runs
the workload's experiments in a fixed order.  Passes repeat until about S
seconds are used (at least three; with --trace 1 untraced and traced passes
alternate, at least two of each).  Every pass must produce the same payload
digests, traced or not.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where metrics are the end_to_end metrics of BENCHMARK.json
(--trace 0) or its per_layer metrics (--trace 1), each a median over passes.
Lines before it print every metric the run computed.  The full record (the
environment, stated input size, per-pass timings, verdicts, digests and the
first failing row of every failed experiment) goes to
perfbench/results/<workload>-seed<N>-trace<T>.json; a traced run also
leaves the spans of its last traced pass next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"
BUDGET_S = 170.0   # every pass must end well inside the 180 s run limit
MIN_PASSES = 3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark pass exceeded the time budget") from None


def _run_pass(job: dict, index: int, traced: bool, work: Path, spans: Path,
              deadline: float) -> dict:
    job = {**job, "trace": traced, "out": str(work / f"out{index:03d}"),
           "record": str(work / f"pass{index:03d}.json"), "spans": str(spans)}
    job_path = work / f"job{index:03d}.json"
    job_path.write_text(json.dumps(job))
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path), repr(t0)],
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    _, err = _wait(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass failed (exit {proc.returncode}):\n{err}")
    record = json.loads(Path(job["record"]).read_text())
    record["traced"] = traced
    record["duration_s"] = time.monotonic() - t0
    return record


def _warm_up(deadline: float) -> None:
    # compile the bytecode caches once, untimed: users do not pay that per run
    proc = subprocess.Popen([sys.executable, "-c", "import horopoints"],
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    _, err = _wait(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import horopoints from {SRC}:\n{err}")


def _passes(job: dict, seconds: float, trace: bool, work: Path, spans: Path,
            deadline: float) -> list[dict]:
    records: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(_run_pass(job, len(records), traced, work, spans, deadline))
        untraced = sum(not r["traced"] for r in records)
        enough = (min(untraced, len(records) - untraced) >= 2 if trace
                  else len(records) >= MIN_PASSES)
        if enough:
            next_traced = trace and len(records) % 2 == 1
            same = [r["duration_s"] for r in records if r["traced"] == next_traced]
            if time.monotonic() - start + same[-1] > seconds:
                return records


def _check(experiments: list[dict], records: list[dict]) -> tuple[list[str], int, int]:
    """Problems found, experiments attempted, experiments failed."""
    problems = []
    attempted = failed = 0
    reference = [e["digest"] for e in records[0]["experiments"]]
    for p, rec in enumerate(records):
        digests = [e["digest"] for e in rec["experiments"]]
        if digests != reference:
            problems.append(f"pass {p} (traced={rec['traced']}): payload digests "
                            "differ from pass 0")
        for i, (spec, run) in enumerate(zip(experiments, rec["experiments"])):
            attempted += 1
            if run["error"] is not None:
                failed += 1
                problems.append(f"pass {p} experiment {i} raised {run['error']}")
            elif not run["all_passed"]:
                failed += 1
                files = {row["file"] for row in run["failing_rows"]}
                defect = spec.get("known_defect")
                if defect is None or files != {defect["payload"]}:
                    problems.append(f"pass {p} experiment {i} ({spec['shape']}) "
                                    f"failed: {run['failing_rows']}")
    traced = [r["trace"]["metrics"] for r in records if r["traced"]]
    for t in traced[1:]:
        if any(t[k] != traced[0][k] for k in t if not k.endswith("_s")):
            problems.append("traced passes disagree on layer counts")
            break
    return problems, attempted, failed


def _metrics(experiments: list[dict], records: list[dict], failed: int,
             attempted: int) -> dict:
    plain = [r for r in records if not r["traced"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "failed_ratio": failed / attempted,
    }
    for shape in workloads.SHAPES:
        metrics[f"{shape}_s"] = statistics.median(
            sum(run["run_s"] for spec, run in zip(experiments, r["experiments"])
                if spec["shape"] == shape)
            for r in plain)
    traced = [r for r in records if r["traced"]]
    if traced:
        # counts repeat exactly (checked in _check); times are medians
        for name, value in traced[0]["trace"]["metrics"].items():
            metrics[name] = (statistics.median(r["trace"]["metrics"][name] for r in traced)
                             if name.endswith("_s") else value)
        metrics["harness.bytes_written"] = sum(
            e["payload_bytes"] for e in records[0]["experiments"])
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - metrics["wall_s"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "horopoints" / "__init__.py").is_file():
        print(f"no horopoints sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    experiments, input_size = workloads.build(args.workload, args.seed)

    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir()
    spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    job = {"src": str(SRC), "experiments": experiments}
    try:
        _warm_up(deadline)
        records = _passes(job, args.seconds, bool(args.trace), work, spans, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems, attempted, failed = _check(experiments, records)
    metrics = _metrics(experiments, records, failed, attempted)
    listed = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    failures = [
        {"pass": p, "experiment": i, "shape": spec["shape"],
         "known_defect": spec.get("known_defect"), "error": run["error"],
         "first_failing_rows": run["failing_rows"]}
        for p, rec in enumerate(records)
        for i, (spec, run) in enumerate(zip(experiments, rec["experiments"]))
        if not run["all_passed"]
    ]
    # one digest over all payloads of a pass, to compare runs at one seed
    payload_sha256 = hashlib.sha256("".join(
        e["digest"] for e in records[0]["experiments"]).encode()).hexdigest()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"seed": args.seed, "nproc": os.cpu_count(),
                        "cpu": _cpu_model(), **records[0]["versions"]},
        "input_size": input_size,
        "experiments": experiments,
        "correct": not problems,
        "problems": problems,
        "payload_sha256": payload_sha256,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "passes": [{k: v for k, v in r.items() if k != "versions"} for r in records],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    for problem in problems:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed} passes={len(records)} "
          f"payload_sha256={payload_sha256}")
    print(f"  input size: {json.dumps(input_size)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units.get(name, 's')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
