"""Benchmark of the didbracket command line, one workload per fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The seed generates the inputs (the county
panel and adjacency, and the Monte Carlo seed of every call); the program
receives only the generated CSV files and argv. Load model: a closed loop,
one caller in one process, no threads, sequential ``cli.main`` calls.

Per workload it prints every metric with its unit, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. End-to-end times are in reference seconds: wall seconds
scaled by a calibration kernel timed around each interval (see
``calibrate.py``); the wall figures are printed and recorded beside them.
A full record with provenance, per-call timings, output checks and output
sha256 is written under ``bench/_out/results/``. The exit code is 1 when an
output check failed and 2 when the benchmark could not run (no result line
is printed then).
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
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, at_reference, kernel
from gen import generate
from workloads import RING, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
PROGRAM = ROOT / "src" / "didbracket" / "cli.py"

# (name, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("call_s_p50", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_SAMPLES = 21
SETUP_CODE = ("import time; t = time.perf_counter(); import didbracket.cli; "
              "print(time.perf_counter() - t)")


def record_path(name, seed, trace) -> Path:
    """Where a run writes its full record."""
    return OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"


class BenchmarkError(Exception):
    """The benchmark could not run: no result is printed."""


def _python(args, env, timeout, what) -> str:
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{what}: no result within {timeout} s") from None
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"{what} exited {done.returncode}: {tail}")
    return done.stdout


def setup_seconds(env) -> list:
    """Import times of didbracket.cli in fresh interpreters, one warm-up first.

    Returns (wall seconds, reference seconds) per sample; the calibration
    kernel runs in this process before and after each import.
    """
    _python(["-c", SETUP_CODE], env, 60, "import didbracket.cli")
    kernel()
    samples = []
    before = kernel()
    for _ in range(SETUP_SAMPLES):
        wall = float(_python(["-c", SETUP_CODE], env, 60, "import didbracket.cli"))
        after = kernel()
        samples.append((wall, at_reference(wall, before, after)))
        before = after
    return samples


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed, inputs, ref, worker) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "didbracket").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        status = _git("status", "--porcelain")
        git = {"sha": _git("rev-parse", "HEAD"),
               "dirty": None if status is None else bool(status)}
    return {
        "git": git,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "inputs": {k: inputs.get(k) for k in ("units", "rows", "edges", "treated")},
        "mc": {k: ref.get(k) for k in ("reps", "n_per_cell", "scenario")},
        "argv": worker["calls"][0]["argv"],
    }


def run_workload(name, seed, seconds, trace, env) -> dict:
    started = perf_counter()
    workload = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        inputs = {}
        if workload.units:
            g = generate(work / "inputs", workload.units, RING, seed)
            inputs = {"panel": str(g.panel_path), "adjacency": str(g.adjacency_path),
                      "treated": g.treated, "units": g.units, "rows": g.rows,
                      "edges": g.edges}
        (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        setup = setup_seconds(env)
        ref_path = work / "reference.json"
        _python([str(BENCH / "worker.py"), "reference", "--workload", name,
                 "--inputs", str(work / "inputs.json"), "--out", str(ref_path)],
                env, 120, f"{name} reference")
        path = record_path(name, seed, trace)
        _python([str(BENCH / "worker.py"), "measure", "--workload", name,
                 "--inputs", str(work / "inputs.json"), "--reference", str(ref_path),
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--work-dir", str(work), "--out", str(path)],
                env, 2 * seconds + 60, f"{name} worker")
        reference = json.loads(ref_path.read_text(encoding="utf-8"))
        worker = json.loads(path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = worker["calls"]
    untraced = [c for c in calls if not c["traced"]]
    ref_s = [c["ref_s"] for c in untraced]
    wall_s = [c["s"] for c in untraced]
    failed = sum(1 for c in calls if c["problems"])
    e2e = {
        "setup_s": statistics.median(r for _, r in setup),
        "call_s_p50": statistics.median(ref_s),
        "items_per_s": workload.items_per_call * len(ref_s) / sum(ref_s),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    kernels = [k for c in untraced for k in c["kernel_s"]]
    extra = {
        "calls": len(ref_s), "failed_ratio": failed / len(calls),
        "wall_setup_s": statistics.median(w for w, _ in setup),
        "wall_call_s_p50": statistics.median(wall_s),
        "wall_items_per_s": workload.items_per_call * len(wall_s) / sum(wall_s),
        "machine_slowdown": statistics.median(kernels) / REFERENCE_S,
    }
    if len(ref_s) >= 100:
        extra["call_s_p90"] = statistics.quantiles(ref_s, n=10)[-1]
    record = {
        "workload": name, "why": workload.why, "item": workload.item,
        "items_per_call": workload.items_per_call, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed, inputs, reference, worker),
        "reference": reference, "setup_samples_s": setup, "end_to_end": e2e, "extra": extra,
        "attempted": len(calls), "failed": failed, **worker,
    }
    record["run_wall_s"] = perf_counter() - started
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        from tracing import PER_LAYER

        metrics = {m.name: (worker["layers"][m.name], m.unit) for m in PER_LAYER}
    else:
        metrics = {n: (e2e[n], unit) for n, unit, _ in END_TO_END}
    return {"name": name, "attempted": len(calls), "failed": failed, "metrics": metrics,
            "extra": extra, "absent": worker.get("absent", []), "calls": calls,
            "record": path}


def report(run) -> None:
    print(f"workload {run['name']}: {run['extra']['calls']} untraced calls, "
          f"{run['failed']}/{run['attempted']} failed, record {run['record'].relative_to(ROOT)}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    units = {"failed_ratio": "ratio", "call_s_p90": "s", "wall_setup_s": "s",
             "wall_call_s_p50": "s", "wall_items_per_s": "items/s", "machine_slowdown": "x"}
    for name, unit in units.items():
        if name in run["extra"]:
            print(f"  {name:<36} {run['extra'][name]:>16.6g} {unit}")
    if run["absent"]:
        print(f"  absent (reported as 0): {', '.join(run['absent'])}")
    for call in run["calls"]:
        for problem in call["problems"]:
            print(f"  FAILED call {call['index']}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"benchmark: program source not found at {PROGRAM.relative_to(ROOT)}; "
              "run from the root of a didbracket checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            runs.append(run_workload(name, args.seed, args.seconds, args.trace, env))
            report(runs[-1])
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    prefix = len(runs) > 1
    metrics = {
        (f"{r['name']}.{n}" if prefix else n): {"value": v, "unit": u}
        for r in runs for n, (v, u) in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
