"""Run the benchmark over several seeds and write the baseline file.

    python3 bench/sweep.py --seeds 1-10 --seconds 20 --out bench/baseline.json
    python3 bench/sweep.py --sets 1 --seeds 1-5 --workloads mc_bracket --out FILE

Each (workload, seed) is one ``run.py --trace 0`` invocation. A set runs
every workload over every seed, workload after workload; the sets run one
after the other, so that they are measured at different times. Then each
workload gets one ``run.py --trace 1`` run at the first seed. The numbers are
read from the record each run writes under ``bench/_out/results/``: the
end-to-end metrics and the figures printed beside them (wall times, machine
slowdown, calls per run, failed ratio), and the per-layer metrics of the
traced runs. For every figure and set the file gives the values, their
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import PASSES, REFERENCE_S
from run import END_TO_END, SETUP_SAMPLES, record_path
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
# Figures of a run's record that are printed beside the end-to-end metrics.
EXTRA = (("wall_setup_s", "s"), ("wall_call_s_p50", "s"), ("wall_items_per_s", "items/s"),
         ("machine_slowdown", "x"), ("calls", "count"), ("failed_ratio", "ratio"))


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py invocation; returns the record it wrote."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{name} seed {seed} trace {trace} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(record_path(name, seed, trace).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    names = args.workloads.split(",")
    units = dict(((n, u) for n, u, _ in END_TO_END), **dict(EXTRA))
    end_to_end = {name: {metric: {"unit": unit} for metric, unit in units.items()}
                  for name in names}
    failed = {name: {} for name in names}
    run_wall_s = {}                     # longest run.py run per workload, in wall seconds
    provenance = None
    for set_index in range(args.sets):
        set_name = f"set_{'ABCDEFGH'[set_index]}"
        for name in names:
            records = []
            for seed in seeds:
                records.append(run(name, seed, args.seconds, 0))
                print(f"{set_name} {name} seed {seed}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in records[-1]["end_to_end"].items()), flush=True)
            provenance = provenance or records[0]["provenance"]
            for metric, entry in end_to_end[name].items():
                entry[set_name] = summarise(
                    [{**r["end_to_end"], **r["extra"]}[metric] for r in records])
            failed[name][set_name] = (f"{sum(r['failed'] for r in records)}/"
                                      f"{sum(r['attempted'] for r in records)}")
            run_wall_s[name] = max(run_wall_s.get(name, 0.0),
                                   *(r["run_wall_s"] for r in records))
            for metric, _, _ in END_TO_END:
                s = end_to_end[name][metric][set_name]
                print(f"{set_name} {name} {metric}: median {s['median']:.6g}, "
                      f"spread {s['spread']:.4f}", flush=True)
    per_layer = {}
    for name in names:
        record = run(name, seeds[0], args.seconds, 1)
        per_layer[name] = {"seed": seeds[0], "calls": record["attempted"],
                           "traced_calls": sum(c["traced"] for c in record["calls"]),
                           "failed": record["failed"], "absent": record["absent"],
                           "layers": record["layers"]}
        print(f"traced {name}: overhead {record['layers']['trace.overhead_s']:.4g} s", flush=True)
    command = "python3 bench/sweep.py " + " ".join(argv if argv is not None else sys.argv[1:])
    baseline = {
        "what": (f"{args.sets} set(s) of {len(seeds)}-seed runs of each workload "
                 f"(run.py --trace 0), then one traced run per workload at seed {seeds[0]} "
                 "(run.py --trace 1). End-to-end times are reference seconds "
                 "(bench/calibrate.py); the wall figures and the machine slowdown are given "
                 "beside them."),
        "command": command,
        "program": {"git": provenance["git"], "source_sha256": provenance["source_sha256"]},
        "machine": {"arch": platform.machine(), "nproc": provenance["nproc"],
                    "python": provenance["python"], "numpy": provenance["numpy"]},
        "run_seconds": args.seconds,
        "setup_samples": SETUP_SAMPLES,
        "calibration": {"REFERENCE_S": REFERENCE_S, "passes_per_sample": PASSES},
        "failed": failed,
        "longest_run_wall_s": run_wall_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
