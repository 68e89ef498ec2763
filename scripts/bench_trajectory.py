#!/usr/bin/env python3
"""Write one ``BENCH_<n>.json`` trajectory file from benchmark result records.

Reads the untraced (``-trace0``) records that ``bench/run.py`` leaves in a
results directory and writes, per workload, the seeds and the median and
quartiles of ``call_s_p50``, ``items_per_s`` and ``peak_rss_mb``, with the
measured source's sha256, its git commit and the Python and numpy
versions. Given the results directory of a parent checkout run on the
same seeds, it adds the parent's figures and how many seed pairs the
change won on each metric.

The records must come from a clean checkout of one commit (``git clone``
the change, run the benchmark there), so the trajectory names the commit
it measured. Run from the repository root:

    python scripts/bench_trajectory.py --number 6 --results ../change/bench/_out/results \
        --parent-results ../parent/bench/_out/results
"""

import argparse
import json
import statistics
from pathlib import Path

METRICS = {"call_s_p50": "lower", "items_per_s": "higher", "peak_rss_mb": "lower"}


def load_records(results: Path) -> dict:
    """``{workload: {seed: record}}`` of every untraced record in ``results``."""
    records = {}
    for path in sorted(results.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        seed = record["provenance"]["seed"]
        records.setdefault(record["workload"], {})[seed] = record
    if not records:
        raise SystemExit(f"no -trace0.json records in {results}")
    return records


def spread(values) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summary(runs: dict) -> dict:
    return {
        "seeds": sorted(runs),
        **{m: spread([r["end_to_end"][m] for r in runs.values()]) for m in METRICS},
    }


def pairs_won(change: dict, parent: dict) -> dict:
    """Per metric: seed pairs the change won, of the seeds both sides ran (ties win nothing)."""
    seeds = sorted(set(change) & set(parent))
    won = {}
    for metric, better in METRICS.items():
        wins = 0
        for seed in seeds:
            c, p = change[seed]["end_to_end"][metric], parent[seed]["end_to_end"][metric]
            wins += c < p if better == "lower" else c > p
        won[metric] = f"{wins}/{len(seeds)}"
    return won


def source_of(records: dict) -> str:
    """The one source sha256 every record measured."""
    sources = {r["provenance"]["source_sha256"] for runs in records.values() for r in runs.values()}
    if len(sources) != 1:
        raise SystemExit(f"the records measure {len(sources)} different sources; expected one")
    return sources.pop()


def commit_of(records: dict):
    """The one clean git commit every record measured, or None outside a git checkout.

    A record taken in a dirty tree names the commit it started from, not
    the source it measured, so such records are refused: commit the
    change, then run the benchmark in a clean checkout of that commit.
    """
    commits = {json.dumps(r["provenance"]["git"], sort_keys=True)
               for runs in records.values() for r in runs.values()}
    if len(commits) != 1:
        raise SystemExit(f"the records name {len(commits)} different commits; expected one")
    git = json.loads(commits.pop())
    if git is not None and git["dirty"] is not False:
        raise SystemExit(f"the records measured a dirty tree on {git['sha']}; "
                         "run the benchmark in a clean checkout of the change's commit")
    return git


def build(number: int, change: dict, parent=None) -> dict:
    first = next(iter(next(iter(change.values())).values()))
    provenance = first["provenance"]
    out = {
        "number": number,
        "source_sha256": source_of(change),
        "git": commit_of(change),
        "python": provenance["python"],
        "numpy": provenance["numpy"],
        "nproc": provenance["nproc"],
        "seconds": first["seconds"],
        "units": {"call_s_p50": "reference s", "items_per_s": "items/s", "peak_rss_mb": "MB"},
        "workloads": {},
    }
    if parent:
        out["parent_source_sha256"] = source_of(parent)
    for workload, runs in sorted(change.items()):
        entry = summary(runs)
        if parent and workload in parent:
            entry["parent"] = summary(parent[workload])
            entry["pairs_won"] = pairs_won(runs, parent[workload])
        out["workloads"][workload] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, required=True, help="the n of BENCH_<n>.json")
    parser.add_argument("--results", type=Path, default=Path("bench/_out/results"))
    parser.add_argument("--parent-results", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None, help="default BENCH_<n>.json")
    args = parser.parse_args()
    parent = load_records(args.parent_results) if args.parent_results else None
    trajectory = build(args.number, load_records(args.results), parent)
    out = args.out or Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
