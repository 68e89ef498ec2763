"""The four benchmark workloads: CLI argv, reference values and output checks.

Each workload is a closed loop of sequential ``didbracket.cli.main`` calls
made by one caller in one process. Why each one was chosen, and which
layer metrics it should move, is recorded in ``bench/DESIGN.md``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import AFTER, BEFORE, PRESTUDY, SPLIT_YEAR

RING = 3
# One placebo call scans every edge once per unit, so its time grows with
# units x edges. At 3000 units a call takes 8-15 s on a shared 2-vCPU
# machine, and a 20 s run holds one or two calls, too few for a steady
# median; 1000 units keeps the same profile at about 1.2 s a call.
PLACEBO_UNITS = 1000
ANALYZE_UNITS = 3000
MC_BRACKET_SCENARIO, MC_BRACKET_REPS = "linear_interaction", 10_000
MC_COVERAGE_SCENARIO, MC_COVERAGE_REPS = "additive", 2_000
ALPHA = 0.05  # the CLI default; the workloads do not pass --alpha


def _period(p) -> str:
    return f"{p[0]}-{p[1]}"


def _design_flags(inputs: dict) -> list:
    return ["--panel", inputs["panel"], "--adjacency", inputs["adjacency"],
            "--prestudy", _period(PRESTUDY), "--before", _period(BEFORE),
            "--after", _period(AFTER)]


def call_seed(seed: int, call: int) -> int:
    """Monte Carlo seed of one call, derived from the workload seed."""
    rng = random.Random(seed)
    for _ in range(call):
        rng.randrange(2**31)
    return rng.randrange(2**31)


def _load_json(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


# --- argv -------------------------------------------------------------------


def mc_bracket_argv(inputs, seed, call, out_dir):
    return [["simulate", "--mode", "bracket", "--scenario", MC_BRACKET_SCENARIO,
             "--reps", str(MC_BRACKET_REPS), "--seed", str(call_seed(seed, call)),
             "--out-dir", out_dir]]


def mc_coverage_argv(inputs, seed, call, out_dir):
    return [["simulate", "--mode", "coverage", "--scenario", MC_COVERAGE_SCENARIO,
             "--reps", str(MC_COVERAGE_REPS), "--seed", str(call_seed(seed, call)),
             "--out-dir", out_dir]]


def placebo_argv(inputs, seed, call, out_dir):
    return [["placebo", *_design_flags(inputs), "--rank-unit", inputs["treated"],
             "--emit-plots", "--out-dir", out_dir]]


def analyze_argv(inputs, seed, call, out_dir):
    design = [*_design_flags(inputs), "--treated", inputs["treated"],
              "--candidates", "neighbors", "--split-year", str(SPLIT_YEAR)]
    return [["analyze", *design, "--format", "csv", "--out-dir", out_dir],
            ["diagnose", *design, "--emit-plots", "--out-dir", out_dir]]


# --- reference values, computed by the library outside the timed region ------


def mc_reference(scenario: str, reps: int) -> Callable:
    def reference(inputs) -> dict:
        from didbracket.simulation import shipped_scenarios

        return {"scenario": scenario, "reps": reps,
                "n_per_cell": shipped_scenarios()[scenario].n_per_cell}
    return reference


def _load_inputs(inputs):
    from didbracket.io import parse_adjacency_csv, parse_panel_csv

    return parse_panel_csv(inputs["panel"]), parse_adjacency_csv(inputs["adjacency"])


def placebo_reference(inputs) -> dict:
    from didbracket.bracketing import arm_estimate, classify_candidates
    from didbracket.io import format_number
    from didbracket.model import PeriodRange

    panel, adjacency = _load_inputs(inputs)
    unit = inputs["treated"]
    groups = classify_candidates(panel, unit, adjacency.neighbors(unit) & panel.units,
                                 PeriodRange(*PRESTUDY))
    ref = {"treated": unit, "n_units": len(panel.units)}
    for arm, controls in (("lc", groups.lower), ("uc", groups.upper)):
        point = arm_estimate(panel, unit, controls, PeriodRange(*BEFORE),
                             PeriodRange(*AFTER), ALPHA).point
        ref[arm] = point
        ref[f"{arm}_csv"] = format_number(point)
    return ref


def analyze_reference(inputs) -> dict:
    from didbracket.bracketing import construct_control_groups, full_analysis
    from didbracket.model import PeriodRange, StudyDesign, validate_design

    panel, adjacency = _load_inputs(inputs)
    unit = inputs["treated"]
    groups = construct_control_groups(panel, unit, adjacency.neighbors(unit) & panel.units,
                                      PeriodRange(*PRESTUDY))
    design = StudyDesign(unit, groups.lower, groups.upper, PeriodRange(*PRESTUDY),
                         PeriodRange(*BEFORE), PeriodRange(*AFTER))
    violations = validate_design(panel, design)
    if violations:
        raise ValueError(f"generated design is invalid: {violations}")
    report = full_analysis(panel, design, ALPHA, split_year=SPLIT_YEAR)
    return {
        "lower_controls": sorted(design.lower_controls),
        "upper_controls": sorted(design.upper_controls),
        "lower_ctrl": report.est_lower_ctrl.point,
        "upper_ctrl": report.est_upper_ctrl.point,
        "all_controls": report.est_all_ctrl.point,
    }


# --- output checks: each returns a list of failure messages -----------------


def _missing(out: Path, names) -> list:
    return [f"missing output {name}" for name in names if not (out / name).is_file()]


def mc_bracket_check(out: Path, ref, captured) -> list:
    if problems := _missing(out, ["mc_report.json"]):
        return problems
    report = _load_json(out / "mc_report.json")
    problems = []
    if report["reps"] != MC_BRACKET_REPS:
        problems.append(f"reps {report['reps']} != {MC_BRACKET_REPS}")
    if report["bracket_holds"] is not True:
        problems.append("bracket_holds is not true")
    if not report["mean_effect_lc"] > report["true_effect"] > report["mean_effect_uc"]:
        problems.append(f"expected mean_effect_lc > {report['true_effect']} > mean_effect_uc, "
                        f"got {report['mean_effect_lc']}, {report['mean_effect_uc']}")
    return problems


def mc_coverage_check(out: Path, ref, captured) -> list:
    if problems := _missing(out, ["mc_report.json"]):
        return problems
    report = _load_json(out / "mc_report.json")
    problems = []
    if report["reps"] != MC_COVERAGE_REPS:
        problems.append(f"reps {report['reps']} != {MC_COVERAGE_REPS}")
    floor = (1.0 - report["alpha"]) - 4.0 * report["mcse"]
    if not report["coverage"] >= floor:
        problems.append(f"coverage {report['coverage']} below {floor}")
    return problems


PLACEBO_FILES = ("placebo_lc.csv", "placebo_uc.csv", "placebo_hist_lc.csv",
                 "placebo_hist_uc.csv", "placebo_hist_lc.svg", "placebo_hist_uc.svg",
                 "placebo_summary.json")


def placebo_check(out: Path, ref, captured) -> list:
    if problems := _missing(out, PLACEBO_FILES):
        return problems
    summary = _load_json(out / "placebo_summary.json")
    unit = ref["treated"]
    problems = []
    if summary["n_results"] != ref["n_units"]:
        problems.append(f"n_results {summary['n_results']} != {ref['n_units']} units")
    if summary.get("rank", {}).get("unit") != unit:
        problems.append("placebo_summary.json has no rank for the rank unit")
    for arm in ("lc", "uc"):
        rows = {r[0]: r[1] for r in _csv_rows(out / f"placebo_{arm}.csv")}
        if rows.get(unit) != ref[f"{arm}_csv"]:
            problems.append(f"placebo_{arm}.csv row for {unit}: {rows.get(unit)!r} "
                            f"!= {ref[arm + '_csv']!r}")
    # Exactness as in acceptance criterion 12: the placebo point of the rank
    # unit equals the primary analysis' arm point, with no tolerance.
    if captured is not None:
        own = next((r for r in captured if r.unit_id == unit), None)
        if own is None:
            problems.append(f"{unit} missing from the placebo results")
        else:
            for arm in ("lc", "uc"):
                if own.arm(arm) != ref[arm]:
                    problems.append(f"{arm} placebo point {own.arm(arm)!r} != "
                                    f"arm_estimate point {ref[arm]!r}")
    return problems


ANALYZE_FILES = ("bracket_report.json", "summary.txt", "bracket_table.csv",
                 "pattern_tests.json", "relative_trends.csv", "relative_trends.svg")


def analyze_check(out: Path, ref, captured) -> list:
    if problems := _missing(out, ANALYZE_FILES):
        return problems
    report = _load_json(out / "bracket_report.json")
    problems = []
    for key in ("lower_controls", "upper_controls"):
        if report["design"][key] != ref[key]:
            problems.append(f"design {key} {report['design'][key]} != {ref[key]}")
    for block in ("lower_ctrl", "upper_ctrl", "all_controls"):
        if report[block]["point"] != ref[block]:
            problems.append(f"{block} point {report[block]['point']!r} != "
                            f"full_analysis {ref[block]!r}")
    patterns = _load_json(out / "pattern_tests.json")["patterns"]
    in_report = {d["pattern"]: (d["p_a"], d["p_b"]) for d in report.get("diagnostics", [])}
    for p in patterns:
        if in_report.get(p["pattern"]) != (p["p_a"], p["p_b"]):
            problems.append(f"pattern {p['pattern']}: diagnose and analyze disagree")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str                  # what items_per_s counts
    items_per_call: int
    argv: Callable             # (inputs, seed, call, out_dir) -> list of argv lists
    reference: Callable        # inputs -> dict, run in its own process
    check: Callable            # (out dir, reference, captured results) -> [failure, ...]
    units: int = 0             # size of the generated county panel, 0 for none; with a
                               # panel every call has the same argv and output bytes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_bracket",
                 "simulate bracket mode, 10k reps: the Monte Carlo generation and cell "
                 "reductions, with no SE/CI path and no panel I/O",
                 "replication", MC_BRACKET_REPS, mc_bracket_argv,
                 mc_reference(MC_BRACKET_SCENARIO, MC_BRACKET_REPS), mc_bracket_check),
        Workload("mc_coverage",
                 "simulate coverage mode, 2k reps of 200 per cell: the same engine plus "
                 "did_se, wald_ci and normal_quantile on every replication",
                 "replication", MC_COVERAGE_REPS, mc_coverage_argv,
                 mc_reference(MC_COVERAGE_SCENARIO, MC_COVERAGE_REPS), mc_coverage_check),
        Workload("placebo_county",
                 "placebo over a 1000-unit x 23-year panel with ring-3 adjacency: neighbour "
                 "lookup and group means per unit dominate; parsing is minor",
                 "placebo unit", PLACEBO_UNITS, placebo_argv, placebo_reference, placebo_check,
                 PLACEBO_UNITS),
        Workload("analyze_county",
                 "analyze then diagnose on a 3000-unit x 23-year panel: panel parsing and "
                 "construction dominate; the control for placebo and Monte Carlo changes",
                 "analyze+diagnose pair", 1, analyze_argv, analyze_reference, analyze_check,
                 ANALYZE_UNITS),
    )
}
