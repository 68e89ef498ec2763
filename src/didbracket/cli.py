"""Command-line interface: analyze, diagnose, placebo, simulate.

Configuration comes from defaults, then an optional config file, then
flags (flags win). Flags are plain strings; ``io.config_from_values``
types and checks them (``split_year``, ``reps``, ``seed`` and ``tau`` go
through the library's own checks here), and ``io.check_out_dir`` refuses
an output directory that names a file, before any input file is read. Commands
compute everything and return their files; ``main`` writes them only
once the command has finished, all or none (``io.write_files``), so a
failed run leaves no output directory and no partial one. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant failure. Errors print one machine-readable line
``Class: message`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as dio
from .bracketing import construct_control_groups, full_analysis
from .diagnostics import pattern_test, relative_trends_table, split_before
from .errors import BadSplitError, ConfigError, DataError, InvariantError, OutOfDomainError
from .model import StudyDesign, validate_design
from .placebo import ARMS, histogram_export, rank_effect, run_placebo_study
from .simulation import (
    check_reps,
    check_seed,
    check_synth_tau,
    coverage_experiment,
    shipped_scenarios,
    synthetic_control_comparison,
    verify_bracketing,
)

# The pattern-test fields that pattern_tests.json reports.
_PATTERN_FIELDS = ("pattern", "p_a", "p_b", "iu_pvalue", "evidence")
# The synthetic-control fields reported for both the analytic and the Monte Carlo run.
_SYNTH_FIELDS = ("synthetic_after_mean", "counterfactual_after_mean", "bias")


def _load_panel(cfg):
    return dio.parse_panel_csv(dio.resolve_data_path(cfg.panel, "missouri_region.csv"))


def _load_adjacency(cfg):
    return dio.parse_adjacency_csv(
        dio.resolve_data_path(cfg.adjacency, "us_state_adjacency.csv")
    )


def _resolved_design(cfg):
    cfg.require("treated", "prestudy", "before", "after")
    if cfg.split_year is not None:
        try:
            split_before(cfg.before, cfg.split_year)
        except BadSplitError as exc:
            raise ConfigError(str(exc)) from None
    panel = _load_panel(cfg)
    # Explicit control lists (config gives both or neither) win; else candidates are classified.
    if cfg.lower_controls:
        lower, upper = cfg.lower_controls, cfg.upper_controls
    else:
        if cfg.candidates in ((), ("neighbors",)):
            candidates = _load_adjacency(cfg).neighbors(cfg.treated) & panel.units
        else:
            candidates = frozenset(cfg.candidates)
        groups = construct_control_groups(panel, cfg.treated, candidates, cfg.prestudy)
        lower, upper = groups.lower, groups.upper
    design = StudyDesign(cfg.treated, lower, upper, cfg.prestudy, cfg.before, cfg.after)
    violations = validate_design(panel, design)
    if violations:
        raise DataError("invalid design: " + "; ".join(str(v) for v in violations))
    return panel, design


def cmd_analyze(cfg):
    panel, design = _resolved_design(cfg)
    report = full_analysis(panel, design, cfg.alpha, split_year=cfg.split_year)
    summary = dio.summary_text(report, design)
    files = {
        "bracket_report.json": dio.to_json(dio.bracket_report_dict(report, design)),
        "summary.txt": summary,
    }
    if cfg.format == "csv":
        rows = [
            (label, est.point, est.ci.lower, est.ci.upper,
             est.pct_point, est.pct_ci.lower, est.pct_ci.upper, est.denom)
            for label, est in (
                ("all_controls", report.est_all_ctrl),
                ("upper_controls", report.est_upper_ctrl),
                ("lower_controls", report.est_lower_ctrl),
            )
        ]
        files["bracket_table.csv"] = dio.rows_to_csv(
            ("control_group", "estimate", "ci_lower", "ci_upper",
             "pct_estimate", "pct_ci_lower", "pct_ci_upper", "denom"),
            rows,
        )
    return files, summary


def cmd_diagnose(cfg):
    cfg.require("split_year")
    panel, design = _resolved_design(cfg)
    reports = [
        pattern_test(panel, design, cfg.split_year, pattern, cfg.alpha)
        for pattern in ("iii", "iv")
    ]
    payload = {
        "alpha": cfg.alpha,
        "split_year": cfg.split_year,
        "patterns": [dio.fields_of(r, _PATTERN_FIELDS) for r in reports],
    }
    trend_rows = relative_trends_table(panel, design, cfg.alpha)
    files = {
        "pattern_tests.json": dio.to_json(payload),
        "relative_trends.csv": dio.rows_to_csv(
            ("year", "group", "mean", "ci_lower", "ci_upper"),
            [(r.year, r.group, r.mean, r.ci_lower, r.ci_upper) for r in trend_rows],
        ),
    }
    if cfg.emit_plots:
        files["relative_trends.svg"] = dio.line_chart_svg(trend_rows)
    stdout = "".join(
        f"pattern {r.pattern}: p_a={r.p_a:.4f} p_b={r.p_b:.4f} iu={r.iu_pvalue:.4f} -> "
        + ("evidence of violation" if r.evidence else "no evidence") + "\n"
        for r in reports
    )
    return files, stdout


def cmd_placebo(cfg):
    cfg.require("prestudy", "before", "after")
    panel = _load_panel(cfg)
    adjacency = _load_adjacency(cfg)
    results = run_placebo_study(
        panel, adjacency, cfg.prestudy, cfg.before, cfg.after, cfg.exclusions
    )
    files = {}
    for arm in ARMS:
        rows = [
            (r.unit_id, r.arm(arm))
            for r in results
            if r.arm(arm) is not None
        ]
        files[f"placebo_{arm}.csv"] = dio.rows_to_csv(("unit", "estimate"), rows)
        bins = histogram_export(results, arm, cfg.bin_width)
        files[f"placebo_hist_{arm}.csv"] = dio.rows_to_csv(
            ("bin_lower", "bin_upper", "count"),
            [(b.lower, b.upper, b.count) for b in bins],
        )
        if cfg.emit_plots:
            marker = next((r.arm(arm) for r in results if r.unit_id == cfg.rank_unit), None)
            files[f"placebo_hist_{arm}.svg"] = dio.histogram_svg(bins, marker)
    excluded = [
        {"unit": r.unit_id, "reason": r.excluded_reason}
        for r in results
        if r.excluded_reason is not None
    ]
    payload = {
        "n_results": len(results),
        "n_lc": sum(1 for r in results if r.effect_lc is not None),
        "n_uc": sum(1 for r in results if r.effect_uc is not None),
        "excluded": excluded,
    }
    if cfg.rank_unit is not None:
        payload["rank"] = {
            "unit": cfg.rank_unit,
            "arms": {arm: rank_effect(results, cfg.rank_unit, arm) for arm in ARMS},
        }
    files["placebo_summary.json"] = dio.to_json(payload)
    stdout = (
        f"placebo study: {payload['n_lc']} lower-arm units, "
        f"{payload['n_uc']} upper-arm units, {len(excluded)} excluded\n"
    )
    return files, stdout


def cmd_simulate(cfg):
    try:
        check_reps(cfg.mode, cfg.reps)
        check_seed(cfg.seed)
        if cfg.mode == "synthetic_control":
            check_synth_tau(cfg.tau)
    except OutOfDomainError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.mode == "synthetic_control":
        analytic = synthetic_control_comparison(cfg.tau, analytic=True)
        mc = synthetic_control_comparison(cfg.tau, analytic=False, reps=cfg.reps, seed=cfg.seed)
        payload = {
            "mode": cfg.mode,
            "tau": cfg.tau,
            "analytic": dio.fields_of(analytic, _SYNTH_FIELDS),
            "monte_carlo": {"reps": cfg.reps, **dio.fields_of(mc, _SYNTH_FIELDS)},
            "weights": {"lower": analytic.weight_lower, "upper": analytic.weight_upper},
        }
        stdout = (
            f"synthetic control, tau={cfg.tau}: analytic bias {analytic.bias:+.6f}, "
            f"mc bias {mc.bias:+.6f}\n"
        )
    else:
        shipped = shipped_scenarios()
        if cfg.scenario in shipped:
            scenario = shipped[cfg.scenario]
        elif Path(cfg.scenario).is_file():
            scenario = dio.load_scenario(cfg.scenario)
        else:
            raise ConfigError(
                f"scenario {cfg.scenario!r} is neither a shipped name "
                f"({', '.join(sorted(shipped))}) nor a scenario file"
            )
        if cfg.mode == "coverage":
            result = coverage_experiment(scenario, cfg.reps, cfg.alpha, cfg.seed)
            stdout = (
                f"coverage[{cfg.scenario}] = {result.coverage:.4f} (mcse {result.mcse:.4f})\n"
            )
        else:
            result = verify_bracketing(scenario, cfg.reps, cfg.seed)
            stdout = (
                f"bracket[{cfg.scenario}]: lc {result.mean_effect_lc:.4f} "
                f"uc {result.mean_effect_uc:.4f} holds={result.bracket_holds}\n"
            )
        payload = {"mode": cfg.mode, "scenario": cfg.scenario, **dio.fields_of(result)}
    files = {"mc_report.json": dio.to_json(payload)}
    if cfg.format == "csv":
        flat = {
            k: v
            for k, v in sorted(dio.report_data(payload).items())
            if not isinstance(v, (dict, list))
        }
        files["mc_report.csv"] = dio.rows_to_csv(flat, [tuple(flat.values())])
    return files, stdout


_COMMON_FLAGS = (
    ("--config", "config file (flat key = value grammar)"),
    ("--panel", "panel CSV path, or 'bundled'"),
    ("--adjacency", "adjacency CSV path, or 'bundled'"),
    ("--out-dir", "output directory"),
    ("--alpha", "two-sided test level"),
    ("--seed", "random seed"),
    ("--reps", "Monte Carlo replications"),
    ("--format", "report format: json or csv"),
)
_DESIGN_FLAGS = (
    ("--treated", "treated unit id"),
    ("--candidates", "comma list of candidate ids, or 'neighbors'"),
    ("--prestudy", "pre-study years, e.g. 1994-1998"),
    ("--before", "before years, e.g. 1999-2007"),
    ("--after", "after years, e.g. 2008-2016"),
)

# command -> (function, help, the flags it takes besides the common ones)
_COMMANDS = {
    "analyze": (cmd_analyze, "bracketing analysis on a panel", _DESIGN_FLAGS + (
        ("--split-year", "also run pattern diagnostics at this split"),
    )),
    "diagnose": (cmd_diagnose, "relative-trends pattern tests", _DESIGN_FLAGS + (
        ("--split-year", "split the before period after this year"),
    )),
    "placebo": (cmd_placebo, "placebo study over all panel units", _DESIGN_FLAGS + (
        ("--exclusions", "comma list of units to exclude"),
        ("--bin-width", "histogram bin width"),
        ("--rank-unit", "unit whose estimates get ranked against the rest"),
    )),
    "simulate": (cmd_simulate, "Monte Carlo verification experiments", (
        ("--scenario", "named data-generating scenario, or a scenario file path"),
        ("--mode", "bracket, coverage or synthetic_control"),
        ("--tau", "treated-group scale for synthetic_control mode"),
    )),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed invocation as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="didbracket",
        description="Bracketed difference-in-differences analysis and verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, flag_help in _COMMON_FLAGS + flags:
            p.add_argument(flag, help=flag_help)
        p.add_argument("--emit-plots", action="store_const", const="true",
                       help="also write SVG plots")
    return parser


def _failure(exc) -> tuple:
    """The ``Class`` label of an error's stderr line, and its exit code."""
    if isinstance(exc, ConfigError):
        return exc.code, 2
    if isinstance(exc, FileNotFoundError):
        return "FileNotFound", 3
    if isinstance(exc, InvariantError):
        return exc.code, 4
    if isinstance(exc, DataError):
        return exc.code, 3
    return f"Internal: {type(exc).__name__}", 4  # keep the single-line contract


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        command, config = args.pop("command"), args.pop("config")
        cfg = dio.load_config(config, {k: v for k, v in args.items() if v is not None})
        dio.check_out_dir(cfg.out_dir)
        files, stdout = _COMMANDS[command][0](cfg)
        dio.write_files(cfg.out_dir, files)
        sys.stdout.write(stdout)
        return 0
    except Exception as exc:
        label, code = _failure(exc)
        line = f"{label}: {exc}".replace("\r", "\\r").replace("\n", "\\n")
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
