"""Command-line interface: analyze, diagnose, placebo, simulate.

Configuration comes from defaults, then an optional config file, then
flags (flags win). Exit codes: 0 success, 2 configuration error, 3 data
error, 4 internal invariant failure. Errors print one machine-readable
line ``Class: message`` on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io as dio
from .bracketing import full_analysis
from .diagnostics import pattern_test, relative_trends_table
from .errors import ConfigError, DataError, DidBracketError, InvariantError
from .model import validate_design
from .placebo import ARMS, histogram_export, rank_effect, run_placebo_study
from .simulation import (
    coverage_experiment,
    shipped_scenarios,
    synthetic_control_comparison,
    time_varying_scenario_check,
    verify_bracketing,
)

_OVERRIDE_KEYS = (
    "panel", "adjacency", "treated", "prestudy", "before", "after", "alpha",
    "split_year", "format", "out_dir", "seed", "reps", "scenario", "mode",
    "tau", "bin_width", "rank_unit",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="didbracket",
        description="Bracketed difference-in-differences analysis and verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (flat key = value grammar)")
        p.add_argument("--panel", help="panel CSV path, or 'bundled'")
        p.add_argument("--adjacency", help="adjacency CSV path, or 'bundled'")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        p.add_argument("--alpha", type=float, help="two-sided test level")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--reps", type=int, help="Monte Carlo replications")
        p.add_argument("--format", choices=("json", "csv"), help="report format")
        p.add_argument("--emit-plots", action="store_true", default=None,
                       dest="emit_plots", help="also write SVG plots")

    def design_flags(p):
        p.add_argument("--treated", help="treated unit id")
        p.add_argument("--candidates", help="comma list of candidate ids, or 'neighbors'")
        p.add_argument("--prestudy", help="pre-study years, e.g. 1994-1998")
        p.add_argument("--before", help="before years, e.g. 1999-2007")
        p.add_argument("--after", help="after years, e.g. 2008-2016")

    p_analyze = sub.add_parser("analyze", help="bracketing analysis on a panel")
    common(p_analyze)
    design_flags(p_analyze)
    p_analyze.add_argument("--split-year", dest="split_year", type=int,
                           help="also run pattern diagnostics at this split")

    p_diag = sub.add_parser("diagnose", help="relative-trends pattern tests")
    common(p_diag)
    design_flags(p_diag)
    p_diag.add_argument("--split-year", dest="split_year", type=int)

    p_plac = sub.add_parser("placebo", help="placebo study over all panel units")
    common(p_plac)
    design_flags(p_plac)
    p_plac.add_argument("--exclusions", help="comma list of units to exclude")
    p_plac.add_argument("--bin-width", dest="bin_width", type=float)
    p_plac.add_argument("--rank-unit", dest="rank_unit",
                        help="unit whose estimates get ranked against the rest")

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification experiments")
    common(p_sim)
    p_sim.add_argument("--scenario",
                       help="named data-generating scenario, or a scenario file path")
    p_sim.add_argument("--mode", choices=("bracket", "coverage", "synthetic_control"))
    p_sim.add_argument("--tau", type=float,
                       help="treated-group scale for synthetic_control mode")
    return parser


def _merge_config(args) -> dio.AnalysisConfig:
    cfg = dio.load_config(args.config) if args.config else dio.AnalysisConfig()
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in ("prestudy", "before", "after"):
            value = dio.parse_period(value)
        setattr(cfg, key, value)
    if getattr(args, "candidates", None):
        cfg.candidates = tuple(s.strip() for s in args.candidates.split(",") if s.strip())
    if getattr(args, "exclusions", None):
        cfg.exclusions = tuple(s.strip() for s in args.exclusions.split(",") if s.strip())
    if getattr(args, "emit_plots", None):
        cfg.emit_plots = True
    return cfg


def _load_panel(cfg):
    return dio.parse_panel_csv(dio.resolve_data_path(cfg.panel, "missouri_region.csv"))


def _load_adjacency(cfg):
    return dio.parse_adjacency_csv(
        dio.resolve_data_path(cfg.adjacency, "us_state_adjacency.csv")
    )


def _resolved_design(cfg):
    panel = _load_panel(cfg)
    needs_adjacency = not (cfg.lower_controls and cfg.upper_controls) and (
        cfg.candidates in ((), ("neighbors",))
    )
    adjacency = _load_adjacency(cfg) if needs_adjacency else None
    design = dio.resolve_design(cfg, panel, adjacency)
    violations = validate_design(panel, design)
    if violations:
        raise DataError("invalid design: " + "; ".join(str(v) for v in violations))
    return panel, design


def _out(cfg, name: str) -> Path:
    return Path(cfg.out_dir) / name


def cmd_analyze(args) -> int:
    cfg = _merge_config(args)
    panel, design = _resolved_design(cfg)
    report = full_analysis(panel, design, cfg.alpha, split_year=cfg.split_year)
    payload = dio.bracket_report_dict(report, design)
    dio.atomic_write_text(_out(cfg, "bracket_report.json"), dio.to_json(payload))
    dio.atomic_write_text(_out(cfg, "summary.txt"), dio.summary_text(report, design))
    if cfg.format == "csv":
        rows = []
        for label, est in (
            ("all_controls", report.est_all_ctrl),
            ("upper_controls", report.est_upper_ctrl),
            ("lower_controls", report.est_lower_ctrl),
        ):
            if est is None:
                continue
            rows.append(
                (label, est.point, est.ci.lower, est.ci.upper,
                 est.pct_point, est.pct_ci.lower, est.pct_ci.upper, est.denom)
            )
        dio.atomic_write_text(
            _out(cfg, "bracket_table.csv"),
            dio.rows_to_csv(
                ("control_group", "estimate", "ci_lower", "ci_upper",
                 "pct_estimate", "pct_ci_lower", "pct_ci_upper", "denom"),
                rows,
            ),
        )
    sys.stdout.write(dio.summary_text(report, design))
    return 0


def cmd_diagnose(args) -> int:
    cfg = _merge_config(args)
    if cfg.split_year is None:
        raise ConfigError("diagnose requires split_year")
    panel, design = _resolved_design(cfg)
    reports = [
        pattern_test(panel, design, cfg.split_year, pattern, cfg.alpha)
        for pattern in ("iii", "iv")
    ]
    payload = {
        "schema_version": dio.SCHEMA_VERSION,
        "alpha": cfg.alpha,
        "split_year": cfg.split_year,
        "patterns": [
            {
                "pattern": r.pattern,
                "p_a": r.p_a,
                "p_b": r.p_b,
                "iu_pvalue": r.iu_pvalue,
                "evidence": r.evidence,
            }
            for r in reports
        ],
    }
    dio.atomic_write_text(_out(cfg, "pattern_tests.json"), dio.to_json(payload))
    trend_rows = relative_trends_table(panel, design, by_year=True, alpha=cfg.alpha)
    dio.atomic_write_text(
        _out(cfg, "relative_trends.csv"),
        dio.rows_to_csv(
            ("year", "group", "mean", "ci_lower", "ci_upper"),
            [(r.year, r.group, r.mean, r.ci_lower, r.ci_upper) for r in trend_rows],
        ),
    )
    if cfg.emit_plots:
        dio.atomic_write_text(_out(cfg, "relative_trends.svg"), dio.line_chart_svg(trend_rows))
    for r in reports:
        verdict = "evidence of violation" if r.evidence else "no evidence"
        sys.stdout.write(
            f"pattern {r.pattern}: p_a={r.p_a:.4f} p_b={r.p_b:.4f} "
            f"iu={r.iu_pvalue:.4f} -> {verdict}\n"
        )
    return 0


def cmd_placebo(args) -> int:
    cfg = _merge_config(args)
    for key in ("prestudy", "before", "after"):
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing required config key {key!r}")
    if not (math.isfinite(cfg.bin_width) and cfg.bin_width > 0):
        raise ConfigError(f"bin_width must be finite and positive, got {cfg.bin_width}")
    panel = _load_panel(cfg)
    adjacency = _load_adjacency(cfg)
    results = run_placebo_study(
        panel, adjacency, cfg.prestudy, cfg.before, cfg.after, cfg.exclusions
    )
    for arm in ARMS:
        rows = [
            (r.unit_id, r.arm(arm))
            for r in results
            if r.arm(arm) is not None
        ]
        dio.atomic_write_text(
            _out(cfg, f"placebo_{arm}.csv"),
            dio.rows_to_csv(("unit", "estimate"), rows),
        )
        bins = histogram_export(results, arm, cfg.bin_width)
        dio.atomic_write_text(
            _out(cfg, f"placebo_hist_{arm}.csv"),
            dio.rows_to_csv(
                ("bin_lower", "bin_upper", "count"),
                [(b.lower, b.upper, b.count) for b in bins],
            ),
        )
        if cfg.emit_plots:
            marker = None
            if cfg.rank_unit is not None:
                match = [r.arm(arm) for r in results if r.unit_id == cfg.rank_unit]
                marker = match[0] if match else None
            dio.atomic_write_text(
                _out(cfg, f"placebo_hist_{arm}.svg"), dio.histogram_svg(bins, marker)
            )
    excluded = [
        {"unit": r.unit_id, "reason": r.excluded_reason}
        for r in results
        if r.excluded_reason is not None
    ]
    payload = {
        "schema_version": dio.SCHEMA_VERSION,
        "n_results": len(results),
        "n_lc": sum(1 for r in results if r.effect_lc is not None),
        "n_uc": sum(1 for r in results if r.effect_uc is not None),
        "excluded": excluded,
    }
    if cfg.rank_unit is not None:
        ranks = {}
        for arm in ARMS:
            rank = rank_effect(results, cfg.rank_unit, arm)
            ranks[arm] = {
                "n_total": rank.n_total,
                "n_strictly_greater": rank.n_strictly_greater,
                "rank": rank.rank,
            }
        payload["rank"] = {"unit": cfg.rank_unit, "arms": ranks}
    dio.atomic_write_text(_out(cfg, "placebo_summary.json"), dio.to_json(payload))
    sys.stdout.write(
        f"placebo study: {payload['n_lc']} lower-arm units, "
        f"{payload['n_uc']} upper-arm units, {len(excluded)} excluded\n"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    if cfg.mode == "synthetic_control":
        analytic = synthetic_control_comparison(cfg.tau, analytic=True)
        mc = synthetic_control_comparison(cfg.tau, analytic=False, reps=cfg.reps, seed=cfg.seed)
        payload = {
            "schema_version": dio.SCHEMA_VERSION,
            "mode": "synthetic_control",
            "tau": cfg.tau,
            "analytic": {
                "synthetic_after_mean": analytic.synthetic_after_mean,
                "counterfactual_after_mean": analytic.counterfactual_after_mean,
                "bias": analytic.bias,
            },
            "monte_carlo": {
                "reps": cfg.reps,
                "synthetic_after_mean": mc.synthetic_after_mean,
                "counterfactual_after_mean": mc.counterfactual_after_mean,
                "bias": mc.bias,
            },
            "weights": {"lower": analytic.weight_lower, "upper": analytic.weight_upper},
        }
        line = (
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
            payload = {
                "schema_version": dio.SCHEMA_VERSION,
                "mode": "coverage",
                "scenario": cfg.scenario,
                "reps": result.reps,
                "alpha": result.alpha,
                "coverage": result.coverage,
                "mcse": result.mcse,
            }
            line = f"coverage[{cfg.scenario}] = {result.coverage:.4f} (mcse {result.mcse:.4f})\n"
        else:
            runner = (
                time_varying_scenario_check if scenario.drift is not None else verify_bracketing
            )
            report = runner(scenario, cfg.reps, cfg.seed)
            payload = {
                "schema_version": dio.SCHEMA_VERSION,
                "mode": "bracket",
                "scenario": cfg.scenario,
                "reps": report.reps,
                "true_effect": report.true_effect,
                "mean_effect_lc": report.mean_effect_lc,
                "mcse_lc": report.mcse_lc,
                "mean_effect_uc": report.mean_effect_uc,
                "mcse_uc": report.mcse_uc,
                "bracket_holds": report.bracket_holds,
                "flags": list(report.flags),
            }
            line = (
                f"bracket[{cfg.scenario}]: lc {report.mean_effect_lc:.4f} "
                f"uc {report.mean_effect_uc:.4f} holds={report.bracket_holds}\n"
            )
    dio.atomic_write_text(_out(cfg, "mc_report.json"), dio.to_json(payload))
    if cfg.format == "csv":
        flat = {
            k: v
            for k, v in payload.items()
            if not isinstance(v, (dict, list))
        }
        dio.atomic_write_text(
            _out(cfg, "mc_report.csv"),
            dio.rows_to_csv(sorted(flat), [tuple(flat[k] for k in sorted(flat))]),
        )
    sys.stdout.write(line)
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "diagnose": cmd_diagnose,
    "placebo": cmd_placebo,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3
    except DidBracketError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # internal failure: keep the single-line contract
        print(f"Internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
