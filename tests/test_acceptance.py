"""Acceptance suite: one test (or small group) per acceptance criterion.

Each test carries a ``criterion`` marker; the conftest summary hook prints
one PASS/FAIL line per criterion at the end of the run.

Two all-controls assertions are strict xfails: with per-state rates pinned
to the published one-decimal values and person-year weights from public
census figures, the pooled control group's DiD is an (approximately)
convex combination of the two arm DiDs with weight ~0.584 on the upper
arm, which forces the pooled point to ~1.14 and the pooled percent to
~23.0. The published 1.2 / 24% row came from unrounded internal aggregates
that are not recoverable from the published tables. See
notes/decisions.md in the review bundle for the full argument.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from didbracket import cli
from didbracket.bracketing import (
    bracket_bounds,
    construct_control_groups,
    full_analysis,
    minmax_ci,
    validate_ordering,
)
from didbracket.diagnostics import pattern_test
from didbracket.estimation import (
    did_point,
    did_se,
    pct_change,
    pct_change_se_delta,
    wald_ci,
)
from didbracket.io import parse_panel_csv, round_half_up
from didbracket.model import ConfInterval, PeriodRange, PeriodSummary, StudyDesign
from didbracket.placebo import rank_effect, run_placebo_study
from didbracket.simulation import (
    coverage_experiment,
    shipped_scenarios,
    synthetic_control_comparison,
    verify_bracketing,
)

PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper.tomlish"

XFAIL_ALL_CONTROLS = (
    "published all-controls row is not recoverable from the published "
    "one-decimal tables plus census person-year weights (pooled DiD is a "
    "~0.584/0.416 convex combination of the arm DiDs); recomputed values "
    "are pinned in test_all_controls_recomputed_values"
)


def summaries(means):
    return tuple(PeriodSummary(mean=m, se=0.0, total_weight=1.0) for m in means)


@pytest.fixture(scope="module")
def report(bundled_panel, paper_design):
    return full_analysis(bundled_panel, paper_design, 0.05, split_year=2002)


@pytest.fixture(scope="module")
def report_2008_2013(bundled_panel, paper_design):
    design = StudyDesign(
        paper_design.treated, paper_design.lower_controls, paper_design.upper_controls,
        paper_design.prestudy, paper_design.before, PeriodRange(2008, 2013),
    )
    return full_analysis(bundled_panel, design, 0.05)


# --- criterion 1: point estimates --------------------------------------------


@pytest.mark.criterion("01", "DiD points 1.3 / 0.9 reproduced at one decimal, < 1 s")
def test_point_estimates_bracketing_arms(bundled_panel, paper_design, tmp_path):
    start = time.perf_counter()
    result = full_analysis(bundled_panel, paper_design, 0.05)
    elapsed = time.perf_counter() - start
    assert round_half_up(result.est_upper_ctrl.point, 1) == 1.3
    assert round_half_up(result.est_lower_ctrl.point, 1) == 0.9
    assert elapsed < 1.0
    # and through the CLI surface
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)]) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion("01", "all-controls DiD point 1.2 (documented spec defect)")
@pytest.mark.xfail(strict=True, reason=XFAIL_ALL_CONTROLS)
def test_point_estimate_all_controls(report):
    assert round_half_up(report.est_all_ctrl.point, 1) == 1.2


# --- criterion 2: percent changes --------------------------------------------


@pytest.mark.criterion("02", "percent changes 27% / 17% within 0.5pp, published denominators")
def test_percent_changes_bracketing_arms(report):
    assert report.est_upper_ctrl.pct_point == pytest.approx(27.0, abs=0.5)
    assert report.est_lower_ctrl.pct_point == pytest.approx(17.0, abs=0.5)
    assert report.est_upper_ctrl.denom == pytest.approx(4.8, abs=0.02)
    assert report.est_lower_ctrl.denom == pytest.approx(5.2, abs=0.02)
    # The percent operation itself reproduces all three published rows from
    # the published summary values, the 24% row included.
    tb_u, cb_u, ca_u = summaries((4.7, 5.2, 5.3))
    assert pct_change(1.3, tb_u, cb_u, ca_u)[0] == pytest.approx(27.0, abs=0.5)
    tb_l, cb_l, ca_l = summaries((4.7, 2.7, 3.2))
    assert pct_change(0.9, tb_l, cb_l, ca_l)[0] == pytest.approx(17.0, abs=0.5)
    tb_a, cb_a, ca_a = summaries((4.7, 4.2, 4.4))
    assert pct_change(1.2, tb_a, cb_a, ca_a)[0] == pytest.approx(24.0, abs=0.5)


@pytest.mark.criterion("02", "all-controls percent 24% from panel (documented spec defect)")
@pytest.mark.xfail(strict=True, reason=XFAIL_ALL_CONTROLS)
def test_percent_change_all_controls_from_panel(report):
    assert report.est_all_ctrl.pct_point == pytest.approx(24.0, abs=0.5)


def test_all_controls_recomputed_values(report):
    # Pins what the pooled row actually is on the reconstructed panel, so
    # any drift from the documented ~1.14 / ~22.9 is caught.
    assert report.est_all_ctrl.point == pytest.approx(1.138, abs=0.01)
    assert report.est_all_ctrl.pct_point == pytest.approx(22.9, abs=0.3)


# --- criterion 3: bracket and min-max interval -------------------------------


@pytest.mark.criterion("03", "bracket [0.9, 1.3]; min-max of published CIs = [0.6, 1.7]")
def test_bracket_and_minmax(report):
    lo, hi = report.bracket
    assert (round_half_up(lo, 1), round_half_up(hi, 1)) == (0.9, 1.3)
    assert bracket_bounds(0.9, 1.3) == (0.9, 1.3)
    combined = minmax_ci(ConfInterval(0.6, 1.2, 0.95), ConfInterval(0.9, 1.7, 0.95))
    assert (combined.lower, combined.upper) == (0.6, 1.7)


# --- criterion 4: 2008-2013 window -------------------------------------------


@pytest.mark.criterion("04", "2008-2013 window: points 1.0 / 0.6, upper pct 22%, minmax [0.2, 1.4]")
def test_restricted_after_period(report_2008_2013):
    rep = report_2008_2013
    assert round_half_up(rep.est_upper_ctrl.point, 1) == 1.0
    assert round_half_up(rep.est_lower_ctrl.point, 1) == 0.6
    assert rep.est_upper_ctrl.pct_point == pytest.approx(22.0, abs=0.5)
    combined = minmax_ci(ConfInterval(0.2, 1.0, 0.95), ConfInterval(0.6, 1.4, 0.95))
    assert (combined.lower, combined.upper) == (0.2, 1.4)
    # Lower-arm percent is emitted as recomputed (~12%), deliberately not
    # matching the published 17% for this row; see README discrepancies.
    assert rep.est_lower_ctrl.pct_point == pytest.approx(12.2, abs=1.0)
    assert abs(rep.est_lower_ctrl.pct_point - 17.0) > 3.0


# --- criterion 5: control-group construction ---------------------------------


@pytest.mark.criterion("05", "pre-study classification reproduces published groups")
def test_control_construction(bundled_panel):
    groups = construct_control_groups(
        bundled_panel, "Missouri", bundled_panel.units - {"Missouri"},
        PeriodRange(1994, 1998),
    )
    assert groups.lower == {"Iowa", "Kansas", "Kentucky", "Nebraska", "Oklahoma"}
    assert groups.upper == {"Arkansas", "Illinois", "Tennessee"}


# --- criterion 6: ordering validation ----------------------------------------


@pytest.mark.criterion("06", "before-period ordering differences 0.5 and 2.0")
def test_ordering_validation(bundled_panel, paper_design):
    ordering = validate_ordering(bundled_panel, paper_design, paper_design.before, 0.05)
    assert round_half_up(ordering.diff_uc_minus_t.point, 1) == 0.5
    assert round_half_up(ordering.diff_t_minus_lc.point, 1) == 2.0


# --- criterion 7: substituted SE property acceptance --------------------------


@pytest.mark.criterion("07", "SE machinery vs finite-difference and MC oracles, < 30 s")
def test_se_oracles():
    start = time.perf_counter()
    means = np.array([4.0, 5.0, 2.0, 2.0])
    se = 0.1
    rows = tuple(PeriodSummary(float(m), se, 1.0) for m in means)
    predicted = pct_change_se_delta(*rows)

    # Finite-difference oracle for the delta-method gradient, 1e-6 relative.
    def kappa(v):
        return 100.0 * ((v[1] - v[0]) - (v[3] - v[2])) / (v[0] + (v[3] - v[2]))

    h = 1e-6
    fd = []
    for i in range(4):
        up, down = means.copy(), means.copy()
        up[i] += h
        down[i] -= h
        fd.append((kappa(up) - kappa(down)) / (2 * h))
    fd_se = math.sqrt(sum((g * se) ** 2 for g in fd))
    assert predicted == pytest.approx(fd_se, rel=1e-6)

    # Monte Carlo oracle, 1e6 replications: empirical SDs within 2%.
    rng = np.random.default_rng(20160901)
    draws = rng.normal(means[:, None], se, size=(4, 1_000_000))
    kappas = kappa(draws)
    assert float(np.std(kappas, ddof=1)) == pytest.approx(predicted, rel=0.02)
    dids = (draws[1] - draws[0]) - (draws[3] - draws[2])
    predicted_did_se = did_se(*rows)
    assert float(np.std(dids, ddof=1)) == pytest.approx(predicted_did_se, rel=0.02)

    # Wald interval: exact width and MC coverage at the nominal level.
    ci = wald_ci(0.0, predicted_did_se, 0.05)
    z = 1.959963984540054
    assert ci.width() == pytest.approx(2 * z * predicted_did_se, rel=1e-12)
    covered = np.abs(dids - dids.mean()) <= z * predicted_did_se
    assert float(covered.mean()) == pytest.approx(0.95, abs=0.002)
    assert time.perf_counter() - start < 30.0


# --- criterion 8: bracketing theorem ------------------------------------------


@pytest.mark.criterion("08", "MC arm means 1.5 / 0.5 at 10k reps; orientation flips with gamma")
def test_bracketing_theorem_monte_carlo():
    start = time.perf_counter()
    report = verify_bracketing(shipped_scenarios()["linear_interaction"], reps=10_000, seed=1)
    assert abs(report.mean_effect_lc - 1.5) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 0.5) <= 3 * report.mcse_uc
    assert report.bracket_holds

    flipped = verify_bracketing(
        shipped_scenarios()["linear_interaction_neg"], reps=10_000, seed=2
    )
    assert abs(flipped.mean_effect_lc - 0.5) <= 3 * flipped.mcse_lc
    assert abs(flipped.mean_effect_uc - 1.5) <= 3 * flipped.mcse_uc
    assert flipped.mean_effect_lc < 1.0 < flipped.mean_effect_uc
    assert flipped.bracket_holds
    assert time.perf_counter() - start < 60.0


# --- criterion 9: min-max coverage --------------------------------------------


@pytest.mark.criterion("09", "min-max CI coverage >= 0.95 - 2 MCSE on every shipped scenario")
@pytest.mark.parametrize("name", sorted(shipped_scenarios()))
def test_minmax_coverage(name):
    scenario = shipped_scenarios()[name]
    result = coverage_experiment(scenario, reps=2000, alpha=0.05, seed=20070828)
    assert result.coverage >= 0.95 - 2 * result.mcse, (name, result.coverage)


# --- criterion 10: synthetic-control comparison -------------------------------


@pytest.mark.criterion("10", "synthetic-control bias: analytic to 1e-4, MC within 0.01")
def test_synthetic_control_bias():
    analytic = synthetic_control_comparison(0.35, analytic=True)
    expected = 1.625 - 1.0 / 0.65
    assert analytic.bias == pytest.approx(expected, abs=1e-4)
    assert abs(analytic.bias) > 0.05
    # Sign is positive: the matched combination overshoots the
    # counterfactual mean here (direction documented in the README).
    assert analytic.bias > 0
    mc = synthetic_control_comparison(0.35, analytic=False, reps=1_000_000, seed=4)
    assert mc.bias == pytest.approx(analytic.bias, abs=0.01)


# --- criterion 11: pattern diagnostics ----------------------------------------


@pytest.mark.criterion("11", "no evidence for pattern iii or iv at the 2002/2003 split")
def test_pattern_diagnostics(bundled_panel, paper_design):
    for pattern in ("iii", "iv"):
        result = pattern_test(bundled_panel, paper_design, 2002, pattern, 0.05)
        assert result.evidence is False


# --- criterion 12: placebo engine ---------------------------------------------


@pytest.mark.criterion("12", "placebo: deterministic on bundled region, Missouri path exact")
def test_placebo_bundled_region(bundled_panel, paper_design):
    from didbracket.io import bundled_path, parse_adjacency_csv
    from didbracket.model import PanelDataset

    adjacency = parse_adjacency_csv(bundled_path("us_state_adjacency.csv"))
    args = (paper_design.prestudy, paper_design.before, paper_design.after)
    first = run_placebo_study(bundled_panel, adjacency, *args)
    second = run_placebo_study(bundled_panel, adjacency, *args)
    assert first == second
    reordered_panel = PanelDataset(list(reversed(bundled_panel.records)))
    third = run_placebo_study(reordered_panel, adjacency, *args)
    assert first == third
    missouri = next(r for r in first if r.unit_id == "Missouri")
    reference = full_analysis(bundled_panel, paper_design, 0.05)
    assert missouri.effect_lc == reference.est_lower_ctrl.point
    assert missouri.effect_uc == reference.est_upper_ctrl.point


@pytest.mark.criterion("12", "placebo: national counts 38/37 and exceedances 2/1")
@pytest.mark.skipif(
    "DIDBRACKET_NATIONAL_PANEL" not in os.environ,
    reason="needs an externally supplied national panel CSV "
    "(set DIDBRACKET_NATIONAL_PANEL to its path)",
)
def test_placebo_national_counts():
    from didbracket.io import bundled_path, parse_adjacency_csv

    panel = parse_panel_csv(os.environ["DIDBRACKET_NATIONAL_PANEL"])
    adjacency = parse_adjacency_csv(bundled_path("us_state_adjacency.csv"))
    exclusions = set(
        os.environ.get("DIDBRACKET_NATIONAL_EXCLUSIONS", "Alaska,Hawaii,District of Columbia")
        .split(",")
    )
    results = run_placebo_study(
        panel, adjacency, PeriodRange(1994, 1998), PeriodRange(1999, 2007),
        PeriodRange(2008, 2016), exclusions,
    )
    assert sum(1 for r in results if r.effect_lc is not None) == 38
    assert sum(1 for r in results if r.effect_uc is not None) == 37
    assert rank_effect(results, "Missouri", "lc").n_strictly_greater == 2
    assert rank_effect(results, "Missouri", "uc").n_strictly_greater == 1


# --- criterion 13: determinism ------------------------------------------------


@pytest.mark.criterion("13", "every subcommand is byte-identical across two runs")
def test_cli_determinism_all_subcommands(tmp_path):
    commands = {
        "analyze": ["analyze", "--config", str(PAPER_CONFIG)],
        "diagnose": ["diagnose", "--config", str(PAPER_CONFIG), "--emit-plots"],
        "placebo": ["placebo", "--config", str(PAPER_CONFIG), "--rank-unit", "Missouri",
                    "--emit-plots"],
        "simulate": ["simulate", "--scenario", "linear_interaction", "--reps", "500",
                     "--seed", "7"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            assert cli.main(argv + ["--out-dir", str(out)]) == 0, name
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1], name


# --- supporting check: emitted report values stay finite -----------------------


def test_emitted_report_is_finite_and_versioned(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "bracket_report.json").read_text())
    assert payload["schema_version"] == 1

    def walk(node):
        if isinstance(node, float):
            assert math.isfinite(node)
        elif isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(payload)
