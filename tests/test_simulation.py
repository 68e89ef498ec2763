import math

import numpy as np
import pytest

from didbracket.errors import InvalidScenarioError, OutOfDomainError
from didbracket.simulation import (
    ConfounderSpec,
    DriftSpec,
    Scenario,
    coverage_experiment,
    generate_panel,
    shipped_scenarios,
    synthetic_control_comparison,
    verify_bracketing,
)


def linear_scenario(gamma=0.5, noise=0.5, n=100):
    return Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
        time_effect="linear_interaction",
        gamma=gamma,
        noise_sd=noise,
        n_per_cell=n,
    )


# --- scenario validation -----------------------------------------------------


def test_scenario_rejects_unordered_confounders():
    with pytest.raises(InvalidScenarioError):
        ConfounderSpec("normal", 2.0, 1.0, 0.0)


def test_scenario_rejects_bad_kind_and_time_effect():
    with pytest.raises(InvalidScenarioError):
        ConfounderSpec("uniform", 0.0, 1.0, 2.0)
    with pytest.raises(InvalidScenarioError):
        Scenario(
            effect=1.0,
            confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0),
            time_effect="quadratic",
        )


def test_convex_after_needs_small_exponential_scales():
    with pytest.raises(InvalidScenarioError):
        Scenario(
            effect=1.0,
            confounder=ConfounderSpec("exponential", 0.2, 0.5, 1.0),
            time_effect="convex_after",
        )


def test_misordered_drift_is_flagged_not_rejected():
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 0.5, 1.0, sd=0.5),
        time_effect="convex_after",
        noise_sd=0.1,
        n_per_cell=50,
        drift=DriftSpec(lc=0.3, t=0.1, uc=0.0, sd=0.05),
    )
    assert scenario.assumption_flags() == ("AssumptionViolation:drift_ordering",)


# --- panel generation --------------------------------------------------------


def test_generate_panel_reproducible():
    scenario = linear_scenario()
    a = generate_panel(scenario, seed=7)
    b = generate_panel(scenario, seed=7)
    assert a == b
    c = generate_panel(scenario, seed=8)
    assert a != c


def test_additive_profile_cancels_confounder_exactly():
    # With an additive time effect and no noise the confounder drops out of
    # each arm estimate, for any draws.
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
        time_effect="additive",
        tau=0.7,
        noise_sd=0.0,
        n_per_cell=37,
    )
    lc, uc = generate_panel(scenario, seed=11).arm_points()
    assert lc == pytest.approx(1.0, abs=1e-12)
    assert uc == pytest.approx(1.0, abs=1e-12)


def test_degenerate_cells_are_exact():
    scenario = Scenario(
        effect=2.0,
        confounder=ConfounderSpec("normal", 0.5, 0.5, 0.5, sd=0.0),
        time_effect="additive",
        tau=0.25,
        noise_sd=0.0,
        n_per_cell=1,
    )
    panel = generate_panel(scenario, seed=1)
    assert panel.summary("lc", 0).mean == pytest.approx(0.5)
    assert panel.summary("lc", 1).mean == pytest.approx(0.75)
    assert panel.summary("t", 1).mean == pytest.approx(2.75)
    assert panel.summary("uc", 1).se == 0.0


# --- bracketing verification -------------------------------------------------


def test_verify_bracketing_matches_closed_form():
    # E[arm vs lower] = effect + gamma * (t_mean - lc_mean) = 1.5;
    # E[arm vs upper] = effect + gamma * (t_mean - uc_mean) = 0.5.
    report = verify_bracketing(linear_scenario(), reps=3000, seed=42)
    assert abs(report.mean_effect_lc - 1.5) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 0.5) <= 3 * report.mcse_uc
    assert report.bracket_holds


def test_flipped_gamma_flips_bracket_orientation():
    report = verify_bracketing(linear_scenario(gamma=-0.5), reps=3000, seed=42)
    assert abs(report.mean_effect_lc - 0.5) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 1.5) <= 3 * report.mcse_uc
    assert report.mean_effect_lc < 1.0 < report.mean_effect_uc
    assert report.bracket_holds


def test_additive_scenario_unbiased_both_arms():
    report = verify_bracketing(shipped_scenarios()["additive"], reps=2000, seed=3)
    assert abs(report.mean_effect_lc - 1.0) <= 3 * report.mcse_lc
    assert abs(report.mean_effect_uc - 1.0) <= 3 * report.mcse_uc
    assert report.bracket_holds


def test_verify_bracketing_requires_reps():
    with pytest.raises(OutOfDomainError):
        verify_bracketing(linear_scenario(), reps=0, seed=1)


def test_verify_bracketing_rejects_a_single_replication():
    # One draw has no spread: mcse would be 0 and the verdict would have no slack.
    with pytest.raises(OutOfDomainError, match="reps must be >= 2"):
        verify_bracketing(linear_scenario(), reps=1, seed=1)
    report = verify_bracketing(linear_scenario(), reps=2, seed=1)
    assert report.mcse_lc > 0 and report.mcse_uc > 0


# --- coverage ----------------------------------------------------------------


def test_coverage_separated_bracket_near_one():
    result = coverage_experiment(linear_scenario(), reps=400, alpha=0.05, seed=5)
    assert result.coverage >= 0.95 - 2 * result.mcse


def test_coverage_noiseless_is_exact():
    scenario = Scenario(
        effect=1.0,
        confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0, sd=1.0),
        time_effect="additive",
        tau=0.5,
        noise_sd=0.0,
        n_per_cell=500,
    )
    result = coverage_experiment(scenario, reps=200, alpha=0.05, seed=9)
    assert result.coverage == 1.0


def test_coverage_guarantee_holds_at_alpha_half():
    result = coverage_experiment(
        shipped_scenarios()["additive"], reps=500, alpha=0.5, seed=17
    )
    assert result.coverage >= 0.5 - 2 * result.mcse


def test_coverage_requires_min_reps():
    with pytest.raises(OutOfDomainError):
        coverage_experiment(linear_scenario(), reps=50, alpha=0.05, seed=1)


# --- time-varying confounders ------------------------------------------------


def test_time_varying_bracket_holds_under_ordered_drift():
    report = verify_bracketing(
        shipped_scenarios()["time_varying"], reps=3000, seed=13
    )
    assert report.flags == ()
    assert report.bracket_holds


def test_time_varying_zero_drift_matches_plain_check():
    base = shipped_scenarios()["time_varying"]
    zero_drift = Scenario(
        effect=base.effect,
        confounder=base.confounder,
        time_effect=base.time_effect,
        noise_sd=base.noise_sd,
        n_per_cell=base.n_per_cell,
        drift=DriftSpec(0.0, 0.0, 0.0, sd=0.0),
    )
    no_drift = Scenario(
        effect=base.effect,
        confounder=base.confounder,
        time_effect=base.time_effect,
        noise_sd=base.noise_sd,
        n_per_cell=base.n_per_cell,
    )
    a = verify_bracketing(zero_drift, reps=2000, seed=21)
    b = verify_bracketing(no_drift, reps=2000, seed=22)
    # Identical data-generating processes; only the draw streams differ.
    tol_lc = 3 * (a.mcse_lc + b.mcse_lc)
    tol_uc = 3 * (a.mcse_uc + b.mcse_uc)
    assert abs(a.mean_effect_lc - b.mean_effect_lc) <= tol_lc
    assert abs(a.mean_effect_uc - b.mean_effect_uc) <= tol_uc


def test_time_varying_violation_reported_not_asserted():
    base = shipped_scenarios()["time_varying"]
    violated = Scenario(
        effect=base.effect,
        confounder=base.confounder,
        time_effect=base.time_effect,
        noise_sd=base.noise_sd,
        n_per_cell=base.n_per_cell,
        drift=DriftSpec(lc=0.6, t=0.3, uc=0.0, sd=0.1),
    )
    report = verify_bracketing(violated, reps=1000, seed=2)
    assert "AssumptionViolation:drift_ordering" in report.flags
    # bracket_holds may be False here; the report carries it either way.
    assert isinstance(report.bracket_holds, bool)


# --- synthetic-control comparison --------------------------------------------


def test_synthetic_control_analytic_midpoint():
    result = synthetic_control_comparison(0.35, analytic=True)
    assert result.weight_lower == pytest.approx(0.5)
    assert result.weight_upper == pytest.approx(0.5)
    assert result.synthetic_before_mean == pytest.approx(0.35)
    assert result.synthetic_after_mean == pytest.approx(1.625)
    assert result.counterfactual_after_mean == pytest.approx(1.0 / 0.65)
    assert result.bias == pytest.approx(1.625 - 1.0 / 0.65, abs=1e-12)
    assert result.bias > 0  # opposite sign from the source's stated direction


def test_synthetic_control_before_mean_matches_everywhere():
    for tau in (0.21, 0.3, 0.42, 0.49):
        result = synthetic_control_comparison(tau, analytic=True)
        assert result.synthetic_before_mean == pytest.approx(tau, abs=1e-12)


def test_synthetic_control_endpoint_degeneracy():
    result = synthetic_control_comparison(0.2001, analytic=True)
    assert result.weight_lower == pytest.approx(1.0, abs=1e-2)
    assert result.weight_upper == pytest.approx(0.0, abs=1e-2)
    assert abs(result.bias) < 1e-3


def test_synthetic_control_monte_carlo_agrees():
    analytic = synthetic_control_comparison(0.35, analytic=True)
    mc = synthetic_control_comparison(0.35, analytic=False, reps=400_000, seed=99)
    assert mc.synthetic_after_mean == pytest.approx(analytic.synthetic_after_mean, abs=0.02)
    assert mc.counterfactual_after_mean == pytest.approx(
        analytic.counterfactual_after_mean, abs=0.02
    )
    assert mc.bias == pytest.approx(analytic.bias, abs=0.03)


def test_synthetic_control_domain():
    for tau in (0.2, 0.5, 0.1, 0.7):
        with pytest.raises(OutOfDomainError):
            synthetic_control_comparison(tau)


def test_mcse_scales_with_reps():
    small = verify_bracketing(linear_scenario(), reps=500, seed=31)
    large = verify_bracketing(linear_scenario(), reps=4000, seed=31)
    assert large.mcse_lc < small.mcse_lc
    expected_ratio = math.sqrt(500 / 4000)
    assert large.mcse_lc / small.mcse_lc == pytest.approx(expected_ratio, rel=0.35)
