"""Control-group construction, bracket bounds, and the min-max interval."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagnostics import pattern_test
from .errors import EmptyBracketError, LevelMismatchError
from .estimation import (
    check_finite,
    did_point,
    did_se,
    group_label,
    mean_gap,
    pct_change,
    pct_change_se_delta,
    pct_ci_scaled,
    wald_ci,
    weighted_period_mean,
)
from .model import (
    BracketReport,
    ConfInterval,
    DiffEstimate,
    EffectEstimate,
    OrderingReport,
    PanelDataset,
    PeriodRange,
    StudyDesign,
)


@dataclass(frozen=True)
class ControlGroups:
    """Pre-study classification of candidates; an exact tie is in neither group."""

    lower: frozenset
    upper: frozenset


def split_by_mean(treated_mean, means) -> tuple:
    """``(below, above)``: whether ``means`` are strictly below, strictly above ``treated_mean``.

    The one tie rule of the bracket: an exact tie is in neither group.
    Floats, or numpy arrays elementwise.
    """
    return means < treated_mean, means > treated_mean


def classify_candidates(
    panel: PanelDataset, treated: str, candidates, prestudy: PeriodRange
) -> ControlGroups:
    """Split candidates by their pre-study mean relative to the treated unit's.

    Strictly below goes to the lower group, strictly above to the upper
    group, exact ties stay unassigned (:func:`split_by_mean`). Either side
    may come back empty; use :func:`construct_control_groups` when a full
    bracket is required.
    """
    treated_mean = weighted_period_mean(panel, {treated}, prestudy).mean
    lower, upper = set(), set()
    for unit in sorted(set(candidates) - {treated}):
        mean = weighted_period_mean(panel, {unit}, prestudy).mean
        below, above = split_by_mean(treated_mean, mean)
        if below:
            lower.add(unit)
        elif above:
            upper.add(unit)
    return ControlGroups(lower=frozenset(lower), upper=frozenset(upper))


def construct_control_groups(
    panel: PanelDataset, treated: str, candidates, prestudy: PeriodRange
) -> ControlGroups:
    """Classify candidates and require both bracket sides to be nonempty."""
    groups = classify_candidates(panel, treated, candidates, prestudy)
    if not groups.lower:
        raise EmptyBracketError("lower")
    if not groups.upper:
        raise EmptyBracketError("upper")
    return groups


def validate_ordering(
    panel: PanelDataset, design: StudyDesign, period: PeriodRange, alpha: float
) -> OrderingReport:
    """Check that the groups straddle the treated unit over ``period``.

    Reports (upper - treated) and (treated - lower) mean differences with
    Wald CIs; a nonpositive point difference is flagged as an
    OrderingViolation rather than raised.
    """
    treated = weighted_period_mean(panel, {design.treated}, period)
    lower = weighted_period_mean(panel, design.lower_controls, period)
    upper = weighted_period_mean(panel, design.upper_controls, period)
    d_ut, var_ut = mean_gap(upper, treated)
    d_tl, var_tl = mean_gap(treated, lower)
    flags = []
    if d_ut <= 0:
        flags.append("OrderingViolation:upper_not_above_treated")
    if d_tl <= 0:
        flags.append("OrderingViolation:treated_not_above_lower")
    ci_ut, ci_tl = wald_ci(d_ut, var_ut**0.5, alpha), wald_ci(d_tl, var_tl**0.5, alpha)
    check_finite(f"ordering check over {period}", {
        "upper-minus-treated CI lower end": ci_ut.lower,
        "upper-minus-treated CI upper end": ci_ut.upper,
        "treated-minus-lower CI lower end": ci_tl.lower,
        "treated-minus-lower CI upper end": ci_tl.upper,
    })
    return OrderingReport(
        diff_uc_minus_t=DiffEstimate(d_ut, ci_ut),
        diff_t_minus_lc=DiffEstimate(d_tl, ci_tl),
        period=period,
        flags=tuple(flags),
    )


def bracket_bounds(point_lower_ctrl: float, point_upper_ctrl: float) -> tuple:
    """Order-insensitive bounds: the two arm estimates sorted."""
    return (
        min(point_lower_ctrl, point_upper_ctrl),
        max(point_lower_ctrl, point_upper_ctrl),
    )


def minmax_ci(ci_a: ConfInterval, ci_b: ConfInterval) -> ConfInterval:
    """Min of the lower endpoints, max of the upper, at the shared level."""
    if ci_a.level != ci_b.level:
        raise LevelMismatchError(
            f"cannot combine intervals at levels {ci_a.level} and {ci_b.level}"
        )
    return ConfInterval(
        min(ci_a.lower, ci_b.lower), max(ci_a.upper, ci_b.upper), level=ci_a.level
    )


def arm_cells(
    panel: PanelDataset, treated: str, controls, before: PeriodRange, after: PeriodRange
) -> tuple:
    """The four DiD cells of one arm: (t_before, t_after, c_before, c_after).

    The one place :func:`arm_estimate` gets its cells from; the placebo
    engine folds the same sums for every unit at once, so a placebo point
    equals the analysis point exactly.
    """
    return (
        weighted_period_mean(panel, {treated}, before),
        weighted_period_mean(panel, {treated}, after),
        weighted_period_mean(panel, controls, before),
        weighted_period_mean(panel, controls, after),
    )


def arm_estimate(
    panel: PanelDataset,
    treated: str,
    controls,
    before: PeriodRange,
    after: PeriodRange,
    alpha: float,
) -> EffectEstimate:
    """DiD estimate of one arm, with Wald CI and percent-change companion.

    Raises OutOfDomainError, naming the arm, when a number of it overflows float64.
    """
    t_before, t_after, c_before, c_after = arm_cells(panel, treated, controls, before, after)
    point = did_point(t_before, t_after, c_before, c_after)
    se = did_se(t_before, t_after, c_before, c_after)
    ci = wald_ci(point, se, alpha)
    pct_point, denom = pct_change(point, t_before, c_before, c_after)
    pct_ci = pct_ci_scaled(ci, denom)
    pct_se_delta = pct_change_se_delta(t_before, t_after, c_before, c_after)
    check_finite(f"{treated} against {group_label(controls)}, {before} to {after}", {
        "point": point, "SE": se, "CI lower end": ci.lower, "CI upper end": ci.upper,
        "percent": pct_point, "percent CI lower end": pct_ci.lower,
        "percent CI upper end": pct_ci.upper, "percent SE": pct_se_delta,
        "percent denominator": denom,
    })
    return EffectEstimate(
        point=point,
        se=se,
        ci=ci,
        pct_point=pct_point,
        pct_ci=pct_ci,
        pct_se_delta=pct_se_delta,
        denom=denom,
    )


def full_analysis(
    panel: PanelDataset,
    design: StudyDesign,
    alpha: float = 0.05,
    split_year: Optional[int] = None,
) -> BracketReport:
    """Run the whole bracketing analysis for a validated design.

    Produces both arm estimates, the bracket bounds, the min-max CI, the
    before-period ordering check, the pooled all-controls estimate (which
    assumes parallel trends), and, when ``split_year`` is given, the
    relative-trends pattern tests. Deterministic in its inputs.
    """
    est_lower = arm_estimate(
        panel, design.treated, design.lower_controls, design.before, design.after, alpha
    )
    est_upper = arm_estimate(
        panel, design.treated, design.upper_controls, design.before, design.after, alpha
    )
    est_all = arm_estimate(
        panel, design.treated, design.all_controls(), design.before, design.after, alpha
    )
    diagnostics = None
    if split_year is not None:
        diagnostics = tuple(
            pattern_test(panel, design, split_year, pattern, alpha)
            for pattern in ("iii", "iv")
        )
    return BracketReport(
        est_lower_ctrl=est_lower,
        est_upper_ctrl=est_upper,
        bracket=bracket_bounds(est_lower.point, est_upper.point),
        minmax_ci=minmax_ci(est_lower.ci, est_upper.ci),
        ordering=validate_ordering(panel, design, design.before, alpha),
        alpha=alpha,
        est_all_ctrl=est_all,
        diagnostics=diagnostics,
    )
