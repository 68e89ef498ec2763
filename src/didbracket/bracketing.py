"""Control-group construction, bracket bounds, and the min-max interval."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagnostics import pattern_test
from .errors import EmptyBracketError, LevelMismatchError, MissingSEError
from .estimation import (
    did_point,
    did_se,
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
    """Result of pre-study classification of candidate control units.

    ``ties`` lists candidates whose pre-study mean equals the treated
    unit's exactly; they support neither bracket direction and are left
    unassigned.
    """

    lower: frozenset
    upper: frozenset
    treated_prestudy_mean: float
    candidate_means: tuple  # ((unit, mean), ...) sorted by unit
    ties: frozenset


def _summarizer(panel: PanelDataset, summary):
    """``summary``, or ``weighted_period_mean`` over ``panel`` when it is None."""
    if summary is not None:
        return summary
    return lambda group, period: weighted_period_mean(panel, group, period)


def classify_candidates(
    panel: PanelDataset, treated: str, candidates, prestudy: PeriodRange, summary=None
) -> ControlGroups:
    """Split candidates by their pre-study mean relative to the treated unit's.

    Strictly below goes to the lower group, strictly above to the upper
    group, exact ties stay unassigned. Either side may come back empty;
    use :func:`construct_control_groups` when a full bracket is required.

    ``summary(group, period)`` stands in for ``weighted_period_mean(panel,
    group, period)``, as in :func:`arm_cells`.
    """
    summary = _summarizer(panel, summary)
    treated_mean = summary({treated}, prestudy).mean
    lower, upper, ties = set(), set(), set()
    candidate_means = []
    for unit in sorted(set(candidates) - {treated}):
        mean = summary({unit}, prestudy).mean
        candidate_means.append((unit, mean))
        if mean < treated_mean:
            lower.add(unit)
        elif mean > treated_mean:
            upper.add(unit)
        else:
            ties.add(unit)
    return ControlGroups(
        lower=frozenset(lower),
        upper=frozenset(upper),
        treated_prestudy_mean=treated_mean,
        candidate_means=tuple(candidate_means),
        ties=frozenset(ties),
    )


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
    if any(s.se is None for s in (treated, lower, upper)):
        raise MissingSEError("ordering validation needs SEs for all three groups")

    d_ut = upper.mean - treated.mean
    d_tl = treated.mean - lower.mean
    se_ut = (upper.se**2 + treated.se**2) ** 0.5
    se_tl = (treated.se**2 + lower.se**2) ** 0.5
    flags = []
    if d_ut <= 0:
        flags.append("OrderingViolation:upper_not_above_treated")
    if d_tl <= 0:
        flags.append("OrderingViolation:treated_not_above_lower")
    return OrderingReport(
        diff_uc_minus_t=DiffEstimate(d_ut, wald_ci(d_ut, se_ut, alpha)),
        diff_t_minus_lc=DiffEstimate(d_tl, wald_ci(d_tl, se_tl, alpha)),
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
    panel: PanelDataset,
    treated: str,
    controls,
    before: PeriodRange,
    after: PeriodRange,
    summary=None,
) -> tuple:
    """The four DiD cells of one arm: (t_before, t_after, c_before, c_after).

    The one place both :func:`arm_estimate` and the placebo engine get
    their cells from, so a placebo point equals the analysis point exactly.
    ``summary(group, period)`` stands in for ``weighted_period_mean(panel,
    group, period)``; the placebo engine passes its memo of it, which
    returns the same values.
    """
    summary = _summarizer(panel, summary)
    return (
        summary({treated}, before),
        summary({treated}, after),
        summary(controls, before),
        summary(controls, after),
    )


def arm_estimate(
    panel: PanelDataset,
    treated: str,
    controls,
    before: PeriodRange,
    after: PeriodRange,
    alpha: float,
) -> EffectEstimate:
    """DiD estimate of one arm, with Wald CI and percent-change companion."""
    t_before, t_after, c_before, c_after = arm_cells(panel, treated, controls, before, after)
    point = did_point(t_before, t_after, c_before, c_after)
    se = did_se(t_before, t_after, c_before, c_after)
    ci = wald_ci(point, se, alpha)
    pct_point, denom = pct_change(point, t_before, c_before, c_after)
    return EffectEstimate(
        point=point,
        se=se,
        ci=ci,
        pct_point=pct_point,
        pct_ci=pct_ci_scaled(ci, denom),
        pct_se_delta=pct_change_se_delta(t_before, t_after, c_before, c_after),
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
