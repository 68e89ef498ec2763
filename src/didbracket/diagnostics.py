"""Relative-trends diagnostics for the before period.

Two patterns are incompatible with the model behind the bracketing bounds:
(iii) the upper-vs-treated gap widens while the treated-vs-lower gap
narrows, and (iv) the reverse. Each is tested with an intersection-union
test: evidence only if both component one-sided tests reject, so the
combined p-value is the max of the components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadSplitError, EmptyGroupError, MissingSEError, OutOfDomainError
from .estimation import (
    check_finite,
    group_label,
    mean_gap,
    normal_cdf,
    wald_ci,
    weighted_period_mean,
)
from .model import PanelDataset, PeriodRange, StudyDesign

PATTERNS = ("iii", "iv")
DIRECTIONS = ("widens", "narrows")


@dataclass(frozen=True)
class PatternTestReport:
    split_year: int
    p_a: float
    p_b: float
    pattern: str
    iu_pvalue: float
    evidence: bool
    alpha: float


def gap_change_test(
    panel: PanelDataset,
    group_hi,
    group_lo,
    first: PeriodRange,
    second: PeriodRange,
    direction: str,
) -> float:
    """One-sided Wald p-value for a change in the hi-minus-lo gap.

    direction="widens" tests H1: gap(second) - gap(first) > 0;
    "narrows" tests the opposite tail. The statistic divides the gap
    change by the quadrature SE of the four group-period cells.
    """
    if direction not in DIRECTIONS:
        raise OutOfDomainError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    (gap1, var1), (gap2, var2) = [
        mean_gap(*(weighted_period_mean(panel, group, sub) for group in (group_hi, group_lo)))
        for sub in (first, second)
    ]
    se = (var1 + var2) ** 0.5
    check_finite(
        f"gap of {group_label(group_hi)} over {group_label(group_lo)}, {first} to {second}",
        {"gap change": gap2 - gap1, "SE": se},
    )
    if se == 0:
        # Degenerate reference: the sign decides, equal gaps split the mass.
        change = gap2 - gap1
        if change == 0:
            return 0.5
        grew = change > 0
        return 0.0 if grew == (direction == "widens") else 1.0
    stat = (gap2 - gap1) / se
    return normal_cdf(-stat) if direction == "widens" else normal_cdf(stat)


def split_before(before: PeriodRange, split_year: int):
    """Split the before period after ``split_year`` into two sub-periods."""
    if not before.start_year <= split_year < before.end_year:
        raise BadSplitError(
            f"split year {split_year} not strictly inside {before}"
        )
    return (
        PeriodRange(before.start_year, split_year),
        PeriodRange(split_year + 1, before.end_year),
    )


def pattern_test(
    panel: PanelDataset,
    design: StudyDesign,
    split_year: int,
    pattern: str,
    alpha: float = 0.05,
) -> PatternTestReport:
    """Intersection-union test for one model-violating pattern.

    Pattern iii pairs (a) upper-vs-treated gap widens with (b)
    treated-vs-lower gap narrows across the split; pattern iv reverses
    both directions. Evidence requires both component p-values below
    alpha, i.e. max(p_a, p_b) < alpha.
    """
    if pattern not in PATTERNS:
        raise OutOfDomainError(f"pattern must be one of {PATTERNS}, got {pattern!r}")
    first, second = split_before(design.before, split_year)
    treated = {design.treated}
    dir_a, dir_b = ("widens", "narrows") if pattern == "iii" else ("narrows", "widens")
    p_a = gap_change_test(panel, design.upper_controls, treated, first, second, dir_a)
    p_b = gap_change_test(panel, treated, design.lower_controls, first, second, dir_b)
    iu = max(p_a, p_b)
    return PatternTestReport(
        split_year=split_year,
        p_a=p_a,
        p_b=p_b,
        pattern=pattern,
        iu_pvalue=iu,
        evidence=iu < alpha,
        alpha=alpha,
    )


@dataclass(frozen=True)
class TrendRow:
    year: int
    group: str
    mean: float
    ci_lower: float
    ci_upper: float


def relative_trends_table(
    panel: PanelDataset, design: StudyDesign, alpha: float = 0.05
) -> tuple:
    """Per-year group means with Wald CIs over the before period, for plotting.

    Covers the treated, lower, and upper groups, year by year in order.
    """
    groups = [
        ("treated", {design.treated}),
        ("lower", design.lower_controls),
        ("upper", design.upper_controls),
    ]
    for name, members in groups:
        if not members:
            raise EmptyGroupError(f"{name} group is empty")
    rows = []
    for year in design.before.years():
        window = PeriodRange(year, year)
        for name, members in groups:
            summary = weighted_period_mean(panel, members, window)
            if summary.se is None:
                raise MissingSEError(f"{name} group lacks SEs in {window}")
            ci = wald_ci(summary.mean, summary.se, alpha)
            rows.append(
                TrendRow(
                    year=year,
                    group=name,
                    mean=summary.mean,
                    ci_lower=ci.lower,
                    ci_upper=ci.upper,
                )
            )
    return tuple(rows)
