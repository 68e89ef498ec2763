"""Estimators: weighted summaries, DiD points and SEs, percent changes, CIs.

The four DiD cells (treated/control x before/after) are treated as
independent throughout, so SEs combine in quadrature. All functions are
pure and reentrant. The normal quantile behind every interval is the
standard library's AS241 (``statistics.NormalDist.inv_cdf``).
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import (
    EmptyGroupError,
    MissingDataError,
    MissingSEError,
    NonpositiveDenominatorError,
    OutOfDomainError,
)
from .model import ConfInterval, PanelDataset, PeriodRange, PeriodSummary

RATE_SCALE = 100_000.0

# Wichura's (1988) AS241 (PPND16): absolute error below 1e-15 over (0, 1).
_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Raises OutOfDomainError unless 0 < p < 1 (NaN included).
    """
    if not 0.0 < p < 1.0:
        raise OutOfDomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def weighted_period_mean(panel: PanelDataset, group, period: PeriodRange) -> PeriodSummary:
    """Population-weighted mean rate for ``group`` over ``period``.

    Weights are person-years: each unit-year contributes its population.
    The summary SE combines record SEs in quadrature (present only when all
    records carry one). Missing unit-years raise MissingDataError, listing
    every missing (unit, year) pair.

    The summation order is part of the output contract: records are added
    left to right, units in sorted order and years ascending within each
    unit. Floating-point addition is not associative, so any other order
    (a prefix-sum view, a vectorised reduction) changes output bytes and
    breaks the exact placebo-versus-analysis equality.
    """
    units = sorted(group)
    if not units:
        raise EmptyGroupError("cannot summarize an empty group")
    years = tuple(period.years())
    missing = []
    total_weight = 0.0
    weighted_sum = 0.0
    var_sum = 0.0
    all_se = True
    for unit in units:
        row = panel.row(unit)
        for year in years:
            cell = row.get(year)
            if cell is None:
                missing.append((unit, year))
                continue
            rate, population, se, _ = cell
            w = float(population)
            total_weight += w
            weighted_sum += w * rate
            if se is None:
                all_se = False
            elif all_se:
                var_sum += (w * se) ** 2
    if missing:
        raise MissingDataError(missing)
    mean = weighted_sum / total_weight
    se = math.sqrt(var_sum) / total_weight if all_se else None
    return PeriodSummary(mean=mean, se=se, total_weight=total_weight)


def poisson_rate_se(deaths: int, population: int) -> float:
    """SE of a crude rate per 100,000 under a Poisson count model."""
    if deaths < 0:
        raise OutOfDomainError("deaths must be >= 0")
    if population <= 0:
        raise OutOfDomainError("population must be positive")
    return math.sqrt(deaths) / population * RATE_SCALE


def did_point(
    t_before: PeriodSummary,
    t_after: PeriodSummary,
    c_before: PeriodSummary,
    c_after: PeriodSummary,
) -> float:
    """Moment difference-in-differences: (treated change) - (control change)."""
    return did_of_means(t_before.mean, t_after.mean, c_before.mean, c_after.mean)


def did_of_means(t_before, t_after, c_before, c_after):
    """:func:`did_point` on bare cell means: floats, or numpy arrays elementwise."""
    return (t_after - t_before) - (c_after - c_before)


def _require_ses(*summaries) -> list:
    ses = []
    for s in summaries:
        if s.se is None:
            raise MissingSEError("all four period summaries must carry SEs")
        ses.append(s.se)
    return ses


def did_se(
    t_before: PeriodSummary,
    t_after: PeriodSummary,
    c_before: PeriodSummary,
    c_after: PeriodSummary,
) -> float:
    """SE of the DiD point under independence of the four cells."""
    return math.sqrt(did_variance(*_require_ses(t_before, t_after, c_before, c_after)))


def did_variance(se_t_before, se_t_after, se_c_before, se_c_after):
    """Squared SE of the DiD point from the four cell SEs: floats, or numpy arrays.

    The squares are added in cell order, so the array form matches
    :func:`did_se` bit for bit.
    """
    return (
        se_t_before * se_t_before
        + se_t_after * se_t_after
        + se_c_before * se_c_before
        + se_c_after * se_c_after
    )


def wald_z(alpha: float) -> float:
    """The normal quantile of a two-sided level-alpha Wald interval."""
    if not 0.0 < alpha < 1.0:
        raise OutOfDomainError(f"alpha must be in (0, 1), got {alpha}")
    return normal_quantile(1.0 - alpha / 2.0)


def wald_ci(point: float, se: float, alpha: float) -> ConfInterval:
    """Two-sided normal interval, the intersection of two one-sided 1 - alpha/2 intervals."""
    if se < 0:
        raise OutOfDomainError("se must be >= 0")
    z = wald_z(alpha)
    return ConfInterval(point - z * se, point + z * se, level=1.0 - alpha)


def pct_denominator(
    t_before: PeriodSummary, c_before: PeriodSummary, c_after: PeriodSummary
) -> float:
    """Counterfactual after-period mean: treated baseline plus the control change."""
    return t_before.mean + (c_after.mean - c_before.mean)


def pct_change(
    point: float,
    t_before: PeriodSummary,
    c_before: PeriodSummary,
    c_after: PeriodSummary,
):
    """Percent change implied by a DiD point; returns (pct_point, denom)."""
    denom = pct_denominator(t_before, c_before, c_after)
    if denom <= 0:
        raise NonpositiveDenominatorError(f"percent denominator {denom} is not positive")
    return 100.0 * point / denom, denom


def pct_change_se_delta(
    t_before: PeriodSummary,
    t_after: PeriodSummary,
    c_before: PeriodSummary,
    c_after: PeriodSummary,
) -> float:
    """Delta-method SE of the percent-change estimate.

    With A the DiD numerator and B the counterfactual denominator, the
    gradient of 100*A/B in the four cell means is (100/B, -100(A+B)/B^2,
    100(A+B)/B^2, -100(A+B)/B^2) for (t_after, t_before, c_before, c_after);
    cells are independent.
    """
    se_tb, se_ta, se_cb, se_ca = (
        _require_ses(t_before, t_after, c_before, c_after)
    )
    a = did_point(t_before, t_after, c_before, c_after)
    b = pct_denominator(t_before, c_before, c_after)
    if b <= 0:
        raise NonpositiveDenominatorError(f"percent denominator {b} is not positive")
    d_ta = 100.0 / b
    d_tb = -100.0 * (a + b) / (b * b)
    d_ca = -100.0 * (a + b) / (b * b)
    d_cb = 100.0 * (a + b) / (b * b)
    return math.sqrt(
        (d_tb * se_tb) ** 2
        + (d_ta * se_ta) ** 2
        + (d_cb * se_cb) ** 2
        + (d_ca * se_ca) ** 2
    )


def pct_ci_scaled(ci: ConfInterval, denom: float) -> ConfInterval:
    """Percent CI obtained by scaling the rate CI endpoints by the denominator."""
    if denom <= 0:
        raise NonpositiveDenominatorError(f"percent denominator {denom} is not positive")
    return ConfInterval(100.0 * ci.lower / denom, 100.0 * ci.upper / denom, level=ci.level)
