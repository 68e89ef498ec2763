"""Estimators: weighted summaries, gaps, DiD points and SEs, percent changes, CIs.

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
from .model import MAX_COUNT, ConfInterval, PanelDataset, PeriodRange, PeriodSummary

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


# The end of every message about a value that overflowed float64.
OVERFLOW = "the panel's values overflow float64"


def group_label(units) -> str:
    """A group of units for a message: sorted, the first eight named."""
    units = sorted(units)
    more = f" (+{len(units) - 8} more)" if len(units) > 8 else ""
    return ", ".join(units[:8]) + more


def check_finite(where: str, values: dict) -> None:
    """Raise OutOfDomainError naming ``where`` and the first of ``values`` that is not finite.

    ``values`` maps the name of each value to the value.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise OutOfDomainError(f"{where}: {name} is {value!r}; {OVERFLOW}")


def weighted_period_mean(panel: PanelDataset, group, period: PeriodRange) -> PeriodSummary:
    """Population-weighted mean rate for ``group`` over ``period``.

    Weights are person-years: each unit-year contributes its population.
    The summary SE combines record SEs in quadrature (present only when all
    records carry one). Missing unit-years raise MissingDataError, listing
    every missing (unit, year) pair. A mean or an SE that overflows float64
    raises OutOfDomainError naming the group and the period.

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
    try:
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
                    var_sum += (w * se) ** 2  # a float ** raises where * would give inf
    except OverflowError:  # from (w * se) ** 2: the SE is inf, whatever the sums left unread
        missing = [(u, y) for u in units for y in years if y not in panel.row(u)]
        var_sum = math.inf
    if missing:
        raise MissingDataError(missing)
    mean = weighted_sum / total_weight
    se = math.sqrt(var_sum) / total_weight if all_se else None
    if not math.isfinite(mean) or se == math.inf:  # se is None only beside a finite sum
        check_finite(f"{group_label(units)} over {period}", {"mean": mean, "SE": se})
    return PeriodSummary(mean=mean, se=se, total_weight=total_weight)


def mean_gap(hi: PeriodSummary, lo: PeriodSummary) -> tuple:
    """``(hi.mean - lo.mean, variance)``: a gap between two group means, SEs in quadrature."""
    if hi.se is None or lo.se is None:
        raise MissingSEError("a gap between group means needs the SEs of both groups")
    return hi.mean - lo.mean, hi.se**2 + lo.se**2


def poisson_rate_se(deaths: int, population: int) -> float:
    """SE of a crude rate per 100,000 under a Poisson count model."""
    if deaths < 0:
        raise OutOfDomainError("deaths must be >= 0")
    if population <= 0:
        raise OutOfDomainError("population must be positive")
    if deaths > MAX_COUNT:
        raise OutOfDomainError("deaths must be at most 2**53")
    if population > MAX_COUNT:
        raise OutOfDomainError("population must be at most 2**53")
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
    return ConfInterval(*wald_ends(point, se, wald_z(alpha)), level=1.0 - alpha)


def wald_ends(point, se, z):
    """The endpoints ``point -/+ z * se`` of a Wald interval: floats, or numpy arrays."""
    half = z * se
    return point - half, point + half


def pct_denominator(
    t_before: PeriodSummary, c_before: PeriodSummary, c_after: PeriodSummary
) -> float:
    """Counterfactual after-period mean, treated baseline plus control change; must be > 0."""
    denom = t_before.mean + (c_after.mean - c_before.mean)
    if denom <= 0:
        raise NonpositiveDenominatorError(f"percent denominator {denom} is not positive")
    return denom


def pct_change(
    point: float,
    t_before: PeriodSummary,
    c_before: PeriodSummary,
    c_after: PeriodSummary,
):
    """Percent change implied by a DiD point; returns (pct_point, denom)."""
    denom = pct_denominator(t_before, c_before, c_after)
    return 100.0 * point / denom, denom


def pct_change_se_delta(
    t_before: PeriodSummary,
    t_after: PeriodSummary,
    c_before: PeriodSummary,
    c_after: PeriodSummary,
) -> float:
    """Delta-method SE of the percent-change estimate; inf when it overflows float64.

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
    try:
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
    except (ZeroDivisionError, OverflowError):  # b * b underflows to 0, or a square overflows
        return math.inf


def pct_ci_scaled(ci: ConfInterval, denom: float) -> ConfInterval:
    """Percent CI obtained by scaling the rate CI endpoints by the denominator."""
    if denom <= 0:
        raise NonpositiveDenominatorError(f"percent denominator {denom} is not positive")
    return ConfInterval(100.0 * ci.lower / denom, 100.0 * ci.upper / denom, level=ci.level)
