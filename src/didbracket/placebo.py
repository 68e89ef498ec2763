"""Placebo engine: rerun the bracketing construction on every eligible unit.

Each unit takes a turn as the sham-treated unit with its in-panel
neighbors as candidates, classified against the same pre-study window.
The resulting point estimates form reference distributions (one per arm)
against which the genuinely treated unit's estimates are ranked. Standard
errors are not required: this is permutation-style inference on points.

A study costs O(units x degree x years), in numpy: one scatter of the
panel's sorted columns fills dense arrays (units sorted, by year), and
every group summary it needs is folded over all units at once, in the
summation order of :func:`~didbracket.estimation.weighted_period_mean`,
so each mean is that function's to the bit (:func:`_group_means`). A
summary that is not clean (a missing cell, a mean that is not finite, an
SE that might overflow) is asked of ``weighted_period_mean`` itself, in
the order a unit-by-unit loop asks, so the MissingData exclusions and the
first overflow error are its own. A unit with no usable arm has two empty
arms and is excluded as NoLowerNeighbors. ``AdjacencyGraph`` lives in
:mod:`didbracket.model` and is re-exported here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bracketing import split_by_mean
from .errors import ArmUnavailableError, DataError, MissingDataError, OutOfDomainError
from .estimation import check_finite, did_of_means, weighted_period_mean
from .model import AdjacencyGraph, PanelDataset, PeriodRange

ARMS = ("lc", "uc")

EXCLUDED_NO_LOWER = "NoLowerNeighbors"
EXCLUDED_MISSING = "MissingData"
EXCLUDED_EXPLICIT = "ExplicitExclusion"


@dataclass(frozen=True)
class PlaceboResult:
    unit_id: str
    effect_lc: Optional[float] = None
    effect_uc: Optional[float] = None
    excluded_reason: Optional[str] = None

    def __post_init__(self):
        included = self.effect_lc is not None or self.effect_uc is not None
        if included and self.excluded_reason is not None:
            raise DataError(f"{self.unit_id}: included result cannot carry an exclusion reason")
        if not included and self.excluded_reason is None:
            raise DataError(f"{self.unit_id}: excluded result must carry a reason")

    def arm(self, arm: str) -> Optional[float]:
        if arm not in ARMS:
            raise OutOfDomainError(f"arm must be one of {ARMS}, got {arm!r}")
        return self.effect_lc if arm == "lc" else self.effect_uc


# A cell whose w * se is above this may overflow float64 once squared and
# summed; weighted_period_mean computes the summaries of its groups itself.
_SE_LIMIT = 1e150


def _panel_cells(panel: PanelDataset, units, years) -> tuple:
    """``(w * rate, w, w * se > _SE_LIMIT)`` of ``units`` (rows) and ascending ``years`` (columns).

    ``w`` is the population as a float; one scatter of the panel's columns
    fills the grid. A missing cell is a NaN rate of weight 1, so that every
    sum over it is NaN. A last row (index ``len(units)``) of -0.0, the exact
    identity of +, pads short groups.
    """
    names, starts, *columns = panel.columns()
    slot = {unit: i for i, unit in enumerate(units)}
    row = np.repeat(np.array([slot.get(name, -1) for name in names], int), np.diff(starts))
    year, rate, population, se, _ = map(np.asarray, columns)
    take = np.flatnonzero((row >= 0) & np.isin(year, years))
    grid = np.full((3, len(units) + 1, len(years)), math.nan)  # rate, w, se
    grid[1] = 1.0
    grid[0, -1], grid[1, -1] = 0.0, -0.0
    grid[:, row[take], np.searchsorted(years, year[take])] = rate[take], population[take], se[take]
    rate, weight, se = grid
    return weight * rate, weight, weight * se > _SE_LIMIT


def _group_means(cells: tuple, members, columns: slice) -> tuple:
    """``(means, clean)`` of the groups in the rows of ``members`` over ``columns``.

    ``members`` holds row indices of ``cells``, ascending but for pad rows,
    which may sit anywhere. Each sum is folded member by member, and year
    by year within a member, across all groups at once: the order of
    :func:`weighted_period_mean`, so a mean equals that function's bit for
    bit. A mean is clean when it is finite and no member's SE might
    overflow: only then does weighted_period_mean surely return it.
    """
    weighted, weight, hot = (a[:, columns] for a in cells)
    total, weighted_sum = np.zeros(len(members)), np.zeros(len(members))
    for member in members.T:
        for w, wr in zip(weight[member].T, weighted[member].T):
            total += w
            weighted_sum += wr
    means = weighted_sum / total
    return means, np.isfinite(means) & ~hot.any(axis=1)[members].any(axis=1)


def run_placebo_study(
    panel: PanelDataset,
    adjacency: AdjacencyGraph,
    prestudy: PeriodRange,
    before: PeriodRange,
    after: PeriodRange,
    exclusions=(),
) -> tuple:
    """One PlaceboResult per non-excluded panel unit, sorted by unit id.

    Candidates for each unit are its neighbors present in the panel. Units
    whose classification leaves a side empty lack that arm; units with no
    usable arm, or with missing data anywhere along their construction,
    are excluded with a reason instead of aborting the study.
    """
    excluded = frozenset(exclusions)
    units = sorted(panel.units)
    n = len(units)
    index = {unit: i for i, unit in enumerate(units)}
    candidates = [sorted(index[c] for c in adjacency.neighbors(u) if c in index) for u in units]
    width = max(map(len, candidates), default=0)
    neighbors = np.array([c + [n] * (width - len(c)) for c in candidates], int).reshape(n, width)
    periods = (prestudy, before, after)
    years = sorted({year for p in periods for year in p.years()})
    span = {p: slice(years.index(p.start_year), years.index(p.end_year) + 1) for p in periods}
    alone = np.arange(n)[:, None]
    with np.errstate(all="ignore"):
        cells = _panel_cells(panel, units, years)
        pre, pre_clean = _group_means(cells, alone, span[prestudy])
        pre, pre_clean = np.append(pre, math.nan), np.append(pre_clean, True)  # pad: on no side
        sides = split_by_mean(pre[:n, None], pre[neighbors])
        groups = np.concatenate([np.where(side, neighbors, n) for side in sides])
        (t_before, tb_clean), (t_after, ta_clean) = (
            _group_means(cells, alone, span[p]) for p in (before, after))
        (g_before, gb_clean), (g_after, ga_clean) = (
            _group_means(cells, groups, span[p]) for p in (before, after))
        points = did_of_means(np.tile(t_before, 2), np.tile(t_after, 2), g_before, g_after)
    has = (groups < n).any(axis=1)
    arm_clean = ~has | (np.tile(tb_clean & ta_clean, 2) & gb_clean & ga_clean)
    clean = pre_clean[:n] & pre_clean[neighbors].all(axis=1) & arm_clean[:n] & arm_clean[n:]
    points, has, clean = points.tolist(), has.tolist(), clean.tolist()
    results = []
    for i, unit in enumerate(units):
        if unit in excluded:
            results.append(PlaceboResult(unit, excluded_reason=EXCLUDED_EXPLICIT))
            continue
        arms = (i, n + i)
        if not clean[i]:
            # Ask weighted_period_mean for each summary that is not clean, in
            # the order a unit-by-unit study asks for them.
            asks = [(pre_clean[j], [j], prestudy) for j in [i, *candidates[i]]]
            for arm in arms:
                if has[arm]:
                    members = groups[arm][groups[arm] < n]
                    asks += [(tb_clean[i], [i], before), (ta_clean[i], [i], after),
                             (gb_clean[arm], members, before), (ga_clean[arm], members, after)]
            try:
                for ok, rows, period in asks:
                    if not ok:
                        weighted_period_mean(panel, {units[r] for r in rows}, period)
            except MissingDataError:
                results.append(PlaceboResult(unit, excluded_reason=EXCLUDED_MISSING))
                continue
        effect_lc, effect_uc = (points[arm] if has[arm] else None for arm in arms)
        check_finite(f"placebo unit {unit}", {
            f"{arm} estimate": effect for arm, effect in zip(ARMS, (effect_lc, effect_uc))
            if effect is not None
        })
        if effect_lc is None and effect_uc is None:
            results.append(PlaceboResult(unit, excluded_reason=EXCLUDED_NO_LOWER))
        else:
            results.append(PlaceboResult(unit, effect_lc=effect_lc, effect_uc=effect_uc))
    return tuple(results)


@dataclass(frozen=True)
class RankResult:
    n_total: int
    n_strictly_greater: int
    rank: int


def rank_effect(results, unit: str, arm: str) -> RankResult:
    """Rank a unit's arm estimate by strict exceedance among the results.

    Ties count as not-greater.
    """
    pool = [r for r in results if r.arm(arm) is not None]
    target = next((r for r in pool if r.unit_id == unit), None)
    if target is None:
        raise ArmUnavailableError(f"{unit} has no {arm} placebo estimate")
    own = target.arm(arm)
    greater = sum(1 for r in pool if r.unit_id != unit and r.arm(arm) > own)
    return RankResult(n_total=len(pool), n_strictly_greater=greater, rank=greater + 1)


@dataclass(frozen=True)
class HistBin:
    lower: float
    upper: float  # exclusive
    count: int


# The most bins one histogram may span. The bin count follows the spread of
# the values over the width, not the number of units, so one outlying rate
# could otherwise ask for millions of bins.
MAX_HIST_BINS = 100_000


def histogram_export(results, arm: str, bin_width: float) -> tuple:
    """Left-closed right-open bins anchored at 0, covering the arm's values.

    Raises OutOfDomainError, before any bin is built, when the values
    span more than MAX_HIST_BINS bins of ``bin_width``.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise OutOfDomainError(f"bin_width must be finite and positive, got {bin_width}")
    values = sorted(r.arm(arm) for r in results if r.arm(arm) is not None)
    if not values:
        return ()
    lo, hi = values[0] / bin_width, values[-1] / bin_width
    n_bins = math.floor(hi) - math.floor(lo) + 1 if math.isfinite(hi - lo) else math.inf
    if n_bins > MAX_HIST_BINS:
        raise OutOfDomainError(
            f"the {arm} histogram needs {n_bins:.6g} bins of width {bin_width}, "
            f"more than {MAX_HIST_BINS}"
        )
    first, last = math.floor(lo), math.floor(hi)
    counts = Counter(math.floor(v / bin_width) for v in values)
    return tuple(
        HistBin(lower=k * bin_width, upper=(k + 1) * bin_width, count=counts[k])
        for k in range(first, last + 1)
    )
