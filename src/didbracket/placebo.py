"""Placebo engine: rerun the bracketing construction on every eligible unit.

Each unit takes a turn as the sham-treated unit with its in-panel
neighbors as candidates, classified against the same pre-study window.
The resulting point estimates form reference distributions (one per arm)
against which the genuinely treated unit's estimates are ranked. Standard
errors are not required: this is permutation-style inference on points.

A study costs O(units x degree): each unit's candidates are one lookup in
the adjacency's neighbour map, and each group summary reads one row per
unit. Single-unit summaries (every unit's pre-study mean, the sham-treated
unit's before and after cells) are computed once a study; see
:func:`_single_unit_memo`. ``AdjacencyGraph`` lives in
:mod:`didbracket.model` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bracketing import arm_cells, classify_candidates
from .errors import ArmUnavailableError, DataError, MissingDataError, OutOfDomainError
from .estimation import did_point, weighted_period_mean
from .model import AdjacencyGraph, PanelDataset, PeriodRange

ARMS = ("lc", "uc")

EXCLUDED_NO_LOWER = "NoLowerNeighbors"
EXCLUDED_NO_UPPER = "NoUpperNeighbors"
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


def _single_unit_memo(panel: PanelDataset):
    """``weighted_period_mean(panel, group, period)`` that computes a one-unit group once.

    Exact: a one-unit summary adds that unit's records in ascending years,
    whichever placebo unit asks for it, so the kept value is the value a
    fresh call returns. A MissingDataError is kept too and raised again on
    every later ask. Groups of two or more units are always recomputed:
    their sum runs over the units in sorted order, which a combination of
    kept one-unit sums would not reproduce bit for bit.
    """
    kept = {}

    def summary(group, period):
        if len(group) != 1:
            return weighted_period_mean(panel, group, period)
        key = (next(iter(group)), period)
        value = kept.get(key)
        if value is None:
            try:
                value = weighted_period_mean(panel, group, period)
            except MissingDataError as exc:
                value = exc
            kept[key] = value
        if isinstance(value, MissingDataError):
            raise value.with_traceback(None)
        return value

    return summary


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
    summary = _single_unit_memo(panel)
    results = []
    for unit in sorted(panel.units):
        if unit in excluded:
            results.append(PlaceboResult(unit, excluded_reason=EXCLUDED_EXPLICIT))
            continue
        candidates = adjacency.neighbors(unit) & panel.units
        try:
            groups = classify_candidates(panel, unit, candidates, prestudy, summary)
            effect_lc = (
                did_point(*arm_cells(panel, unit, groups.lower, before, after, summary))
                if groups.lower
                else None
            )
            effect_uc = (
                did_point(*arm_cells(panel, unit, groups.upper, before, after, summary))
                if groups.upper
                else None
            )
        except MissingDataError:
            results.append(PlaceboResult(unit, excluded_reason=EXCLUDED_MISSING))
            continue
        if effect_lc is None and effect_uc is None:
            reason = EXCLUDED_NO_LOWER if not groups.lower else EXCLUDED_NO_UPPER
            results.append(PlaceboResult(unit, excluded_reason=reason))
        else:
            results.append(PlaceboResult(unit, effect_lc=effect_lc, effect_uc=effect_uc))
    return tuple(results)


@dataclass(frozen=True)
class RankResult:
    n_total: int
    n_strictly_greater: int
    rank: int


def rank_effect(results, unit: str, arm: str, subset=None) -> RankResult:
    """Rank a unit's arm estimate by strict exceedance among the results.

    Ties count as not-greater. ``subset`` optionally restricts the
    comparison units (the unit itself is always kept).
    """
    pool = [
        r
        for r in results
        if r.arm(arm) is not None and (subset is None or r.unit_id in subset or r.unit_id == unit)
    ]
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
    counts = {k: 0 for k in range(first, last + 1)}
    for v in values:
        counts[math.floor(v / bin_width)] += 1
    return tuple(
        HistBin(lower=k * bin_width, upper=(k + 1) * bin_width, count=counts[k])
        for k in range(first, last + 1)
    )
