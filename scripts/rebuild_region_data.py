#!/usr/bin/env python3
"""Rebuild the bundled Missouri-region panel from its documented sources.

The published source prints, per state, one age-adjusted firearm homicide
rate for each of three periods (1994-1998, 1999-2007, 2008-2016), plus
population-weighted group aggregates for those periods and group-level
rates for the 2008-2013 sub-window. It prints no populations and no
per-year rates, so the bundled per-year panel is a reconstruction:

* populations: linear interpolation between decennial census counts
  (1990, 2000, 2010) and the 2016 vintage estimate, nearest thousand;
* rates: piecewise constant on 1994-1998 / 1999-2007 / 2008-2013 /
  2014-2016. Within each control group the period levels get one common
  additive calibration shift (well inside each printed rate's +-0.05
  rounding window) so the person-year-weighted group aggregates equal the
  published aggregates exactly; the 2008-2013 vs 2014-2016 split is set so
  the sub-window group rates equal the published sub-window values while
  each state's full 2008-2016 mean is preserved;
* standard errors: Poisson count model, se = sqrt(rate * 1e5 / population).

Run from the repository root:  python scripts/rebuild_region_data.py [--out PATH]
(the default PATH is the bundled file, src/didbracket/data/missouri_region.csv).
"""

from __future__ import annotations

import argparse
import csv
import math
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "src" / "didbracket" / "data" / "missouri_region.csv"

TREATED = "Missouri"
UPPER = ("Arkansas", "Illinois", "Tennessee")
LOWER = ("Iowa", "Kansas", "Kentucky", "Nebraska", "Oklahoma")

PRESTUDY = range(1994, 1999)
BEFORE = range(1999, 2008)
AFTER = range(2008, 2017)
AFTER_EARLY = range(2008, 2014)   # sub-window with its own published group rates
AFTER_LATE = range(2014, 2017)

# Published per-state period rates (per 100,000, age-adjusted), in period
# order (1994-1998, 1999-2007, 2008-2016).
STATE_RATES = {
    "Missouri": (6.1, 4.7, 6.1),
    "Arkansas": (7.3, 5.1, 5.5),
    "Illinois": (7.1, 5.1, 5.2),
    "Iowa": (1.2, 0.9, 1.2),
    "Kansas": (4.2, 3.0, 3.0),
    "Kentucky": (4.1, 3.3, 3.7),
    "Nebraska": (2.2, 1.8, 2.4),
    "Oklahoma": (4.8, 3.8, 4.8),
    "Tennessee": (6.9, 5.5, 5.4),
}

# Published population-weighted group aggregates, same period order, plus
# the 2008-2013 sub-window value.
GROUP_TARGETS = {
    "Missouri": (6.1, 4.7, 6.1, 5.5),
    "upper": (7.1, 5.2, 5.3, 5.0),
    "lower": (3.5, 2.7, 3.2, 2.9),
}

# Decennial census counts and the 2016 vintage estimate, thousands.
CENSUS_ANCHORS = {
    "Missouri": {1990: 5117, 2000: 5595, 2010: 5989, 2016: 6093},
    "Arkansas": {1990: 2351, 2000: 2673, 2010: 2916, 2016: 2988},
    "Illinois": {1990: 11431, 2000: 12419, 2010: 12831, 2016: 12802},
    "Iowa": {1990: 2777, 2000: 2926, 2010: 3046, 2016: 3135},
    "Kansas": {1990: 2478, 2000: 2688, 2010: 2853, 2016: 2907},
    "Kentucky": {1990: 3685, 2000: 4042, 2010: 4339, 2016: 4437},
    "Nebraska": {1990: 1578, 2000: 1711, 2010: 1826, 2016: 1907},
    "Oklahoma": {1990: 3146, 2000: 3451, 2010: 3751, 2016: 3923},
    "Tennessee": {1990: 4877, 2000: 5689, 2010: 6346, 2016: 6651},
}

RATE_SCALE = 100_000


def population(state: str, year: int) -> int:
    a = CENSUS_ANCHORS[state]
    if year <= 2000:
        lo, hi = 1990, 2000
    elif year <= 2010:
        lo, hi = 2000, 2010
    else:
        lo, hi = 2010, 2016
    thousands = a[lo] + (year - lo) / (hi - lo) * (a[hi] - a[lo])
    return int(round(thousands * 1000))


def person_years(states, years) -> float:
    return float(sum(population(s, y) for s in states for y in years))


def weighted(states, years, rate_of) -> float:
    num = sum(population(s, y) * rate_of(s) for s in states for y in years)
    return num / person_years(states, years)


def group_shift(states, years, period_idx: int, target: float) -> float:
    """Common additive shift putting the group's weighted mean on target."""
    raw = weighted(states, years, lambda s: STATE_RATES[s][period_idx])
    shift = target - raw
    assert abs(shift) < 0.05, f"calibration shift {shift:.4f} leaves the rounding window"
    return shift


def build_rows():
    groups = [((TREATED,), "Missouri"), (UPPER, "upper"), (LOWER, "lower")]
    rows = []
    for states, label in groups:
        targets = GROUP_TARGETS[label]
        shifts = (
            group_shift(states, PRESTUDY, 0, targets[0]),
            group_shift(states, BEFORE, 1, targets[1]),
            group_shift(states, AFTER, 2, targets[2]),
        )
        # After-period split: scale the early window by a common group factor
        # hitting the published 2008-2013 value, then solve each state's late
        # level so its full-period person-year mean is preserved.
        after_level = {s: STATE_RATES[s][2] + shifts[2] for s in states}
        early_mean = weighted(states, AFTER_EARLY, after_level.__getitem__)
        early_factor = targets[3] / early_mean
        for state in states:
            w_all = person_years((state,), AFTER)
            w_early = person_years((state,), AFTER_EARLY)
            w_late = person_years((state,), AFTER_LATE)
            early_rate = early_factor * after_level[state]
            late_rate = (w_all * after_level[state] - w_early * early_rate) / w_late
            assert late_rate > 0, f"{state}: nonpositive late after-period rate"
            for year in range(1994, 2017):
                if year in PRESTUDY:
                    rate = STATE_RATES[state][0] + shifts[0]
                elif year in BEFORE:
                    rate = STATE_RATES[state][1] + shifts[1]
                elif year in AFTER_EARLY:
                    rate = early_rate
                else:
                    rate = late_rate
                pop = population(state, year)
                se = math.sqrt(rate * RATE_SCALE / pop)
                rows.append((state, year, round(rate, 6), round(se, 6), pop))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def verify(rows):
    rate = {(u, y): r for u, y, r, _, _ in rows}

    def agg(states, years):
        num = sum(population(s, y) * rate[(s, y)] for s in states for y in years)
        return num / person_years(states, years)

    for states, label in [((TREATED,), "Missouri"), (UPPER, "upper"), (LOWER, "lower")]:
        targets = GROUP_TARGETS[label]
        got = (
            agg(states, PRESTUDY),
            agg(states, BEFORE),
            agg(states, AFTER),
            agg(states, AFTER_EARLY),
        )
        for want, have in zip(targets, got):
            assert abs(want - have) < 1e-6, f"{label}: aggregate {have:.6f} != {want}"
        print(f"{label:>8}: " + "  ".join(f"{v:.4f}" for v in got))
    # Full-after DiD points implied by the calibrated aggregates.
    for arm, states in [("upper", UPPER), ("lower", LOWER)]:
        point = (agg((TREATED,), AFTER) - agg((TREATED,), BEFORE)) - (
            agg(states, AFTER) - agg(states, BEFORE)
        )
        print(f"DiD vs {arm} controls: {point:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Rebuild the bundled Missouri-region panel.")
    parser.add_argument("--out", type=Path, default=OUT_PATH,
                        help="where to write the panel CSV (default: the bundled file)")
    out_path = parser.parse_args(argv).out
    rows = build_rows()
    verify(rows)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "year", "rate", "se", "population"])
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {out_path}")


if __name__ == "__main__":
    main()
