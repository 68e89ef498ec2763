"""Seeded synthetic county-style panel and ring adjacency for the benchmark.

Writes N units x 23 years (1994-2016) with seeded rates, populations and
SEs, plus a ring-k adjacency list (each unit joined to its k nearest units
on either side of a cycle, so N*k undirected edges). It also names a
treated unit whose in-panel neighbours fall strictly on both sides of it in
the 1994-1998 pre-study window, so the bracketing analysis of that unit
never meets an empty control group.

Only the standard library is used, so the same seed gives byte-identical
files on every platform. ``generate`` is the entry point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

FIRST_YEAR, LAST_YEAR = 1994, 2016
PRESTUDY = (1994, 1998)
BEFORE = (1999, 2007)
AFTER = (2008, 2016)
SPLIT_YEAR = 2002
# Neighbour pre-study means must clear the treated unit's by this much, so
# the library's own summation order cannot flip a side.
SIDE_MARGIN = 0.5


@dataclass(frozen=True)
class GeneratedInputs:
    panel_path: Path
    adjacency_path: Path
    treated: str
    units: int
    rows: int
    edges: int


def unit_id(index: int, width: int) -> str:
    return f"C{index:0{width}d}"


def ring_pairs(n_units: int, ring: int):
    """Each unit joined to the ``ring`` next units around a cycle."""
    if n_units <= 2 * ring:
        raise ValueError(f"ring-{ring} adjacency needs more than {2 * ring} units")
    return [(i, (i + d) % n_units) for i in range(n_units) for d in range(1, ring + 1)]


def panel_text(n_units: int, seed: int):
    """CSV text of the panel and each unit's population-weighted pre-study mean."""
    rng = random.Random(seed)
    width = len(str(n_units - 1))
    lines = ["unit,year,rate,se,population"]
    prestudy_means = []
    for i in range(n_units):
        uid = unit_id(i, width)
        level = rng.uniform(2.0, 30.0)
        slope = rng.gauss(0.0, 0.08)
        pop0 = int(math.exp(rng.uniform(math.log(5_000), math.log(2_000_000))))
        growth = rng.gauss(0.005, 0.01)
        weighted, weight = 0.0, 0.0
        for year in range(FIRST_YEAR, LAST_YEAR + 1):
            t = year - FIRST_YEAR
            population = max(1_000, int(pop0 * (1.0 + growth) ** t))
            rate = max(0.05, level + slope * t + rng.gauss(0.0, 0.4))
            rate_text = f"{rate:.4f}"
            deaths = max(1.0, float(rate_text) * population / 100_000)
            se_text = f"{math.sqrt(deaths) / population * 100_000:.6f}"
            lines.append(f"{uid},{year},{rate_text},{se_text},{population}")
            if PRESTUDY[0] <= year <= PRESTUDY[1]:
                weighted += population * float(rate_text)
                weight += population
        prestudy_means.append(weighted / weight)
    return "\n".join(lines) + "\n", prestudy_means


def pick_treated(n_units: int, ring: int, means, seed: int) -> int:
    """First unit, from a seeded start, with neighbours clearly on both sides."""
    start = random.Random(seed ^ 0x5EED).randrange(n_units)
    for step in range(n_units):
        i = (start + step) % n_units
        around = [means[(i + d) % n_units] for d in range(-ring, ring + 1) if d]
        if min(around) < means[i] - SIDE_MARGIN and max(around) > means[i] + SIDE_MARGIN:
            return i
    raise ValueError("no unit has neighbours on both sides; use more units or a wider ring")


def generate(out_dir, n_units: int, ring: int, seed: int) -> GeneratedInputs:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(n_units - 1))
    text, means = panel_text(n_units, seed)
    pairs = ring_pairs(n_units, ring)
    adjacency = "unit_a,unit_b\n" + "".join(
        f"{unit_id(a, width)},{unit_id(b, width)}\n" for a, b in pairs
    )
    panel_path = out_dir / "panel.csv"
    adjacency_path = out_dir / "adjacency.csv"
    panel_path.write_text(text, encoding="utf-8")
    adjacency_path.write_text(adjacency, encoding="utf-8")
    return GeneratedInputs(
        panel_path=panel_path,
        adjacency_path=adjacency_path,
        treated=unit_id(pick_treated(n_units, ring, means, seed), width),
        units=n_units,
        rows=n_units * (LAST_YEAR - FIRST_YEAR + 1),
        edges=len(pairs),
    )

