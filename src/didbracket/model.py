"""Core domain types: panel data, adjacency, study designs, summaries, and reports.

Everything here is an immutable value object; all operations are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .errors import DataError, InvariantError

# The largest population or death count a panel row may hold. Above 2**53
# float64 no longer holds every integer, and far above it converting a count
# to float overflows; the bound is an integer comparison, so no count is
# converted to be checked.
MAX_COUNT = 2**53


def check_record_values(unit_id, year, rate, population, se, deaths) -> None:
    """Raise DataError unless one unit-year's values are in range.

    The one place the value ranges of a panel row are checked: a
    PanelRecord runs it on construction and ``parse_panel_csv`` once per
    row it reads.
    """
    if not unit_id:
        raise DataError("unit_id must be a nonempty string")
    if not math.isfinite(rate) or rate < 0:
        raise DataError(f"{unit_id} {year}: rate must be finite and >= 0")
    if population <= 0:
        raise DataError(f"{unit_id} {year}: population must be positive")
    if population > MAX_COUNT:
        raise DataError(f"{unit_id} {year}: population must be at most 2**53")
    if se is not None and (not math.isfinite(se) or se < 0):
        raise DataError(f"{unit_id} {year}: se must be finite and >= 0")
    if deaths is not None and deaths < 0:
        raise DataError(f"{unit_id} {year}: deaths must be >= 0")
    if deaths is not None and deaths > MAX_COUNT:
        raise DataError(f"{unit_id} {year}: deaths must be at most 2**53")


@dataclass(frozen=True)
class PanelRecord:
    """One unit-year observation: an outcome rate per 100,000 persons."""

    unit_id: str
    year: int
    rate: float
    population: int
    se: Optional[float] = None
    deaths: Optional[int] = None

    def __post_init__(self):
        check_record_values(
            self.unit_id, self.year, self.rate, self.population, self.se, self.deaths
        )


class PanelDataset:
    """Immutable unit-year panel with unique (unit, year) keys.

    Each unit's row is a plain ``{year: (rate, population, se, deaths)}``
    map, so a group summary fetches a unit's row once and reads its years
    from it. PanelRecord objects are built only when asked for, by
    :attr:`records` and :meth:`get`.

    Build it from PanelRecords, or from ``rows``, a ``{unit: {year: (rate,
    population, se, deaths)}}`` map whose values already passed
    :func:`check_record_values` (as ``parse_panel_csv`` gives it); the
    panel takes ownership of ``rows``.
    """

    __slots__ = ("_rows", "_units", "_len")

    def __init__(self, records=(), rows=None):
        if rows is None:
            rows = {}
            for r in records:
                row = rows.get(r.unit_id)
                if row is None:
                    row = rows[r.unit_id] = {}
                elif r.year in row:
                    raise DataError(f"duplicate record for {r.unit_id} {r.year}")
                row[r.year] = (r.rate, r.population, r.se, r.deaths)
        object.__setattr__(
            self, "_rows", {unit: MappingProxyType(row) for unit, row in rows.items()}
        )
        object.__setattr__(self, "_units", frozenset(rows))
        object.__setattr__(self, "_len", sum(map(len, rows.values())))

    def __reduce__(self):
        # The read-only rows cannot be pickled; rebuild them from plain dicts.
        return (PanelDataset, ((), {unit: dict(row) for unit, row in self._rows.items()}))

    @property
    def records(self) -> tuple:
        """Every record as a PanelRecord, units sorted and years ascending.

        The records are built on each access, so this order does not
        depend on the order of the input file or the records given.
        """
        return tuple(
            PanelRecord(unit, year, *row[year])
            for unit, row in sorted(self._rows.items())
            for year in sorted(row)
        )

    @property
    def units(self) -> frozenset:
        return self._units

    def __len__(self) -> int:
        return self._len

    def row(self, unit_id: str) -> Mapping:
        """Read-only ``{year: (rate, population, se, deaths)}`` map of one unit.

        Empty for an unknown unit.
        """
        return self._rows.get(unit_id, _EMPTY_ROW)

    def get(self, unit_id: str, year: int) -> PanelRecord:
        try:
            return PanelRecord(unit_id, year, *self._rows[unit_id][year])
        except KeyError:
            raise DataError(f"no record for {unit_id} {year}") from None

    def has(self, unit_id: str, year: int) -> bool:
        return year in self._rows.get(unit_id, _EMPTY_ROW)


_EMPTY_ROW = MappingProxyType({})


def canonical_edge(a: str, b: str) -> tuple:
    """The undirected edge between ``a`` and ``b`` as a sorted pair; DataError on a self-edge."""
    if a == b:
        raise DataError(f"self-edge on {a!r}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected unit adjacency; edges are canonical sorted pairs.

    The ``unit -> neighbours`` map is built in the same pass as the edges
    (:meth:`from_pairs`), so a lookup is one dict access, not a scan of
    every edge. It takes no part in equality, hashing or the repr, which
    depend on ``edges`` alone; a graph constructed from ``edges`` only
    builds it from them.
    """

    edges: frozenset
    _neighbors: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self._neighbors is None:
            object.__setattr__(self, "_neighbors", AdjacencyGraph.from_pairs(self.edges)._neighbors)

    @classmethod
    def from_pairs(cls, pairs) -> "AdjacencyGraph":
        """The graph of ``pairs``, in either orientation; DataError on a self-edge."""
        edges = set()
        adjacent = defaultdict(list)
        for a, b in pairs:
            edges.add(canonical_edge(a, b))
            adjacent[a].append(b)
            adjacent[b].append(a)
        return cls(frozenset(edges), {unit: frozenset(nbrs) for unit, nbrs in adjacent.items()})

    def neighbors(self, unit: str) -> frozenset:
        return self._neighbors.get(unit, frozenset())


@dataclass(frozen=True, order=True)
class PeriodRange:
    """Inclusive range of calendar years."""

    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise DataError(f"period start {self.start_year} after end {self.end_year}")

    def years(self) -> Iterator[int]:
        return iter(range(self.start_year, self.end_year + 1))

    def __len__(self) -> int:
        return self.end_year - self.start_year + 1

    def __str__(self) -> str:
        return f"{self.start_year}-{self.end_year}"


@dataclass(frozen=True)
class StudyDesign:
    """Treated unit, the two control groups, and the three analysis periods.

    Construction performs only type-level normalization; semantic problems
    (overlapping periods, empty groups, missing data) are reported by
    :func:`validate_design` as data, not raised.
    """

    treated: str
    lower_controls: frozenset
    upper_controls: frozenset
    prestudy: PeriodRange
    before: PeriodRange
    after: PeriodRange

    def __post_init__(self):
        object.__setattr__(self, "lower_controls", frozenset(self.lower_controls))
        object.__setattr__(self, "upper_controls", frozenset(self.upper_controls))

    def all_units(self) -> frozenset:
        return self.lower_controls | self.upper_controls | {self.treated}

    def all_controls(self) -> frozenset:
        return self.lower_controls | self.upper_controls


@dataclass(frozen=True)
class Violation:
    """Machine-readable design violation."""

    code: str
    subject: str = ""
    detail: str = ""

    def __str__(self) -> str:
        subj = f"({self.subject})" if self.subject else ""
        return f"{self.code}{subj}: {self.detail}" if self.detail else f"{self.code}{subj}"


def validate_design(panel: PanelDataset, design: StudyDesign) -> list:
    """Return every violated design invariant; an empty list means valid.

    Deterministic and independent of panel record order: violations are
    sorted by (code, subject).
    """
    violations = []
    if design.treated in design.lower_controls | design.upper_controls:
        violations.append(Violation("TreatedInControls", design.treated))
    overlap = design.lower_controls & design.upper_controls
    for unit in sorted(overlap):
        violations.append(Violation("ControlSetsOverlap", unit))
    if not design.lower_controls:
        violations.append(Violation("EmptyControlGroup", "lower"))
    if not design.upper_controls:
        violations.append(Violation("EmptyControlGroup", "upper"))
    if design.prestudy.end_year >= design.before.start_year:
        violations.append(
            Violation("PeriodOverlap", "prestudy/before",
                      f"{design.prestudy} does not precede {design.before}")
        )
    if design.before.end_year >= design.after.start_year:
        violations.append(
            Violation("PeriodOverlap", "before/after",
                      f"{design.before} does not precede {design.after}")
        )
    for unit in sorted(design.all_units()):
        missing = [
            year
            for period in (design.prestudy, design.before, design.after)
            for year in period.years()
            if not panel.has(unit, year)
        ]
        if missing:
            years = ", ".join(str(y) for y in missing[:6])
            more = "" if len(missing) <= 6 else f" (+{len(missing) - 6} more)"
            violations.append(Violation("MissingUnitYears", unit, years + more))
    violations.sort(key=lambda v: (v.code, v.subject))
    return violations


@dataclass(frozen=True)
class PeriodSummary:
    """Population-weighted mean outcome for a group over a period.

    ``se`` is None when any contributing record lacks one; ``total_weight``
    is the person-years behind the mean.
    """

    mean: float
    se: Optional[float]
    total_weight: float

    def __post_init__(self):
        if self.total_weight <= 0:
            raise InvariantError("total_weight must be positive")
        if self.se is not None and self.se < 0:
            raise InvariantError("se must be >= 0")


@dataclass(frozen=True)
class ConfInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise InvariantError(f"confidence level {self.level} not in (0, 1)")
        if self.lower > self.upper:
            raise InvariantError(f"interval [{self.lower}, {self.upper}] is inverted")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class EffectEstimate:
    """A DiD rate-difference estimate with its percent-change companion.

    ``denom`` is the implied counterfactual after-period mean used as the
    percent denominator. ``pct_ci`` scales the rate CI endpoints;
    ``pct_se_delta`` is the delta-method standard error of the percent
    estimate, reported alongside.
    """

    point: float
    se: float
    ci: ConfInterval
    pct_point: float
    pct_ci: ConfInterval
    pct_se_delta: float
    denom: float

    def __post_init__(self):
        if not self.ci.contains(self.point):
            raise InvariantError("point estimate outside its own CI")
        if self.denom <= 0:
            raise InvariantError("percent denominator must be positive")


@dataclass(frozen=True)
class DiffEstimate:
    point: float
    ci: ConfInterval


@dataclass(frozen=True)
class OrderingReport:
    """Before-period check that the constructed groups straddle the treated unit."""

    diff_uc_minus_t: DiffEstimate
    diff_t_minus_lc: DiffEstimate
    period: PeriodRange
    flags: tuple = ()


@dataclass(frozen=True)
class BracketReport:
    """Full bracketing analysis: both arms, bounds, min-max CI, diagnostics.

    ``est_all_ctrl`` pools both control groups and assumes parallel trends.
    """

    est_lower_ctrl: EffectEstimate
    est_upper_ctrl: EffectEstimate
    bracket: tuple
    minmax_ci: ConfInterval
    ordering: OrderingReport
    alpha: float
    est_all_ctrl: EffectEstimate
    diagnostics: Optional[tuple] = None

    def __post_init__(self):
        lo, hi = self.bracket
        if lo > hi:
            raise InvariantError("bracket bounds out of order")
        for arm in (self.est_lower_ctrl, self.est_upper_ctrl):
            if not (self.minmax_ci.lower <= arm.ci.lower and arm.ci.upper <= self.minmax_ci.upper):
                raise InvariantError("min-max CI does not contain a component CI")
