"""Core domain types: panel data, adjacency, study designs, summaries, and reports.

Everything here is an immutable value object; all operations are pure, so
instances are safe to share across threads. No numpy here (a layering test
checks it): see ``io``'s import.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .errors import DataError, InvariantError

# The largest population or death count a panel row may hold. Above 2**53
# float64 no longer holds every integer, and far above it converting a count
# to float overflows; the bound is an integer comparison, so no count is
# converted to be checked.
MAX_COUNT = 2**53


# The value rules of a panel row, in order: a value lies in [low, high], or the message of the
# bound it breaks is raised. NaN fails every comparison, so [0, DBL_MAX] is "finite and >= 0";
# counts are integers, so [1, ...] is "positive". An absent se or deaths (None) is not checked.
_VALUE_RULES = (  # (column, low, message below it, high, message above it)
    ("rate", 0.0, "must be finite and >= 0", sys.float_info.max, "must be finite and >= 0"),
    ("population", 1, "must be positive", MAX_COUNT, "must be at most 2**53"),
    ("se", 0.0, "must be finite and >= 0", sys.float_info.max, "must be finite and >= 0"),
    ("deaths", 0, "must be >= 0", MAX_COUNT, "must be at most 2**53"),
)


def check_record_values(unit_id, year, rate, population, se, deaths) -> None:
    """Raise DataError, naming the first broken rule, unless one unit-year's values are in range.

    Past the unit and the year it walks ``_VALUE_RULES``, as :func:`values_in_range` does columns.
    """
    if not unit_id:
        raise DataError("unit_id must be a nonempty string")
    if not -(2**63) <= year < 2**63:
        raise DataError(f"{unit_id} {year}: year must fit in a signed 64-bit integer")
    for value, (column, low, below, high, above) in zip((rate, population, se, deaths),
                                                        _VALUE_RULES):
        if value is not None and not low <= value <= high:
            raise DataError(f"{unit_id} {year}: {column} {above if low <= value else below}")


def values_in_range(rate, population, se, deaths) -> bool:
    """Whether these numpy columns keep ``_VALUE_RULES``; a None ``se`` or ``deaths`` is absent."""
    rules = zip((rate, population, se, deaths), _VALUE_RULES)
    return all(c is None or ((low <= c) & (c <= high)).all() for c, (_, low, _, high, _) in rules)


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

    Held as columns sorted by (unit, year): the sorted units with their row
    offsets, and ``array`` columns of year, rate, population, se and deaths
    (40 bytes a row; a NaN se or a -1 deaths is absent). :meth:`row`,
    :attr:`records` and :meth:`get` build their Python values on each call
    and keep none. Build a panel from PanelRecords or, with
    :meth:`from_columns`, from checked columns.
    """

    __slots__ = ("_index", "_starts", "_year", "_rate", "_population", "_se", "_deaths")

    def __init__(self, records=()):
        keyed = sorted(((r.unit_id, r.year), i, r) for i, r in enumerate(records))
        repeats = [(i, r) for (key, i, r), (seen, _, _) in zip(keyed[1:], keyed) if key == seen]
        if repeats:  # name the first record, in input order, whose key came before
            raise DataError("duplicate record for {0.unit_id} {0.year}".format(min(repeats)[1]))
        units = [key[0] for key, _, _ in keyed]
        heads = [i for i, unit in enumerate(units) if i == 0 or unit != units[i - 1]]
        rows = [(r.year, r.rate, r.population, math.nan if r.se is None else r.se,
                 -1 if r.deaths is None else r.deaths) for _, _, r in keyed]
        self._fill([units[i] for i in heads], array("q", heads + [len(units)]),
                   *(array(kind, [row[k] for row in rows]) for k, kind in enumerate("qdqdq")))

    @classmethod
    def from_columns(cls, units, starts, year, rate, population, se, deaths) -> "PanelDataset":
        """The panel of checked columns, sorted by unique (unit, year); it keeps them.

        ``units[i]`` has rows ``starts[i]:starts[i + 1]``; ``rate`` and ``se``
        are ``array("d")``, the others ``array("q")``.
        """
        return cls.__new__(cls)._fill(units, starts, year, rate, population, se, deaths)

    def _fill(self, units, *columns) -> "PanelDataset":
        index = {unit: i for i, unit in enumerate(units)}  # units sorted: the order of the rows
        for name, value in zip(self.__slots__, (index, *columns)):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):  # pickles at every protocol; __slots__ alone does not at 0 and 1
        return (PanelDataset.from_columns, self.columns())

    def columns(self) -> tuple:
        """The arguments of :meth:`from_columns`: the panel's own arrays, to be read only."""
        return (tuple(self._index), self._starts, self._year, self._rate, self._population,
                self._se, self._deaths)

    @property
    def records(self) -> tuple:
        """Every record as a PanelRecord, units sorted and years ascending.

        The records are built on each access, so this order does not
        depend on the order of the input file or the records given.
        """
        return tuple(PanelRecord(unit, year, *values)
                     for unit in self._index for year, values in self.row(unit).items())

    @property
    def units(self) -> frozenset:
        return frozenset(self._index)

    def __len__(self) -> int:
        return len(self._year)

    def _span(self, unit_id: str) -> tuple:  # the rows (lo, hi) of one unit, (0, 0) if unknown
        i = self._index.get(unit_id)
        return (0, 0) if i is None else (self._starts[i], self._starts[i + 1])

    def row(self, unit_id: str) -> Mapping:
        """Read-only ``{year: (rate, population, se, deaths)}`` map of one unit.

        Empty for an unknown unit; built on each call, of Python floats, ints and None.
        """
        lo, hi = self._span(unit_id)
        se = [None if s != s else s for s in self._se[lo:hi].tolist()]  # NaN: absent
        deaths = [None if d < 0 else d for d in self._deaths[lo:hi].tolist()]
        values = zip(self._rate[lo:hi].tolist(), self._population[lo:hi].tolist(), se, deaths)
        return MappingProxyType(dict(zip(self._year[lo:hi].tolist(), values)))

    def get(self, unit_id: str, year: int) -> PanelRecord:
        try:
            return PanelRecord(unit_id, year, *self.row(unit_id)[year])
        except KeyError:
            raise DataError(f"no record for {unit_id} {year}") from None

    def has(self, unit_id: str, year: int) -> bool:
        lo, hi = self._span(unit_id)
        return year in self._year[lo:hi]


def canonical_edge(a: str, b: str) -> tuple:
    """The undirected edge between ``a`` and ``b`` as a sorted pair; DataError on a self-edge."""
    if a == b:
        raise DataError(f"self-edge on {a!r}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected unit adjacency; ``edges`` are pairs, canonical (sorted) when parsed.

    The ``unit -> neighbours`` lists are built from ``edges``, in either orientation, on
    construction (DataError on a self-edge); they are not a field, so equality, hashing and the
    repr depend on ``edges`` alone.
    """

    edges: frozenset

    def __post_init__(self):
        adjacent = defaultdict(list)
        for edge in self.edges:
            a, b = canonical_edge(*edge)
            adjacent[a].append(b)
            adjacent[b].append(a)
        object.__setattr__(self, "_neighbors", adjacent)

    @classmethod
    def from_pairs(cls, pairs) -> "AdjacencyGraph":
        """The graph of ``pairs``, in either orientation; DataError on a self-edge."""
        return cls(frozenset(canonical_edge(a, b) for a, b in pairs))

    def neighbors(self, unit: str) -> frozenset:
        return frozenset(self._neighbors.get(unit, ()))


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
