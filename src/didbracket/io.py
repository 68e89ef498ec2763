"""Data ingestion, configuration, and report emission.

File formats are deliberately plain: CSV for panels, adjacency, and
tables; a flat ``key = value`` config grammar; versioned JSON for machine
reports; hand-built SVG for plots. One reader opens every input file as
UTF-8 (``_input_file``). All writes are atomic (write-temp-then-rename)
and byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import errno
import io as _io
import json
import math
import os
import shutil
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from typing import Optional

from .errors import (
    ConfigError,
    DataError,
    InvalidScenarioError,
    InvariantError,
    ParseError,
    SchemaError,
)
from .estimation import poisson_rate_se
from .model import (
    AdjacencyGraph,
    BracketReport,
    PanelDataset,
    PeriodRange,
    StudyDesign,
    canonical_edge,
    check_record_values,
    values_in_range,
)
from .simulation import MIN_REPS, ConfounderSpec, DriftSpec, Scenario

import numpy as np  # after .simulation: importing it before leaves more memory resident

PANEL_REQUIRED = ("unit", "year", "rate", "population")
PANEL_OPTIONAL = ("se", "deaths")
# Each numeric panel column's numpy dtype, Python type and parse-error noun, in the order of
# the values of ``_row_entries``; the unit is text, an object column.
_PANEL_COLUMNS = {"year": ("i8", int, "an integer"), "rate": ("f8", float, "a number"),
                  "population": ("i8", int, "an integer"), "se": ("f8", float, "a number"),
                  "deaths": ("i8", int, "an integer")}
SCHEMA_VERSION = 1

BUNDLED = "bundled"  # sentinel path meaning the packaged data file


def bundled_path(name: str) -> Path:
    return Path(resources.files("didbracket").joinpath("data", name))


def resolve_data_path(value, default_name: str) -> Path:
    if value in (None, BUNDLED):
        return bundled_path(default_name)
    return Path(value)


def _conversion_error(path, line_no: int, row, idx) -> ParseError:
    """The ParseError for a row whose values do not all convert, naming the first bad column."""
    for column, (_, kind, noun) in _PANEL_COLUMNS.items():
        i = idx.get(column)
        if i is None or (column in PANEL_OPTIONAL and not row[i].strip()):
            continue
        try:
            kind(row[i])
        except ValueError:
            return ParseError(path, line_no, f"column {column!r}: not {noun}: {row[i]!r}")
    raise InvariantError(f"{path}:{line_no}: no column fails to convert")


def _csv_rows(path: Path, lines, line_no: int = 0):
    """``(line number, row)`` of each csv row in ``lines``, whose first line is ``line_no + 1``.

    The number is that of the row's last line (a quoted field may hold a
    newline). A line the csv module refuses (a field over its size limit)
    is a ParseError.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield line_no + reader.line_num, row
    except csv.Error as exc:
        raise ParseError(path, line_no + reader.line_num, str(exc)) from None


@contextmanager
def _input_file(path: Path, kind: str, missing: type, error: type):
    """The open UTF-8 text of the ``kind`` input file ``path``, a leading byte-order mark dropped.

    A path that names no regular file raises ``missing``; one the OS refuses (a name over
    NAME_MAX, a file it may not read) and text that is not UTF-8 raise ``error``.
    """
    try:
        fh = path.open(newline="", encoding="utf-8-sig") if path.is_file() else None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None
    if fh is None:
        raise missing(f"{kind} file not found: {path}")
    try:
        with fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


@contextmanager
def _csv_file(path: Path, kind: str):
    """The stripped header of a CSV input file, the open file after it, and the lines it took."""
    with _input_file(path, kind, FileNotFoundError, DataError) as fh:
        line_no, header = next(_csv_rows(path, fh), (0, None))
        if header is None:
            raise SchemaError(f"{path}: empty file, header required")
        yield [c.strip() for c in header], fh, line_no


# A panel file is read this many lines at a time by numpy's text reader. In
# one piece, the 69,000-row benchmark panel raised the process peak by 13 MB.
CHUNK_LINES = 2048
# The bytes a plain chunk may hold: tab, CR, LF and printable ASCII but the
# double quote. With no quote and no CR outside a CRLF, each line is one csv
# row. Outside these, numpy 2.4's integer reader takes some letters as digits
# (U+01FE as 462) and skips \x1c-\x1f around a number, which int() refuses.
_PLAIN_BYTES = (b"\t\n\r" + bytes(range(ord(" "), ord("~") + 1))).replace(b'"', b"")


def parse_panel_csv(path) -> PanelDataset:
    """Strict parse of a unit-year panel CSV.

    Header required; columns must be unit,year,rate,population plus
    optionally se and deaths, each once. Rows carrying deaths but no se get
    the Poisson-model se derived for them. The first malformed row or row
    out of range (``model.check_record_values``) aborts with the file line it
    ends on (a quoted field may hold a newline). A duplicate (unit, year) is
    reported once every row has parsed: the first row whose key came before.

    The file is read in chunks of ``CHUNK_LINES`` lines. A plain chunk
    (``_plain_columns``) is read column-wise by ``np.loadtxt``. From the first
    chunk that is not plain to the end of the file the csv module reads the
    rows one at a time, and only that parser raises parse errors and names
    their lines. Either route gives checked numpy columns, which one stable
    sort orders by (unit, year) into the panel's; no per-row object is kept.
    """
    path = Path(path)
    with _csv_file(path, "panel") as (cols, lines, line_no):
        missing = [c for c in PANEL_REQUIRED if c not in cols]
        unknown = [c for c in cols if c not in PANEL_REQUIRED + PANEL_OPTIONAL]
        if missing or unknown:
            raise SchemaError(
                f"{path}: header must contain {PANEL_REQUIRED} and only "
                f"optional {PANEL_OPTIONAL}; missing={missing} unknown={unknown}"
            )
        repeated = [c for i, c in enumerate(cols) if c in cols[:i]]
        if repeated:
            raise SchemaError(f"{path}: header names column {repeated[0]!r} more than once")
        codes = {}  # unit -> its number, in order of first appearance
        chunks = []
        for names, lengths, *columns in _panel_chunks(path, cols, lines, line_no):
            code = np.array([codes.setdefault(name, len(codes)) for name in names], np.int64)
            chunks.append((np.repeat(code, lengths), *columns))
    units = sorted(codes)
    if not units:
        return PanelDataset()
    unit, year, *values = map(np.concatenate, zip(*chunks))
    unit = np.argsort([codes[u] for u in units])[unit]  # the rank of each row's unit
    order = np.lexsort((year, unit))
    repeats = order[1:][(np.diff(unit[order]) == 0) & (np.diff(year[order]) == 0)]
    if len(repeats):
        first = repeats.min()
        raise DataError(f"{path}: duplicate record for {units[unit[first]]} {year[first]}")
    columns = (np.searchsorted(unit[order], np.arange(len(units) + 1)), year[order],
               *(column[order] for column in values))
    return PanelDataset.from_columns(units, *map(array, "qqdqdq", (c.tobytes() for c in columns)))


def _panel_chunks(path: Path, cols: list, lines, line_no: int):
    """The columns of ``lines``, whose first is line ``line_no + 1``, one tuple a chunk.

    Each is ``(names, lengths, year, rate, population, se, deaths)``: the
    units as runs (``names[i]`` ``lengths[i]`` times), then int64 and float64
    arrays, a NaN se or a -1 deaths where absent.
    """
    dtype = np.dtype([(c, object if c == "unit" else _PANEL_COLUMNS[c][0]) for c in cols])
    while chunk := list(islice(lines, CHUNK_LINES)):
        columns = _plain_columns(chunk, dtype)
        if columns is None:
            rows = list(_row_entries(path, cols, _csv_rows(path, chain(chunk, lines), line_no)))
            names, *values = zip(*rows) if rows else [()] * 6
            yield names, 1, *map(np.array, values, (k for k, _, _ in _PANEL_COLUMNS.values()))
            return
        yield columns
        line_no += len(chunk)


def _plain_columns(chunk: list, dtype):
    """The columns of a plain chunk of panel lines, read by numpy; None if it is not plain.

    A chunk is plain when it holds only ``_PLAIN_BYTES``, a carriage return
    only before a newline, no empty line and no line over the csv field size
    limit, and numpy takes every value and every value is in range
    (``model.values_in_range``) with a nonempty unit. numpy then reads each
    number as int() or float() would, and splits each line where csv would.
    """
    text = "".join(chunk)
    lf = text.replace("\r\n", "\n")
    if (not text.isascii() or text.encode("ascii").translate(None, _PLAIN_BYTES)
            or "\r" in lf or lf.startswith("\n") or "\n\n" in lf
            or max(map(len, chunk)) > csv.field_size_limit()):
        return None
    try:
        table = np.loadtxt(chunk, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                           ndmin=1)
    except ValueError:
        return None
    raw = table["unit"]
    heads = np.flatnonzero(np.concatenate([[True], raw[1:] != raw[:-1]]))
    names = [unit.strip() for unit in raw[heads].tolist()]
    column = {c: table[c].copy() for c in dtype.names if c != "unit"}
    se, deaths = column.get("se"), column.get("deaths")
    if not all(names) or not values_in_range(column["rate"], column["population"], se, deaths):
        return None
    if se is None and deaths is not None:  # the counts are in range, so each derived se is too
        se = np.array(list(map(poisson_rate_se, deaths.tolist(), column["population"].tolist())))
    return (names, np.diff(heads, append=len(raw)), column["year"], column["rate"],
            column["population"], np.full(len(raw), math.nan) if se is None else se,
            np.full(len(raw), -1) if deaths is None else deaths)


def _row_entries(path: Path, cols: list, rows):
    """The entries of ``rows``, ``(line number, row)`` pairs, parsed and checked one row at a time.

    Each is ``(unit, year, rate, population, se, deaths)``. A blank row is
    skipped; a blank se is None (NaN in its float64 column), a blank deaths -1.
    """
    idx = {c: i for i, c in enumerate(cols)}
    width = len(cols)
    i_unit, i_year, i_rate, i_pop = (idx[c] for c in PANEL_REQUIRED)
    i_se, i_deaths = idx.get("se"), idx.get("deaths")
    for line_no, row in rows:
        if len(row) != width:
            if not row or all(not cell.strip() for cell in row):
                continue
            raise ParseError(path, line_no, f"expected {width} fields, got {len(row)}")
        unit = row[i_unit].strip()
        if not unit and all(not cell.strip() for cell in row):
            continue
        try:
            year = int(row[i_year])
            rate = float(row[i_rate])
            population = int(row[i_pop])
            se = row[i_se] if i_se is not None else ""
            se = float(se) if se.strip() else None
            deaths = row[i_deaths] if i_deaths is not None else ""
            deaths = int(deaths) if deaths.strip() else None
        except ValueError:
            raise _conversion_error(path, line_no, row, idx) from None
        try:
            if se is None and deaths is not None:
                se = poisson_rate_se(deaths, population)
            check_record_values(unit, year, rate, population, se, deaths)
        except DataError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        yield unit, year, rate, population, se, -1 if deaths is None else deaths


def parse_adjacency_csv(path) -> AdjacencyGraph:
    """Parse the two-column undirected edge list (header unit_a,unit_b)."""
    path = Path(path)
    with _csv_file(path, "adjacency") as (cols, lines, line_no):
        if cols != ["unit_a", "unit_b"]:
            raise SchemaError(f"{path}: header must be exactly unit_a,unit_b")
        edges = set()
        for line_no, row in _csv_rows(path, lines, line_no):
            fields = [cell.strip() for cell in row]
            if not any(fields):
                continue
            if len(fields) != 2 or not all(fields):
                raise ParseError(path, line_no, "expected two nonempty fields")
            try:
                edges.add(canonical_edge(*fields))
            except DataError as exc:  # a self-edge
                raise ParseError(path, line_no, str(exc)) from None
    return AdjacencyGraph(frozenset(edges))


# --- configuration -----------------------------------------------------------

_CHOICES = {"format": ("json", "csv"), "mode": tuple(MIN_REPS)}


@dataclass
class AnalysisConfig:
    """Flat configuration; flags override file values, file overrides defaults."""

    panel: str = BUNDLED
    adjacency: str = BUNDLED
    treated: Optional[str] = None
    candidates: tuple = ()          # unit ids, or ("neighbors",)
    lower_controls: tuple = ()
    upper_controls: tuple = ()
    prestudy: Optional[PeriodRange] = None
    before: Optional[PeriodRange] = None
    after: Optional[PeriodRange] = None
    alpha: float = 0.05
    split_year: Optional[int] = None
    exclusions: tuple = ()
    format: str = "json"
    emit_plots: bool = False
    out_dir: str = "out"
    seed: int = 0
    reps: int = 1000
    scenario: str = "linear_interaction"
    mode: str = "bracket"
    tau: float = 0.35
    bin_width: float = 0.25
    rank_unit: Optional[str] = None

    def require(self, *keys) -> None:
        """Raise ConfigError for the first of ``keys`` that has no value."""
        for key in keys:
            if getattr(self, key) in (None, ""):
                raise ConfigError(f"missing required config key {key!r}")


def parse_period(text: str) -> PeriodRange:
    """Parse 'START-END' or a single year."""
    text = text.strip()
    try:
        if "-" in text[1:]:
            start, _, end = text.partition("-")
            return PeriodRange(int(start), int(end))
        return PeriodRange(int(text), int(text))
    except (ValueError, DataError) as exc:
        raise ConfigError(f"bad period {text!r}: {exc}") from None


# A key's reader by its field's annotation string. A reader raises ValueError
# for text of the wrong type; the bool reader's lookup raises KeyError.
_READERS = {
    "str": str, "Optional[str]": str, "int": int, "Optional[int]": int, "float": float,
    "bool": {"true": True, "false": False}.__getitem__,
    "tuple": lambda text: tuple(part.strip() for part in text.split(",") if part.strip()),
    "Optional[PeriodRange]": parse_period,
}
_CONFIG_READERS = {f.name: _READERS[f.type] for f in dataclasses.fields(AnalysisConfig)}
CONFIG_KEYS = frozenset(_CONFIG_READERS)


def _read(key: str, reader, text):
    """``text`` read by ``reader``; a ConfigError naming ``key`` if it does not parse."""
    try:
        if not isinstance(text, str):  # argparse gives [] for "--flag=--"
            raise ValueError
        return reader(text)
    except ValueError:
        raise ConfigError(f"{key}: bad value {text!r}") from None
    except KeyError:
        raise ConfigError(f"{key}: expected true/false, got {text!r}") from None


def parse_config_text(text: str, origin: str = "<config>", allowed=CONFIG_KEYS) -> dict:
    """Parse the flat config grammar.

    One ``key = value`` per line; blank lines and lines starting with '#'
    ignored; list values comma-separated; booleans true/false; periods as
    START-END year ranges. Unknown keys are errors.
    """
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise ConfigError(f"{origin}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{line_no}: duplicate key {key!r}")
        values[key] = value
    return values


def config_from_values(values: dict) -> AnalysisConfig:
    """Type and check raw string values; the one place configuration is validated."""
    cfg = AnalysisConfig()
    for key, text in values.items():
        value = _read(key, _CONFIG_READERS[key], text)
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")
        setattr(cfg, key, value)
    if not 0.0 < cfg.alpha < 1.0:  # also rejects nan
        raise ConfigError(f"alpha must be finite and in (0, 1), got {cfg.alpha}")
    if not (math.isfinite(cfg.bin_width) and cfg.bin_width > 0):
        raise ConfigError(f"bin_width must be finite and positive, got {cfg.bin_width}")
    periods = [(key, getattr(cfg, key)) for key in ("prestudy", "before", "after")]
    periods = [(key, period) for key, period in periods if period is not None]
    for (key_a, a), (key_b, b) in zip(periods, periods[1:]):
        if a.end_year >= b.start_year:
            raise ConfigError(
                f"periods must be ordered prestudy < before < after: "
                f"{key_a} {a} does not precede {key_b} {b}"
            )
    if bool(cfg.lower_controls) != bool(cfg.upper_controls):
        raise ConfigError("lower_controls and upper_controls must be given together")
    return cfg


def _read_config_file(path, kind: str, allowed=CONFIG_KEYS) -> dict:
    """:func:`parse_config_text` of a config or scenario file; ConfigError if it cannot be read."""
    path = Path(path)
    with _input_file(path, kind, ConfigError, ConfigError) as fh:
        return parse_config_text(fh.read(), str(path), allowed)


def load_config(path=None, overrides=None) -> AnalysisConfig:
    """The config file's values (if any) with ``overrides`` on top, then typed once."""
    values = {} if path is None else _read_config_file(path, "config")
    values.update(overrides or {})
    return config_from_values(values)


# --- scenario files -----------------------------------------------------------

# The spec a Scenario field holds, by annotation; its keys are ``{field}_{spec field}``.
_SPECS = {"ConfounderSpec": ConfounderSpec, "Optional[DriftSpec]": DriftSpec}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _scenario_grammar() -> dict:
    """``{file key: (spec field or None, field, reader)}``; ``tau_shift`` is ``tau``'s key."""
    readers = {**_READERS, "float": _finite}
    grammar = {}
    for f in dataclasses.fields(Scenario):
        if f.type in _SPECS:
            for g in dataclasses.fields(_SPECS[f.type]):
                grammar[f"{f.name}_{g.name}"] = (f, g, readers[g.type])
        else:
            grammar["tau_shift" if f.name == "tau" else f.name] = (None, f, readers[f.type])
    return grammar


_SCENARIO_GRAMMAR = _scenario_grammar()
SCENARIO_KEYS = frozenset(_SCENARIO_GRAMMAR)


def scenario_from_values(values: dict) -> Scenario:
    """Build a simulation scenario from flat key = value pairs.

    A key left out takes its field's default; one whose field has none is
    required, in a spec only once the spec is built (see ``kwargs``).
    """
    unknown = set(values) - SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    # Scenario's keyword arguments under None, and those of each spec built:
    # one whose field has no default or any of whose keys is given.
    kwargs = {spec: {} for key, (spec, _, _) in _SCENARIO_GRAMMAR.items()
              if spec is None or key in values or spec.default is dataclasses.MISSING}
    missing = sorted(key for key, (spec, f, _) in _SCENARIO_GRAMMAR.items()
                     if spec in kwargs and key not in values and f.default is dataclasses.MISSING)
    if missing:
        raise ConfigError(f"missing scenario keys: {missing}")
    for key, text in values.items():
        spec, f, reader = _SCENARIO_GRAMMAR[key]
        kwargs[spec][f.name] = _read(key, reader, text)
    scenario = kwargs.pop(None)
    try:
        scenario.update((spec.name, _SPECS[spec.type](**kw)) for spec, kw in kwargs.items())
        return Scenario(**scenario)
    except InvalidScenarioError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from None


def load_scenario(path):
    return scenario_from_values(_read_config_file(path, "scenario", SCENARIO_KEYS))


# --- emission ----------------------------------------------------------------


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # open "x", not mkstemp: the file gets 0o666 less the umask, as a plain write would.
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_out_dir(out_dir) -> None:
    """Raise ConfigError unless ``out_dir``, or its nearest existing parent, is a directory.

    A name the OS refuses (over NAME_MAX), in ``out_dir`` or in a directory still to be made
    under that parent, raises ConfigError too.
    """
    out_dir = Path(out_dir)
    try:
        names = []  # the byte lengths of the directories still to be made
        for path in (out_dir, *out_dir.parents):
            if path.exists():
                break
            names.append(len(os.fsencode(path.name)))
        else:
            return
        if not path.is_dir():
            raise ConfigError(f"out_dir {str(out_dir)!r}: {str(path)!r} is not a directory")
        if max(names, default=0) > os.pathconf(path, "PC_NAME_MAX"):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG))
    except OSError as exc:  # exists() raises for a name over NAME_MAX under an existing directory
        raise ConfigError(f"out_dir {str(out_dir)!r}: {exc.strerror}") from None


def write_files(out_dir, files: dict) -> None:
    """Write ``{name: text}`` into ``out_dir``, all of the files or none of them.

    The files are staged (each with :func:`atomic_write_text`) in a
    temporary directory. A new ``out_dir`` is staged beside the outermost
    directory the call creates, and that is renamed into place in one
    step. An existing ``out_dir`` is staged in a hidden subdirectory of its
    own, so the call needs no more than write access to ``out_dir`` and
    never moves a file across filesystems; the staged files are moved one
    by one with ``os.replace``. A failed write removes the staging
    directory, so it leaves no partial output directory and no temporary
    file behind.
    """
    out_dir = Path(out_dir)
    exists = out_dir.exists()
    top = out_dir  # the outermost directory this call creates, if any
    while not top.parent.exists():
        top = top.parent
    # mkdir, not mkdtemp: the renamed directory keeps the umask's permissions.
    tag = os.urandom(6).hex()
    stage = out_dir / f".stage-{tag}" if exists else top.parent / f".{top.name}.{tag}.tmp"
    stage.mkdir()
    try:
        if exists:
            for name, text in files.items():
                atomic_write_text(stage / name, text)
            for name in files:
                os.replace(stage / name, out_dir / name)
            stage.rmdir()
        else:
            target = stage / out_dir.relative_to(top)
            for name, text in files.items():
                atomic_write_text(target / name, text)
            os.rename(stage, top)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


def format_number(x: float) -> str:
    """Stable decimal rendering for CSV tables (6 decimals, no exponent)."""
    if not math.isfinite(x):
        raise InvariantError(f"refusing to serialize non-finite value {x!r}")
    text = f"{x:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def fields_of(obj, names=None) -> dict:
    """``{name: value}`` of a dataclass's fields, or of the ``names`` picked from them."""
    if names is None:
        names = [f.name for f in dataclasses.fields(obj)]
    return {name: getattr(obj, name) for name in names}


def _plain(obj, path: str):
    """``obj`` as JSON data: the one place the report format is defined.

    A dataclass becomes its fields, a PeriodRange its ``START-END`` text, a
    set a sorted list and a tuple a list. A non-finite float is refused
    with its path, e.g. ``report.lower_ctrl.ci.lower``.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvariantError(f"non-finite number {obj!r} at {path}")
        return obj
    if isinstance(obj, PeriodRange):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        obj = fields_of(obj)
    if isinstance(obj, dict):
        return {key: _plain(value, f"{path}.{key}") for key, value in obj.items()}
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(value, f"{path}[{i}]") for i, value in enumerate(obj)]
    return obj


def report_data(payload: dict) -> dict:
    """A report as plain JSON data, stamped with the schema version."""
    return _plain({**payload, "schema_version": SCHEMA_VERSION}, "report")


def to_json(payload: dict) -> str:
    return json.dumps(report_data(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


# The pooled all-controls estimate is informational only.
ALL_CTRL_NOTE = "assumes parallel trends"


def bracket_report_dict(report: BracketReport, design: StudyDesign) -> dict:
    """The ``bracket_report.json`` payload; the keys are renamed for the reader."""
    ordering = report.ordering
    payload = {
        "alpha": report.alpha,
        "design": design,
        "lower_ctrl": report.est_lower_ctrl,
        "upper_ctrl": report.est_upper_ctrl,
        "all_controls": {**fields_of(report.est_all_ctrl), "note": ALL_CTRL_NOTE},
        "bracket": report.bracket,
        "minmax_ci": report.minmax_ci,
        "ordering": {
            "period": ordering.period,
            "upper_minus_treated": ordering.diff_uc_minus_t,
            "treated_minus_lower": ordering.diff_t_minus_lc,
            "flags": ordering.flags,
        },
    }
    if report.diagnostics is not None:
        payload["diagnostics"] = report.diagnostics
    return payload


def round_half_up(x: float, digits: int = 0) -> float:
    """Display rounding: half away from zero, matching published tables.

    A finite ``x`` too large to scale has no digits left to round and is kept.
    """
    scale = 10.0**digits
    scaled = abs(x) * scale
    if scaled == math.inf:
        return x
    return math.copysign(math.floor(scaled + 0.5) / scale, x)


def display_rate(x: float) -> str:
    return f"{round_half_up(x, 1):.1f}"


def display_pct(x: float) -> str:
    return f"{round_half_up(x, 0):.0f}%"


def summary_text(report: BracketReport, design: StudyDesign) -> str:
    """Human-readable summary; display rounding only, computation untouched."""
    lines = [
        f"Bracketing analysis: treated={design.treated}",
        f"  periods: prestudy {design.prestudy}, before {design.before}, after {design.after}",
        f"  lower controls: {', '.join(sorted(design.lower_controls))}",
        f"  upper controls: {', '.join(sorted(design.upper_controls))}",
        "",
        "Control group   Estimate  CI                Pct    Pct CI",
    ]

    def row(label, est):
        ci = f"[{display_rate(est.ci.lower)}, {display_rate(est.ci.upper)}]"
        pci = f"[{display_pct(est.pct_ci.lower)}, {display_pct(est.pct_ci.upper)}]"
        return (
            f"{label:<15} {display_rate(est.point):>8}  {ci:<17} "
            f"{display_pct(est.pct_point):>5}  {pci}"
        )

    lines.append(row("All controls", report.est_all_ctrl) + f"   ({ALL_CTRL_NOTE})")
    lines.append(row("Upper controls", report.est_upper_ctrl))
    lines.append(row("Lower controls", report.est_lower_ctrl))
    lines += [
        "",
        f"bracket: [{display_rate(report.bracket[0])}, {display_rate(report.bracket[1])}]",
        f"min-max {100 * (1 - report.alpha):.0f}% CI: "
        f"[{display_rate(report.minmax_ci.lower)}, {display_rate(report.minmax_ci.upper)}]",
        "ordering check (before period): "
        f"upper-treated {display_rate(report.ordering.diff_uc_minus_t.point)}, "
        f"treated-lower {display_rate(report.ordering.diff_t_minus_lc.point)}",
    ]
    if report.ordering.flags:
        lines.append("  flags: " + ", ".join(report.ordering.flags))
    if report.diagnostics:
        for diag in report.diagnostics:
            lines.append(
                f"pattern {diag.pattern}: iu p-value {diag.iu_pvalue:.3f} "
                f"(components {diag.p_a:.3f}, {diag.p_b:.3f}) -> "
                + ("evidence of violation" if diag.evidence else "no evidence")
            )
    return "\n".join(lines) + "\n"


def rows_to_csv(header, rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_number(v) if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()


# --- SVG ---------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 640, 400, 48
_SERIES_COLORS = {"treated": "#000000", "lower": "#c0392b", "upper": "#2c5aa0"}


def _scale(vmin, vmax, size, pad):
    span = (vmax - vmin) or 1.0
    return lambda v: pad + (v - vmin) / span * (size - 2 * pad)


def _svg_document(elements) -> str:
    """An SVG file: the head, a white background, ``elements`` one a line, the close.

    With no elements it is the empty document, head and close on one line.
    """
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">'
    if not elements:
        return f"{head}</svg>\n"
    background = f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>'
    return "\n".join([head, background, *elements, "</svg>"]) + "\n"


def line_chart_svg(rows) -> str:
    """Static line chart with CI bars from relative-trends rows."""
    xs = [r.year for r in rows]
    los = [r.ci_lower for r in rows]
    his = [r.ci_upper for r in rows]
    sx = _scale(min(xs), max(xs), _SVG_W, _SVG_PAD)
    sy_raw = _scale(min(los), max(his), _SVG_H, _SVG_PAD)
    sy = lambda v: _SVG_H - sy_raw(v)  # noqa: E731  (flip: SVG y grows downward)
    parts = []
    groups = sorted({r.group for r in rows})
    for group in groups:
        color = _SERIES_COLORS.get(group, "#555555")
        series = [r for r in rows if r.group == group]
        points = " ".join(f"{sx(r.year):.2f},{sy(r.mean):.2f}" for r in series)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'stroke-dasharray="4 3" points="{points}"/>'
        )
        for r in series:
            x = sx(r.year)
            parts.append(
                f'<line x1="{x:.2f}" y1="{sy(r.ci_lower):.2f}" '
                f'x2="{x:.2f}" y2="{sy(r.ci_upper):.2f}" stroke="{color}" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{_SVG_W - _SVG_PAD + 4}" y="{sy(series[-1].mean):.2f}" '
            f'fill="{color}" font-size="12">{group}</text>'
        )
    return _svg_document(parts)


def histogram_svg(bins, marker: Optional[float] = None) -> str:
    """Static histogram; optional dashed vertical marker (e.g. the treated unit)."""
    if not bins:
        return _svg_document(())
    vmin = min(b.lower for b in bins)
    vmax = max(b.upper for b in bins)
    cmax = max(b.count for b in bins)
    sx = _scale(vmin, vmax, _SVG_W, _SVG_PAD)
    sy = _scale(0, cmax, _SVG_H, _SVG_PAD)
    parts = []
    for b in bins:
        x0, x1 = sx(b.lower), sx(b.upper)
        height = sy(b.count) - sy(0)
        y = _SVG_H - _SVG_PAD - height
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" height="{height:.2f}" '
            'fill="#9bb7d4" stroke="#2c5aa0"/>'
        )
    if marker is not None and vmin <= marker <= vmax:
        x = sx(marker)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_SVG_PAD}" x2="{x:.2f}" y2="{_SVG_H - _SVG_PAD}" '
            'stroke="black" stroke-dasharray="6 4"/>'
        )
    return _svg_document(parts)
