"""Data ingestion, configuration, and report emission.

File formats are deliberately plain: CSV for panels, adjacency, and
tables; a flat ``key = value`` config grammar; versioned JSON for machine
reports; hand-built SVG for plots. All writes are atomic
(write-temp-then-rename) and byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import io as _io
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
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
    check_record_values,
)
from .simulation import ConfounderSpec, DriftSpec, Scenario

PANEL_REQUIRED = ("unit", "year", "rate", "population")
PANEL_OPTIONAL = ("se", "deaths")
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
    for column, kind, noun in (("year", int, "an integer"), ("rate", float, "a number"),
                               ("population", int, "an integer"), ("se", float, "a number"),
                               ("deaths", int, "an integer")):
        i = idx.get(column)
        if i is None or (column in PANEL_OPTIONAL and not row[i].strip()):
            continue
        try:
            kind(row[i])
        except ValueError:
            return ParseError(path, line_no, f"column {column!r}: not {noun}: {row[i]!r}")
    raise InvariantError(f"{path}:{line_no}: no column fails to convert")


@contextmanager
def _csv_file(path: Path, kind: str):
    """The stripped header and a reader over the rest of a UTF-8 CSV file.

    A line the csv module refuses (a field over its size limit) is a ParseError.
    """
    if not path.is_file():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, header required") from None
            yield [c.strip() for c in header], reader
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, str(exc)) from None


def parse_panel_csv(path) -> PanelDataset:
    """Strict parse of a unit-year panel CSV.

    Header required; columns must be unit,year,rate,population plus
    optionally se and deaths. Rows carrying deaths but no se get the
    Poisson-model se derived for them. Any malformed row aborts with the
    file line it ends on (a quoted field may hold a newline); the value
    ranges are ``model.check_record_values``. A
    duplicate (unit, year) is reported once every row has parsed, so a
    later malformed row is reported first.

    The rows go straight into the panel as ``(rate, population, se,
    deaths)`` tuples; no PanelRecord is built.
    """
    path = Path(path)
    with _csv_file(path, "panel") as (cols, reader):
        missing = [c for c in PANEL_REQUIRED if c not in cols]
        unknown = [c for c in cols if c not in PANEL_REQUIRED + PANEL_OPTIONAL]
        if missing or unknown:
            raise SchemaError(
                f"{path}: header must contain {PANEL_REQUIRED} and only "
                f"optional {PANEL_OPTIONAL}; missing={missing} unknown={unknown}"
            )
        idx = {c: i for i, c in enumerate(cols)}
        width = len(cols)
        i_unit, i_year, i_rate, i_pop = (idx[c] for c in PANEL_REQUIRED)
        i_se, i_deaths = idx.get("se"), idx.get("deaths")
        rows = {}
        duplicate = None
        for row in reader:
            if len(row) != width:
                if not row or all(not cell.strip() for cell in row):
                    continue
                raise ParseError(path, reader.line_num, f"expected {width} fields, got {len(row)}")
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
                raise _conversion_error(path, reader.line_num, row, idx) from None
            try:
                if se is None and deaths is not None:
                    se = poisson_rate_se(deaths, population)
                check_record_values(unit, year, rate, population, se, deaths)
            except DataError as exc:
                raise ParseError(path, reader.line_num, str(exc)) from None
            unit_row = rows.get(unit)
            if unit_row is None:
                unit_row = rows[unit] = {}
            elif year in unit_row and duplicate is None:
                duplicate = (unit, year)
            unit_row[year] = (rate, population, se, deaths)
    if duplicate is not None:
        raise DataError(f"{path}: duplicate record for {duplicate[0]} {duplicate[1]}")
    return PanelDataset(rows=rows)


def parse_adjacency_csv(path) -> AdjacencyGraph:
    """Parse the two-column undirected edge list (header unit_a,unit_b)."""
    path = Path(path)
    with _csv_file(path, "adjacency") as (cols, reader):
        if cols != ["unit_a", "unit_b"]:
            raise SchemaError(f"{path}: header must be exactly unit_a,unit_b")

        def pairs():
            for row in reader:
                fields = [cell.strip() for cell in row]
                if not any(fields):
                    continue
                if len(fields) != 2 or not all(fields):
                    raise ParseError(path, reader.line_num, "expected two nonempty fields")
                yield fields

        try:
            return AdjacencyGraph.from_pairs(pairs())
        except ParseError:
            raise
        except DataError as exc:  # a self-edge, on the row just read
            raise ParseError(path, reader.line_num, str(exc)) from None


# --- configuration -----------------------------------------------------------

_CHOICES = {"format": ("json", "csv"), "mode": ("bracket", "coverage", "synthetic_control")}


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


CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(AnalysisConfig))


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


def parse_config_text(text: str, origin: str = "<config>", allowed=None) -> dict:
    """Parse the flat config grammar.

    One ``key = value`` per line; blank lines and lines starting with '#'
    ignored; list values comma-separated; booleans true/false; periods as
    START-END year ranges. Unknown keys are errors.
    """
    if allowed is None:
        allowed = CONFIG_KEYS
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


def _as_bool(value: str, key: str) -> bool:
    if value in ("true", "false"):
        return value == "true"
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _as_list(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def config_from_values(values: dict) -> AnalysisConfig:
    """Type and check raw string values; the one place configuration is validated."""
    cfg = AnalysisConfig()
    for key, value in values.items():
        try:
            if not isinstance(value, str):  # argparse gives [] for "--flag=--"
                raise ValueError
            if key in ("prestudy", "before", "after"):
                value = parse_period(value)
            elif key in ("candidates", "lower_controls", "upper_controls", "exclusions"):
                value = _as_list(value)
            elif key in ("alpha", "tau", "bin_width"):
                value = float(value)
            elif key in ("split_year", "seed", "reps"):
                value = int(value)
            elif key == "emit_plots":
                value = _as_bool(value, key)
            elif key in _CHOICES and value not in _CHOICES[key]:
                raise ConfigError(
                    f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}"
                )
        except ValueError:
            raise ConfigError(f"{key}: bad value {value!r}") from None
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


def _read_config_file(path, kind: str, allowed=None) -> dict:
    """:func:`parse_config_text` of a file; ConfigError unless it is a UTF-8 regular file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config_text(text, str(path), allowed)


def load_config(path=None, overrides=None) -> AnalysisConfig:
    """The config file's values (if any) with ``overrides`` on top, then typed once."""
    values = {} if path is None else _read_config_file(path, "config")
    values.update(overrides or {})
    return config_from_values(values)


# --- scenario files -----------------------------------------------------------

SCENARIO_KEYS = {
    "effect", "confounder_kind", "confounder_lc", "confounder_t", "confounder_uc",
    "confounder_sd", "time_effect", "tau_shift", "gamma", "noise_sd", "n_per_cell",
    "drift_lc", "drift_t", "drift_uc", "drift_sd",
}


def scenario_from_values(values: dict):
    """Build a simulation scenario from flat key = value pairs.

    Required: effect, confounder_kind, confounder_lc/t/uc, time_effect.
    Optional: confounder_sd, tau_shift, gamma, noise_sd, n_per_cell, and the
    drift_* block (all four drift keys together).
    """
    unknown = set(values) - SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    required = {"effect", "confounder_kind", "confounder_lc", "confounder_t",
                "confounder_uc", "time_effect"}
    missing = required - set(values)
    if missing:
        raise ConfigError(f"missing scenario keys: {sorted(missing)}")

    def num(key, kind=float):
        try:
            value = kind(values[key])
        except ValueError:
            raise ConfigError(f"{key}: bad number {values[key]!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {values[key]!r}")
        return value

    def spec(prefix):
        fields = ("lc", "t", "uc", "sd")
        return {f: num(prefix + f) for f in fields if prefix + f in values}

    drift_keys = {k for k in values if k.startswith("drift_")}
    if drift_keys and drift_keys != {"drift_lc", "drift_t", "drift_uc", "drift_sd"}:
        raise ConfigError("drift requires all of drift_lc, drift_t, drift_uc, drift_sd")
    drift = DriftSpec(**spec("drift_")) if drift_keys else None
    # Keys the file leaves out take the dataclasses' own defaults.
    optional = {"tau_shift": ("tau", float), "gamma": ("gamma", float),
                "noise_sd": ("noise_sd", float), "n_per_cell": ("n_per_cell", int)}
    try:
        return Scenario(
            effect=num("effect"),
            confounder=ConfounderSpec(kind=values["confounder_kind"], **spec("confounder_")),
            time_effect=values["time_effect"],
            drift=drift,
            **{f: num(key, kind) for key, (f, kind) in optional.items() if key in values},
        )
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
    """Raise ConfigError unless ``out_dir``, or its nearest existing parent, is a directory."""
    out_dir = Path(out_dir)
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"out_dir {str(out_dir)!r}: {str(path)!r} is not a directory")
            return


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
