"""parse_panel_csv against the record-building parser it replaced.

The oracle below is that parser, kept as it was but for one change: a row
with deaths and no se gets its Poisson se derived after its range checks,
not before, so an out-of-range count is named as any other rule is. It
builds one PanelRecord per row (whose construction runs the range checks)
and a PanelDataset from the records. The tuple-row parser must give an
equal panel, or the same error: class, message and line number.
"""

import csv
import dataclasses
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from didbracket.errors import DataError, ParseError, SchemaError
from didbracket.estimation import poisson_rate_se
from didbracket.io import PANEL_OPTIONAL, PANEL_REQUIRED, parse_panel_csv
from didbracket.model import PanelDataset, PanelRecord


def _parse_float(text, path, line_no, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line_no, f"column {column!r}: not a number: {text!r}") from None
    return value


def _parse_int(text, path, line_no, column):
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line_no, f"column {column!r}: not an integer: {text!r}") from None


def oracle_parse_panel_csv(path):
    """The record-building parser: (panel, the PanelRecords it built, in file order)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"panel file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header required") from None
        cols = [c.strip() for c in header]
        missing = [c for c in PANEL_REQUIRED if c not in cols]
        unknown = [c for c in cols if c not in PANEL_REQUIRED + PANEL_OPTIONAL]
        if missing or unknown:
            raise SchemaError(
                f"{path}: header must contain {PANEL_REQUIRED} and only "
                f"optional {PANEL_OPTIONAL}; missing={missing} unknown={unknown}"
            )
        idx = {c: i for i, c in enumerate(cols)}
        records = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(cols):
                raise ParseError(path, line_no, f"expected {len(cols)} fields, got {len(row)}")
            year = _parse_int(row[idx["year"]], path, line_no, "year")
            rate = _parse_float(row[idx["rate"]], path, line_no, "rate")
            population = _parse_int(row[idx["population"]], path, line_no, "population")
            se = None
            if "se" in idx and row[idx["se"]].strip():
                se = _parse_float(row[idx["se"]], path, line_no, "se")
            deaths = None
            if "deaths" in idx and row[idx["deaths"]].strip():
                deaths = _parse_int(row[idx["deaths"]], path, line_no, "deaths")
            try:
                record = PanelRecord(
                    unit_id=row[idx["unit"]].strip(), year=year, rate=rate,
                    population=population, se=se, deaths=deaths,
                )
            except DataError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if se is None and deaths is not None:  # derived once the row's values are in range
                record = dataclasses.replace(record, se=poisson_rate_se(deaths, population))
            records.append(record)
    try:
        return PanelDataset(records), records
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


UNITS = ("a", "b", " c ", "")
YEARS = tuple(range(1999, 2005))


def new_parse(path):
    panel = parse_panel_csv(path)
    return panel, panel.records


def _outcome(parse, path):
    """What a parse gives, in comparable form: the panel's every lookup, or the error.

    The records are compared units sorted, then years ascending: the order
    PanelDataset.records documents, whatever the file order.
    """
    try:
        panel, records = parse(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    records = tuple(sorted(records, key=lambda r: (r.unit_id, r.year)))
    lookups = {}
    for unit in UNITS + ("c", "zz"):
        for year in YEARS + (1998,):
            has = panel.has(unit, year)
            lookups[(unit, year)] = (has, panel.get(unit, year) if has else None)
    return ("panel", records, panel.units, len(panel), lookups)


# Cell texts for each column: valid ones, blanks, and malformed ones.
_INT_TEXT = st.sampled_from(["1999", "2000", " 2001", "2001 ", "", " ", "x", "1.5", "-3",
                             "0", "1_000"])
_FLOAT_TEXT = st.sampled_from(["4.7", "0", "0.0", "12.25", "", " ", "nan", "inf", "-inf",
                               "-0.1", "1e3", "abc", " 3.5 "])
_POP_TEXT = st.sampled_from(["2900000", "100", "1", "0", "-5", "", "3.5", "x"])
_DEATHS_TEXT = st.sampled_from(["", "", "30", "0", "-3", "2.5", "y"])
_UNIT_TEXT = st.sampled_from(UNITS)
_COLUMN_TEXT = {"unit": _UNIT_TEXT, "year": _INT_TEXT, "rate": _FLOAT_TEXT,
                "population": _POP_TEXT, "se": _FLOAT_TEXT, "deaths": _DEATHS_TEXT}


@st.composite
def _valid_row(draw, cols):
    values = {
        "unit": draw(st.sampled_from(UNITS[:3])),
        "year": str(draw(st.sampled_from(YEARS))),
        "rate": repr(draw(st.floats(0.0, 50.0))),
        "population": str(draw(st.integers(1, 5_000_000))),
        "se": draw(st.sampled_from(["", " ", "0.25", "1.5"])),
        "deaths": draw(st.sampled_from(["", " ", "12", "400"])),
    }
    return [values[c] for c in cols]


@st.composite
def panel_files(draw):
    optional = draw(st.lists(st.sampled_from(PANEL_OPTIONAL), unique=True))
    cols = draw(st.permutations(list(PANEL_REQUIRED) + optional))
    header = [f" {c}" if draw(st.booleans()) else c for c in cols]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "cells", "blank",
                                     "all_blank", "short"]))
        if kind == "valid":
            row = draw(_valid_row(cols))
        elif kind == "cells":
            row = [draw(_COLUMN_TEXT[c]) for c in cols]
        elif kind == "blank":
            lines.append("")
            continue
        elif kind == "all_blank":
            row = [draw(st.sampled_from(["", " "])) for _ in range(draw(st.integers(1, 8)))]
        else:
            row = ["a", "1999"][: draw(st.integers(1, 2))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=panel_files())
def test_parser_matches_the_record_building_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(new_parse, path) == _outcome(oracle_parse_panel_csv, path)


def _write(tmp_path, *lines):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_duplicate_then_malformed_row_reports_the_malformed_row(tmp_path):
    path = _write(tmp_path, "unit,year,rate,population", "a,2000,1.0,100", "a,2000,2.0,100",
                  "b,2000,-1.0,100")
    for parse in (oracle_parse_panel_csv, new_parse):
        outcome = _outcome(parse, path)
        assert outcome[:2] == ("error", ParseError) and outcome[3] == 4


def test_first_duplicate_is_reported_once_every_row_parsed(tmp_path):
    path = _write(tmp_path, "unit,year,rate,population", "a,2000,1.0,100", "b,2000,1.0,100",
                  "b,2000,2.0,100", "a,2000,3.0,100", "", ",,,")
    got = _outcome(new_parse, path)
    assert got == _outcome(oracle_parse_panel_csv, path)
    assert got == ("error", DataError, f"{path}: duplicate record for b 2000", None)


def test_blank_rows_and_derived_poisson_se(tmp_path):
    path = _write(tmp_path, "unit,year,rate,deaths,population", "", " , , , ",
                  "a,2000,10.0,100,1000000", ",,", "a,2001,10.0,,1000000")
    assert _outcome(new_parse, path) == _outcome(oracle_parse_panel_csv, path)
    panel = parse_panel_csv(path)
    assert len(panel) == 2
    assert panel.get("a", 2000).se == poisson_rate_se(100, 1_000_000)
    assert panel.get("a", 2001).se is None
