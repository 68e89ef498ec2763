"""The panel's sorted columns: the parsed panel against ``PanelDataset(records)``,
the placebo scatter against a cell-by-cell build, and CRLF files on the
column-wise route.
"""

import copy
import math
import pickle
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didbracket import io as dio
from didbracket import placebo
from didbracket.errors import DataError, OutOfDomainError, ParseError
from didbracket.estimation import poisson_rate_se, weighted_period_mean
from didbracket.io import parse_panel_csv
from didbracket.model import AdjacencyGraph, PanelDataset, PanelRecord, PeriodRange
from test_parse_columns import _same_as_oracle, loadtxt_calls, plain_panels  # noqa: F401
from test_parse_oracle import oracle_parse_panel_csv

UNITS = ("a", "b", "c d", "e")
YEARS = range(1998, 2004)
_COUNTS = st.one_of(st.integers(1, 10**6), st.integers(2**53 - 3, 2**53))
_FLOATS = st.floats(0, allow_infinity=False)


@st.composite
def _records(draw):
    """Records with gaps; se, deaths, both or neither; counts up to 2**53."""
    keys = draw(st.sets(st.tuples(st.sampled_from(UNITS), st.sampled_from(YEARS)), max_size=20))
    records = []
    for unit, year in sorted(keys):
        population = draw(_COUNTS)
        deaths = draw(st.one_of(st.none(), st.just(0), _COUNTS))
        se = draw(st.one_of(st.none(), _FLOATS))
        if se is None and deaths is not None:  # as the parser derives it
            se = poisson_rate_se(deaths, population)
        records.append(PanelRecord(unit, year, draw(_FLOATS), population, se, deaths))
    random.Random(len(records)).shuffle(records)
    return records


def _csv_text(records, newline):
    """The records as a panel file; an se that deaths would give is left blank."""
    def cell(value):
        return "" if value is None else repr(value)

    def se(r):
        derived = r.deaths is not None and r.se == poisson_rate_se(r.deaths, r.population)
        return "" if derived else cell(r.se)

    lines = ["unit,year,rate,population,se,deaths"] + [
        f"{r.unit_id},{r.year},{r.rate!r},{r.population},{se(r)},{cell(r.deaths)}"
        for r in records
    ]
    return newline.join(lines) + newline


def _lookups(panel):
    rows = {unit: dict(panel.row(unit)) for unit in UNITS + ("zz",)}
    found = {(u, y): (panel.has(u, y), panel.get(u, y) if panel.has(u, y) else None)
             for u in UNITS + ("zz",) for y in range(1997, 2005)}
    return panel.records, panel.units, len(panel), rows, found


@settings(max_examples=150, deadline=None)
@given(records=_records(), newline=st.sampled_from(["\n", "\r\n"]),
       chunk_lines=st.sampled_from([1, 3, 4096]))
def test_parsed_panel_equals_the_panel_of_its_records(tmp_path_factory, records, newline,
                                                      chunk_lines):
    # Every cell with both se and deaths is plain; a blank cell sends its
    # chunk, and the rest of the file, to the row parser.
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(_csv_text(records, newline), encoding="utf-8", newline="")
    with mock.patch.object(dio, "CHUNK_LINES", chunk_lines):
        parsed = parse_panel_csv(path)
    built = PanelDataset(records)
    want = _lookups(built)
    for panel in (parsed, built, pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed),
                  pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert _lookups(panel) == want
        for unit in panel.units:
            for year, values in panel.row(unit).items():
                assert type(year) is int
                assert all(type(x) in (float, int, type(None)) for x in values)


def test_panel_and_graph_pickle_at_every_protocol():
    panel = PanelDataset([PanelRecord("b", 2001, 2.0, 200),
                          PanelRecord("a", 2000, 1.0, 100, 0.5, 3)])
    graph = AdjacencyGraph.from_pairs([("b", "a"), ("a", "c")])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        panel_clone, graph_clone = pickle.loads(pickle.dumps((panel, graph), protocol))
        assert panel_clone.records == panel.records
        assert graph_clone == graph and graph_clone.neighbors("a") == frozenset({"b", "c"})


def test_a_panel_row_holds_python_floats_whose_square_overflows(tmp_path):
    # The plain route reads the SEs as float64 columns; row() must hand out
    # Python floats, whose ** raises OverflowError where numpy's gives inf.
    path = tmp_path / "panel.csv"
    path.write_text("unit,year,rate,population,se\na,2000,1.0,1000,1e300\n"
                    "a,2001,1.0,1000,1.0\n", encoding="utf-8")
    panel = parse_panel_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomainError, match="SE is inf"):
            weighted_period_mean(panel, {"a"}, PeriodRange(2000, 2001))


def test_the_duplicate_named_is_the_first_repeat_in_file_order(tmp_path):
    # Sorted, ("a", 2001) repeats first; in the file, ("b", 2000) does.
    lines = ["b,2000,1.0,100", "a,2001,1.0,100", "c,1999,1.0,100", "b,2000,2.0,100",
             "a,2001,2.0,100"]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["unit,year,rate,population"] + lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"duplicate record for b 2000$"):
        parse_panel_csv(path)
    records = [PanelRecord(u, int(y), 1.0, 100) for u, y, *_ in (x.split(",") for x in lines)]
    with pytest.raises(DataError, match=r"^duplicate record for b 2000$"):
        PanelDataset(records)


def test_a_year_outside_int64_is_a_parse_error(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(f"unit,year,rate,population\na,2000,1.0,100\na,{2**63},1.0,100\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match="year must fit in a signed 64-bit integer") as err:
        parse_panel_csv(path)
    assert err.value.line_no == 3
    assert PanelDataset([PanelRecord("a", 2**63 - 1, 1.0, 100)]).has("a", 2**63 - 1)


# --- the placebo scatter ------------------------------------------------------


def _cells_one_by_one(panel, units, years):
    """``placebo._panel_cells`` built cell by cell from ``panel.row``."""
    weighted, weight, hot = [], [], []
    for unit in units:
        row = panel.row(unit)
        for year in years:
            rate, population, se, _ = row.get(year, (math.nan, 1, None, None))
            w = float(population)
            weighted.append(w * rate)
            weight.append(w)
            hot.append(se is not None and w * se > placebo._SE_LIMIT)
    for _ in years:
        weighted.append(-0.0 * 0.0)
        weight.append(-0.0)
        hot.append(False)
    return weighted, weight, hot


@settings(max_examples=150, deadline=None)
@given(
    records=_records(),
    years=st.lists(st.integers(1995, 2006), min_size=1, unique=True).map(sorted),
    units=st.lists(st.sampled_from(UNITS + ("zz",)), unique=True),
    huge=st.booleans(),
)
def test_the_scatter_equals_a_cell_by_cell_build(records, years, units, huge):
    # Gaps, years outside the study, absent SEs, units not in the panel.
    if huge:  # an se over the overflow limit
        r = records[0] if records else PanelRecord("a", 2000, 1.0, 100)
        records = [PanelRecord(r.unit_id, r.year, r.rate, r.population, sys.float_info.max)
                   ] + records[1:]
    panel = PanelDataset(records)
    with np.errstate(all="ignore"):
        got = placebo._panel_cells(panel, units, years)
    shape = (len(units) + 1, len(years))
    assert [a.shape for a in got] == [shape] * 3
    weighted, weight, hot = _cells_one_by_one(panel, units, years)
    assert [float.hex(x) for x in got[0].ravel().tolist()] == list(map(float.hex, weighted))
    assert [float.hex(x) for x in got[1].ravel().tolist()] == list(map(float.hex, weight))
    assert got[2].ravel().tolist() == hot


# --- CRLF panels on the column-wise route -------------------------------------


def test_the_bundled_crlf_panel_is_read_by_numpy(bundled_panel, loadtxt_calls):
    assert b"\r\n" in dio.bundled_path("missouri_region.csv").read_bytes()
    panel = parse_panel_csv(dio.bundled_path("missouri_region.csv"))
    assert [len(chunk) for chunk in loadtxt_calls] == [len(panel)]
    assert panel.records == bundled_panel.records


@pytest.mark.parametrize("text", [
    "unit,year,rate,population\r\na,2000,1.0,100\rb,2000,2.0,200\r\n",
    "unit,year,rate,population\r\na,2000,1.0,100\r\n\r\nb,2000,2.0,200\r\n",
    "unit,year,rate,population\r\n\r\na,2000,1.0,100\r\n",
], ids=["lone CR", "CRLF-only line", "CRLF-only first line"])
def test_a_lone_cr_or_an_empty_crlf_line_goes_to_the_row_parser(tmp_path, loadtxt_calls, text):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    panel = parse_panel_csv(path)
    assert loadtxt_calls == []
    assert panel.records == oracle_parse_panel_csv(path)[0].records


@settings(max_examples=100, deadline=None)
@given(text=plain_panels(), chunk_lines=st.sampled_from([1, 2, 4096]))
def test_plain_crlf_panels_match_the_oracle(tmp_path_factory, text, chunk_lines):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(text.replace("\n", "\r\n"), encoding="utf-8", newline="")
    _same_as_oracle(path, chunk_lines)
