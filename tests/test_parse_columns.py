"""parse_panel_csv's column-wise route against the record-building oracle.

A plain chunk of a panel file is read by ``np.loadtxt``; anything else goes
to the row parser from that chunk on. Either way the panel, or the error
with its class, message and line number, must be the oracle's.
"""

import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didbracket import io as dio
from didbracket.errors import DataError, ParseError
from didbracket.estimation import poisson_rate_se
from didbracket.io import PANEL_OPTIONAL, PANEL_REQUIRED, parse_panel_csv
from test_parse_oracle import oracle_parse_panel_csv


def _outcome(parse, path):
    """The panel's records, units, length and every unit's row; or the error."""
    try:
        panel = parse(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    if isinstance(panel, tuple):  # the oracle gives (panel, records)
        panel = panel[0]
    rows = {unit: dict(panel.row(unit)) for unit in panel.units}
    return ("panel", panel.records, panel.units, len(panel), rows)


def _same_as_oracle(path, chunk_lines=dio.CHUNK_LINES):
    with mock.patch.object(dio, "CHUNK_LINES", chunk_lines):
        got = _outcome(parse_panel_csv, path)
    want = _outcome(oracle_parse_panel_csv, path)
    assert got == want
    return got


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The chunks given to ``np.loadtxt``, one list of lines a call."""
    calls = []
    real = np.loadtxt

    def counting(lines, *args, **kwargs):
        calls.append(list(lines))
        return real(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


# --- (a) plain panels -----------------------------------------------------------

_PAD = st.sampled_from(["", " ", "  ", "\t"])
_UNIT = st.sampled_from(["a", "b c", "d  e f", "C0001", "x-y.z"])
_COUNT = st.one_of(st.integers(1, 10**7), st.integers(2**53 - 2, 2**53 + 2),
                   st.integers(2**63 - 2, 2**63 + 2))
_VALUE = {
    "unit": _UNIT,
    "year": st.integers(1990, 1995).map(str),
    "rate": st.floats(0, allow_infinity=False).map(repr),
    "se": st.floats(0, allow_infinity=False).map(repr),
    "population": _COUNT.map(str),
    "deaths": st.one_of(st.integers(0, 10**6), st.integers(2**53 - 2, 2**53 + 2)).map(str),
}


@st.composite
def plain_panels(draw):
    optional = draw(st.lists(st.sampled_from(PANEL_OPTIONAL), unique=True))
    cols = draw(st.permutations(list(PANEL_REQUIRED) + optional))
    lines = [",".join(cols)]
    for _ in range(draw(st.integers(0, 15))):
        lines.append(",".join(draw(_PAD) + draw(_VALUE[c]) + draw(_PAD) for c in cols))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=plain_panels(), chunk_lines=st.sampled_from([1, 2, 3, 4096]))
def test_plain_panels_match_the_oracle(tmp_path_factory, text, chunk_lines):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(text, encoding="utf-8")
    _same_as_oracle(path, chunk_lines)


# --- (b, e) what sends a chunk to the row parser ----------------------------------

_B_ROW = "b,2000,2.0,200\n"
_ROWS = "a,2000,1.0,100\n" + _B_ROW
# Longer than the csv field size limit, though no field is.
_HALF = csv.field_size_limit() // 2
_LONG_LINE = f"{'u' * _HALF},2000,1.{'0' * _HALF},100\n"


@pytest.mark.parametrize(
    "text, kind",
    [
        ('unit,year,rate,population\n"q",2000,1.0,100\n' + _ROWS, "panel"),
        ("unit,year,rate,population\r\na,2000,1.0,100\r\nb,2000,2.0,200\r\n", "panel"),
        ("unit,year,rate,population\na\0b,2000,1.0,100\n" + _ROWS, "panel"),
        ("unit,year,rate,population\n" + _LONG_LINE + _ROWS, "panel"),
        ("unit,year,rate,population\na,2000,1.0,100\n\nb,2000,2.0,200\n", "panel"),
        ("unit,year,rate,population,se\na,2000,1.0,100, \nb,2000,2.0,200,0.5\n", "panel"),
        ("unit,year,rate,population\na,2000,1.0,1_000\n" + _B_ROW, "panel"),
        ("unit,year,rate,population\na,2000,1.0,١٠٠\n" + _B_ROW, "panel"),
        ("unit,year,rate,population\n ,2000,1.0,100\n" + _B_ROW, "error"),
        ("unit,year,rate,population\na,2000,nan,100\n" + _B_ROW, "error"),
        (f"unit,year,rate,population\na,2000,1.0,{2**53 + 1}\n" + _B_ROW, "error"),
        (f"unit,year,rate,population\na,2000,1.0,{2**63}\n" + _B_ROW, "error"),
        ("unit,year,rate,population\na,2000,1.0,Ǿ\n" + _B_ROW, "error"),
        ("unit,year,rate,population\na,2000,1.0,\x1c100\n" + _B_ROW, "error"),
        ("unit,year,rate,population\n" + _ROWS + "\n" * 9, "panel"),
    ],
    ids=["quote", "CRLF", "NUL", "line over the field size limit", "blank line",
         "blank se cell", "1_000", "non-ASCII digits", "blank unit", "nan rate",
         "population 2**53+1", "population 2**63", "a letter numpy reads as a digit",
         "a separator numpy skips around a number", "blank-lines-only tail"],
)
@pytest.mark.parametrize("chunk_lines", [2, 4096])
def test_each_routing_trigger_gives_the_oracles_outcome(tmp_path, capfd, text, kind,
                                                        chunk_lines):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_as_oracle(path, chunk_lines)[0] == kind
    assert capfd.readouterr() == ("", "")


# Six rows, two chunks of three at chunk_lines=3, and a unit length that makes
# a line of exactly the csv field size limit, newline included.
_SIX = [f"u{i},2000,{i}.5,100\n" for i in range(6)]
_FIT = csv.field_size_limit() - len(",2000,9.5,100\n")


@pytest.mark.parametrize(
    "prefix, rows, numpy_chunks",
    [
        ("", _SIX[:4] + ["u4,2000,4.5,100\r"] + _SIX[5:], 1),
        ("", _SIX[:4] + ["\n"] + _SIX[4:], 1),
        ("", _SIX[:4] + ["\r\n"] + _SIX[4:], 1),
        ("", _SIX[:5] + ["é5,2000,5.5,100\n"], 1),
        ("", _SIX[:4] + ["u" * _FIT + ",2000,9.5,100\n"] + _SIX[5:], 2),
        ("", _SIX[:4] + ["u" * (_FIT + 1) + ",2000,9.5,100\n"] + _SIX[5:], 1),
        ("", _SIX[:5] + [_SIX[5].rstrip("\n")], 2),
        ("\ufeff", _SIX, 2),
    ],
    ids=["lone CR mid-chunk", "empty line", "empty CRLF line", "non-ASCII on a chunk's last line",
         "line of the field size limit", "line one over the limit", "no final newline",
         "byte-order mark"],
)
def test_each_plain_gate_edge_routes_its_chunk_and_gives_the_oracles_outcome(
    tmp_path, loadtxt_calls, prefix, rows, numpy_chunks
):
    # The first chunk is plain; numpy_chunks says whether the second one is too.
    text = "unit,year,rate,population\n" + "".join(rows)
    path, oracle_path = tmp_path / "panel.csv", tmp_path / "oracle.csv"
    path.write_text(prefix + text, encoding="utf-8", newline="")
    oracle_path.write_text(text, encoding="utf-8", newline="")  # the oracle reads no BOM
    with mock.patch.object(dio, "CHUNK_LINES", 3):
        got = _outcome(parse_panel_csv, path)
    assert got == _outcome(oracle_parse_panel_csv, oracle_path)
    assert got[0] == "panel" and len(got[1]) == 6
    assert len(loadtxt_calls) == numpy_chunks


# --- (c) chunk boundaries -------------------------------------------------------------


def test_a_duplicate_split_across_chunks_is_reported(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("unit,year,rate,population\na,2000,1.0,100\nb,2000,1.0,100\n"
                    "c,2000,1.0,100\nb,2001,1.0,100\na,2000,2.0,100\n", encoding="utf-8")
    assert _same_as_oracle(path, chunk_lines=3) == (
        "error", DataError, f"{path}: duplicate record for a 2000", None
    )


def test_a_bad_row_in_a_later_chunk_is_named_at_its_line(tmp_path):
    # A duplicate in the first chunk; the malformed row on line 9 is reported first.
    rows = [f"u{i},2000,1.0,100" for i in range(6)] + ["u0,2000,1.0,100", "u9,2000,-1,100"]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["unit,year,rate,population"] + rows) + "\n", encoding="utf-8")
    assert _same_as_oracle(path, chunk_lines=3) == (
        "error", ParseError, f"{path}:9: u9 2000: rate must be finite and >= 0", 9
    )


def test_the_row_parser_takes_over_at_the_first_irregular_chunk(tmp_path, loadtxt_calls):
    rows = [f"u{i},2000,{i}.5,100" for i in range(7)]
    rows[4] = '"u4",2000,4.5,100'
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["unit,year,rate,population"] + rows) + "\n", encoding="utf-8")
    panel = _same_as_oracle(path, chunk_lines=3)
    assert len(panel[1]) == 7
    assert loadtxt_calls == [[f"{row}\n" for row in rows[:3]]]


def test_years_at_both_ends_of_int64_are_put_in_order(tmp_path):
    # Their difference wraps in int64, so the order check must compare the years.
    path = tmp_path / "panel.csv"
    path.write_text(f"unit,year,rate,population\na,{2**63 - 1},1.0,100\na,{-(2**63)},2.0,100\n",
                    encoding="utf-8")
    panel = _same_as_oracle(path)
    assert [record.year for record in panel[1]] == [-(2**63), 2**63 - 1]


# --- (d) plain files take the column-wise route --------------------------------------


def test_a_plain_file_is_read_by_numpy_chunk_by_chunk(tmp_path, loadtxt_calls):
    rows = [f"u{i % 4}, {1990 + i // 4} ,{i / 7!r},{100 + i},{i % 3}" for i in range(10)]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["unit,year,rate,population,deaths"] + rows) + "\n",
                    encoding="utf-8")
    panel = _same_as_oracle(path, chunk_lines=3)
    assert len(panel[1]) == 10
    assert [len(chunk) for chunk in loadtxt_calls] == [3, 3, 3, 1]
    record = parse_panel_csv(path).get("u1", 1990)
    assert record.se == poisson_rate_se(1, 101)


def test_the_bundled_panel_with_lf_endings_is_read_by_numpy(tmp_path, bundled_panel,
                                                             loadtxt_calls):
    # The bundled file ends its lines in CRLF, so bundled_panel came from the row parser.
    text = dio.bundled_path("missouri_region.csv").read_bytes()
    path = tmp_path / "panel.csv"
    path.write_bytes(text.replace(b"\r\n", b"\n"))
    panel = parse_panel_csv(path)
    assert [len(chunk) for chunk in loadtxt_calls] == [len(panel)]
    assert panel.records == bundled_panel.records
