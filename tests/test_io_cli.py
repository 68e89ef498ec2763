import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import stat
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_captured, write_panel_csv
from didbracket import cli
from didbracket import io as dio
from didbracket.errors import ConfigError, DataError, MissingSEError, ParseError, SchemaError
from didbracket.io import (
    AnalysisConfig,
    bundled_path,
    config_from_values,
    format_number,
    histogram_svg,
    line_chart_svg,
    load_config,
    load_scenario,
    parse_adjacency_csv,
    parse_config_text,
    parse_panel_csv,
    parse_period,
    round_half_up,
    to_json,
)
from didbracket.model import AdjacencyGraph, PanelDataset, PanelRecord, PeriodRange
from didbracket.placebo import HistBin
from didbracket.simulation import (
    TIME_EFFECTS,
    ConfounderSpec,
    DriftSpec,
    Scenario,
    shipped_scenarios,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CONFIG = REPO_ROOT / "configs" / "paper.tomlish"


# --- panel CSV ---------------------------------------------------------------


def test_bundled_panel_shape(bundled_panel):
    assert len(bundled_panel.units) == 9
    assert len(bundled_panel) == 9 * 23
    for unit in bundled_panel.units:
        years = sorted(r.year for r in bundled_panel.records if r.unit_id == unit)
        assert years == list(range(1994, 2017))


def test_header_only_panel_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("unit,year,rate,population\n", encoding="utf-8")
    panel = parse_panel_csv(path)
    assert len(panel) == 0


def test_negative_rate_aborts_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "unit,year,rate,population\nMissouri,1999,4.7,5500000\nIowa,1999,-1.0,2900000\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        parse_panel_csv(path)
    assert err.value.line_no == 3


@pytest.mark.parametrize(
    "row",
    [
        "Iowa,1999,nan,,,2900000",
        "Iowa,1999,inf,,,2900000",
        "Iowa,1999,4.7,-0.1,,2900000",
        "Iowa,1999,4.7,0.1,,0",
        "Iowa,1999,4.7,0.1,-3,2900000",
        "Iowa,1999,4.7,,-3,2900000",
        "Iowa,1999,4.7,,30,0",
        ",1999,4.7,0.1,,2900000",
    ],
)
def test_record_range_errors_carry_the_line_number(tmp_path, row):
    # The value ranges are PanelRecord's checks; the parser adds the line number.
    path = tmp_path / "bad.csv"
    path.write_text(
        "unit,year,rate,se,deaths,population\n"
        "Missouri,1999,4.7,0.1,,5500000\n"
        "\n"
        f"{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        parse_panel_csv(path)
    assert err.value.line_no == 4
    assert str(err.value).startswith(f"{path}:4: ")


def test_unknown_column_is_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("unit,year,rate,population,extra\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        parse_panel_csv(path)


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_panel_csv(tmp_path / "nope.csv")


def test_deaths_without_se_derives_poisson_se(tmp_path):
    path = tmp_path / "deaths.csv"
    path.write_text(
        "unit,year,rate,deaths,population\nA,2000,10.0,100,1000000\n", encoding="utf-8"
    )
    panel = parse_panel_csv(path)
    rec = panel.get("A", 2000)
    assert rec.se == pytest.approx(1.0)
    assert rec.deaths == 100


def test_panel_roundtrip(tmp_path, bundled_panel):
    path = tmp_path / "roundtrip.csv"
    write_panel_csv(bundled_panel, path)
    back = parse_panel_csv(path)
    assert len(back) == len(bundled_panel)
    for rec in bundled_panel.records:
        got = back.get(rec.unit_id, rec.year)
        assert got.rate == pytest.approx(rec.rate, abs=1e-6)
        assert got.se == pytest.approx(rec.se, abs=1e-6)
        assert got.population == rec.population


@settings(max_examples=30)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(1990, 2020),
            st.floats(0, 50),
            st.one_of(st.none(), st.floats(0, 5)),
            st.integers(1, 10_000_000),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda r: (r[0], r[1]),
    )
)
def test_roundtrip_property(tmp_path_factory, rows):
    panel = PanelDataset(
        [
            PanelRecord(u, y, round(rate, 6), pop, se=None if se is None else round(se, 6))
            for u, y, rate, se, pop in rows
        ]
    )
    path = tmp_path_factory.mktemp("rt") / "panel.csv"
    write_panel_csv(panel, path)
    back = parse_panel_csv(path)
    for rec in panel.records:
        got = back.get(rec.unit_id, rec.year)
        assert got.rate == pytest.approx(rec.rate, abs=1e-9)
        if rec.se is None:
            assert got.se is None
        else:
            assert got.se == pytest.approx(rec.se, abs=1e-9)


# --- config ------------------------------------------------------------------


def test_parse_period_forms():
    assert parse_period("1999-2007") == PeriodRange(1999, 2007)
    assert parse_period("2002") == PeriodRange(2002, 2002)
    with pytest.raises(ConfigError):
        parse_period("last year")


def test_config_grammar_and_unknown_key():
    values = parse_config_text("alpha = 0.1\n# comment\ntreated = Missouri\n")
    cfg = config_from_values(values)
    assert cfg.alpha == 0.1
    assert cfg.treated == "Missouri"
    with pytest.raises(ConfigError):
        parse_config_text("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("alpha 0.1\n")
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 0.1\nalpha = 0.2\n")


def test_config_lists_and_bools():
    cfg = config_from_values(
        parse_config_text("exclusions = Alaska, Hawaii\nemit_plots = true\n")
    )
    assert cfg.exclusions == ("Alaska", "Hawaii")
    assert cfg.emit_plots is True
    with pytest.raises(ConfigError):
        config_from_values(parse_config_text("emit_plots = maybe\n"))


@pytest.mark.parametrize("value", ["yes", "no", "1", "0", "True", "FALSE"])
def test_booleans_are_only_true_or_false(value):
    with pytest.raises(ConfigError, match="emit_plots: expected true/false"):
        config_from_values(parse_config_text(f"emit_plots = {value}\n"))
    assert config_from_values({"emit_plots": "false"}).emit_plots is False


_WORDS = st.text("abXY09 _./#=-", max_size=12).filter(lambda t: t == t.strip())
_ITEMS = st.lists(_WORDS.filter(bool), max_size=4).map(tuple)
# prestudy, before and after in that order (the config rejects any other),
# each of them possibly unset.
_PERIODS = st.tuples(
    st.lists(st.integers(0, 9999), min_size=6, max_size=6, unique=True).map(sorted),
    st.lists(st.booleans(), min_size=3, max_size=3),
).map(lambda yb: {
    key: PeriodRange(*yb[0][2 * i: 2 * i + 2]) if yb[1][i] else None
    for i, key in enumerate(("prestudy", "before", "after"))
})

# Explicit control groups, both set or both unset (the config rejects one alone).
_CONTROLS = st.just({}) | st.tuples(_ITEMS.filter(bool), _ITEMS.filter(bool)).map(
    lambda pair: {"lower_controls": pair[0], "upper_controls": pair[1]}
)


def _config_text(cfg: AnalysisConfig, order) -> str:
    """``cfg`` written in the config grammar, one line per set key, in ``order``."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue  # None is every optional key's default; the grammar has no null
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ", ".join(value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)  # str, int, PeriodRange as START-END
        lines.append(f"{f.name} = {text}")
    order.shuffle(lines)
    return "\n".join(lines) + "\n"


@given(
    cfg=st.builds(
        AnalysisConfig,
        panel=_WORDS, adjacency=_WORDS, out_dir=_WORDS, scenario=_WORDS,
        treated=st.none() | _WORDS, rank_unit=st.none() | _WORDS,
        candidates=_ITEMS, exclusions=_ITEMS,
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        tau=st.floats(allow_nan=False),
        bin_width=st.floats(0.0, exclude_min=True, allow_infinity=False),
        split_year=st.none() | st.integers(), seed=st.integers(), reps=st.integers(),
        format=st.sampled_from(["json", "csv"]),
        mode=st.sampled_from(["bracket", "coverage", "synthetic_control"]),
        emit_plots=st.booleans(),
    ),
    periods=_PERIODS,
    controls=_CONTROLS,
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_config_text_round_trip(tmp_path_factory, cfg, periods, controls, order):
    # Periods use non-negative years: the grammar reads a leading '-' as the separator.
    cfg = dataclasses.replace(cfg, **periods, **controls)
    path = tmp_path_factory.mktemp("cfg") / "run.conf"
    path.write_text(_config_text(cfg, order), encoding="utf-8")
    assert load_config(path) == cfg


def test_readme_config_keys_match_the_grammar():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    keys = text[text.index("Keys:"):].split("\n\n")[0]
    keys = re.sub(r"\([^)]*\)", "", keys)  # the notes in brackets name values, not keys
    assert set(re.findall(r"`(\w+)`", keys)) == dio.CONFIG_KEYS


# --- formatting and json -----------------------------------------------------


def test_format_number_stable():
    assert format_number(1.2345678) == "1.234568"
    assert format_number(1.0) == "1"
    assert format_number(0.0) == "0"
    assert format_number(-0.0000001) == "0"


def test_round_half_up_matches_published_convention():
    assert round_half_up(1.15, 1) == 1.2
    assert round_half_up(1.25, 1) == 1.3
    assert round_half_up(-1.15, 1) == -1.2
    assert round_half_up(24.49, 0) == 24.0
    assert round_half_up(24.5, 0) == 25.0


def test_to_json_rejects_non_finite():
    from didbracket.errors import InvariantError

    with pytest.raises(InvariantError):
        to_json({"x": float("nan")})
    with pytest.raises(InvariantError):
        to_json({"x": [1.0, float("inf")]})


def test_svg_builders_structure():
    from didbracket.diagnostics import TrendRow

    rows = [
        TrendRow(1999, "treated", 4.0, 3.5, 4.5),
        TrendRow(2000, "treated", 4.2, 3.7, 4.7),
        TrendRow(1999, "upper", 5.0, 4.5, 5.5),
        TrendRow(2000, "upper", 5.1, 4.6, 5.6),
    ]
    svg = line_chart_svg(rows)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert svg.count("<line") == 4  # one CI bar per point
    hist = histogram_svg([HistBin(0.0, 0.5, 2), HistBin(0.5, 1.0, 1)], marker=0.7)
    assert hist.count("<rect") == 3  # background + two bars
    assert "stroke-dasharray" in hist


# --- CLI ---------------------------------------------------------------------


def run_cli(args):
    return cli.main(args)


def read_all_outputs(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_analyze_with_paper_config(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "bracket_report.json").read_text())
    assert report["schema_version"] == 1
    assert round_half_up(report["upper_ctrl"]["point"], 1) == 1.3
    assert round_half_up(report["lower_ctrl"]["point"], 1) == 0.9
    assert report["design"]["lower_controls"] == [
        "Iowa", "Kansas", "Kentucky", "Nebraska", "Oklahoma",
    ]
    summary = (out / "summary.txt").read_text()
    assert "Upper controls" in summary and "bracket" in summary
    assert "diagnostics" in report or report.get("diagnostics") is not None


def test_analyze_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)]) == 0
    assert read_all_outputs(out_a) == read_all_outputs(out_b)


def test_analyze_csv_format(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out), "--format", "csv"]
    )
    assert code == 0
    table = (out / "bracket_table.csv").read_text().splitlines()
    assert table[0].startswith("control_group,")
    assert len(table) == 4  # header + all/upper/lower rows


def test_diagnose_outputs(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["diagnose", "--config", str(PAPER_CONFIG), "--out-dir", str(out), "--emit-plots"]
    )
    assert code == 0
    payload = json.loads((out / "pattern_tests.json").read_text())
    assert {p["pattern"] for p in payload["patterns"]} == {"iii", "iv"}
    assert all(p["evidence"] is False for p in payload["patterns"])
    trends = (out / "relative_trends.csv").read_text().splitlines()
    assert trends[0] == "year,group,mean,ci_lower,ci_upper"
    assert len(trends) == 1 + 9 * 3
    assert (out / "relative_trends.svg").read_text().startswith("<svg")


def test_placebo_outputs_and_rank(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        [
            "placebo", "--config", str(PAPER_CONFIG), "--out-dir", str(out),
            "--rank-unit", "Missouri", "--emit-plots",
        ]
    )
    assert code == 0
    summary = json.loads((out / "placebo_summary.json").read_text())
    assert summary["rank"]["unit"] == "Missouri"
    assert summary["n_lc"] >= 1 and summary["n_uc"] >= 1
    lc_rows = (out / "placebo_lc.csv").read_text().splitlines()
    assert lc_rows[0] == "unit,estimate"
    assert len(lc_rows) - 1 == summary["n_lc"]
    hist_rows = (out / "placebo_hist_lc.csv").read_text().splitlines()
    counts = sum(int(r.rsplit(",", 1)[1]) for r in hist_rows[1:])
    assert counts == summary["n_lc"]
    assert (out / "placebo_hist_lc.svg").exists()
    assert (out / "placebo_hist_uc.svg").exists()


def test_placebo_byte_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            ["placebo", "--config", str(PAPER_CONFIG), "--out-dir", str(out),
             "--rank-unit", "Missouri"]
        ) == 0
        outs.append(read_all_outputs(out))
    assert outs[0] == outs[1]


def test_simulate_bracket_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli(
            ["simulate", "--scenario", "additive", "--reps", "300", "--seed", "7",
             "--out-dir", str(out)]
        )
        assert code == 0
        outs.append(read_all_outputs(out))
    assert outs[0] == outs[1]
    payload = json.loads(outs[0]["mc_report.json"].decode())
    assert payload["mode"] == "bracket"
    assert payload["bracket_holds"] is True


def test_simulate_coverage_and_synthetic(tmp_path):
    out = tmp_path / "cov"
    code = run_cli(
        ["simulate", "--scenario", "additive", "--mode", "coverage", "--reps", "200",
         "--seed", "3", "--alpha", "0.05", "--out-dir", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "mc_report.json").read_text())
    assert 0.0 <= payload["coverage"] <= 1.0

    out2 = tmp_path / "synth"
    code = run_cli(
        ["simulate", "--mode", "synthetic_control", "--tau", "0.35", "--reps", "10000",
         "--seed", "3", "--out-dir", str(out2)]
    )
    assert code == 0
    payload = json.loads((out2 / "mc_report.json").read_text())
    assert payload["analytic"]["bias"] == pytest.approx(1.625 - 1 / 0.65, abs=1e-9)


def test_missing_adjacency_exits_3(tmp_path, capsys):
    code = run_cli(
        ["placebo", "--config", str(PAPER_CONFIG), "--adjacency", str(tmp_path / "no.csv"),
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == 3
    assert "FileNotFound" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("not_a_key = 1\n", encoding="utf-8")
    code = run_cli(["analyze", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "Config" in capsys.readouterr().err


def test_missing_required_design_keys_exit_2(tmp_path, capsys):
    code = run_cli(["analyze", "--panel", "bundled", "--out-dir", str(tmp_path / "out")])
    assert code == 2


def test_diagnose_without_split_exits_2(tmp_path):
    code = run_cli(
        ["diagnose", "--panel", "bundled", "--adjacency", "bundled",
         "--treated", "Missouri", "--candidates", "neighbors",
         "--prestudy", "1994-1998", "--before", "1999-2007", "--after", "2008-2016",
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
def test_placebo_bad_bin_width_exits_2_before_any_output(tmp_path, capsys, width):
    out = tmp_path / "out"
    code = run_cli(
        ["placebo", "--config", str(PAPER_CONFIG), f"--bin-width={width}",
         "--adjacency", str(tmp_path / "not_read.csv"), "--out-dir", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("Config: bin_width") and err.count("\n") == 1
    assert not out.exists()


def test_placebo_outlying_rate_exits_3_before_any_output(tmp_path, capsys, bundled_panel):
    # One unit's after-period rates 1e5 higher spread the placebo estimates
    # over ~400,000 bins of the default width.
    records = [
        dataclasses.replace(r, rate=r.rate + 1e5)
        if r.unit_id == "Iowa" and r.year >= 2008 else r
        for r in bundled_panel.records
    ]
    panel = tmp_path / "outlier.csv"
    write_panel_csv(PanelDataset(records), panel)
    out = tmp_path / "out"
    code = run_cli(
        ["placebo", "--config", str(PAPER_CONFIG), "--panel", str(panel), "--out-dir", str(out)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("OutOfDomain: the lc histogram needs ") and err.count("\n") == 1
    assert "bins of width 0.25" in err
    assert not out.exists()


def test_overlapping_periods_exit_2_before_any_input_is_read(tmp_path, capsys):
    # The after period overlaps the before period: a configuration error,
    # reported before the (missing) panel is opened.
    out = tmp_path / "out"
    code = run_cli(
        ["analyze", "--config", str(PAPER_CONFIG), "--after", "2007-2016",
         "--panel", str(tmp_path / "not_read.csv"), "--out-dir", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "Config: periods must be ordered prestudy < before < after: "
        "before 1999-2007 does not precede after 2007-2016\n"
    )
    assert not out.exists()


# --- scenario files ------------------------------------------------------------


def test_scenario_file_roundtrip(tmp_path):
    from didbracket.io import load_scenario

    scenario = load_scenario(REPO_ROOT / "configs" / "scenario_example.tomlish")
    assert scenario.effect == 1.0
    assert scenario.time_effect == "linear_interaction"
    assert scenario.gamma == 0.5
    assert scenario.confounder.kind == "normal"
    assert scenario.n_per_cell == 100


def test_scenario_file_validation(tmp_path):
    from didbracket.io import load_scenario

    bad = tmp_path / "bad.tomlish"
    bad.write_text("effect = 1.0\nconfounder_kind = normal\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_scenario(bad)
    unordered = tmp_path / "unordered.tomlish"
    unordered.write_text(
        "effect = 1.0\nconfounder_kind = normal\nconfounder_lc = 2.0\n"
        "confounder_t = 1.0\nconfounder_uc = 0.0\ntime_effect = additive\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError):
        load_scenario(unordered)
    drifty = tmp_path / "partial_drift.tomlish"
    drifty.write_text(
        "effect = 1.0\nconfounder_kind = normal\nconfounder_lc = 0.0\n"
        "confounder_t = 1.0\nconfounder_uc = 2.0\ntime_effect = additive\n"
        "drift_lc = 0.1\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError):
        load_scenario(drifty)


def test_simulate_with_scenario_file(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["simulate", "--scenario", str(REPO_ROOT / "configs" / "scenario_example.tomlish"),
         "--reps", "300", "--seed", "11", "--out-dir", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "mc_report.json").read_text())
    assert payload["bracket_holds"] is True


@pytest.mark.parametrize(
    "mode, drift_uc, message",
    [
        ("bracket", 800, "replication 0: cell uc1 mean is inf"),
        ("coverage", 800, "replication 0: cell uc1 mean is inf"),
        # Finite cell means whose spread overflows once squared.
        ("bracket", 400, "upper-control arm's Monte Carlo SE over 200 replications is inf"),
        ("coverage", 400, "replication 0: cell uc1 SE is inf"),
    ],
)
def test_overflowing_scenario_exits_3_with_one_line(tmp_path, mode, drift_uc, message):
    # exp() of the upper group's drifted confounder overflows float64.
    scenario = tmp_path / "overflow.tomlish"
    scenario.write_text(
        "effect = 1.0\nconfounder_kind = normal\nconfounder_lc = 0.0\n"
        "confounder_t = 0.5\nconfounder_uc = 1.0\nconfounder_sd = 0.5\n"
        "time_effect = convex_after\nnoise_sd = 0.5\nn_per_cell = 20\n"
        f"drift_lc = 0.0\ndrift_t = 0.0\ndrift_uc = {drift_uc}\ndrift_sd = 0.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second line
        code, stdout, stderr = run_captured(
            ["simulate", "--mode", mode, "--scenario", str(scenario), "--reps", "200",
             "--out-dir", str(out)]
        )
    assert code == 3
    assert stdout == ""
    assert stderr == f"OutOfDomain: {message}; the scenario's outcomes overflow float64\n"
    assert not out.exists()


_MINIMAL_SCENARIO = (
    "effect = 1.0\nconfounder_kind = normal\nconfounder_lc = 0.0\n"
    "confounder_t = 1.0\nconfounder_uc = 2.0\ntime_effect = additive\n"
)


def test_scenario_file_keys_left_out_take_the_dataclass_defaults(tmp_path):
    from didbracket.io import load_scenario
    from didbracket.simulation import ConfounderSpec, Scenario

    path = tmp_path / "minimal.tomlish"
    path.write_text(_MINIMAL_SCENARIO, encoding="utf-8")
    assert load_scenario(path) == Scenario(
        effect=1.0, confounder=ConfounderSpec("normal", 0.0, 1.0, 2.0), time_effect="additive"
    )


@pytest.mark.parametrize(
    "line",
    ["n_per_cell = 2.5", "n_per_cell = 1e400", "n_per_cell = nan", "effect = nan",
     "tau_shift = nan", "gamma = inf"],
)
def test_bad_scenario_file_number_exits_2_with_one_line(tmp_path, line):
    # The line comes last, so a key it repeats takes its value.
    key = line.split(" ")[0]
    kept = [kv for kv in _MINIMAL_SCENARIO.splitlines() if not kv.startswith(key + " ")]
    scenario = tmp_path / "bad.tomlish"
    scenario.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["simulate", "--scenario", str(scenario), "--reps", "10", "--out-dir", str(out)]
    )
    assert_config_error(code, stdout, stderr, out)
    assert stderr.startswith(f"Config: {key}: ")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(0.0, allow_infinity=False)


@st.composite
def _scenarios(draw):
    """A valid Scenario: ordered confounders, positive exponential scales (below 1 for
    convex_after), non-negative spreads, and a drift of any order or none."""
    time_effect = draw(st.sampled_from(TIME_EFFECTS))
    kind = draw(st.sampled_from(["normal", "exponential"]))
    if kind == "normal":
        values = _FINITE
    elif time_effect == "convex_after":
        values = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    else:
        values = st.floats(0.0, exclude_min=True, allow_infinity=False)
    lc, t, uc = sorted(draw(st.lists(values, min_size=3, max_size=3)))
    return Scenario(
        effect=draw(_FINITE),
        confounder=ConfounderSpec(kind, lc, t, uc, sd=draw(_NONNEGATIVE)),
        time_effect=time_effect,
        noise_sd=draw(_NONNEGATIVE),
        n_per_cell=draw(st.integers(min_value=1)),
        tau=draw(_FINITE),
        gamma=draw(_FINITE),
        drift=draw(st.none() | st.builds(DriftSpec, _FINITE, _FINITE, _FINITE, _NONNEGATIVE)),
    )


def _scenario_text(scenario: Scenario, order=None) -> str:
    """``scenario`` written as a scenario file, every key set, floats by ``repr``."""
    c, d = scenario.confounder, scenario.drift
    pairs = [("effect", scenario.effect), ("confounder_kind", c.kind),
             ("confounder_lc", c.lc), ("confounder_t", c.t), ("confounder_uc", c.uc),
             ("confounder_sd", c.sd), ("time_effect", scenario.time_effect),
             ("noise_sd", scenario.noise_sd), ("n_per_cell", scenario.n_per_cell),
             ("tau_shift", scenario.tau), ("gamma", scenario.gamma)]
    if d is not None:
        pairs += [("drift_lc", d.lc), ("drift_t", d.t), ("drift_uc", d.uc), ("drift_sd", d.sd)]
    lines = [f"{key} = {repr(v) if isinstance(v, float) else v}" for key, v in pairs]
    if order is not None:
        order.shuffle(lines)
    return "\n".join(lines) + "\n"


@given(scenario=_scenarios(), order=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_scenario_text_round_trip(tmp_path_factory, scenario, order):
    path = tmp_path_factory.mktemp("scenario") / "scenario.tomlish"
    path.write_text(_scenario_text(scenario, order), encoding="utf-8")
    assert load_scenario(path) == scenario


@pytest.mark.parametrize("name", sorted(shipped_scenarios()))
def test_shipped_scenario_reads_back_equal(tmp_path, name):
    scenario = shipped_scenarios()[name]
    path = tmp_path / f"{name}.tomlish"
    path.write_text(_scenario_text(scenario), encoding="utf-8")
    assert load_scenario(path) == scenario


_DRIFT = "drift_lc = 0.1\ndrift_t = 0.2\ndrift_uc = 0.3\n"


def test_drift_block_without_sd_takes_the_default(tmp_path):
    path = tmp_path / "drift.tomlish"
    path.write_text(_MINIMAL_SCENARIO + _DRIFT, encoding="utf-8")
    assert load_scenario(path).drift == DriftSpec(0.1, 0.2, 0.3, sd=0.0)


def test_drift_lc_alone_names_the_missing_drift_keys(tmp_path):
    path = tmp_path / "drift.tomlish"
    path.write_text(_MINIMAL_SCENARIO + "drift_lc = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert str(exc.value) == "missing scenario keys: ['drift_t', 'drift_uc']"


def test_negative_drift_sd_exits_2_with_one_line(tmp_path):
    scenario = tmp_path / "drift.tomlish"
    scenario.write_text(_MINIMAL_SCENARIO + _DRIFT + "drift_sd = -1\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["simulate", "--scenario", str(scenario), "--reps", "10", "--out-dir", str(out)]
    )
    assert_config_error(code, stdout, stderr, out)
    assert stderr == "Config: invalid scenario: drift sd must be >= 0\n"


def test_simulate_unknown_scenario_exits_2(tmp_path, capsys):
    code = run_cli(
        ["simulate", "--scenario", "no_such_scenario", "--reps", "100",
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2


# --- CLI boundary: validate first, write last -----------------------------------


def assert_config_error(code, stdout, stderr, out_dir):
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("Config: ") and stderr.endswith("\n")
    assert stderr.count("\n") == 1
    assert not out_dir.exists()


def _parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


# Values no typed key accepts: a trailing letter defeats int(), float() and
# the START-END period grammar alike.
_garbage = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=12
).map(lambda s: s + "x")
_not_int = st.one_of(
    _garbage, st.sampled_from(["", " ", "1.5", "1e3", "nan", "--"]),
    st.text(max_size=8).filter(lambda s: not _parses(int, s)),
)
_not_float = st.one_of(
    _garbage, st.sampled_from(["", " ", "1,5", "0x10", "--"]),
    st.text(max_size=8).filter(lambda s: not _parses(float, s)),
)
_not_choice = st.text(max_size=12).filter(
    lambda s: s not in ("json", "csv", "bracket", "coverage", "synthetic_control")
)


def _outside(low, high):
    return st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not low < x < high
    ).map(repr)


# flag -> (command that takes it, malformed values)
MALFORMED_FLAGS = {
    "--alpha": ("analyze", st.one_of(_not_float, _outside(0.0, 1.0))),
    "--tau": ("simulate", _not_float),
    "--bin-width": ("placebo", st.one_of(_not_float, _outside(0.0, math.inf))),
    "--seed": ("simulate", st.one_of(_not_int, st.integers(max_value=-1).map(str))),
    "--reps": ("simulate", _not_int),
    "--split-year": ("diagnose", _not_int),
    "--format": ("analyze", _not_choice),
    "--mode": ("simulate", _not_choice),
    "--prestudy": ("placebo", _garbage),
    "--before": ("analyze", _garbage),
    "--after": ("diagnose", _garbage),
}
KNOWN_FLAGS = ("--config", "--panel", "--adjacency", "--out-dir", "--emit-plots",
               "--treated", "--candidates", "--exclusions", "--rank-unit", "--scenario",
               "--help", *MALFORMED_FLAGS)


def _base_argv(command, scratch):
    # Inputs that do not exist: any file read would exit 3, not 2.
    argv = [command, "--panel", str(scratch / "not_read.csv"),
            "--adjacency", str(scratch / "not_read.csv"), "--out-dir", str(scratch / "out")]
    if command != "simulate":
        argv += ["--config", str(PAPER_CONFIG)]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data(), flag=st.sampled_from(sorted(MALFORMED_FLAGS)))
def test_malformed_flag_exits_2_with_one_line(tmp_path_factory, data, flag):
    command, values = MALFORMED_FLAGS[flag]
    value = data.draw(values, label="value")
    scratch = tmp_path_factory.mktemp("fuzz")
    code, stdout, stderr = run_captured([*_base_argv(command, scratch), f"{flag}={value}"])
    assert_config_error(code, stdout, stderr, scratch / "out")


_period = st.tuples(st.integers(1900, 2100), st.integers(0, 12)).map(
    lambda p: f"{p[0]}-{p[0] + p[1]}"
)


def _in_order(prestudy, before, after):
    ends = [parse_period(p) for p in (prestudy, before, after)]
    return all(a.end_year < b.start_year for a, b in zip(ends, ends[1:]))


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["analyze", "diagnose", "placebo"]),
    periods=st.tuples(_period, _period, _period).filter(lambda p: not _in_order(*p)),
)
def test_periods_out_of_order_exit_2_with_one_line(tmp_path_factory, command, periods):
    scratch = tmp_path_factory.mktemp("fuzz")
    prestudy, before, after = periods
    argv = [*_base_argv(command, scratch), "--prestudy", prestudy, "--before", before,
            "--after", after]
    code, stdout, stderr = run_captured(argv)
    assert_config_error(code, stdout, stderr, scratch / "out")
    assert stderr.startswith("Config: periods must be ordered prestudy < before < after: ")


@pytest.mark.parametrize("command", ["analyze", "diagnose", "placebo", "simulate"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "path under a file"])
def test_out_dir_naming_a_file_exits_2_before_any_input_is_read(tmp_path, command, under):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    taken = scratch / "out"  # _base_argv's --out-dir
    taken.write_text("not a directory\n", encoding="utf-8")
    argv = _base_argv(command, scratch) + (["--out-dir", str(taken / "sub")] if under else [])
    code, stdout, stderr = run_captured(argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("Config: out_dir ") and stderr.count("\n") == 1
    assert stderr.endswith(f"{str(taken)!r} is not a directory\n")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
    assert sorted(p.name for p in scratch.iterdir()) == ["out"]


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("under_new", [False, True], ids=["here", "under a new directory"])
def test_out_dir_name_too_long_exits_2_before_any_input_is_read(tmp_path, command, under_new):
    # Under a directory that does not exist yet, the OS reports that before the long name.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    long = "x" * (os.pathconf(scratch, "PC_NAME_MAX") + 1)
    out = scratch / "new" / long / "sub" if under_new else scratch / long
    code, stdout, stderr = run_captured(_base_argv(command, scratch) + ["--out-dir", str(out)])
    assert (code, stdout) == (2, "")
    assert stderr == f"Config: out_dir {str(out)!r}: File name too long\n"
    assert list(scratch.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["analyze", "diagnose", "placebo", "simulate"]),
    flag=st.from_regex(r"--[a-z][a-z\n-]{0,12}", fullmatch=True).filter(
        lambda f: not any(known.startswith(f) for known in KNOWN_FLAGS)
    ),
    with_value=st.booleans(),
)
def test_unknown_flag_exits_2_with_one_line(tmp_path_factory, command, flag, with_value):
    scratch = tmp_path_factory.mktemp("fuzz")
    argv = [*_base_argv(command, scratch), flag] + (["1"] if with_value else [])
    assert_config_error(*run_captured(argv), scratch / "out")


OUT = "<out>"  # stands for the test's output directory
# A panel that does not exist: reading it would exit 3, not 2.
NOT_READ = ("--config", str(PAPER_CONFIG), "--panel", "not_read.csv")


@pytest.mark.parametrize(
    "argv",
    [[], ["nonsense"], ["analyze", "stray"], ["analyze", "--alpha"], ["simulate", "-x"],
     ["analyze", "a\nb"],
     ["simulate", "--reps", "1", "--out-dir", OUT],
     ["simulate", "--mode", "coverage", "--reps", "50", "--out-dir", OUT],
     ["simulate", "--mode", "synthetic_control", "--tau", "0.9", "--out-dir", OUT],
     ["simulate", "--seed", "-1", "--out-dir", OUT],
     ["simulate", "--mode", "coverage", "--seed", "-1", "--out-dir", OUT],
     ["simulate", "--mode", "synthetic_control", "--seed", "-1", "--out-dir", OUT],
     ["diagnose", *NOT_READ, "--split-year", "2007", "--out-dir", OUT],
     ["analyze", *NOT_READ, "--split-year", "1998", "--out-dir", OUT]],
    ids=["no command", "unknown command", "positional", "missing value", "short flag",
         "positional with newline", "bracket reps 1", "coverage reps 50",
         "synthetic tau 0.9", "bracket seed -1", "coverage seed -1", "synthetic seed -1",
         "diagnose split at the end", "analyze split before"],
)
def test_malformed_invocation_exits_2(tmp_path, argv):
    out = tmp_path / "out"
    argv = [str(out) if arg == OUT else arg for arg in argv]
    assert_config_error(*run_captured(argv), out)


@pytest.mark.parametrize(
    "argv",
    [["analyze", *NOT_READ], ["diagnose", *NOT_READ], ["simulate", "--mode", "coverage"]],
    ids=["analyze", "diagnose", "simulate coverage"],
)
def test_alpha_too_small_for_a_wald_interval_exits_2(tmp_path, argv):
    # 1 - alpha/2 rounds to 1, so the Wald quantile has no finite value.
    out = tmp_path / "out"
    code, stdout, stderr = run_captured([*argv, "--alpha", "1e-17", "--out-dir", str(out)])
    assert_config_error(code, stdout, stderr, out)
    assert stderr == "Config: alpha must be in (0, 1) with 1 - alpha/2 < 1, got 1e-17\n"


@pytest.mark.parametrize("flag, name", [("--panel", "no\nsuch.csv"),
                                        ("--adjacency", "no\rsuch.csv")])
def test_missing_input_with_newline_exits_3_with_one_line(tmp_path, flag, name):
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["placebo", "--config", str(PAPER_CONFIG), flag, str(tmp_path / name),
         "--out-dir", str(out)]
    )
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("FileNotFound: ") and stderr.count("\n") == 1
    assert "\r" not in stderr and stderr.endswith("such.csv\n")
    assert not out.exists()


_PAPER = str(PAPER_CONFIG)
_EMPTY_PANEL = PAPER_CONFIG.read_bytes().replace(b"panel = bundled", b"panel =")


@pytest.mark.parametrize(
    "argv, content, expected_code, prefix",
    [
        (["analyze", "--config", _PAPER, "--panel", "{dir}"], None, 3,
         "FileNotFound: panel file not found: {dir}"),
        (["analyze", "--config", "{file}"], _EMPTY_PANEL, 3,
         "FileNotFound: panel file not found: "),
        (["analyze", "--config", _PAPER, "--adjacency", "{dir}"], None, 3,
         "FileNotFound: adjacency file not found: {dir}"),
        (["analyze", "--config", _PAPER, "--panel", "{file}"],
         b"unit,year,rate,population\nMissouri\xff,1999,1,1\n", 3,
         "Data: {file}: not UTF-8 text"),
        (["analyze", "--config", _PAPER, "--adjacency", "{file}"],
         b"unit_a,unit_b\nMissouri,\xff\n", 3, "Data: {file}: not UTF-8 text"),
        (["simulate", "--config", "{file}"], b"alpha = 0.1\n# \xff\n", 2,
         "Config: {file}: not UTF-8 text"),
        (["simulate", "--scenario", "{file}"], _MINIMAL_SCENARIO.encode() + b"# \xff\n", 2,
         "Config: {file}: not UTF-8 text"),
        (["analyze", "--config", _PAPER, "--panel", "{long}"], None, 3,
         "Data: {long}: File name too long"),
        (["analyze", "--config", _PAPER, "--adjacency", "{long}"], None, 3,
         "Data: {long}: File name too long"),
        (["simulate", "--config", "{long}"], None, 2, "Config: {long}: File name too long"),
        (["simulate", "--scenario", "{long}"], None, 2,
         "Config: scenario '{long}' is neither a shipped name"),
    ],
    ids=["panel directory", "empty panel value", "adjacency directory", "panel not UTF-8",
         "adjacency not UTF-8", "config not UTF-8", "scenario not UTF-8",
         "panel name too long", "adjacency name too long", "config name too long",
         "scenario name too long"],
)
def test_directory_or_non_utf8_input_exits_cleanly_with_one_line(
    tmp_path, argv, content, expected_code, prefix
):
    names = {"dir": tmp_path, "file": tmp_path / "input.txt",
             "long": tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))}
    if content is not None:
        names["file"].write_bytes(content)
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        [arg.format(**names) for arg in argv] + ["--out-dir", str(out)]
    )
    assert code == expected_code
    assert stdout == ""
    assert stderr.startswith(prefix.format(**names)) and stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["mode = foo", "format = xml", "alpha = 1.5", "alpha = nan", "bin_width = 0",
     "emit_plots = yes", "seed = 1.5", "before = soon", "no_such_key = 1"],
)
def test_bad_config_file_value_exits_2_before_any_output(tmp_path, line):
    config = tmp_path / "bad.conf"
    config.write_text(f"scenario = additive\nreps = 200\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(["simulate", "--config", str(config),
                                         "--out-dir", str(out)])
    assert_config_error(code, stdout, stderr, out)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--split-year" in capsys.readouterr().out


def test_flags_override_config_file_values(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "sim.conf"
    config.write_text("scenario = additive\nreps = 150\nformat = json\nmode = bracket\n",
                      encoding="utf-8")
    code, _, _ = run_captured(["simulate", "--config", str(config), "--mode", "coverage",
                               "--format", "csv", "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "mc_report.json").read_text())
    assert payload["mode"] == "coverage" and payload["reps"] == 150
    assert (out / "mc_report.csv").exists()


def test_placebo_missing_rank_unit_writes_nothing(tmp_path):
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["placebo", "--config", str(PAPER_CONFIG), "--rank-unit", "Nowhere",
         "--emit-plots", "--out-dir", str(out)]
    )
    assert code == 3
    assert stdout == ""
    assert stderr == "ArmUnavailable: Nowhere has no lc placebo estimate\n"
    assert not out.exists()


def test_diagnose_failing_after_its_pattern_tests_writes_nothing(tmp_path, monkeypatch):
    tested = []

    def pattern_test(*args, **kwargs):
        tested.append(args[3])
        return original(*args, **kwargs)

    def relative_trends_table(*args, **kwargs):
        raise MissingSEError("treated group lacks SEs in 1999")

    original = cli.pattern_test
    monkeypatch.setattr(cli, "pattern_test", pattern_test)
    monkeypatch.setattr(cli, "relative_trends_table", relative_trends_table)
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["diagnose", "--config", str(PAPER_CONFIG), "--emit-plots", "--out-dir", str(out)]
    )
    assert tested == ["iii", "iv"]
    assert code == 3
    assert stdout == ""
    assert stderr == "MissingSE: treated group lacks SEs in 1999\n"
    assert not out.exists()


def _fail_second_write(monkeypatch):
    """Make the second atomic_write_text of a run raise OSError."""
    original, calls = dio.atomic_write_text, []

    def write(path, text):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        original(path, text)

    monkeypatch.setattr(dio, "atomic_write_text", write)
    return calls


@pytest.mark.parametrize("out_dir", ["out", "new/nested/out"])
def test_failed_write_leaves_no_new_directory(tmp_path, monkeypatch, out_dir):
    calls = _fail_second_write(monkeypatch)
    (tmp_path / "run").mkdir()
    out = tmp_path / "run" / out_dir
    code, stdout, stderr = run_captured(
        ["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)]
    )
    assert len(calls) == 2
    assert code == 4 and stdout == ""
    assert stderr == "Internal: OSError: [Errno 28] No space left on device\n"
    assert list((tmp_path / "run").iterdir()) == []


def test_failed_write_keeps_an_existing_directory_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.txt").write_text("earlier run\n", encoding="utf-8")
    _fail_second_write(monkeypatch)
    code, _, _ = run_captured(["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)])
    assert code == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert [p.name for p in out.iterdir()] == ["summary.txt"]
    assert (out / "summary.txt").read_text(encoding="utf-8") == "earlier run\n"


def test_existing_out_dir_is_staged_inside_itself(tmp_path, monkeypatch):
    # Only out_dir need be writable, and nothing is moved across filesystems
    # (out_dir may be a mount point): the parent is made read-only, which
    # binds unless the tests run as root, and every staged path is checked.
    parent = tmp_path / "ro"
    out = parent / "out"
    out.mkdir(parents=True)
    staged, original = [], dio.atomic_write_text
    monkeypatch.setattr(dio, "atomic_write_text", lambda path, text: (
        staged.append(Path(path)), original(path, text)))
    parent.chmod(0o555)
    try:
        code, _, stderr = run_captured(
            ["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)])
    finally:
        parent.chmod(0o755)
    assert (code, stderr) == (0, "")
    assert staged and all(path.parent.parent == out for path in staged)
    assert sorted(p.name for p in out.iterdir()) == sorted(path.name for path in staged)
    assert [p.name for p in parent.iterdir()] == ["out"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask 022", "umask 027"])
def test_outputs_get_the_umask_mode(tmp_path, umask):
    # Into a new and into an existing directory: 0o666 less the umask, as a
    # plain write would give, not mkstemp's 0600.
    argv = ["analyze", "--config", str(PAPER_CONFIG), "--format", "csv", "--out-dir"]
    old = os.umask(umask)
    try:
        for out in (tmp_path / "new" / "out", tmp_path):
            assert run_captured([*argv, str(out)])[0] == 0
    finally:
        os.umask(old)
    for out in (tmp_path / "new" / "out", tmp_path):
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir() if p.is_file()}
        assert sorted(modes) == ["bracket_report.json", "bracket_table.csv", "summary.txt"]
        assert set(modes.values()) == {0o666 & ~umask}


def test_write_files_into_new_and_existing_directories(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    dio.write_files(nested, {"x.txt": "1\n", "y.txt": "2\n"})
    dio.write_files(nested, {"y.txt": "3\n", "z.txt": "4\n"})
    assert {p.name: p.read_text(encoding="utf-8") for p in nested.iterdir()} == {
        "x.txt": "1\n", "y.txt": "3\n", "z.txt": "4\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["a"]
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["b"]


@pytest.mark.parametrize(
    "command, flag, header, row",
    [("analyze", "--panel", "unit,year,rate,population", "{big},1999,1.0,100"),
     ("placebo", "--adjacency", "unit_a,unit_b", "Missouri,{big}")],
    ids=["panel", "adjacency"],
)
def test_csv_field_over_the_size_limit_exits_3_with_one_line(tmp_path, command, flag, header, row):
    path = tmp_path / "big.csv"
    path.write_text(f"{header}\n{row.format(big='x' * 200_000)}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        [command, "--config", _PAPER, flag, str(path), "--out-dir", str(out)]
    )
    assert code == 3
    assert stdout == ""
    assert stderr == f"Parse: {path}:2: field larger than field limit (131072)\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["lower_controls", "upper_controls"])
def test_one_explicit_control_group_exits_2_before_any_input_is_read(tmp_path, key):
    config = tmp_path / "one_sided.conf"
    config.write_text(PAPER_CONFIG.read_text(encoding="utf-8") + f"{key} = Iowa\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["analyze", "--config", str(config), "--panel", str(tmp_path / "not_read.csv"),
         "--out-dir", str(out)]
    )
    assert_config_error(code, stdout, stderr, out)
    assert stderr == "Config: lower_controls and upper_controls must be given together\n"


def test_explicit_control_groups_are_used_as_given(tmp_path):
    # The adjacency is never read: no candidate is classified.
    config = tmp_path / "explicit.conf"
    config.write_text(
        PAPER_CONFIG.read_text(encoding="utf-8")
        + "lower_controls = Iowa, Kansas\nupper_controls = Illinois\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, _, stderr = run_captured(
        ["analyze", "--config", str(config), "--adjacency", str(tmp_path / "not_read.csv"),
         "--out-dir", str(out)]
    )
    assert (code, stderr) == (0, "")
    design = json.loads((out / "bracket_report.json").read_text(encoding="utf-8"))["design"]
    assert design["lower_controls"] == ["Iowa", "Kansas"]
    assert design["upper_controls"] == ["Illinois"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("unit_a,unit_c\nOhio,Iowa\n", "Schema: {path}: header must be exactly unit_a,unit_b"),
        ("unit_a,unit_b\nOhio\n", "Parse: {path}:2: expected two nonempty fields"),
        ("unit_a,unit_b\nOhio,Iowa,Kansas\n", "Parse: {path}:2: expected two nonempty fields"),
        ("unit_a,unit_b\nOhio, \n", "Parse: {path}:2: expected two nonempty fields"),
        ("unit_a,unit_b\nIowa,Ohio\n\nOhio,Ohio\n", "Parse: {path}:4: self-edge on 'Ohio'"),
        ('unit_a,unit_b\n"Io\nwa",Ohio\nOhio,Ohio\n', "Parse: {path}:4: self-edge on 'Ohio'"),
    ],
    ids=["wrong header", "one field", "three fields", "blank field", "self-edge",
         "self-edge after a multi-line field"],
)
def test_adjacency_parse_errors_exit_3_with_one_line(tmp_path, text, expected):
    path = tmp_path / "adj.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["placebo", "--config", _PAPER, "--adjacency", str(path), "--out-dir", str(out)]
    )
    assert (code, stdout) == (3, "")
    assert stderr == expected.format(path=path) + "\n"
    assert not out.exists()


# Two plain chunks of two edges each at CHUNK_LINES = 2, on lines 2-5.
_TWO_PLAIN_CHUNKS = "unit_a,unit_b\nIowa,Ohio\nKansas,Iowa\nOhio,Kansas\nIowa,Missouri\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("Ohio,Ohio", "self-edge on 'Ohio'"),
        ("Ohio", "expected two nonempty fields"),
        (" ,Ohio", "expected two nonempty fields"),
    ],
    ids=["self-edge", "one field", "blank field"],
)
def test_an_adjacency_error_after_plain_chunks_names_its_line(tmp_path, monkeypatch, row,
                                                               message):
    # The bad row is the second line of the third chunk; numpy read the two before it.
    monkeypatch.setattr(dio, "CHUNK_LINES", 2)
    path = tmp_path / "adj.csv"
    path.write_text(f"{_TWO_PLAIN_CHUNKS}Kansas,Missouri\n{row}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["placebo", "--config", _PAPER, "--adjacency", str(path), "--out-dir", str(out)]
    )
    assert (code, stdout, stderr) == (3, "", f"Parse: {path}:7: {message}\n")
    assert not out.exists()


_ADJACENCY_UNITS = ("Iowa", "New York", "b", "B", "Ohio")
# Ways a line may write the edge {0}-{1}: either orientation, padded or not.
_EDGE_LINES = ("{0},{1}", "{1},{0}", " {0} , {1} ", "  {1},{0}  ", "{0}  ,{1} ", " {1}, {0}")


@st.composite
def _adjacency_layouts(draw):
    """Edge pairs, and a file of them in a random layout: edge order, orientation,
    repeated edges, padding spaces, blank lines, a byte-order mark and line ends."""
    unit = st.sampled_from(_ADJACENCY_UNITS)
    pairs = draw(st.lists(st.tuples(unit, unit).filter(lambda p: p[0] != p[1]), max_size=8))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    lines = [draw(st.sampled_from(_EDGE_LINES)).format(*pair)
             for pair in draw(st.permutations(pairs + repeats))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", " , "])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return pairs, draw(st.sampled_from(["", "\ufeff"])) + eol.join(["unit_a,unit_b", *lines]) + eol


@settings(max_examples=100, deadline=None)
@given(layout=_adjacency_layouts())
def test_adjacency_file_layouts_parse_to_the_graph_of_their_pairs(tmp_path_factory, layout):
    pairs, text = layout
    path = tmp_path_factory.getbasetemp() / "adjacency_layout.csv"  # rewritten by each example
    path.write_bytes(text.encode("utf-8"))
    graph, want = parse_adjacency_csv(path), AdjacencyGraph.from_pairs(pairs)
    assert graph == want
    for unit in (*_ADJACENCY_UNITS, "zz"):
        assert graph.neighbors(unit) == want.neighbors(unit)


def test_a_graph_built_with_a_self_edge_raises():
    with pytest.raises(DataError, match="^self-edge on 'a'$"):
        AdjacencyGraph(frozenset({("b", "c"), ("a", "a")}))


# --- outputs depend on the inputs' content, not their file layout ---------------

# A 10-unit x 23-year panel whose rates rise with the unit's number, so U05's
# neighbours on the path U00-...-U09 (two steps each way) lie on both sides of
# it; U09 misses 2001, a MissingData exclusion of the placebo study.
_LAYOUT_COLUMNS = ("unit", "year", "rate", "se", "population")
_LAYOUT_ROWS = tuple(
    {"unit": f"U{i:02d}", "year": str(year), "rate": repr(4.0 + i + 0.1 * ((i * year) % 7)),
     "se": repr(0.2 + 0.01 * ((i + year) % 5)), "population": str(100_000 + 977 * i + year)}
    for i in range(10) for year in range(1994, 2017) if (i, year) != (9, 2001)
)
_LAYOUT_EDGES = tuple((f"U{i:02d}", f"U{j:02d}") for i in range(10) for j in (i + 1, i + 2)
                      if j < 10)
_LAYOUT_DESIGN = ["--prestudy", "1994-1998", "--before", "1999-2007", "--after", "2008-2016"]
_LAYOUT_COMMANDS = {
    "analyze": ["analyze", "--treated", "U05", "--candidates", "neighbors", "--split-year",
                "2002"],
    "diagnose": ["diagnose", "--treated", "U05", "--candidates", "neighbors", "--split-year",
                 "2002", "--emit-plots"],
    "placebo": ["placebo", "--rank-unit", "U05", "--emit-plots"],
}


def _layout_outputs(directory, panel_text, adjacency_text):
    """``{command: {file: bytes}}`` of each layout command run on these input texts."""
    directory.mkdir(exist_ok=True)
    panel, adjacency = directory / "panel.csv", directory / "adjacency.csv"
    panel.write_bytes(panel_text.encode("utf-8"))
    adjacency.write_bytes(adjacency_text.encode("utf-8"))
    outputs = {}
    for command, argv in _LAYOUT_COMMANDS.items():
        out = directory / command
        shutil.rmtree(out, ignore_errors=True)
        code, _, stderr = run_captured([*argv, "--panel", str(panel), "--adjacency",
                                        str(adjacency), *_LAYOUT_DESIGN, "--out-dir", str(out)])
        assert (code, stderr) == (0, "")
        outputs[command] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    return outputs


@pytest.fixture(scope="module")
def canonical_layout_outputs(tmp_path_factory):
    panel = [",".join(_LAYOUT_COLUMNS)] + [",".join(r.values()) for r in _LAYOUT_ROWS]
    adjacency = ["unit_a,unit_b"] + [",".join(edge) for edge in _LAYOUT_EDGES]
    return _layout_outputs(tmp_path_factory.mktemp("canonical"), "\n".join(panel) + "\n",
                           "\n".join(adjacency) + "\n")


@st.composite
def _input_layouts(draw):
    """The layout panel and adjacency texts in a random layout: row, column and edge order,
    edge orientation and repeats, line ends, a byte-order mark, one quoted unit cell."""
    cols = draw(st.permutations(_LAYOUT_COLUMNS))
    rows = draw(st.permutations(_LAYOUT_ROWS))
    quoted = draw(st.integers(0, len(rows)))  # len(rows): no quoted cell
    lines = [",".join(cols)]
    for i, row in enumerate(rows):
        cells = {**row, "unit": f'"{row["unit"]}"'} if i == quoted else row
        lines.append(",".join(cells[c] for c in cols))
    repeats = draw(st.lists(st.sampled_from(_LAYOUT_EDGES), max_size=3))
    edges = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in draw(st.permutations(_LAYOUT_EDGES + tuple(repeats)))]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    adjacency = ["unit_a,unit_b"] + [",".join(edge) for edge in edges]
    return bom + eol.join(lines) + eol, bom + eol.join(adjacency) + eol


@settings(max_examples=25, deadline=None)
@given(layout=_input_layouts(), chunk_lines=st.integers(1, 64))
def test_outputs_do_not_depend_on_the_input_layout(tmp_path_factory, canonical_layout_outputs,
                                                   layout, chunk_lines):
    directory = tmp_path_factory.getbasetemp() / "input_layout"  # rewritten by each example
    with mock.patch.object(dio, "CHUNK_LINES", chunk_lines):
        assert _layout_outputs(directory, *layout) == canonical_layout_outputs


def _analyze_panel(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run_captured(
        ["analyze", "--config", _PAPER, "--panel", str(path), "--out-dir", str(out)]
    )
    assert not out.exists()
    return code, stdout, stderr.replace(str(path), "{path}")


def test_panel_errors_name_the_file_line_after_a_multi_line_field(tmp_path):
    # Lines 2-3 hold one record whose quoted unit spans a newline.
    text = 'unit,year,rate,population\n"x\ny",2000,1.0,100\nb,2000,-1,100\n'
    assert _analyze_panel(tmp_path, text) == (
        3, "", "Parse: {path}:4: b 2000: rate must be finite and >= 0\n"
    )


@pytest.mark.parametrize("rows, message", [
    ('"a",2000,-1,100\nb,x,1.0,100\n', "a 2000: rate must be finite and >= 0"),
    ('b,x,1.0,100\n"a",2000,-1,100\n', "column 'year': not an integer: 'x'"),
], ids=["out of range, then malformed", "malformed, then out of range"])
def test_the_row_parser_names_the_first_bad_row_in_file_order(tmp_path, rows, message):
    # The quote sends the file to the row parser, which checks one row at a time.
    text = "unit,year,rate,population\n" + rows
    assert _analyze_panel(tmp_path, text) == (3, "", f"Parse: {{path}}:2: {message}\n")


_HUGE = 10**400


@pytest.mark.parametrize(
    "header, row, message",
    [
        ("unit,year,rate,population,deaths", f"a,2000,1.0,100,{_HUGE}",
         "a 2000: deaths must be at most 2**53"),
        ("unit,year,rate,population,deaths", f"a,2000,1.0,{_HUGE},5",
         "a 2000: population must be at most 2**53"),
        ("unit,year,rate,population", f"a,2000,1.0,{_HUGE}",
         "a 2000: population must be at most 2**53"),
        ("unit,year,rate,population,se,deaths", f"a,2000,1.0,100,0.5,{2**53 + 1}",
         "a 2000: deaths must be at most 2**53"),
    ],
    ids=["deaths, se derived", "population, se derived", "population", "deaths, se given"],
)
def test_counts_beyond_2_53_exit_3_with_one_parse_line(tmp_path, header, row, message):
    text = f"{header}\n{row}\n"
    assert _analyze_panel(tmp_path, text) == (3, "", f"Parse: {{path}}:2: {message}\n")


def test_bundled_panel_with_a_huge_population_exits_3(tmp_path):
    row = "Missouri,2000,4.7,0.289834,5595000"
    text = dio.bundled_path("missouri_region.csv").read_text(encoding="utf-8")
    assert row in text
    text = text.replace(row, f"Missouri,2000,4.7,0.289834,{_HUGE}")
    code, stdout, stderr = _analyze_panel(tmp_path, text)
    assert (code, stdout) == (3, "")
    assert stderr.startswith("Parse: {path}:") and stderr.count("\n") == 1
    assert stderr.endswith(": Missouri 2000: population must be at most 2**53\n")


def test_a_count_of_2_53_is_accepted(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(f"unit,year,rate,population,deaths\na,2000,1.0,{2**53},{2**53}\n",
                    encoding="utf-8")
    assert parse_panel_csv(path).get("a", 2000).population == 2**53


def test_a_repeated_header_column_exits_3_with_one_schema_line(tmp_path):
    text = "unit,year,rate,population, rate\na,2000,1.0,100,9.0\n"
    assert _analyze_panel(tmp_path, text) == (
        3, "", "Schema: {path}: header names column 'rate' more than once\n"
    )


@pytest.mark.parametrize("name, parse", [("missouri_region.csv", parse_panel_csv),
                                         ("us_state_adjacency.csv", parse_adjacency_csv)],
                         ids=["panel", "adjacency"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, name, parse):
    bundled = dio.bundled_path(name)
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + bundled.read_bytes())
    got, want = parse(path), parse(bundled)
    if parse is parse_panel_csv:
        got, want = got.records, want.records
    assert got == want


@pytest.mark.parametrize("text, load", [("reps = 200\nscenario = additive\n", load_config),
                                        (_MINIMAL_SCENARIO, load_scenario)],
                         ids=["config", "scenario"])
def test_a_leading_byte_order_mark_is_ignored_in_config_and_scenario_files(tmp_path, text, load):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load(marked) == load(plain)


# Rows that each break two value rules; the first rule in the order rate,
# population > 0, population <= 2**53, se, deaths >= 0, deaths <= 2**53 is named.
_TWO_RULES_BROKEN = [
    ((math.nan, 0, 0.5, 1), "nan,0,0.5,1", "rate must be finite and >= 0"),
    ((1.0, 0, -1.0, 1), "1.0,0,-1,1", "population must be positive"),
    ((1.0, 2**53 + 1, 0.5, -1), f"1.0,{2**53 + 1},0.5,-1", "population must be at most 2**53"),
    ((1.0, 100, math.inf, -1), "1.0,100,inf,-1", "se must be finite and >= 0"),
]


@pytest.mark.parametrize("values, cells, message", _TWO_RULES_BROKEN,
                         ids=["rate", "population > 0", "population <= 2**53", "se"])
def test_a_row_breaking_two_rules_names_the_first(tmp_path, values, cells, message):
    rate, population, se, deaths = values
    with pytest.raises(DataError) as caught:
        PanelRecord("a", 2000, rate, population, se, deaths)
    assert str(caught.value) == f"a 2000: {message}"
    text = f"unit,year,rate,population,se,deaths\na,2000,{cells}\n"  # a plain line
    assert _analyze_panel(tmp_path, text) == (3, "", f"Parse: {{path}}:2: a 2000: {message}\n")


@pytest.mark.parametrize("unit", ["a", '"a"'], ids=["plain line", "quoted line"])
def test_a_row_whose_se_is_derived_names_its_first_broken_rule(tmp_path, unit):
    # With deaths and no se column, the range rules run before the se is derived.
    with pytest.raises(DataError, match=r"^a 2000: rate must be finite and >= 0$"):
        PanelRecord("a", 2000, math.nan, 0, None, 5)
    text = f"unit,year,rate,population,deaths\n{unit},2000,nan,0,5\n"
    assert _analyze_panel(tmp_path, text) == (
        3, "", "Parse: {path}:2: a 2000: rate must be finite and >= 0\n"
    )


# --- values that overflow float64 ---------------------------------------------


def _run_paper_command(tmp_path, command, text):
    """``command`` with the paper config on the panel ``text``; (code, stdout, stderr)."""
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", _PAPER, "--panel", str(path), "--out-dir", str(out)]
    code, stdout, stderr = run_captured(argv)
    assert not out.exists()
    return code, stdout, stderr


@pytest.mark.parametrize("command, group, period", [
    ("analyze", "Missouri", "1999-2007"),
    ("diagnose", "Missouri", "1999-2002"),
    ("placebo", "Missouri, Oklahoma, Tennessee", "1999-2007"),
])
@pytest.mark.parametrize("column, value, name", [
    ("se", "1e300", "SE"),  # (w * se) ** 2 raises OverflowError
    ("rate", "1e305", "mean"),  # w * rate is inf
])
def test_a_huge_se_or_rate_in_the_bundled_panel_exits_3_naming_the_group(
    tmp_path, command, group, period, column, value, name
):
    row = "Missouri,2000,4.7,0.289834,5595000"
    text = dio.bundled_path("missouri_region.csv").read_text(encoding="utf-8")
    assert row in text
    fields = dict(zip(("unit", "year", "rate", "se", "population"), row.split(",")))
    fields[column] = value
    text = text.replace(row, ",".join(fields.values()))
    assert _run_paper_command(tmp_path, command, text) == (
        3, "",
        f"OutOfDomain: {group} over {period}: {name} is inf; "
        "the panel's values overflow float64\n",
    )


_UNITS = ("t", "l1", "l2", "u1", "u2")
_YEARS = range(2000, 2007)
_DESIGN = """treated = t
prestudy = 2000-2001
before = 2002-2004
after = 2005-2006
split_year = 2003
rank_unit = t
"""
def _run_small_panel(command, rates, *flags):
    """``command`` on units with the given rate in each year of 2000-2006 (SE 0.1, population 1)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rows = "".join(f"{unit},{year},{rate!r},0.1,1\n"
                       for unit, by_year in rates.items() for year, rate in zip(_YEARS, by_year))
        (tmp / "panel.csv").write_text("unit,year,rate,se,population\n" + rows, encoding="utf-8")
        edges = itertools.combinations(sorted(rates), 2)
        (tmp / "adj.csv").write_text("unit_a,unit_b\n" + "".join(f"{a},{b}\n" for a, b in edges),
                                     encoding="utf-8")
        (tmp / "cfg.tomlish").write_text(
            f"{_DESIGN}candidates = neighbors\npanel = {tmp / 'panel.csv'}\n"
            f"adjacency = {tmp / 'adj.csv'}\n", encoding="utf-8")
        out = tmp / "out"
        result = run_captured(
            [command, "--config", str(tmp / "cfg.tomlish"), "--out-dir", str(out), *flags])
        assert not out.exists()
        return result


_MAX = sys.float_info.max


@pytest.mark.parametrize("command, rates, flags, message", [
    # prestudy 2000-2001, before 2002-2004, after 2005-2006, split after 2003
    ("analyze", {"t": [2, 2, 1, 1, 1, 1e307, 1e307], "l": [1] * 7, "u": [3, 3, 1, 1, 1, 1, 1]},
     (), "t against l, 2002-2004 to 2005-2006: percent is inf; "),
    ("placebo", {"t": [1, 1, 0, 0, 0, _MAX, 0], "u": [2, 2, _MAX, 0, 0, 0, 0]},
     ("--before", "2002-2002", "--after", "2005-2005"), "placebo unit t: uc estimate is inf; "),
    ("diagnose", {"t": [2, 2, 0, 0, _MAX, 0, 0], "l": [1] * 7, "u": [3, 3, 8e307, 8e307, 0, 0, 0]},
     (), "gap of u over t, 2002-2003 to 2004-2004: gap change is -inf; "),
])
def test_estimates_that_overflow_exit_3_naming_where(command, rates, flags, message):
    code, stdout, stderr = _run_small_panel(command, rates, *flags)
    assert (code, stdout) == (3, "")
    assert stderr == f"OutOfDomain: {message}the panel's values overflow float64\n"


_MAGNITUDES = (1e-300, 1.0, 1e150, 1e300, 1e306, 1e307, sys.float_info.max / 4)


@st.composite
def _huge_cells(draw):
    """(rate, se, population) of every unit-year, rates and SEs each of one magnitude.

    One magnitude an example, and SEs on every row or on none, keep some
    panels finite through the summaries, so the estimates made from them
    are reached; values reach ``sys.float_info.max`` (4 * max / 4) and
    populations 2**53.
    """
    rate_scale, se_scale = (draw(st.sampled_from(_MAGNITUDES)) for _ in range(2))
    rates = st.floats(0.0, 4.0).map(lambda u: u * rate_scale)
    ses = st.floats(0.0, 4.0).map(lambda u: u * se_scale) if draw(st.booleans()) else st.none()
    populations = st.integers(1, draw(st.sampled_from([1, 10, 10**7, 2**53])))
    return draw(st.lists(st.tuples(rates, ses, populations),
                         min_size=len(_UNITS) * len(_YEARS), max_size=len(_UNITS) * len(_YEARS)))


@given(
    cells=_huge_cells(),
    controls=st.sampled_from(["candidates = l1,l2,u1,u2",
                              "lower_controls = l1,l2\nupper_controls = u1,u2"]),
    report_format=st.sampled_from(["json", "csv"]),
)
@settings(max_examples=60, deadline=None)
def test_huge_rates_ses_and_populations_exit_0_or_3_with_one_line(cells, controls, report_format):
    # Every value is in range for the parser, so each command either reports
    # or refuses with one line; a refusal leaves no output behind.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rows = [f"{u},{y},{rate!r},{'' if se is None else repr(se)},{pop}\n"
                for (u, y), (rate, se, pop) in zip(itertools.product(_UNITS, _YEARS), cells)]
        (tmp / "panel.csv").write_text("unit,year,rate,se,population\n" + "".join(rows),
                                       encoding="utf-8")
        edges = itertools.combinations(_UNITS, 2)
        (tmp / "adj.csv").write_text("unit_a,unit_b\n" + "".join(f"{a},{b}\n" for a, b in edges),
                                     encoding="utf-8")
        (tmp / "cfg.tomlish").write_text(
            f"{_DESIGN}{controls}\nformat = {report_format}\npanel = {tmp / 'panel.csv'}\n"
            f"adjacency = {tmp / 'adj.csv'}\n", encoding="utf-8")
        for command in ("analyze", "diagnose", "placebo"):
            out = tmp / command
            code, _, stderr = run_captured(
                [command, "--config", str(tmp / "cfg.tomlish"), "--out-dir", str(out)]
            )
            assert code in (0, 3), stderr
            if code == 0:
                assert stderr == "" and out.is_dir()
            else:
                assert stderr.count("\n") == 1 and stderr.endswith("\n")
                assert not out.exists()
