"""Oracle for the report serializer.

Every JSON report is dumped by one walker over the result dataclasses. These
tests compare it with in-test copies of the hand-built payload dicts it
replaced, on arbitrary finite values, so any difference in the bytes of a
report shows here.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didbracket import cli
from didbracket.diagnostics import PatternTestReport
from didbracket.errors import InvariantError
from didbracket.io import AnalysisConfig, bracket_report_dict, to_json
from didbracket.model import (
    BracketReport,
    ConfInterval,
    DiffEstimate,
    EffectEstimate,
    OrderingReport,
    PeriodRange,
    StudyDesign,
)
from didbracket.placebo import PlaceboResult
from didbracket.simulation import CoverageResult, McReport

# --- the replaced payload builders, kept here as the oracle ---------------------


def old_ci_dict(ci):
    return {"lower": ci.lower, "upper": ci.upper, "level": ci.level}


def old_effect_dict(est):
    return {
        "point": est.point,
        "se": est.se,
        "ci": old_ci_dict(est.ci),
        "pct_point": est.pct_point,
        "pct_ci": old_ci_dict(est.pct_ci),
        "pct_se_delta": est.pct_se_delta,
        "denom": est.denom,
    }


def old_bracket_report_dict(report, design):
    payload = {
        "schema_version": 1,
        "alpha": report.alpha,
        "design": {
            "treated": design.treated,
            "lower_controls": sorted(design.lower_controls),
            "upper_controls": sorted(design.upper_controls),
            "prestudy": str(design.prestudy),
            "before": str(design.before),
            "after": str(design.after),
        },
        "lower_ctrl": old_effect_dict(report.est_lower_ctrl),
        "upper_ctrl": old_effect_dict(report.est_upper_ctrl),
        "bracket": list(report.bracket),
        "minmax_ci": old_ci_dict(report.minmax_ci),
        "ordering": {
            "period": str(report.ordering.period),
            "upper_minus_treated": {
                "point": report.ordering.diff_uc_minus_t.point,
                "ci": old_ci_dict(report.ordering.diff_uc_minus_t.ci),
            },
            "treated_minus_lower": {
                "point": report.ordering.diff_t_minus_lc.point,
                "ci": old_ci_dict(report.ordering.diff_t_minus_lc.ci),
            },
            "flags": list(report.ordering.flags),
        },
    }
    payload["all_controls"] = old_effect_dict(report.est_all_ctrl)
    payload["all_controls"]["note"] = "assumes parallel trends"
    if report.diagnostics is not None:
        payload["diagnostics"] = [
            {
                "pattern": d.pattern,
                "split_year": d.split_year,
                "p_a": d.p_a,
                "p_b": d.p_b,
                "iu_pvalue": d.iu_pvalue,
                "evidence": d.evidence,
                "alpha": d.alpha,
            }
            for d in report.diagnostics
        ]
    return payload


def old_bracket_mc_report(scenario, report):
    return {
        "schema_version": 1,
        "mode": "bracket",
        "scenario": scenario,
        "reps": report.reps,
        "true_effect": report.true_effect,
        "mean_effect_lc": report.mean_effect_lc,
        "mcse_lc": report.mcse_lc,
        "mean_effect_uc": report.mean_effect_uc,
        "mcse_uc": report.mcse_uc,
        "bracket_holds": report.bracket_holds,
        "flags": list(report.flags),
    }


def old_coverage_mc_report(scenario, result):
    return {
        "schema_version": 1,
        "mode": "coverage",
        "scenario": scenario,
        "reps": result.reps,
        "alpha": result.alpha,
        "coverage": result.coverage,
        "mcse": result.mcse,
    }


def old_rank_dict(rank):
    return {"n_total": rank.n_total, "n_strictly_greater": rank.n_strictly_greater,
            "rank": rank.rank}


def dumped(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- strategies ------------------------------------------------------------------

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
level = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
units = st.frozensets(st.text(max_size=6), max_size=6)
flags = st.lists(
    st.sampled_from(["OrderingViolation:upper_not_above_treated",
                     "OrderingViolation:treated_not_above_lower",
                     "AssumptionViolation:drift_ordering"]),
    unique=True,
).map(tuple)


@st.composite
def periods(draw):
    start, end = sorted(draw(st.tuples(st.integers(1900, 2100), st.integers(1900, 2100))))
    return PeriodRange(start, end)


@st.composite
def intervals(draw, lvl):
    lower, upper = sorted(draw(st.tuples(finite, finite)))
    return ConfInterval(lower, upper, lvl)


@st.composite
def estimates(draw, lvl):
    lower, point, upper = sorted(draw(st.tuples(finite, finite, finite)))
    return EffectEstimate(
        point=point,
        se=draw(finite),
        ci=ConfInterval(lower, upper, lvl),
        pct_point=draw(finite),
        pct_ci=draw(intervals(lvl)),
        pct_se_delta=draw(finite),
        denom=draw(positive),
    )


@st.composite
def pattern_reports(draw):
    return PatternTestReport(
        split_year=draw(st.integers(1900, 2100)),
        p_a=draw(finite),
        p_b=draw(finite),
        pattern=draw(st.sampled_from(["iii", "iv"])),
        iu_pvalue=draw(finite),
        evidence=draw(st.booleans()),
        alpha=draw(level),
    )


@st.composite
def bracket_reports(draw):
    lvl = draw(level)
    lower, upper, pooled = (draw(estimates(lvl)) for _ in range(3))
    return BracketReport(
        est_lower_ctrl=lower,
        est_upper_ctrl=upper,
        bracket=tuple(sorted((lower.point, upper.point))),
        minmax_ci=ConfInterval(
            min(lower.ci.lower, upper.ci.lower), max(lower.ci.upper, upper.ci.upper), lvl
        ),
        ordering=OrderingReport(
            diff_uc_minus_t=DiffEstimate(draw(finite), draw(intervals(lvl))),
            diff_t_minus_lc=DiffEstimate(draw(finite), draw(intervals(lvl))),
            period=draw(periods()),
            flags=draw(flags),
        ),
        alpha=draw(level),
        est_all_ctrl=pooled,
        diagnostics=draw(st.none() | st.lists(pattern_reports(), max_size=3).map(tuple)),
    )


designs = st.builds(
    StudyDesign,
    treated=st.text(max_size=6),
    lower_controls=units,
    upper_controls=units,
    prestudy=periods(),
    before=periods(),
    after=periods(),
)


# --- oracles ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(report=bracket_reports(), design=designs)
def test_bracket_report_matches_the_replaced_builder(report, design):
    assert to_json(bracket_report_dict(report, design)) == dumped(
        old_bracket_report_dict(report, design)
    )


def _simulate(monkeypatch, mode, name, result):
    # The command's own payload, with the experiment replaced by ``result``.
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: result)
    files, _ = cli.cmd_simulate(AnalysisConfig(mode=mode, scenario="additive", reps=200))
    return files["mc_report.json"]


@settings(max_examples=100, deadline=None)
@given(
    report=st.builds(
        McReport, reps=st.integers(2, 10**6), true_effect=finite, mean_effect_lc=finite,
        mcse_lc=finite, mean_effect_uc=finite, mcse_uc=finite,
        bracket_holds=st.booleans(), flags=flags,
    )
)
def test_bracket_mc_report_matches_the_replaced_dict(report):
    with pytest.MonkeyPatch.context() as mp:
        text = _simulate(mp, "bracket", "verify_bracketing", report)
    assert text == dumped(old_bracket_mc_report("additive", report))


@settings(max_examples=100, deadline=None)
@given(
    result=st.builds(CoverageResult, coverage=finite, mcse=finite,
                     reps=st.integers(100, 10**6), alpha=level)
)
def test_coverage_mc_report_matches_the_replaced_dict(result):
    with pytest.MonkeyPatch.context() as mp:
        text = _simulate(mp, "coverage", "coverage_experiment", result)
    assert text == dumped(old_coverage_mc_report("additive", result))


@settings(max_examples=30, deadline=None)
@given(
    effects=st.lists(
        st.tuples(st.none() | st.floats(-5, 5), st.none() | st.floats(-5, 5)),
        min_size=1, max_size=8,
    ),
)
def test_placebo_rank_matches_the_replaced_dict(effects):
    # Unit U0 always has both arms, so it can be ranked.
    results = tuple(
        PlaceboResult(f"U{i}", effect_lc=1.0, effect_uc=1.0) if i == 0
        else PlaceboResult(f"U{i}", effect_lc=lc, effect_uc=uc)
        if lc is not None or uc is not None
        else PlaceboResult(f"U{i}", excluded_reason="MissingData")
        for i, (lc, uc) in enumerate(effects)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_placebo_study", lambda *args, **kwargs: results)
        files, _ = cli.cmd_placebo(
            AnalysisConfig(prestudy=PeriodRange(1994, 1998), before=PeriodRange(1999, 2007),
                           after=PeriodRange(2008, 2016), rank_unit="U0")
        )
    expected = {
        "schema_version": 1,
        "n_results": len(results),
        "n_lc": sum(1 for r in results if r.effect_lc is not None),
        "n_uc": sum(1 for r in results if r.effect_uc is not None),
        "excluded": [{"unit": r.unit_id, "reason": r.excluded_reason}
                     for r in results if r.excluded_reason is not None],
        "rank": {"unit": "U0",
                 "arms": {arm: old_rank_dict(cli.rank_effect(results, "U0", arm))
                          for arm in ("lc", "uc")}},
    }
    assert files["placebo_summary.json"] == dumped(expected)


# --- non-finite values are refused with their path --------------------------------


def _estimate(**changes):
    fields = dict(point=1.0, se=0.1, ci=ConfInterval(0.8, 1.2, 0.95), pct_point=20.0,
                  pct_ci=ConfInterval(16.0, 24.0, 0.95), pct_se_delta=2.0, denom=5.0)
    fields.update(changes)
    return EffectEstimate(**fields)


def _report(lower=None, upper=None, diagnostics=None):
    lower, upper = lower or _estimate(), upper or _estimate()
    return BracketReport(
        est_lower_ctrl=lower,
        est_upper_ctrl=upper,
        bracket=(1.0, 1.0),
        minmax_ci=ConfInterval(min(lower.ci.lower, upper.ci.lower),
                               max(lower.ci.upper, upper.ci.upper), 0.95),
        ordering=OrderingReport(DiffEstimate(0.5, ConfInterval(0.3, 0.7, 0.95)),
                                DiffEstimate(2.0, ConfInterval(1.8, 2.2, 0.95)),
                                PeriodRange(1999, 2007)),
        alpha=0.05,
        est_all_ctrl=_estimate(),
        diagnostics=diagnostics,
    )


def _diagnostic(p_a):
    return PatternTestReport(2002, p_a, 0.5, "iv", 0.5, False, 0.05)


@pytest.mark.parametrize(
    "report, path",
    [
        (_report(lower=_estimate(ci=ConfInterval(-math.inf, 1.2, 0.95))),
         "report.lower_ctrl.ci.lower"),
        (_report(upper=_estimate(pct_point=math.nan)), "report.upper_ctrl.pct_point"),
        (_report(diagnostics=(_diagnostic(0.5), _diagnostic(math.inf))),
         "report.diagnostics[1].p_a"),
    ],
    ids=["interval bound", "effect field", "diagnostic in a tuple"],
)
def test_non_finite_value_in_a_dataclass_names_its_path(report, path):
    design = StudyDesign("T", {"L"}, {"U"}, PeriodRange(1994, 1998),
                         PeriodRange(1999, 2007), PeriodRange(2008, 2016))
    with pytest.raises(InvariantError, match=re.escape(f"at {path}") + "$"):
        to_json(bracket_report_dict(report, design))
