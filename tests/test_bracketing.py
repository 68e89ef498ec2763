import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel
from didbracket.bracketing import (
    bracket_bounds,
    classify_candidates,
    construct_control_groups,
    full_analysis,
    minmax_ci,
    validate_ordering,
)
from didbracket.errors import EmptyBracketError, LevelMismatchError, OutOfDomainError
from didbracket.estimation import did_point, weighted_period_mean
from didbracket.io import round_half_up
from didbracket.model import (
    ConfInterval,
    PanelDataset,
    PanelRecord,
    PeriodRange,
    StudyDesign,
)

PRESTUDY = PeriodRange(1994, 1998)


def test_construct_groups_reproduces_published_sets(bundled_panel):
    groups = construct_control_groups(
        bundled_panel, "Missouri", bundled_panel.units - {"Missouri"}, PRESTUDY
    )
    assert groups.lower == {"Iowa", "Kansas", "Kentucky", "Nebraska", "Oklahoma"}
    assert groups.upper == {"Arkansas", "Illinois", "Tennessee"}
    assert weighted_period_mean(bundled_panel, {"Missouri"}, PRESTUDY).mean == pytest.approx(
        6.1, abs=0.01
    )
    assert groups.lower | groups.upper == bundled_panel.units - {"Missouri"}  # no ties


def test_construct_groups_one_sided_raises():
    panel = make_panel(
        {
            "t": {1994: 5.0, 1999: 5.0, 2008: 5.0},
            "a": {1994: 1.0, 1999: 1.0, 2008: 1.0},
            "b": {1994: 2.0, 1999: 2.0, 2008: 2.0},
        }
    )
    with pytest.raises(EmptyBracketError) as err:
        construct_control_groups(panel, "t", {"a", "b"}, PeriodRange(1994, 1994))
    assert err.value.side == "upper"


def test_exact_tie_left_unassigned():
    panel = make_panel(
        {"t": {1994: 5.0}, "tie": {1994: 5.0}, "lo": {1994: 1.0}, "hi": {1994: 9.0}}
    )
    groups = classify_candidates(panel, "t", {"tie", "lo", "hi"}, PeriodRange(1994, 1994))
    assert "tie" not in groups.lower | groups.upper
    assert groups.lower == {"lo"} and groups.upper == {"hi"}


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_construct_groups_order_invariant(bundled_panel, seed):
    candidates = list(bundled_panel.units - {"Missouri"})
    random.Random(seed).shuffle(candidates)
    groups = construct_control_groups(bundled_panel, "Missouri", candidates, PRESTUDY)
    assert groups.lower == {"Iowa", "Kansas", "Kentucky", "Nebraska", "Oklahoma"}
    assert groups.upper == {"Arkansas", "Illinois", "Tennessee"}


def test_validate_ordering_published_points(bundled_panel, paper_design):
    report = validate_ordering(bundled_panel, paper_design, paper_design.before, 0.05)
    assert round_half_up(report.diff_uc_minus_t.point, 1) == 0.5
    assert round_half_up(report.diff_t_minus_lc.point, 1) == 2.0
    assert report.flags == ()
    assert report.diff_uc_minus_t.ci.lower < 0.5 < report.diff_uc_minus_t.ci.upper


def test_validate_ordering_degenerate_identical_means():
    panel = make_panel(
        {"t": {1999: 3.0}, "lo": {1999: 3.0}, "hi": {1999: 3.0}}, se=0.0
    )
    design = StudyDesign(
        "t", frozenset({"lo"}), frozenset({"hi"}),
        PeriodRange(1994, 1994), PeriodRange(1999, 1999), PeriodRange(2008, 2008),
    )
    report = validate_ordering(panel, design, PeriodRange(1999, 1999), 0.05)
    assert report.diff_uc_minus_t.point == 0.0
    assert report.diff_uc_minus_t.ci.width() == 0.0
    assert report.flags  # zero differences count as an ordering violation


def test_validate_ordering_flags_violation():
    panel = make_panel({"t": {1999: 5.0}, "lo": {1999: 1.0}, "hi": {1999: 4.0}})
    design = StudyDesign(
        "t", frozenset({"lo"}), frozenset({"hi"}),
        PeriodRange(1994, 1994), PeriodRange(1999, 1999), PeriodRange(2008, 2008),
    )
    report = validate_ordering(panel, design, PeriodRange(1999, 1999), 0.05)
    assert report.diff_uc_minus_t.point < 0
    assert any("upper_not_above" in f for f in report.flags)


@pytest.mark.parametrize(
    "a,b,expected",
    [((0.9, 1.3), None, (0.9, 1.3)), ((1.0, 1.0), None, (1.0, 1.0)), ((1.3, 0.9), None, (0.9, 1.3))],
)
def test_bracket_bounds(a, b, expected):
    assert bracket_bounds(*a) == expected


def test_minmax_ci_published_intervals():
    got = minmax_ci(ConfInterval(0.6, 1.2, 0.95), ConfInterval(0.9, 1.7, 0.95))
    assert (got.lower, got.upper) == (0.6, 1.7)
    got = minmax_ci(ConfInterval(0.2, 1.0, 0.95), ConfInterval(0.6, 1.4, 0.95))
    assert (got.lower, got.upper) == (0.2, 1.4)


def test_minmax_ci_identity_and_level_mismatch():
    ci = ConfInterval(0.1, 0.9, 0.95)
    assert minmax_ci(ci, ci) == ci
    with pytest.raises(LevelMismatchError):
        minmax_ci(ci, ConfInterval(0.1, 0.9, 0.90))


@given(
    lo1=st.floats(-5, 5), w1=st.floats(0, 5),
    lo2=st.floats(-5, 5), w2=st.floats(0, 5),
)
def test_minmax_ci_contains_both_inputs(lo1, w1, lo2, w2):
    a = ConfInterval(lo1, lo1 + w1, 0.95)
    b = ConfInterval(lo2, lo2 + w2, 0.95)
    combined = minmax_ci(a, b)
    for ci in (a, b):
        assert combined.lower <= ci.lower and ci.upper <= combined.upper


def test_full_analysis_reproduces_published_table(bundled_panel, paper_design):
    report = full_analysis(bundled_panel, paper_design, 0.05)
    assert round_half_up(report.est_upper_ctrl.point, 1) == 1.3
    assert round_half_up(report.est_lower_ctrl.point, 1) == 0.9
    assert report.bracket[0] == report.est_lower_ctrl.point
    assert report.bracket[1] == report.est_upper_ctrl.point
    assert report.est_upper_ctrl.pct_point == pytest.approx(27.08, abs=0.5)
    assert report.est_lower_ctrl.pct_point == pytest.approx(17.31, abs=0.5)
    # min-max interval is the union span of the two arm CIs
    assert report.minmax_ci.lower == min(
        report.est_lower_ctrl.ci.lower, report.est_upper_ctrl.ci.lower
    )
    assert report.minmax_ci.upper == max(
        report.est_lower_ctrl.ci.upper, report.est_upper_ctrl.ci.upper
    )


def test_full_analysis_restricted_after_period(bundled_panel, paper_design):
    design = StudyDesign(
        paper_design.treated, paper_design.lower_controls, paper_design.upper_controls,
        paper_design.prestudy, paper_design.before, PeriodRange(2008, 2013),
    )
    report = full_analysis(bundled_panel, design, 0.05)
    assert round_half_up(report.est_upper_ctrl.point, 1) == 1.0
    assert round_half_up(report.est_lower_ctrl.point, 1) == 0.6


def test_full_analysis_null_construction():
    # Both control groups share the treated unit's exact trend.
    years = {1994: 2.0, 1999: 3.0, 2008: 4.0}
    panel = make_panel(
        {
            "t": years,
            "lo": {y: v - 1.0 for y, v in years.items()},
            "hi": {y: v + 1.0 for y, v in years.items()},
        }
    )
    design = StudyDesign(
        "t", frozenset({"lo"}), frozenset({"hi"}),
        PeriodRange(1994, 1994), PeriodRange(1999, 1999), PeriodRange(2008, 2008),
    )
    report = full_analysis(panel, design, 0.05)
    assert report.est_lower_ctrl.point == pytest.approx(0.0, abs=1e-12)
    assert report.est_upper_ctrl.point == pytest.approx(0.0, abs=1e-12)
    assert report.bracket == (report.est_lower_ctrl.point, report.est_upper_ctrl.point)


def test_full_analysis_deterministic(bundled_panel, paper_design):
    a = full_analysis(bundled_panel, paper_design, 0.05, split_year=2002)
    b = full_analysis(bundled_panel, paper_design, 0.05, split_year=2002)
    assert a == b


panel_strategy = st.integers(0, 2**31 - 1)


@given(seed=panel_strategy)
@settings(max_examples=60)
def test_pooled_did_lies_inside_bracket(seed):
    # With period-invariant populations the pooled control mean is a fixed
    # convex combination of the two group means, so its DiD estimate falls
    # between the two arm estimates.
    rng = random.Random(seed)
    units = {"t": None, "l1": None, "l2": None, "u1": None, "u2": None}
    records = []
    for unit in units:
        population = rng.randint(10_000, 5_000_000)
        for year in (1999, 2008):
            records.append(
                PanelRecord(unit, year, rng.uniform(0, 20), population, se=0.1)
            )
    panel = PanelDataset(records)
    before, after = PeriodRange(1999, 1999), PeriodRange(2008, 2008)
    lower, upper = {"l1", "l2"}, {"u1", "u2"}

    def arm(controls):
        return did_point(
            weighted_period_mean(panel, {"t"}, before),
            weighted_period_mean(panel, {"t"}, after),
            weighted_period_mean(panel, controls, before),
            weighted_period_mean(panel, controls, after),
        )

    lo, hi = bracket_bounds(arm(lower), arm(upper))
    pooled = arm(lower | upper)
    assert lo - 1e-9 <= pooled <= hi + 1e-9


def test_ordering_check_with_an_infinite_interval_is_out_of_domain():
    # Each summary SE is finite, but two of them squared and summed are not.
    panel = make_panel({"t": {2000: 2.0}, "l": {2000: 1.0}, "u": {2000: 3.0}}, se=1.3e154,
                       population=1)
    period = PeriodRange(2000, 2000)
    design = StudyDesign("t", frozenset({"l"}), frozenset({"u"}), period, period, period)
    with pytest.raises(OutOfDomainError, match=(
        r"^ordering check over 2000-2000: upper-minus-treated CI lower end is -inf; "
    )):
        validate_ordering(panel, design, period, 0.05)


def test_display_rounding_keeps_a_value_too_large_to_scale():
    assert round_half_up(1e308, 1) == 1e308
    assert round_half_up(-1e308, 0) == -1e308
    assert round_half_up(2.25, 1) == 2.3
