import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel
from didbracket.diagnostics import (
    gap_change_test,
    pattern_test,
    relative_trends_table,
    split_before,
)
from didbracket.errors import BadSplitError, EmptyGroupError, MissingSEError
from didbracket.model import PanelDataset, PanelRecord, PeriodRange, StudyDesign

FIRST = PeriodRange(1999, 2002)
SECOND = PeriodRange(2003, 2007)

# Frozen from the high-precision normal tail: Phi(-5).
PHI_MINUS_5 = 2.8665157187919333e-07


def two_group_panel(hi_first, hi_second, lo_first, lo_second, se):
    """Two units with constant rates on each sub-period."""
    cells = {"hi": {}, "lo": {}}
    for year in FIRST.years():
        cells["hi"][year] = hi_first
        cells["lo"][year] = lo_first
    for year in SECOND.years():
        cells["hi"][year] = hi_second
        cells["lo"][year] = lo_second
    return make_panel(cells, se=se)


def se_for_cell_target(target, n_years):
    # weighted_period_mean with equal weights gives cell se = record_se / sqrt(n)
    return target * math.sqrt(n_years)


def test_equal_gaps_give_half():
    panel = two_group_panel(5.0, 6.0, 2.0, 3.0, se=0.3)  # gap 3.0 in both halves
    p = gap_change_test(panel, {"hi"}, {"lo"}, FIRST, SECOND, "widens")
    assert p == pytest.approx(0.5)


def test_gap_change_five_sigma():
    # Gap widens by 1.0; per-cell SEs chosen so the 4-cell quadrature SE is 0.2.
    cell_se = 0.1  # sqrt(4 * 0.01) = 0.2
    panel = two_group_panel(
        5.0, 6.0, 2.0, 2.0, se=None
    )
    records = [
        PanelRecord(r.unit_id, r.year, r.rate, r.population,
                    se=se_for_cell_target(cell_se, len(FIRST) if r.year <= 2002 else len(SECOND)))
        for r in panel.records
    ]
    panel = PanelDataset(records)
    p_widens = gap_change_test(panel, {"hi"}, {"lo"}, FIRST, SECOND, "widens")
    p_narrows = gap_change_test(panel, {"hi"}, {"lo"}, FIRST, SECOND, "narrows")
    assert p_widens == pytest.approx(PHI_MINUS_5, rel=1e-9)
    assert p_narrows == pytest.approx(1.0 - PHI_MINUS_5, rel=1e-9)


@given(
    hi2=st.floats(3.0, 9.0),
    lo2=st.floats(0.0, 2.9),
    se=st.floats(0.01, 1.0),
)
@settings(max_examples=50)
def test_direction_pvalues_sum_to_one(hi2, lo2, se):
    panel = two_group_panel(5.0, hi2, 2.0, lo2, se=se)
    p_w = gap_change_test(panel, {"hi"}, {"lo"}, FIRST, SECOND, "widens")
    p_n = gap_change_test(panel, {"hi"}, {"lo"}, FIRST, SECOND, "narrows")
    assert p_w + p_n == pytest.approx(1.0, abs=1e-12)


def test_split_before_validation():
    before = PeriodRange(1999, 2007)
    first, second = split_before(before, 2002)
    assert (first, second) == (PeriodRange(1999, 2002), PeriodRange(2003, 2007))
    for bad in (1998, 2007, 2010):
        with pytest.raises(BadSplitError):
            split_before(before, bad)


def three_group_design():
    return StudyDesign(
        "t", frozenset({"lo"}), frozenset({"hi"}),
        PeriodRange(1994, 1998), PeriodRange(1999, 2007), PeriodRange(2008, 2016),
    )


def flat_three_group_panel(hi_shift=0.0, lo_shift=0.0, se=0.05):
    """Constant-gap panel; shifts move the second-half hi/lo levels."""
    cells = {"t": {}, "hi": {}, "lo": {}}
    for year in range(1994, 2017):
        second = 2003 <= year <= 2007
        cells["t"][year] = 5.0
        cells["hi"][year] = 8.0 + (hi_shift if second else 0.0)
        cells["lo"][year] = 2.0 + (lo_shift if second else 0.0)
    return make_panel(cells, se=se)


def test_pattern_tests_no_change_panel():
    panel = flat_three_group_panel()
    for pattern in ("iii", "iv"):
        report = pattern_test(panel, three_group_design(), 2002, pattern, 0.05)
        assert report.p_a == pytest.approx(0.5)
        assert report.p_b == pytest.approx(0.5)
        assert report.iu_pvalue == 0.5
        assert not report.evidence


def test_pattern_iii_detected_when_built_in():
    # Upper gap widens and lower gap narrows by many SEs.
    panel = flat_three_group_panel(hi_shift=1.0, lo_shift=1.0, se=0.05)
    report = pattern_test(panel, three_group_design(), 2002, "iii", 0.05)
    assert report.evidence
    assert report.iu_pvalue < 1e-6
    report_iv = pattern_test(panel, three_group_design(), 2002, "iv", 0.05)
    assert not report_iv.evidence


def test_patterns_mutually_exclusive():
    # Components of iii and iv are complementary tails, so both cannot
    # show evidence at alpha < 0.5.
    for hi_shift, lo_shift in [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (0.3, -0.8)]:
        panel = flat_three_group_panel(hi_shift, lo_shift, se=0.02)
        r3 = pattern_test(panel, three_group_design(), 2002, "iii", 0.05)
        r4 = pattern_test(panel, three_group_design(), 2002, "iv", 0.05)
        assert not (r3.evidence and r4.evidence)


def test_iu_pvalue_is_max_of_components():
    panel = flat_three_group_panel(hi_shift=0.4, lo_shift=-0.2)
    report = pattern_test(panel, three_group_design(), 2002, "iii", 0.05)
    assert report.iu_pvalue == max(report.p_a, report.p_b)


def test_bundled_data_shows_no_pattern_evidence(bundled_panel, paper_design):
    for pattern in ("iii", "iv"):
        report = pattern_test(bundled_panel, paper_design, 2002, pattern, 0.05)
        assert not report.evidence


def test_shrinking_ses_polarize_pvalues():
    # A widening gap: p(widens) below 0.5 and decreasing as SEs shrink;
    # never crosses to the other side of 0.5.
    last = 0.5
    for se in (0.8, 0.4, 0.1, 0.02):
        panel = flat_three_group_panel(hi_shift=0.5, se=se)
        p = gap_change_test(panel, {"hi"}, {"t"}, FIRST, SECOND, "widens")
        assert p < 0.5
        assert p <= last + 1e-12
        last = p


def test_relative_trends_table_shapes(bundled_panel, paper_design):
    rows = relative_trends_table(bundled_panel, paper_design)
    assert len(rows) == 9 * 3  # nine before-period years, three groups
    assert {r.group for r in rows} == {"treated", "lower", "upper"}


def test_relative_trends_empty_group(bundled_panel, paper_design):
    design = StudyDesign(
        paper_design.treated, frozenset(), paper_design.upper_controls,
        paper_design.prestudy, paper_design.before, paper_design.after,
    )
    with pytest.raises(EmptyGroupError):
        relative_trends_table(bundled_panel, design)


def test_relative_trends_requires_ses():
    cells = {u: {1999: 2.0} for u in ("t", "lo", "hi")}
    panel = make_panel(cells, se=None)
    design = StudyDesign(
        "t", frozenset({"lo"}), frozenset({"hi"}),
        PeriodRange(1994, 1994), PeriodRange(1999, 1999), PeriodRange(2008, 2008),
    )
    with pytest.raises(MissingSEError):
        relative_trends_table(panel, design)
