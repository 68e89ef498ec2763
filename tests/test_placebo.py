import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel
from didbracket import bracketing, estimation, placebo
from didbracket.bracketing import arm_cells, classify_candidates, full_analysis
from didbracket.errors import ArmUnavailableError, DataError, MissingDataError, OutOfDomainError
from didbracket.estimation import did_point
from didbracket.io import bundled_path, parse_adjacency_csv, parse_panel_csv
from didbracket.model import PanelDataset, PeriodRange
from didbracket.placebo import (
    MAX_HIST_BINS,
    AdjacencyGraph,
    PlaceboResult,
    histogram_export,
    rank_effect,
    run_placebo_study,
)
from test_golden import _write_ring_inputs

PRESTUDY = PeriodRange(1994, 1998)
BEFORE = PeriodRange(1999, 2007)
AFTER = PeriodRange(2008, 2016)


@pytest.fixture(scope="module")
def adjacency():
    return parse_adjacency_csv(bundled_path("us_state_adjacency.csv"))


def test_adjacency_neighbors(adjacency):
    assert adjacency.neighbors("Missouri") == {
        "Arkansas", "Illinois", "Iowa", "Kansas", "Kentucky",
        "Nebraska", "Oklahoma", "Tennessee",
    }


def test_adjacency_rejects_self_edges():
    with pytest.raises(DataError):
        AdjacencyGraph.from_pairs([("a", "a")])


def test_placebo_result_consistency():
    with pytest.raises(DataError):
        PlaceboResult("u")  # no arm and no reason
    with pytest.raises(DataError):
        PlaceboResult("u", effect_lc=1.0, excluded_reason="MissingData")


def test_run_placebo_study_bundled_region(bundled_panel, adjacency):
    results = run_placebo_study(bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER)
    assert [r.unit_id for r in results] == sorted(bundled_panel.units)
    # Missouri borders all eight other panel states and its pre-study mean
    # splits them, so both arms exist.
    missouri = next(r for r in results if r.unit_id == "Missouri")
    assert missouri.effect_lc is not None and missouri.effect_uc is not None


def test_placebo_missouri_matches_full_analysis(bundled_panel, adjacency, paper_design):
    # The placebo path must reproduce the primary analysis exactly.
    results = run_placebo_study(bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER)
    missouri = next(r for r in results if r.unit_id == "Missouri")
    report = full_analysis(bundled_panel, paper_design, 0.05)
    assert missouri.effect_lc == report.est_lower_ctrl.point
    assert missouri.effect_uc == report.est_upper_ctrl.point


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_placebo_permutation_invariance(bundled_panel, adjacency, seed):
    rng = random.Random(seed)
    records = list(bundled_panel.records)
    rng.shuffle(records)
    shuffled_panel = PanelDataset(records)
    edges = list(adjacency.edges)
    rng.shuffle(edges)
    shuffled_adj = AdjacencyGraph.from_pairs(edges)
    base = run_placebo_study(bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER)
    shuffled = run_placebo_study(shuffled_panel, shuffled_adj, PRESTUDY, BEFORE, AFTER)
    assert base == shuffled


def test_placebo_deterministic_reruns(bundled_panel, adjacency):
    a = run_placebo_study(bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER)
    b = run_placebo_study(bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER)
    assert a == b


def test_isolated_unit_excluded_with_reason():
    panel = make_panel(
        {
            u: {y: r for y, r in zip((1994, 1999, 2008), rates)}
            for u, rates in {
                "island": (3.0, 3.0, 3.0),
                "a": (2.0, 2.0, 2.0),
                "b": (5.0, 5.0, 5.0),
            }.items()
        }
    )
    adjacency = AdjacencyGraph.from_pairs([("a", "b")])
    results = run_placebo_study(
        panel, adjacency,
        PeriodRange(1994, 1994), PeriodRange(1999, 1999), PeriodRange(2008, 2008),
    )
    island = next(r for r in results if r.unit_id == "island")
    assert island.excluded_reason in ("NoLowerNeighbors", "NoUpperNeighbors")
    assert island.effect_lc is None and island.effect_uc is None


def test_explicit_exclusions_respected(bundled_panel, adjacency):
    results = run_placebo_study(
        bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER, exclusions={"Iowa"}
    )
    iowa = next(r for r in results if r.unit_id == "Iowa")
    assert iowa.excluded_reason == "ExplicitExclusion"


def test_one_sided_unit_keeps_single_arm(bundled_panel, adjacency):
    # Iowa's pre-study mean is the region's lowest, so every neighbor is
    # above it: upper arm only.
    results = run_placebo_study(bundled_panel, adjacency, PRESTUDY, BEFORE, AFTER)
    iowa = next(r for r in results if r.unit_id == "Iowa")
    assert iowa.effect_lc is None and iowa.effect_uc is not None


def _results(values, arm="lc"):
    key = "effect_lc" if arm == "lc" else "effect_uc"
    return [PlaceboResult(f"u{i}", **{key: v}) for i, v in enumerate(values)]


def test_rank_effect_counts_strict_exceedance():
    results = _results([1.0, 2.0, 0.5, 1.0])  # u0's 1.0 tied with u3
    rank = rank_effect(results, "u0", "lc")
    assert rank.n_total == 4
    assert rank.n_strictly_greater == 1  # only u1
    assert rank.rank == 2


def test_rank_effect_maximum_is_rank_one():
    results = _results([0.1, 0.9, 0.5])
    assert rank_effect(results, "u1", "lc").rank == 1


def test_rank_effect_missing_arm():
    results = _results([1.0, 2.0])
    with pytest.raises(ArmUnavailableError):
        rank_effect(results, "u0", "uc")


def test_histogram_hand_binned():
    bins = histogram_export(_results([0.1, 0.15, 0.9]), "lc", 0.5)
    assert [(b.lower, b.upper, b.count) for b in bins] == [(0.0, 0.5, 2), (0.5, 1.0, 1)]


def test_histogram_empty_and_bad_width():
    assert histogram_export([], "lc", 0.5) == ()
    for width in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(OutOfDomainError):
            histogram_export(_results([1.0]), "lc", width)


@pytest.mark.parametrize("high", [1e5, 1e300])
def test_histogram_refuses_too_many_bins_before_building_any(high):
    # 0 and 1e5 at width 0.25 would be 400,001 bins; 1e300 must not hang.
    with pytest.raises(OutOfDomainError, match=r"needs \S+ bins of width 0\.25, more than 100000"):
        histogram_export(_results([0.0, high]), "lc", 0.25)


def test_histogram_bin_limit_is_inclusive():
    bins = histogram_export(_results([0.0, (MAX_HIST_BINS - 1) * 0.25]), "lc", 0.25)
    assert len(bins) == MAX_HIST_BINS
    with pytest.raises(OutOfDomainError, match=f"needs {MAX_HIST_BINS + 1} bins"):
        histogram_export(_results([0.0, MAX_HIST_BINS * 0.25]), "lc", 0.25)
    with pytest.raises(OutOfDomainError, match="needs inf bins of width 1e-300"):
        histogram_export(_results([-1e10, 1e10]), "lc", 1e-300)


def test_histogram_spans_negative_values_anchored_at_zero():
    bins = histogram_export(_results([-0.8, -0.1, 0.3]), "lc", 0.5)
    assert bins[0].lower == -1.0
    assert bins[-1].upper == 0.5
    assert sum(b.count for b in bins) == 3


@given(
    values=st.lists(st.floats(-5, 5), min_size=1, max_size=40),
    width=st.floats(0.05, 2.0),
)
@settings(max_examples=60)
def test_histogram_counts_sum_to_included(values, width):
    bins = histogram_export(_results(values), "lc", width)
    assert sum(b.count for b in bins) == len(values)


def _oracle_study(panel, adjacency, prestudy, before, after, exclusions=()):
    """The study loop without its memo: every summary computed afresh."""
    excluded = frozenset(exclusions)
    results = []
    for unit in sorted(panel.units):
        if unit in excluded:
            results.append(PlaceboResult(unit, excluded_reason="ExplicitExclusion"))
            continue
        candidates = adjacency.neighbors(unit) & panel.units
        try:
            groups = classify_candidates(panel, unit, candidates, prestudy)
            effect_lc = (
                did_point(*arm_cells(panel, unit, groups.lower, before, after))
                if groups.lower
                else None
            )
            effect_uc = (
                did_point(*arm_cells(panel, unit, groups.upper, before, after))
                if groups.upper
                else None
            )
        except MissingDataError:
            results.append(PlaceboResult(unit, excluded_reason="MissingData"))
            continue
        if effect_lc is None and effect_uc is None:
            reason = "NoLowerNeighbors" if not groups.lower else "NoUpperNeighbors"
            results.append(PlaceboResult(unit, excluded_reason=reason))
        else:
            results.append(PlaceboResult(unit, effect_lc=effect_lc, effect_uc=effect_uc))
    return tuple(results)


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    """The seeded ring panel of the golden tests: gaps, missing SEs, an isolated unit."""
    panel_path, adjacency_path = _write_ring_inputs(tmp_path_factory.mktemp("ring"))
    return parse_panel_csv(panel_path), parse_adjacency_csv(adjacency_path)


@pytest.mark.parametrize("exclusions", [(), ("U005",), ("U017", "U030")])
def test_memoized_study_equals_the_fresh_loop(ring, exclusions):
    panel, adjacency = ring
    got = run_placebo_study(panel, adjacency, PRESTUDY, BEFORE, AFTER, exclusions)
    assert got == _oracle_study(panel, adjacency, PRESTUDY, BEFORE, AFTER, exclusions)
    reasons = {r.excluded_reason for r in got}
    assert {"MissingData", "NoLowerNeighbors"} <= reasons
    assert ("ExplicitExclusion" in reasons) == bool(exclusions)


def test_memoized_study_equals_the_fresh_loop_when_a_prestudy_gap_spreads(ring):
    # A gap in the pre-study window excludes the unit and every unit it neighbours.
    panel, adjacency = ring
    prestudy = PeriodRange(1994, 2001)  # covers U017's missing 2001
    before, after = PeriodRange(2002, 2008), PeriodRange(2009, 2016)
    got = run_placebo_study(panel, adjacency, prestudy, before, after)
    assert got == _oracle_study(panel, adjacency, prestudy, before, after)
    missing = {r.unit_id for r in got if r.excluded_reason == "MissingData"}
    assert {"U017"} | adjacency.neighbors("U017") <= missing


def _count_summaries(monkeypatch):
    """Record the (group, period) of every weighted_period_mean call, whatever module makes it."""
    calls = []
    original = estimation.weighted_period_mean

    def counted(panel, group, period):
        calls.append((tuple(sorted(group)), period))
        return original(panel, group, period)

    for module in (estimation, bracketing, placebo):
        monkeypatch.setattr(module, "weighted_period_mean", counted)
    return calls


def test_memo_computes_each_single_unit_summary_once(ring, monkeypatch):
    panel, adjacency = ring
    calls = _count_summaries(monkeypatch)
    _oracle_study(panel, adjacency, PRESTUDY, BEFORE, AFTER)
    fresh = list(calls)
    calls.clear()
    run_placebo_study(panel, adjacency, PRESTUDY, BEFORE, AFTER)
    # Groups of two or more units are computed afresh, call for call.
    assert [c for c in calls if len(c[0]) > 1] == [c for c in fresh if len(c[0]) > 1]
    # Each one-unit summary the loop asked for is computed exactly once.
    single = [c for c in calls if len(c[0]) == 1]
    assert len(single) == len(set(single))
    assert set(single) == {c for c in fresh if len(c[0]) == 1}
    assert (len(fresh), len(calls)) == (740, 295)
