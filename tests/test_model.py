import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from didbracket.errors import DataError, InvariantError
from didbracket.model import (
    AdjacencyGraph,
    ConfInterval,
    PanelDataset,
    PanelRecord,
    PeriodRange,
    StudyDesign,
    validate_design,
)


UNIT_NAMES = ("a", "b", "c", "d", "e", "f")
QUERY_UNITS = UNIT_NAMES + ("zz",)  # "zz" never appears in an edge or a record


def _scan_neighbors(edges, unit):
    """Brute-force oracle: scan every edge."""
    return frozenset(b if a == unit else a for a, b in edges if unit in (a, b))


pairs_strategy = st.lists(
    st.tuples(st.sampled_from(UNIT_NAMES), st.sampled_from(UNIT_NAMES)).filter(
        lambda p: p[0] != p[1]
    ),
    max_size=15,
)


@given(pairs=pairs_strategy)
def test_neighbors_match_edge_scan(pairs):
    # from_pairs stores canonical edges; direct construction indexes the
    # edges it is given, in either orientation.
    for graph in (AdjacencyGraph.from_pairs(pairs), AdjacencyGraph(edges=frozenset(pairs))):
        for unit in QUERY_UNITS:  # includes isolated and unknown units
            assert graph.neighbors(unit) == _scan_neighbors(graph.edges, unit)


@given(pairs=pairs_strategy)
def test_neighbor_map_is_not_part_of_the_value(pairs):
    graph = AdjacencyGraph.from_pairs(pairs)
    direct = AdjacencyGraph(edges=graph.edges)
    assert direct == graph
    assert hash(direct) == hash(graph)
    assert repr(graph) == f"AdjacencyGraph(edges={graph.edges!r})"
    assert graph != AdjacencyGraph.from_pairs(pairs + [("zz", "zy")])


@given(
    cells=st.sets(
        st.tuples(st.sampled_from(UNIT_NAMES[:4]), st.integers(2000, 2004)), max_size=20
    )
)
def test_panel_lookups_match_tuple_index(cells):
    records = [PanelRecord(u, y, 1.0, 100) for u, y in sorted(cells)]
    random.Random(len(cells)).shuffle(records)
    panel = PanelDataset(records)
    by_key = {(r.unit_id, r.year): r for r in records}
    for unit in QUERY_UNITS:
        row = panel.row(unit)
        assert dict(row) == {
            y: (r.rate, r.population, r.se, r.deaths) for (u, y), r in by_key.items() if u == unit
        }
        for year in range(1999, 2006):
            key = (unit, year)
            assert panel.has(unit, year) == (key in by_key)
            if key in by_key:
                assert panel.get(unit, year) == by_key[key]
            else:
                with pytest.raises(DataError, match=f"no record for {unit} {year}"):
                    panel.get(unit, year)
    assert panel.units == frozenset(u for u, _ in cells)
    assert len(panel) == len(records)
    assert panel.records == tuple(sorted(records, key=lambda r: (r.unit_id, r.year)))


def test_panel_row_is_read_only():
    panel = PanelDataset([PanelRecord("a", 2000, 1.0, 100)])
    with pytest.raises(TypeError):
        panel.row("a")[2001] = PanelRecord("a", 2001, 1.0, 100)


def test_panel_and_graph_survive_pickle_and_deepcopy():
    panel = PanelDataset([PanelRecord("a", 2000, 1.0, 100), PanelRecord("b", 2001, 2.0, 50)])
    graph = AdjacencyGraph.from_pairs([("a", "b"), ("b", "c")])
    for clone in (pickle.loads(pickle.dumps((panel, graph))), copy.deepcopy((panel, graph))):
        panel2, graph2 = clone
        assert panel2.records == panel.records
        assert panel2.get("b", 2001) == panel.get("b", 2001)
        assert panel2.has("a", 2000) and panel2.units == panel.units
        assert graph2 == graph and graph2.neighbors("b") == frozenset({"a", "c"})


def test_adjacency_graph_resolves_from_every_module():
    import didbracket.model
    import didbracket.placebo

    assert didbracket.placebo.AdjacencyGraph is didbracket.model.AdjacencyGraph


def test_panel_rejects_duplicates():
    rec = PanelRecord("a", 2000, 1.0, 100)
    with pytest.raises(DataError, match="duplicate record for a 2000"):
        PanelDataset([rec, rec])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rate": -1.0},
        {"population": 0},
        {"se": -0.5},
        {"deaths": -2},
        {"rate": float("nan")},
    ],
)
def test_record_rejects_bad_values(kwargs):
    base = {"unit_id": "a", "year": 2000, "rate": 1.0, "population": 100}
    base.update(kwargs)
    with pytest.raises(DataError):
        PanelRecord(**base)


def test_period_range_orders():
    with pytest.raises(DataError):
        PeriodRange(2005, 2001)
    assert list(PeriodRange(1999, 2001).years()) == [1999, 2000, 2001]


def test_conf_interval_validates():
    with pytest.raises(InvariantError):
        ConfInterval(2.0, 1.0, 0.95)
    with pytest.raises(InvariantError):
        ConfInterval(0.0, 1.0, 1.5)


def test_paper_design_is_valid(bundled_panel, paper_design):
    assert validate_design(bundled_panel, paper_design) == []


def test_boundary_period_overlap(bundled_panel, paper_design):
    design = StudyDesign(
        treated=paper_design.treated,
        lower_controls=paper_design.lower_controls,
        upper_controls=paper_design.upper_controls,
        prestudy=paper_design.prestudy,
        before=PeriodRange(1999, 2008),  # ends where the after period starts
        after=PeriodRange(2008, 2016),
    )
    codes = [v.code for v in validate_design(bundled_panel, design)]
    assert "PeriodOverlap" in codes


def test_missing_unit_years_reported(bundled_panel, paper_design):
    trimmed = PanelDataset(
        [r for r in bundled_panel.records if not (r.unit_id == "Iowa" and r.year >= 2008)]
    )
    violations = validate_design(trimmed, paper_design)
    assert [v.code for v in violations] == ["MissingUnitYears"]
    assert violations[0].subject == "Iowa"


def test_empty_and_overlapping_groups(bundled_panel, paper_design):
    design = StudyDesign(
        treated="Missouri",
        lower_controls=frozenset(),
        upper_controls=frozenset({"Missouri", "Arkansas"}),
        prestudy=paper_design.prestudy,
        before=paper_design.before,
        after=paper_design.after,
    )
    codes = {v.code for v in validate_design(bundled_panel, design)}
    assert {"EmptyControlGroup", "TreatedInControls"} <= codes


@given(seed=st.integers(0, 2**32 - 1))
def test_validate_design_order_independent(bundled_panel, paper_design, seed):
    records = list(bundled_panel.records)
    random.Random(seed).shuffle(records)
    shuffled = PanelDataset(records)
    assert validate_design(shuffled, paper_design) == validate_design(
        bundled_panel, paper_design
    )


def test_validated_panel_summarizes_without_error(bundled_panel, paper_design):
    # Validation passing implies every estimation op can run.
    from didbracket.estimation import weighted_period_mean

    for group in (
        {paper_design.treated},
        paper_design.lower_controls,
        paper_design.upper_controls,
    ):
        for period in (paper_design.prestudy, paper_design.before, paper_design.after):
            summary = weighted_period_mean(bundled_panel, group, period)
            assert summary.total_weight > 0
