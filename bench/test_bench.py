"""Tests of the benchmark's own code (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from didbracket.bracketing import construct_control_groups  # noqa: E402
from didbracket.io import parse_adjacency_csv, parse_panel_csv  # noqa: E402
from didbracket.model import PeriodRange, StudyDesign, validate_design  # noqa: E402

from gen import AFTER, BEFORE, PRESTUDY, generate  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import ANALYZE_UNITS, RING, WORKLOADS  # noqa: E402


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = generate(tmp_path / "a", 200, RING, seed=7)
    b = generate(tmp_path / "b", 200, RING, seed=7)
    c = generate(tmp_path / "c", 200, RING, seed=8)
    assert a.panel_path.read_bytes() == b.panel_path.read_bytes()
    assert a.adjacency_path.read_bytes() == b.adjacency_path.read_bytes()
    assert a.treated == b.treated
    assert a.panel_path.read_bytes() != c.panel_path.read_bytes()


def test_county_panel_and_design_are_valid(tmp_path):
    g = generate(tmp_path, ANALYZE_UNITS, RING, seed=3)
    panel = parse_panel_csv(g.panel_path)
    adjacency = parse_adjacency_csv(g.adjacency_path)
    assert (len(panel), len(panel.units), len(adjacency.edges)) == (g.rows, g.units, g.edges)
    assert (g.rows, g.edges) == (69_000, 9_000)
    groups = construct_control_groups(panel, g.treated,
                                      adjacency.neighbors(g.treated) & panel.units,
                                      PeriodRange(*PRESTUDY))
    design = StudyDesign(g.treated, groups.lower, groups.upper, PeriodRange(*PRESTUDY),
                         PeriodRange(*BEFORE), PeriodRange(*AFTER))
    assert validate_design(panel, design) == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def _estimation_only_package():
    def weighted_period_mean(panel, group, period):
        return 9

    def outer(panel, group, period):
        return estimation.weighted_period_mean(panel, group, period) + 1

    estimation = types.SimpleNamespace(weighted_period_mean=weighted_period_mean, outer=outer)
    return types.SimpleNamespace(estimation=estimation)


def test_missing_names_are_absent_and_counted_spans_restored():
    package = _estimation_only_package()
    original = package.estimation.weighted_period_mean
    tracer = Tracer(package)
    assert package.estimation.weighted_period_mean is original
    aggs = []
    for _ in range(2):
        tracer.install()
        assert package.estimation.weighted_period_mean is not original
        tracer.begin_call()
        assert package.estimation.outer(None, {"a", "b"}, PeriodRange(2000, 2002)) == 10
        aggs.append(tracer.end_call(edges=0))
        tracer.uninstall()
        assert package.estimation.weighted_period_mean is original
    assert package.estimation.outer(None, {"a"}, PeriodRange(2000, 2002)) == 10
    assert len(tracer.starts) == 2
    values, absent = layer_metrics(aggs, [1.0], [1.5], tracer)
    assert values["estimation.wpm.calls"] == 1
    assert values["estimation.wpm.cells"] == 2 * 3
    assert "placebo.neighbors.self_s" in absent
    assert values["placebo.neighbors.self_s"] == 0.0
    assert values["trace.overhead_s"] == 0.5
    assert values["trace.absent"] == len(absent)
    assert set(values) == {m.name for m in PER_LAYER}
