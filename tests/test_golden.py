"""Golden outputs: the sha256 of every file each command writes, and of its stdout.

Floating-point summation order is part of the output, so these digests pin
the exact arithmetic of the group-period summaries, the neighbour lookup and
the serializers. A change that alters any output byte fails here.
"""

import hashlib
import random
from pathlib import Path

import pytest

from didbracket import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CONFIG = REPO_ROOT / "configs" / "paper.tomlish"

PAPER_PLACEBO = {
    "placebo_hist_lc.csv":
        "1deaf2284f3f2d1675803efa4dd592d4ff0c32367b5a987d812e19956b6c2c55",
    "placebo_hist_lc.svg":
        "9bb77b31b40f6b03c41978d75addc15be211b913c80d5c50784664a8980b53a0",
    "placebo_hist_uc.csv":
        "49a72d369645e918a58acd26d0a9a31212449cf49527abc53d8b95938c126b21",
    "placebo_hist_uc.svg":
        "2c14dcc32a765187909f9530795a206f0191d04eafadb2ffe99a76cd11d1164e",
    "placebo_lc.csv":
        "6a6fb3a55cc87b6eb5a1d3f39f5ea3c37588f224921c5b7c338bd4fe1aa77cc9",
    "placebo_summary.json":
        "ac56bc8e102182e6f7b8e5d745db1d0f32a33b93d2ef126a527144013232ac60",
    "placebo_uc.csv":
        "3a5aaa051845c990a648da83ab762f65c70fd88cce14bee7c21a9a14932f9662",
}

PAPER_ANALYZE = {
    "bracket_report.json":
        "8e4d7f332feed54cc1acaa9f10c0ab897d02de005cd82aba2e342d98aa4c76c8",
    "summary.txt":
        "b5156a075f9fd46da1e13e69c77972c16c152f9e2e6c4fc98f9988408eb23b00",
}

RING_PLACEBO = {
    "placebo_hist_lc.csv":
        "3566da2156b51b4826e306dacd9f321f224182767d4199503e36a355d784a521",
    "placebo_hist_lc.svg":
        "e477a73686ff4eeb0a551937ef3ff78327c7d007784441022636e22137405872",
    "placebo_hist_uc.csv":
        "b48a95e35c7350fe600f11e0a0388378798d763f4748423ab23de3bb8b6b2107",
    "placebo_hist_uc.svg":
        "1f011b7349f2d1ba87780ad7a7762b29e33aa7c716c45b2df6b542da46a9398e",
    "placebo_lc.csv":
        "be8956b058897020886ca649d986b04797cbf3283d78556325045938fb90582b",
    "placebo_summary.json":
        "c0f0bea0025731d7797174f6ff9ed548a5fef898ac7cd519a015ce9dfeaf1db9",
    "placebo_uc.csv":
        "78fbbd4b2ab245214d36b5b5bf25d5cb63777a9f8d18e9b9fd611aca0d43a840",
}

RING_UNITS = 60
RING_K = 3


# The remaining commands and output formats, with the sha256 of stdout under
# the key "<stdout>". Small --reps keep the Monte Carlo cases fast; coverage
# runs at alpha 0.5 so that its coverage is below 1.
OTHER_COMMANDS = {
    "diagnose_plots": (
        ["diagnose", "--config", str(PAPER_CONFIG), "--emit-plots"],
        {
            "<stdout>":
                "3a861758ff5f5f81c476b89825e79782166f97a77d18efee6f6be2b5c8da8535",
            "pattern_tests.json":
                "ca781070bb87922cb1400522287f0cc63465dabf4b9c0623a6b874086f525759",
            "relative_trends.csv":
                "a9706b79a17ec411646f6b95a48f6cddac48015d580e3c01ec1a06138c83b9c3",
            "relative_trends.svg":
                "1652f0c7fd634c8e102cc56c8a1c8f4b7fa23d3e9f6080fe9d06b5bc2b64def4",
        },
    ),
    "analyze_csv": (
        ["analyze", "--config", str(PAPER_CONFIG), "--format", "csv"],
        {
            "<stdout>":
                "b5156a075f9fd46da1e13e69c77972c16c152f9e2e6c4fc98f9988408eb23b00",
            "bracket_report.json":
                "8e4d7f332feed54cc1acaa9f10c0ab897d02de005cd82aba2e342d98aa4c76c8",
            "bracket_table.csv":
                "1f8b0b02620edc378bb7695a4d5ef31d3f44bf22aa05e5d2ed067b09a1ff8cbe",
            "summary.txt":
                "b5156a075f9fd46da1e13e69c77972c16c152f9e2e6c4fc98f9988408eb23b00",
        },
    ),
    "simulate_bracket_csv": (
        ["simulate", "--mode", "bracket", "--scenario", "linear_interaction",
         "--reps", "200", "--seed", "7", "--format", "csv"],
        {
            "<stdout>":
                "5ea36f59d06336f44a0250c0ee4aee1fd542c4d9b3e855870a00f1ee4889d181",
            "mc_report.csv":
                "1da82580224b79aa3eff62a71bfe3fb0e0fca52340baa5bdabb3643d57425613",
            "mc_report.json":
                "9a6d8fa9624dfa4c5dec001231b7328de1bd47b0037403bbf7e105c547734552",
        },
    ),
    "simulate_coverage_csv": (
        ["simulate", "--mode", "coverage", "--scenario", "additive", "--reps", "200",
         "--seed", "7", "--alpha", "0.5", "--format", "csv"],
        {
            "<stdout>":
                "fe17b0fcacf1589c6f98b7d6e810a1d40bd530098a8414939dea802909fd3203",
            "mc_report.csv":
                "4ee0211712cfdb4bf9771f206c16fda73c4aea86e5d390fbd845b55666757f8e",
            "mc_report.json":
                "4f023e6d8dd6f0d963a8f6ec718c4e8f9dab50780892c815ccaab5d4ccdc29b5",
        },
    ),
    "simulate_synthetic_csv": (
        ["simulate", "--mode", "synthetic_control", "--tau", "0.35", "--reps", "2000",
         "--seed", "7", "--format", "csv"],
        {
            "<stdout>":
                "6b00d1aa9131b2a1bafd975404be4c7928d2d5791238927a04f4d2099d3b462b",
            "mc_report.csv":
                "995ca6429ef356c538f73edbd2024fb3afcce524da37310e08a4b4b541e1007d",
            "mc_report.json":
                "5432c9b45c37b7cb180a73ed5514a44cba99c23fa78661b7367857c5931b0261",
        },
    ),
}


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _write_ring_inputs(tmp_path: Path):
    """A seeded 60-unit x 23-year panel with ring-3 adjacency.

    Some records lack an SE, two units miss a year (MissingData exclusions)
    and one unit has no edges (a NoLowerNeighbors exclusion).
    """
    rng = random.Random(20190429)
    units = [f"U{i:03d}" for i in range(RING_UNITS)]
    gaps = {("U017", 2001), ("U042", 1996)}
    rows = ["unit,year,rate,se,population"]
    for unit in units:
        level = rng.uniform(3.0, 15.0)
        slope = rng.uniform(-0.1, 0.2)
        population = rng.randint(20_000, 2_000_000)
        for year in range(1994, 2017):
            if (unit, year) in gaps:
                continue
            rate = max(0.0, level + slope * (year - 1994) + rng.gauss(0.0, 0.8))
            se = "" if rng.random() < 0.1 else repr(rng.uniform(0.05, 1.5))
            pop = population + rng.randint(-5_000, 5_000)
            rows.append(f"{unit},{year},{rate!r},{se},{pop}")
    panel = tmp_path / "ring_panel.csv"
    panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
    isolated = units[-1]
    ring = [u for u in units if u != isolated]
    edges = ["unit_a,unit_b"]
    for i, unit in enumerate(ring):
        for step in range(1, RING_K + 1):
            edges.append(f"{unit},{ring[(i + step) % len(ring)]}")
    adjacency = tmp_path / "ring_adjacency.csv"
    adjacency.write_text("\n".join(edges) + "\n", encoding="utf-8")
    return panel, adjacency


def test_paper_placebo_bytes(tmp_path):
    out = tmp_path / "placebo"
    argv = ["placebo", "--config", str(PAPER_CONFIG), "--rank-unit", "Missouri",
            "--emit-plots", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    assert _digests(out) == PAPER_PLACEBO


def test_paper_analyze_bytes(tmp_path):
    out = tmp_path / "analyze"
    assert cli.main(["analyze", "--config", str(PAPER_CONFIG), "--out-dir", str(out)]) == 0
    assert _digests(out) == PAPER_ANALYZE


def test_ring_placebo_bytes(tmp_path):
    panel, adjacency = _write_ring_inputs(tmp_path)
    out = tmp_path / "ring"
    argv = ["placebo", "--panel", str(panel), "--adjacency", str(adjacency),
            "--prestudy", "1994-1998", "--before", "1999-2007", "--after", "2008-2016",
            "--exclusions", "U005", "--rank-unit", "U000", "--emit-plots",
            "--out-dir", str(out)]
    assert cli.main(argv) == 0
    assert _digests(out) == RING_PLACEBO


@pytest.mark.parametrize("name", sorted(OTHER_COMMANDS))
def test_command_bytes(tmp_path, capsys, name):
    argv, expected = OTHER_COMMANDS[name]
    out = tmp_path / name
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    got = {"<stdout>": hashlib.sha256(stdout.encode("utf-8")).hexdigest(), **_digests(out)}
    assert got == expected
