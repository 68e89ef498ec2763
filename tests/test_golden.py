"""Golden outputs: the sha256 of every file the placebo and analyze commands write.

Floating-point summation order is part of the output, so these digests pin
the exact arithmetic of the group-period summaries, the neighbour lookup and
the serializers. A change that alters any output byte fails here.
"""

import hashlib
import random
from pathlib import Path

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
