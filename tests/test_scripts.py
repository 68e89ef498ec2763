"""The scripts under scripts/ and the README's library example use only names
the package still exports, the README's config keys are the config's, and
the package's version is the project's."""

import contextlib
import dataclasses
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

import didbracket
from didbracket.io import AnalysisConfig
from didbracket.simulation import shipped_scenarios

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports; main() sits behind __main__
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    module = _load(path)
    assert callable(getattr(module, "main", None)) or callable(getattr(module, "run", None))


def test_mc_script_prints_one_row_per_shipped_scenario(monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "run_mc_experiments.py")
    monkeypatch.setattr(sys, "argv", ["run_mc_experiments.py", "--reps", "50",
                                      "--coverage-reps", "100"])
    module.main()
    header, *rows = capsys.readouterr().out.split("\n\n", 1)[0].splitlines()
    assert header.split() == ["scenario", "mean", "lc", "mean", "uc", "holds", "coverage"]
    assert [row.split()[0] for row in rows] == sorted(shipped_scenarios())
    assert all(len(row.split()) >= 5 for row in rows)


def _bench_records(source, setup_s):
    """``{workload: {seed: record}}`` of one workload, as ``bench/run.py`` records them: seed
    ``i + 1`` measured ``setup_s[i]``, and the same figures on the other metrics."""
    return {"analyze_county": {
        seed: {"workload": "analyze_county", "seconds": 20,
               "provenance": {"seed": seed, "source_sha256": source, "git": None,
                              "python": "3.11", "numpy": "2.4", "nproc": 2},
               "end_to_end": {"setup_s": s, "call_s_p50": 0.2, "items_per_s": 5.0,
                              "peak_rss_mb": 50.0}}
        for seed, s in enumerate(setup_s, start=1)}}


def test_trajectory_reports_setup_s_with_its_spread_and_pairs_won():
    module = _load(ROOT / "scripts" / "bench_trajectory.py")
    trajectory = module.build(1, _bench_records("change", [0.20, 0.18, 0.25]),
                              _bench_records("parent", [0.21, 0.19, 0.22]))
    assert trajectory["units"]["setup_s"] == "reference s"
    entry = trajectory["workloads"]["analyze_county"]
    assert entry["setup_s"] == {"median": 0.20, "q1": pytest.approx(0.19),
                                "q3": pytest.approx(0.225), "runs": 3}
    assert entry["parent"]["setup_s"]["median"] == 0.21
    assert entry["pairs_won"]["setup_s"] == "2/3"  # seed 3 lost; ties would win nothing
    assert entry["pairs_won"]["call_s_p50"] == "0/3"


def test_bundled_panel_is_rebuilt_byte_for_byte(tmp_path, capsys):
    # The bundled panel's bytes trace back to the reconstruction in scripts/.
    module = _load(ROOT / "scripts" / "rebuild_region_data.py")
    out = tmp_path / "missouri_region.csv"
    module.main(["--out", str(out)])
    assert capsys.readouterr().out.endswith(f"wrote 207 rows to {out}\n")
    bundled = ROOT / "src" / "didbracket" / "data" / "missouri_region.csv"
    assert out.read_bytes() == bundled.read_bytes()


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md: Library use", "exec"), {})
    assert out.getvalue().count("\n") == 1  # the bracket and the min-max interval


def test_readme_config_keys_are_the_config_fields():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Config grammar\n", 1)[1]
    keys_text = section.split("Keys:", 1)[1].split("\n\n", 1)[0]
    # Parentheses hold value words (`neighbors`, `json`, `csv`), not keys.
    keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys_text))
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(AnalysisConfig)}


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert didbracket.__version__ == project["version"]
