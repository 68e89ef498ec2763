"""The scripts under scripts/ and the README's library example use only names
the package still exports, and the README's config keys are the config's."""

import contextlib
import dataclasses
import importlib.util
import io
import re
from pathlib import Path

import pytest

from didbracket.io import AnalysisConfig

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports; main() sits behind __main__
    assert callable(getattr(module, "main", None)) or callable(getattr(module, "run", None))


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
