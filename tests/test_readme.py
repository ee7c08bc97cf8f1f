"""The README's config schema and Python API example stay true to the code."""

import json
import re
from pathlib import Path

from cwcancel.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    text = README.read_text()
    start = text.index(heading + "\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.S | re.M).search(text, start)
    assert match, f"no {lang} block after {heading!r}"
    return match.group(1)


def test_config_schema_is_the_default_config():
    schema = json.loads(_block("### Config schema (all keys optional; unknown keys rejected)",
                               "json"))
    assert schema == load_config(None)


def test_python_api_example_runs():
    namespace = {}
    exec(compile(_block("## Python API", "python"), str(README), "exec"), namespace)
    assert [curve.canceler_kind for curve in namespace["curves"]] == ["designed", "perfect"]
    assert namespace["out"].y_T.shape == namespace["tx"].shape
