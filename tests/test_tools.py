"""The repository's source tools: ``tools/line_trace.py`` walks exactly the
statements that ``tools/src_size.py`` counts."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import line_trace  # noqa: E402
import src_size  # noqa: E402

MODULES = sorted((ROOT / "src" / "spandist").rglob("*.py"))


def test_every_module_is_listed():
    assert len(MODULES) > 10 and ROOT / "src" / "spandist" / "gram.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_line_trace_walks_the_statements_src_size_counts(path):
    source = path.read_text(encoding="utf-8")
    assert len(list(line_trace._statements(ast.parse(source)))) == src_size.measure(source)[2]
