"""Every Python file in src/, tests/ and scripts/ parses under the grammar of
the floor that pyproject.toml declares in requires-python.

This checks grammar only, not library APIs: a standard-library call added
after the floor still passes. The full check is the suite run on a floor
interpreter, but the 3.10 interpreter of the development environment has no
numpy, so this test covers the grammar part of it on any newer interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(
    int(x)
    for x in re.search(
        r'^requires-python\s*=\s*">=(\d+)\.(\d+)"',
        (ROOT / "pyproject.toml").read_text(),
        re.M,
    ).groups()
)
SOURCES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")
)


def test_floor_is_declared():
    assert FLOOR == (3, 10)
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
