"""Every source and test file parses under the Python 3.10 grammar.

The package supports Python 3.10 (pyproject.toml), so syntax newer than that
must not creep in.  ast.parse with feature_version is best-effort: it rejects
grammar added after 3.10 (except*, for instance) but not newer library calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
