"""Every module of ``src/semlink`` parses as the oldest Python that
``pyproject.toml`` declares.

The suite runs on a newer Python, where syntax from after that floor would
pass unnoticed.  ``ast.parse`` with ``feature_version`` refuses such syntax
(``except*``, for one) without compiling anything, so no ``__pycache__`` is
written.  It checks syntax only, not the standard library a module calls.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "semlink").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text("utf-8"), re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=declared_floor())


def test_the_floor_parse_refuses_newer_syntax():
    assert declared_floor() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=declared_floor())
