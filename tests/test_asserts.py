"""The package checks its invariants with raises, which ``python -O`` keeps."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "distlab").glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements, which ``-O`` strips."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_the_checker_sees_an_assert():
    source = (
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x:\n"
        "        raise AssertionError('not a statement')\n"
        "    class A:\n"
        "        def g(self):\n"
        "            assert self\n"
    )
    assert assert_lines(source) == [2, 7]


def test_every_module_is_scanned():
    assert {p.name for p in FILES} >= {"__init__.py", "abgroup.py", "cyclotomic.py"}


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []
