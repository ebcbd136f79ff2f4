"""The docstring examples of every module and the README's Python quick start."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import distlab

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(distlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"distlab.{name}"))
    assert result.failed == 0


def test_docstring_examples_are_found():
    # FgAbGroup, from_invariants, regulator and theta_element carry examples
    finder = doctest.DocTestFinder()
    found = {
        t.name.rsplit(".", 1)[-1]
        for name in MODULES
        for t in finder.find(importlib.import_module(f"distlab.{name}"))
        if t.examples
    }
    assert {"FgAbGroup", "from_invariants", "regulator", "theta_element"} <= found


def test_readme_python_quick_start():
    # Only the block's contents: run on the whole file, doctest would read
    # the closing fence as expected output.
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted >= 4 and result.failed == 0
