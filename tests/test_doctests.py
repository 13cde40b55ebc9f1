"""The `>>>` examples of the package docstrings and of the README's python
block, run through doctest.  The README block is cut out between its fences
first: doctest alone would read the closing fence as expected output."""

import doctest
import re
from pathlib import Path

from wordmaps import arith, cli, gf, tracepoly, words

README = Path(__file__).parent.parent / "README.md"


def test_module_doctests():
    attempted = 0
    for module in (words, tracepoly, gf, arith, cli):
        failures, tried = doctest.testmod(module)
        assert failures == 0, module.__name__
        attempted += tried
    assert attempted


def test_readme_python_block():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0
