"""The README's fenced ``python`` examples, each run as one doctest."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line index of the block's first line, block source); the closing fence
# is left out, since doctest would read it as expected output
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


@pytest.mark.parametrize("lineno, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(lineno, source):
    test = doctest.DocTestParser().get_doctest(source, {}, README.name, str(README), lineno)
    out: list[str] = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(out)
