"""The README's examples: each fenced ``python`` block run as one doctest,
and each ``$ hfcodec ...`` line of its ``sh`` blocks run through the CLI;
and the cut-overs its "Cost" section names, against their modules."""

import doctest
import importlib
import re
import shlex
from pathlib import Path

import pytest

from hfcodec import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line index of the block's first line, block source); the closing fence
# is left out, since doctest would read it as expected output
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]
# (command line, expected stdout lines) for each "$ hfcodec" line that is
# not piped; a "..." line in the output stands for lines left unchecked
COMMANDS = [
    (m.group(1), m.group(2).splitlines())
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for m in re.finditer(r"^\$ hfcodec ([^|\n]*)\n((?:[^$].*\n)*)", block, re.M)
]


@pytest.mark.parametrize("lineno, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(lineno, source):
    test = doctest.DocTestParser().get_doctest(source, {}, README.name, str(README), lineno)
    out: list[str] = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(out)


def test_readme_lists_commands():
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command(capsys, command, expected):
    assert cli.main(shlex.split(command)) == 0
    lines = capsys.readouterr().out.splitlines()
    if "..." in expected:
        expected = expected[expected.index("...") + 1:]
        lines = lines[len(lines) - len(expected):]
    assert lines == expected


# the README's "Cost" section writes each cut-over as `module._NAME` (value)
COST = TEXT[TEXT.index("### Cost\n"):]
CUTOVERS = re.findall(r"`(\w+)\.(_[A-Z_]+)`\s+\((\d+)(?:\*\*(\d+))?\)", COST)


def test_cost_section_states_each_cutover_as_its_module_does():
    assert {(module, name) for module, name, *_ in CUTOVERS} == {
        ("natbits", "_LOOP_BITS"), ("natbits", "_RADIX_LEAF"), ("natbits", "_BLOCK_RADICES"),
        ("natbits", "_DIV_LIMIT"), ("hftree", "_GROUP_HEIGHT"), ("hftree", "_SMALL"),
        ("cli", "_CHUNK_BITS"), ("cli", "_DECIMAL_BITS"), ("cli", "_DEFAULT_DEPTH_LIMIT")}
    for module, name, value, power in CUTOVERS:
        stated = int(value) ** int(power) if power else int(value)
        assert getattr(importlib.import_module(f"hfcodec.{module}"), name) == stated, (module, name)
