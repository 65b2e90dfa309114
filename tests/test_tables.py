"""The CLI's codec tables and parser, read as the tables they are.

Every entry of cli._FLAT and every maker in hftree.TREE_CODECS is an
exact bijection: a codec added to either table is covered here without
editing this file.  The argument parser is built once, when the CLI
module is imported, and main() only parses and dispatches.
"""

import argparse
from functools import partial

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hfcodec import cli, hftree  # noqa: E402

# tuple's decode takes the arity first: run it at arities 1-7
FLAT_CODECS = {}
for name, (decode, encode) in cli._FLAT.items():
    if name == "tuple":
        for k in range(1, 8):
            FLAT_CODECS[f"tuple-{k}"] = (partial(decode, k), encode)
    else:
        FLAT_CODECS[name] = (decode, encode)


@st.composite
def naturals(draw, max_bits):
    bits = draw(st.integers(0, max_bits))
    return draw(st.integers(0, (1 << bits) - 1))


@pytest.mark.parametrize("name", sorted(FLAT_CODECS))
def test_every_flat_codec_round_trips(name):
    decode, encode = FLAT_CODECS[name]

    @given(naturals(4096))
    def prop(n):
        assert encode(list(decode(n))) == n

    prop()


@pytest.mark.parametrize("name", sorted(hftree.TREE_CODECS))
@pytest.mark.parametrize("ulimit", [0, 16])
def test_every_tree_codec_round_trips(name, ulimit):
    codec = hftree.TREE_CODECS[name](ulimit)

    @settings(max_examples=30)
    @given(naturals(4096))
    def prop(n):
        assert hftree.rank(codec, hftree.unrank(codec, n)) == n

    prop()


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # show sets its own format default; the decode after it must not see it
    assert cli.main(["show", "--codec", "hfs", "5"]) == 0
    assert cli.main(["decode", "--codec", "hfs", "5"]) == 0
    assert cli.main(["decode", "--codec", "set", "5"]) == 0
    assert capsys.readouterr().out == "{{},{{{}}}}\n(() ((())))\n[0,2]\n"
    assert built == []
