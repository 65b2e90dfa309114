"""The codec table read as the table it is, and the CLI's parser.

Every flat row of hfcodec.table is an exact bijection both ways, every
tree row's maker is one, and selfcheck exercises every row: a codec
added to the table is covered here without editing this file.  The
argument parser is built once, when the CLI module is imported, and
main() only parses and dispatches.
"""

import argparse

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import naturals  # noqa: E402
from hfcodec import cli, hftree, selfcheck, table  # noqa: E402


# the tuple row runs at each of its arities
DECODERS = {(f"{row.name}-{k}" if k else row.name): (row, k)
            for row in table.FLAT.values() for k in row.arities or [None]}


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_every_flat_codec_round_trips(name):
    row, arity = DECODERS[name]
    decode = row.decoder(arity)

    @given(naturals(4096))
    def prop(n):
        assert row.encode(list(decode(n))) == n

    prop()


@pytest.mark.parametrize("name", table.FLAT)
def test_every_flat_codec_decodes_what_it_encodes(name):
    row = table.FLAT[name]

    @given(st.randoms(use_true_random=False), st.integers(0, 512))
    def prop(rng, bits):
        x = row.draw(rng, bits)
        n = row.encode(x)
        assert n < 1 << bits
        assert row.decoder(len(x))(n) == x

    prop()


@pytest.mark.parametrize("name", table.TREE)
@pytest.mark.parametrize("ulimit", [0, 2, 16])
def test_every_tree_codec_round_trips(name, ulimit):
    codec = table.TREE[name].make(ulimit)

    @settings(max_examples=30)
    @given(naturals(4096))
    def prop(n):
        assert hftree.rank(codec, hftree.unrank(codec, n)) == n

    prop()


def test_selfcheck_runs_every_row_once(monkeypatch):
    # LAWS names its laws one by one, so a row could drop out unnoticed
    ran = []
    for law in ("round_trips", "tree_round_trips"):
        monkeypatch.setattr(selfcheck, law, lambda row, *args: ran.append(row.name))
    assert selfcheck.run_selfcheck(3, 13, emit=lambda line: None)
    assert sorted(ran) == sorted([*table.FLAT, *table.TREE])


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
