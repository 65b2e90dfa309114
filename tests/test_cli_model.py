"""Every command and format of the CLI against the model (tests/model.py), byte for byte.

The rows are hfcodec.table's: every flat row, the tuple row at arities 1,
2, 3 and its widest, and every tree row at ulimit 0, 1, 2 and 16 (render
prints an empty forest as 0 from ulimit 2 on).  On a code n, decode prints
in each format what the model prints: the list form, serialize, render in
the row's style, to_dot, or n itself in decimal.  show and dot print the
render and DOT texts, enumerate prints the lines decode prints, and encode
of the model's structure prints n.  encode of any other structure prints
the model's code for it, or exits 2 with nothing on stdout where the model
refuses it.
"""

import functools
import math
import random
import sys
from typing import NamedTuple

import pytest

import model
from conftest import assert_same, naturals, recursion_limit, run_cli
from hfcodec import cli, hftree, natbits, table

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below skip themselves without hypothesis
    given = None

STYLES = {hftree.SET_STYLE: model.SET_STYLE, hftree.FUN_STYLE: model.FUN_STYLE}


class Row(NamedTuple):
    """A row of hfcodec.table as the CLI runs it: a flat codec, with an
    arity for tuple, or a tree codec at one ulimit."""

    codec: str
    arity: int | None = None
    ulimit: int | None = None

    @property
    def flags(self):
        if self.ulimit is not None:
            return ["--codec", self.codec, "--ulimit", str(self.ulimit)]
        return ["--codec", self.codec, *(["--arity", str(self.arity)] if self.arity else [])]

    def structure(self, n):
        """The model's decode of n: a list, or a tree."""
        if self.ulimit is not None:
            return model.unrank(self.codec, self.ulimit, n)
        decode = model.FLAT_CODECS[self.codec][0]
        return decode(n) if self.arity is None else decode(self.arity, n)

    def text(self, s):
        """Structure s as encode reads it and decode prints it by default."""
        return model.listed(s) if self.ulimit is None else model.serialize(s)

    def code(self, s):
        """The model's code of structure s, or None where the model refuses it."""
        if self.ulimit is None:
            return model.flat_code(self.codec, s, self.arity)
        return model.tree_code(self.codec, self.ulimit, s)

    def texts(self, n, dot=True):
        """What decode prints for n in each format, the default one first."""
        s = self.structure(n)
        texts = {"list" if self.ulimit is None else "tree": self.text(s)}
        if self.ulimit is not None:
            texts["show"] = model.render(STYLES[table.TREE[self.codec].style], self.ulimit, s)
            if dot:
                texts["dot"] = model.to_dot(s)
        texts["decimal"] = model.decimal(n)
        return texts


ROWS = [
    *(Row(name, arity) for name, row in table.FLAT.items()
      for arity in ((*row.arities[:3], row.arities[-1]) if row.arities else (None,))),
    *(Row(name, ulimit=ulimit) for name in table.TREE for ulimit in (0, 1, 2, 16)),
]
ROW_IDS = [" ".join(row.flags[1:]) for row in ROWS]


@pytest.fixture(autouse=True)
def model_memo(monkeypatch):
    # unrank is a pure function, so a memo for one test changes no value;
    # the codes a test decodes then build each distinct subtree once
    monkeypatch.setattr(model, "unrank", functools.cache(model.unrank))
    with recursion_limit(20_000):  # the model recurses once per level
        yield


def expect(capsys, want, *argv):
    """argv exits 0, prints want and a newline, and nothing on stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err[:200]) == (0, ""), argv[:8]
    assert_same(out, want + "\n", " ".join(argv[:8]))


def check(capsys, row, n):
    """decode in every format, show, dot and encode on n, and enumerate on n and n + 1."""
    texts, after = row.texts(n), row.texts(n + 1, dot=False)
    default = next(iter(texts))
    expect(capsys, texts[default], "decode", *row.flags, texts["decimal"])
    for fmt, text in texts.items():
        expect(capsys, text, "decode", *row.flags, "--format", fmt, hex(n))
        if fmt in ("show", "dot"):
            expect(capsys, text, fmt, *row.flags, hex(n))
    for fmt, text in after.items():
        expect(capsys, texts[fmt] + "\n" + text,
               "enumerate", *row.flags, "--format", fmt, hex(n), "2")
    expect(capsys, texts["decimal"], "encode", *row.flags, texts[default])


# check() takes each cut's code and the one below it, so each is decoded
# beside both its neighbours and enumerate runs across it: the byte tables
# of codes up to 32 bits, permcodec's one-loop kernels up to size 128
# (sf(129) is the first size-129 permutation), and the int/str digit limit.
# Past the last, the CLI reads and prints the code in chunks, whatever the
# tree, so tree rows take its first two codes at ulimit 16 alone, where
# atoms keep the model's trees small.
CUTS = [1 << natbits._LOOP_BITS, model.sf(natbits._RADIX_LEAF + 1),
        10 ** sys.int_info.default_max_str_digits]


def fixed_codes(row):
    yield 0  # with 1, the smallest structures
    yield from (c - d for c in CUTS[:2] for d in (1, 0))
    if row.ulimit is None:
        yield from (CUTS[2] - 1, CUTS[2])
        yield random.Random(row.codec).getrandbits(65536) | 1 << 65535
    elif row.ulimit == 16:
        yield CUTS[2]


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_every_command_prints_what_the_model_prints(capsys, row):
    for n in fixed_codes(row):
        check(capsys, row, n)
    if given is None:
        pytest.skip("needs hypothesis")

    # the four texts of one 4096-bit hfs code take the model about 0.1 s
    @settings(max_examples=10 if row.ulimit is None else 4)
    @given(naturals())
    def prop(n):
        with recursion_limit(20_000):  # hypothesis sets its own limit for each call
            check(capsys, row, n)

    prop()


# 256-bit codes: the first _CHUNK_BITS // 256 of them make enumerate's first chunk
START, COUNT = 1 << 255, cli._CHUNK_BITS // 256 + 2


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_enumerate_across_chunks_prints_the_models_lines(capsys, row):
    lines = [row.texts(n, dot=False) for n in range(START, START + COUNT)]
    for fmt in lines[0]:
        expect(capsys, "\n".join([texts[fmt] for texts in lines]),
               "enumerate", *row.flags, "--format", fmt, str(START), str(COUNT))


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_encode_prints_the_models_code_or_refuses_with_exit_2(capsys, row):
    if given is None:
        pytest.skip("needs hypothesis")
    atoms = st.integers(0, 3)
    # trees two forests deep at most, whose ranks stay a few dozen bits long
    trees = atoms | st.lists(atoms | st.lists(atoms, max_size=3).map(tuple),
                             max_size=3).map(tuple)

    @settings(max_examples=15)
    @given(st.lists(st.integers(0, 12), max_size=6) if row.ulimit is None else trees)
    def prop(s):
        n = row.code(s)
        code, out, err = run_cli(capsys, "encode", *row.flags, row.text(s))
        if n is None:
            assert (code, out, err[:9]) == (2, "", "hfcodec: ")
        else:
            assert (code, out, err) == (0, model.decimal(n) + "\n", "")

    prop()


def test_sized_perms_print_the_models_permutation_and_rank(capsys):
    if given is None:
        pytest.skip("needs hypothesis")

    @given(st.integers(0, 300).flatmap(
        lambda size: st.tuples(st.just(size), st.integers(0, math.factorial(size) - 1))))
    def prop(size_rank):
        perm = model.nth2perm(*size_rank)
        sized = " ".join(map(model.decimal, size_rank))
        expect(capsys, model.listed(perm), "decode", "--codec", "perm", "--sized", sized)
        expect(capsys, " ".join(map(model.decimal, model.perm2nth(perm))),
               "encode", "--codec", "perm", "--sized", model.listed(perm))

    prop()
