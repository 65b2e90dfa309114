"""The model of the paper (tests/model.py), anchored to the paper's printed
values and to its own inverses, not to hfcodec; and kept independent of
hfcodec: an import outside the standard library fails here."""

import ast
import sys
from itertools import permutations
from pathlib import Path

import model as m
from conftest import recursion_limit


def test_the_model_imports_the_standard_library_only():
    imported = set()
    for node in ast.walk(ast.parse(Path(m.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported <= sys.stdlib_module_names, sorted(imported - sys.stdlib_module_names)


def test_the_papers_examples():
    assert m.render(m.SET_STYLE, 0, m.unrank("hfs", 0, 42)) == "{{{}},{{},{{}}},{{},{{{}}}}}"
    assert [m.unrank("hfs", 0, n) for n in range(5)] == [
        (), ((),), (((),),), ((), ((),)), ((((),),),)]
    assert [m.cantor_pair(i, j) for i in range(4) for j in range(4)] == [
        0, 2, 5, 9, 1, 4, 8, 13, 3, 7, 12, 18, 6, 11, 17, 24]
    assert [m.pepis_pair(i, j) for i in range(4) for j in range(4)] == [
        0, 2, 4, 6, 1, 5, 9, 13, 3, 11, 19, 27, 7, 23, 39, 55]
    assert m.to_base(8, 2008) == [0, 3, 7, 3]
    assert m.nat2set(2008) == [3, 4, 6, 7, 8, 9, 10]
    assert m.nat2fun(2008) == [3, 0, 1, 0, 0, 0, 0]
    assert m.fun2set([1, 0, 2, 1, 2]) == [1, 2, 5, 7, 10]
    assert m.nat2rle(2008) == [2, 1, 0, 4]
    assert m.to_tuple(2, 2008) == [60, 26] and m.to_tuple(3, 42) == [2, 1, 2]
    assert m.ftuple2nat([1, 0, 2, 1, 3]) == 21295
    assert [m.nat2ftuple(n) for n in range(8)] == [
        [], [0, 0], [1], [0, 0, 0], [2], [1, 0], [3], [0, 0, 0, 0]]
    assert m.fr(42) == [0, 0, 0, 3, 1] and m.lehmer([1, 4, 0, 2, 3]) == [1, 3, 0, 0, 0]
    assert m.nth2perm(5, 42) == [1, 4, 0, 2, 3]
    assert m.nth2perm(8, 2008) == [0, 3, 6, 5, 4, 7, 1, 2]
    assert m.to_sf(2008) == (7, 1134) and m.nat2perm(2008) == [1, 4, 3, 2, 0, 5, 6]
    for codec, text in [("hff", "(3 2 0 1 7 0 1 2 0 2 2)"), ("hff1", "(((((0 3)) (((2 0 1))) 1)))"),
                        ("hff2", "(2 0 1 1 0 0 6 1 0 0 1 1 1 0 1 0)"),
                        ("hfp", "(1 6 (0) 2 0 3 0 7 5 (0 1) 9 4 8)")]:
        assert m.render(m.FUN_STYLE, 10, m.unrank(codec, 10, 1234567890)) == text


def test_the_models_inverses_invert_each_other():
    for n in range(200):
        assert m.from_bits(m.bits(n)) == m.from_base(3, m.to_base(3, n)) == n
        assert m.set2nat(m.nat2set(n)) == m.fun2nat(m.nat2fun(n)) == m.rle2nat(m.nat2rle(n)) == n
        assert m.cantor_pair(*m.cantor_unpair(n)) == m.pepis_pair(*m.pepis_unpair(n)) == n
        assert m.from_tuple(m.to_tuple(3, n)) == m.ftuple2nat(m.nat2ftuple(n)) == n
        assert m.rf(m.fr(n)) == m.perm2nat(m.nat2perm(n)) == n
    for n in range(64):
        for codec in m.TREE_CODECS:
            for ulimit in (0, 2):
                t = m.unrank(codec, ulimit, n)
                assert m.rank(codec, ulimit, t) == n
                assert m.deserialize(m.serialize(t)) == t
    with recursion_limit(3000):  # a 1002-level chain
        t = m.unrank("hff1", 0, 1 << 1000)
        assert m.rank("hff1", 0, t) == 1 << 1000 and len(m.to_dag(t)[1]) == 1002
    every = [list(ps) for k in range(6) for ps in permutations(range(k))]
    assert [m.nat2perm(n) for n in range(len(every))] == every
