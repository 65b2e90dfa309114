"""Acceptance gate for the library: five end-to-end criteria.

Each test prints one ACCEPTANCE PASS/FAIL line and enforces its
wall-clock budget, so a run of this file reads as a checklist: golden
values, round-trip laws, independent oracles, structural invariants,
and large-input robustness.
"""

import math
import random
from itertools import permutations

import model
from conftest import F, _budget
from hfcodec import cli, table
from hfcodec.hftree import (
    Atom,
    codec_hfs,
    deserialize,
    fun_show,
    fun_show1,
    fun_show2,
    hff2nat,
    hff2nat1,
    hff2nat2,
    nat2hff,
    nat2hff1,
    nat2hff2,
    nat2hfs,
    perm_show,
    rank,
    serialize,
    set_show,
    unrank,
)
from hfcodec.natbits import bitcount
from hfcodec.pairing import (
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    cantor_unpair,
    from_tuple,
    ftuple2nat,
    nat2ftuple,
    pepis_pair,
    to_tuple,
)
from hfcodec.permcodec import (
    fl,
    fr,
    lf,
    nat2perm,
    nth2perm,
    perm2lehmer,
    perm2nat,
    perm2nth,
    rf,
    sf,
)
from hfcodec.setfun import (
    fun2nat,
    fun2set,
    nat2fun,
    set2fun,
)
from hfcodec.selfcheck import round_trips, tree_round_trips


def _criterion(num, summary):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE FAIL criterion {num}: {summary}")
                raise
            print(f"ACCEPTANCE PASS criterion {num}: {summary}")

        run.__name__ = fn.__name__
        return run

    return wrap


@_criterion(1, "golden examples, exact equality, < 1 s")
def test_criterion_1_goldens():
    with _budget(1.0):
        assert [cantor_pair(i, j) for i in range(4) for j in range(4)] == [
            0, 2, 5, 9, 1, 4, 8, 13, 3, 7, 12, 18, 6, 11, 17, 24]
        assert [pepis_pair(i, j) for i in range(4) for j in range(4)] == [
            0, 2, 4, 6, 1, 5, 9, 13, 3, 11, 19, 27, 7, 23, 39, 55]
        assert pepis_pair(1, 10) == 41
        assert pepis_pair(10, 1) == 3071
        assert bitmerge_pair((60, 26)) == 2008
        assert bitmerge_unpair(2008) == (60, 26)
        assert to_tuple(3, 42) == [2, 1, 2]
        assert from_tuple([2, 1, 2]) == 42
        assert ftuple2nat([1, 0, 2, 1, 3]) == 21295
        assert nat2ftuple(21295) == [1, 0, 2, 1, 3]
        assert [nat2ftuple(n) for n in range(16)] == [
            [], [0, 0], [1], [0, 0, 0], [2], [1, 0], [3], [0, 0, 0, 0],
            [4], [0, 1], [5], [1, 0, 0], [6], [1, 1], [7], [0, 0, 0, 0, 0]]
        assert fun2set([1, 0, 2, 1, 2]) == [1, 2, 5, 7, 10]
        assert set2fun([1, 2, 5, 7, 10]) == [1, 0, 2, 1, 2]
        assert nat2fun(2008) == [3, 0, 1, 0, 0, 0, 0]
        assert fun2nat([3, 0, 1, 0, 0, 0, 0]) == 2008
        assert fr(42) == [0, 0, 0, 3, 1] and rf([0, 0, 0, 3, 1]) == 42
        assert fl(42) == [1, 3, 0, 0, 0] and lf([1, 3, 0, 0, 0]) == 42
        assert nth2perm((5, 42)) == [1, 4, 0, 2, 3]
        assert perm2nth([1, 4, 0, 2, 3]) == (5, 42)
        assert nth2perm((8, 2008)) == [0, 3, 6, 5, 4, 7, 1, 2]
        assert perm2nth([0, 3, 6, 5, 4, 7, 1, 2]) == (8, 2008)
        assert nat2perm(2008) == [1, 4, 3, 2, 0, 5, 6]
        assert perm2nat([1, 4, 3, 2, 0, 5, 6]) == 2008

        hfs42 = F(F(F()), F(F(), F(F())), F(F(), F(F(F()))))
        assert nat2hfs(42) == hfs42
        assert set_show(42) == "{{{}},{{},{{}}},{{},{{{}}}}}"

        assert nat2hff(42) == F(F(F()), F(F()), F(F()))
        assert nat2hff1(42) == F(F(F(F(), F(), F()), F()))
        assert nat2hff2(42) == F(F(), F(), F(), F(), F(), F())
        assert nat2hff(12345) == F(
            F(), F(F(F())), F(), F(), F(F(F()), F()), F())
        assert nat2hff1(12345) == F(
            F(F(F(F(F(), F())), F())), F(F(), F(), F(F(), F())))
        assert nat2hff2(12345) == F(
            F(), F(F()), F(F(), F()), F(F(), F(), F()), F(F()))
        for n in (0, 1, 42, 12345):
            assert hff2nat(nat2hff(n)) == n
            assert hff2nat1(nat2hff1(n)) == n
            assert hff2nat2(nat2hff2(n)) == n

        assert fun_show(1234567890, 10) == "(3 2 0 1 7 0 1 2 0 2 2)"
        assert fun_show1(1234567890, 10) == "(((((0 3)) (((2 0 1))) 1)))"
        assert fun_show2(1234567890, 10) == "(2 0 1 1 0 0 6 1 0 0 1 1 1 0 1 0)"
        assert perm_show(1234567890, 10) == "(1 6 (0) 2 0 3 0 7 5 (0 1) 9 4 8)"
        # the outermost permutation behind that display, re-ranked by the
        # model of the paper (tests/model.py)
        ps = nat2perm(1234567890 - 10)
        assert ps == [1, 6, 11, 2, 0, 3, 10, 7, 5, 12, 9, 4, 8]
        assert model.perm2nat(ps) == 1234567890 - 10

        first = [unrank(codec_hfs(), n) for n in range(5)]
        assert first == [F(), F(F()), F(F(F())), F(F(), F(F())), F(F(F(F())))]


@_criterion(2, "round-trip laws, exhaustive + 200 random 256-bit values per codec, < 60 s")
def test_criterion_2_round_trips():
    with _budget(60.0):
        for row in table.FLAT.values():
            round_trips(row, 10_001, 200, 300, random.Random(13))
        for row in table.TREE.values():
            tree_round_trips(row, 2001, 200, random.Random(13))


@_criterion(3, "independent oracle equivalences")
def test_criterion_3_oracles():
    # (a) dealing a number into 2 bit-streams is exactly even/odd unpairing
    for n in range(10_001):
        assert tuple(to_tuple(2, n)) == bitmerge_unpair(n), n

    # (b) cantor_unpair against brute-force inversion of the pairing table
    table = {}
    for x in range(101):
        for y in range(101 - x):
            z = cantor_pair(x, y)
            assert z not in table
            table[z] = (x, y)
    for z in range(5001):
        assert cantor_unpair(z) == table[z], z

    # (c) rank order is lexicographic order, by brute-force enumeration
    for k in range(7):
        ranked = [tuple(nth2perm((k, r))) for r in range(math.factorial(k))]
        assert ranked == sorted(permutations(range(k))), k

    # (d) incremental sf against direct factorial summation
    for n in range(31):
        assert sf(n) == sum(math.factorial(i) for i in range(n)), n

    # (e) bitcount against the defining search for the first power of 2 above n
    for n in range(10_001):
        x = 1
        while (1 << x) <= n:
            x += 1
        assert bitcount(n) == x, n


@_criterion(4, "structural invariants on functions, permutations, and trees")
def test_criterion_4_invariants():
    rng = random.Random(13)
    for _ in range(10_000):
        f = [rng.randint(0, 50) for _ in range(rng.randint(0, 12))]
        s = fun2set(f)
        assert all(a < b for a, b in zip(s, s[1:])), f
        assert set2fun(s) == f, f

    for k in range(7):
        codes = set()
        for ps in permutations(range(k)):
            code = perm2lehmer(list(ps))
            assert all(d <= k - 1 - i for i, d in enumerate(code)), ps
            codes.add(tuple(code))
        assert len(codes) == math.factorial(k)

    trees = 0
    for ulimit in (0, 2, 10):
        for row in table.TREE.values():
            codec = row.make(ulimit)
            for n in range(67):
                t = unrank(codec, n)
                trees += 1
                stack = [t]
                while stack:
                    node = stack.pop()
                    if isinstance(node, Atom):
                        assert node.value < ulimit, (codec.name, ulimit, n)
                    else:
                        stack.extend(node.children)
                assert deserialize(serialize(t)) == t, (codec.name, ulimit, n)
                assert rank(codec, t) == n, (codec.name, ulimit, n)
    assert trees >= 1000


@_criterion(5, "4096-bit round trips under every tree codec < 10 s; CLI selfcheck exits 0")
def test_criterion_5_scale():
    rng = random.Random(13)
    n = rng.getrandbits(4096) | (1 << 4095)
    with _budget(10.0):
        for row in table.TREE.values():
            codec = row.make(0)
            assert rank(codec, unrank(codec, n)) == n, codec.name
    assert cli.main(["selfcheck"]) == 0
