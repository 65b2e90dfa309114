"""Runnable verification of every codec law and golden example.

Each law is a named callable taking a range bound and a seeded RNG; it
raises AssertionError (or anything else) on violation.  run_selfcheck
executes all of them independently and reports one PASS/FAIL line per
law, so a single broken bijection names itself instead of hiding behind
an unrelated traceback.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Callable

from . import hftree, natbits, pairing, permcodec, setfun

_RANDOM_TRIALS = 20
_RANDOM_BITS = 256


def _randoms(rng: random.Random, count: int = _RANDOM_TRIALS) -> list[int]:
    return [rng.getrandbits(_RANDOM_BITS) for _ in range(count)]


def _law_base_round_trip(max_n: int, rng: random.Random) -> None:
    for base in (2, 3, 8, 16, 32):
        for n in list(range(min(max_n, 2000) + 1)) + _randoms(rng):
            ds = natbits.to_base(base, n)
            assert natbits.from_base(base, ds) == n, (base, n)
            if n > 0:
                assert ds.digits[-1] != 0, f"trailing zero digit for {n} base {base}"
    assert list(natbits.to_base(2, 42)) == [0, 1, 0, 1, 0, 1]
    assert list(natbits.to_base(8, 2008)) == [0, 3, 7, 3]
    assert natbits.from_base(32, [25, 20]) == 665


def _law_maxbits_padding(max_n: int, rng: random.Random) -> None:
    assert natbits.to_maxbits(2, 0) == [0, 0]
    for n in list(range(min(max_n, 2000) + 1)) + _randoms(rng):
        k = natbits.bitcount(n) + 3
        bs = natbits.to_maxbits(k, n)
        assert len(bs) == k, n
        assert natbits.from_rbits(bs) == n


def _law_bitcount_vs_search(max_n: int, rng: random.Random) -> None:
    for n in range(min(max_n, 4096) + 1):
        x = 1
        while (1 << x) <= n:
            x += 1
        assert natbits.bitcount(n) == x, n
    assert natbits.max_bitcount([]) == 0
    assert natbits.max_bitcount([1, 0, 2, 1, 3]) == 2


def _law_cantor_pairing(max_n: int, rng: random.Random) -> None:
    table = [pairing.cantor_pair(i, j) for i in range(4) for j in range(4)]
    assert table == [0, 2, 5, 9, 1, 4, 8, 13, 3, 7, 12, 18, 6, 11, 17, 24]
    for z in list(range(max_n + 1)) + _randoms(rng):
        x, y = pairing.cantor_unpair(z)
        assert pairing.cantor_pair(x, y) == z, z
    for x in range(64):
        for y in range(64):
            assert pairing.cantor_unpair(pairing.cantor_pair(x, y)) == (x, y)


def _law_pepis_pairing(max_n: int, rng: random.Random) -> None:
    table = [pairing.pepis_pair(i, j) for i in range(4) for j in range(4)]
    assert table == [0, 2, 4, 6, 1, 5, 9, 13, 3, 11, 19, 27, 7, 23, 39, 55]
    assert pairing.pepis_pair(1, 10) == 41
    assert pairing.pepis_pair(10, 1) == 3071
    for z in list(range(max_n + 1)) + _randoms(rng):
        x, y = pairing.pepis_unpair(z)
        assert pairing.pepis_pair(x, y) == z, z
    for x in range(64):
        for y in range(64):
            assert pairing.pepis_unpair(pairing.pepis_pair(x, y)) == (x, y)


def _law_bitmerge_pairing(max_n: int, rng: random.Random) -> None:
    assert pairing.bitmerge_pair((60, 26)) == 2008
    assert pairing.bitmerge_unpair(2008) == (60, 26)
    for z in list(range(max_n + 1)) + _randoms(rng):
        p = pairing.bitmerge_unpair(z)
        assert pairing.bitmerge_pair(p) == z, z
        assert tuple(pairing.to_tuple(2, z)) == p, z


def _law_tuple_round_trip(max_n: int, rng: random.Random) -> None:
    assert pairing.to_tuple(3, 42) == [2, 1, 2]
    for k in range(1, 7):
        for n in list(range(min(max_n, 1000) + 1)) + _randoms(rng, 5):
            t = pairing.to_tuple(k, n)
            assert len(t) == k
            assert pairing.from_tuple(t) == n, (k, n)
    for _ in range(_RANDOM_TRIALS):
        t = [rng.getrandbits(64) for _ in range(rng.randint(1, 6))]
        assert pairing.to_tuple(len(t), pairing.from_tuple(t)) == t, t


def _law_ftuple_round_trip(max_n: int, rng: random.Random) -> None:
    first = [pairing.nat2ftuple(n) for n in range(16)]
    assert first == [[], [0, 0], [1], [0, 0, 0], [2], [1, 0], [3], [0, 0, 0, 0],
                     [4], [0, 1], [5], [1, 0, 0], [6], [1, 1], [7], [0, 0, 0, 0, 0]]
    assert pairing.ftuple2nat([1, 0, 2, 1, 3]) == 21295
    for n in list(range(max_n + 1)) + _randoms(rng):
        assert pairing.ftuple2nat(pairing.nat2ftuple(n)) == n, n
    try:
        pairing.ftuple2nat([0])
    except ValueError:
        pass
    else:
        raise AssertionError("ftuple2nat([0]) must be rejected")


def _law_set_round_trip(max_n: int, rng: random.Random) -> None:
    assert setfun.set2nat([1, 3, 5]) == 42
    assert setfun.set2nat([1, 2, 5, 7, 10]) == 1190
    assert setfun.nat2set(2008) == [3, 4, 6, 7, 8, 9, 10]
    for n in list(range(max_n + 1)) + _randoms(rng):
        s = setfun.nat2set(n)
        assert all(a < b for a, b in zip(s, s[1:])), n
        assert setfun.set2nat(s) == n, n


def _law_fun_round_trip(max_n: int, rng: random.Random) -> None:
    assert setfun.fun2set([1, 0, 2, 1, 2]) == [1, 2, 5, 7, 10]
    assert setfun.set2fun([1, 2, 5, 7, 10]) == [1, 0, 2, 1, 2]
    assert setfun.nat2fun(2008) == [3, 0, 1, 0, 0, 0, 0]
    assert setfun.fun2nat([3, 0, 1, 0, 0, 0, 0]) == 2008
    for n in list(range(max_n + 1)) + _randoms(rng):
        assert setfun.fun2nat(setfun.nat2fun(n)) == n, n
    for _ in range(_RANDOM_TRIALS):
        f = [rng.randint(0, 50) for _ in range(rng.randint(0, 12))]
        assert setfun.nat2fun(setfun.fun2nat(f)) == f, f


def _law_rle_round_trip(max_n: int, rng: random.Random) -> None:
    assert setfun.bits2rle([0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1]) == [2, 1, 0, 4]
    assert setfun.rle2nat([0, 0]) == 2
    assert setfun.nat2rle(0) == []
    for n in list(range(max_n + 1)) + _randoms(rng):
        assert setfun.rle2nat(setfun.nat2rle(n)) == n, n
    for _ in range(_RANDOM_TRIALS):
        rs = [rng.randint(0, 6) for _ in range(rng.randint(0, 12))]
        assert setfun.nat2rle(setfun.rle2nat(rs)) == rs, rs


def _law_factoradic_round_trip(max_n: int, rng: random.Random) -> None:
    assert permcodec.fr(42) == [0, 0, 0, 3, 1]
    assert permcodec.fl(42) == [1, 3, 0, 0, 0]
    for n in list(range(max_n + 1)) + _randoms(rng):
        ds = permcodec.fr(n)
        assert all(d <= i for i, d in enumerate(ds)), n
        assert permcodec.rf(ds) == n, n
        assert permcodec.lf(permcodec.fl(n)) == n, n


def _law_perm_round_trip(max_n: int, rng: random.Random) -> None:
    assert permcodec.nth2perm((5, 42)) == [1, 4, 0, 2, 3]
    assert permcodec.perm2nth([1, 4, 0, 2, 3]) == (5, 42)
    assert permcodec.perm2lehmer([1, 4, 0, 2, 3]) == [1, 3, 0, 0, 0]
    assert permcodec.nat2perm(2008) == [1, 4, 3, 2, 0, 5, 6]
    assert permcodec.perm2nat([1, 4, 3, 2, 0, 5, 6]) == 2008
    assert (permcodec.sf(3), permcodec.sf(8)) == (4, 5914)
    assert permcodec.to_sf(2008) == (7, 1134)
    for k in range(5):
        ranked = [tuple(permcodec.nth2perm((k, r)))
                  for r in range(permcodec.sf(k + 1) - permcodec.sf(k))]
        assert ranked == sorted(permutations(range(k))), k
    for n in list(range(max_n + 1)) + _randoms(rng):
        assert permcodec.perm2nat(permcodec.nat2perm(n)) == n, n
    for _ in range(_RANDOM_TRIALS):
        ps = list(range(rng.randint(0, 30)))
        rng.shuffle(ps)
        assert permcodec.nat2perm(permcodec.perm2nat(ps)) == ps, ps


def _tree_codec_law(make: Callable[[int], hftree.Codec]):
    def law(max_n: int, rng: random.Random) -> None:
        for u in (0, 2, 10):
            codec = make(u)
            for n in list(range(min(max_n, 1000) + 1)) + _randoms(rng, 10):
                t = hftree.unrank(codec, n)
                assert hftree.rank(codec, t) == n, (codec.name, u, n)
    return law


def _law_hfs_goldens(max_n: int, rng: random.Random) -> None:
    def F(*ts: hftree.Tree) -> hftree.Forest:
        return hftree.Forest(ts)

    assert hftree.nat2hfs(42) == F(F(F()), F(F(), F(F())), F(F(), F(F(F()))))
    assert hftree.hfs2nat(hftree.nat2hfs(42)) == 42
    first = [hftree.unrank(hftree.codec_hfs(), n) for n in range(5)]
    assert first == [F(), F(F()), F(F(F())), F(F(), F(F())), F(F(F(F())))]


def _law_render_goldens(max_n: int, rng: random.Random) -> None:
    assert hftree.set_show(42) == "{{{}},{{},{{}}},{{},{{{}}}}}"
    assert hftree.fun_show(1234567890, 10) == "(3 2 0 1 7 0 1 2 0 2 2)"
    assert hftree.fun_show2(1234567890, 10) == "(2 0 1 1 0 0 6 1 0 0 1 1 1 0 1 0)"
    assert hftree.perm_show(42, 10) == "(3 2 0 1)"


def _law_serialize_round_trip(max_n: int, rng: random.Random) -> None:
    assert hftree.serialize(hftree.Forest((hftree.Atom(2), hftree.Forest()))) == "(a2 ())"
    for make in hftree.TREE_CODECS.values():
        for u in (0, 10):
            codec = make(u)
            for n in list(range(min(max_n, 300) + 1)) + _randoms(rng, 5):
                t = hftree.unrank(codec, n)
                assert hftree.deserialize(hftree.serialize(t)) == t, (codec.name, u, n)


LAWS: list[tuple[str, Callable[[int, random.Random], None]]] = [
    ("base-round-trip", _law_base_round_trip),
    ("maxbits-padding", _law_maxbits_padding),
    ("bitcount-vs-search", _law_bitcount_vs_search),
    ("cantor-pairing", _law_cantor_pairing),
    ("pepis-pairing", _law_pepis_pairing),
    ("bitmerge-pairing", _law_bitmerge_pairing),
    ("tuple-round-trip", _law_tuple_round_trip),
    ("ftuple-round-trip", _law_ftuple_round_trip),
    ("set-round-trip", _law_set_round_trip),
    ("fun-round-trip", _law_fun_round_trip),
    ("rle-round-trip", _law_rle_round_trip),
    ("factoradic-round-trip", _law_factoradic_round_trip),
    ("perm-round-trip", _law_perm_round_trip),
    *((f"{name}-round-trip", _tree_codec_law(make))
      for name, make in hftree.TREE_CODECS.items()),
    ("hfs-goldens", _law_hfs_goldens),
    ("render-goldens", _law_render_goldens),
    ("serialize-round-trip", _law_serialize_round_trip),
]


def run_selfcheck(max_n: int, seed: int, emit: Callable[[str], None] = print) -> bool:
    """Run every law at the given bound; report per-law lines; True iff all pass."""
    failures = 0
    for name, law in LAWS:
        try:
            law(max_n, random.Random(seed))
        except Exception as exc:  # a crashing law is a failing law
            failures += 1
            detail = str(exc) or exc.__class__.__name__
            emit(f"FAIL {name}: {detail}")
        else:
            emit(f"PASS {name}")
    total = len(LAWS)
    emit(f"{total - failures}/{total} laws hold (max_n={max_n}, seed={seed})")
    return failures == 0
