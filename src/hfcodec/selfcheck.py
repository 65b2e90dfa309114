"""Runnable verification of every codec law and golden example.

Each law is a named callable taking a range bound and a seeded RNG; it
raises AssertionError (or anything else) on violation.  run_selfcheck
executes all of them independently and reports one PASS/FAIL line per
law, so a single broken bijection names itself instead of hiding behind
an unrelated traceback.

The round-trip laws come from the codec table, hfcodec.table: each flat
row's law is the one generic round_trips, run after that law's goldens,
with the row's structural checks from _CHECKS, and each tree row's law
unranks and ranks through the row's maker.  LAWS lists them in a fixed
order, so the report reads the same on every run.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import factorial
from typing import Callable, Sequence

from . import hftree, natbits, pairing, permcodec, setfun, table

_RANDOM_TRIALS = 20
_RANDOM_BITS = 256
# a few codes this long take the mixed-radix rows past two leaves of
# natbits' radix tree (about 300 factoradic digits), which 256 bits
# (about 58) never reach
_LONG_TRIALS = 3
_LONG_BITS = 2048


def _randoms(rng: random.Random, count: int = _RANDOM_TRIALS, bits: int = _RANDOM_BITS) -> list[int]:
    return [rng.getrandbits(bits) for _ in range(count)]


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


def round_trips(row: table.FlatRow, stop: int, randoms: int, draws: int,
                rng: random.Random, longs: int = 0) -> None:
    """The round-trip law of one flat row, with the row's _CHECKS.

    n -> x -> n over range(stop), `randoms` random codes and `longs`
    random _LONG_BITS-bit codes, at each of the row's arities, then
    x -> n -> x over `draws` drawn structures.
    """
    check = _CHECKS.get(row.name, lambda n, x: True)
    for k in row.arities or [None]:
        decode = row.decoder(k)
        for n in list(range(stop)) + _randoms(rng, randoms) + _randoms(rng, longs, _LONG_BITS):
            x = decode(n)
            assert check(n, x) and row.encode(x) == n and k in (None, len(x)), (row.name, k, n)
    for _ in range(draws):
        x = row.draw(rng, _RANDOM_BITS)
        assert row.decoder(len(x))(row.encode(x)) == x, (row.name, x)


def tree_round_trips(row: table.TreeRow, stop: int, randoms: int, rng: random.Random) -> None:
    """n -> tree -> n over range(stop) and `randoms` random codes, at ulimits 0, 2 and 10."""
    for u in (0, 2, 10):
        codec = row.make(u)
        for n in list(range(stop)) + _randoms(rng, randoms):
            assert hftree.rank(codec, hftree.unrank(codec, n)) == n, (row.name, u, n)


# what else holds of each structure a flat row decodes
_CHECKS: dict[str, Callable[[int, Sequence[int]], bool]] = {
    "set": lambda n, s: all(a < b for a, b in zip(s, s[1:])) and len(s) == n.bit_count(),
    "factoradic-r": lambda n, ds: all(d <= i for i, d in enumerate(ds)),
    "factoradic-l": lambda n, ds: ds[::-1] == permcodec.fr(n),
    "pair-bitmerge": lambda n, p: p == tuple(pairing.to_tuple(2, n)),
}

_Law = Callable[[int, random.Random], None]


def _flat_law(names: Sequence[str], goldens: Callable[[], list[tuple[object, object]]],
              cap: int | None = None, randoms: int = _RANDOM_TRIALS, longs: int = 0) -> _Law:
    """The (got, want) pairs goldens() lists are equal, and each named flat
    row passes round_trips up to max_n, or up to cap if that is lower."""
    def law(max_n: int, rng: random.Random) -> None:
        for got, want in goldens():
            assert got == want, (got, want)
        for name in names:
            round_trips(table.FLAT[name], min(max_n, cap or max_n) + 1, randoms,
                        _RANDOM_TRIALS, rng, longs)
    return law


def _tree_law(name: str) -> _Law:
    def law(max_n: int, rng: random.Random) -> None:
        tree_round_trips(table.TREE[name], min(max_n, 1000) + 1, 10, rng)
    return law


def _refused(f: Callable[..., object], *args: object) -> bool:
    try:
        f(*args)
    except ValueError:
        return True
    return False


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
    for row in table.TREE.values():
        for u in (0, 2, 10):
            codec = row.make(u)
            for n in list(range(min(max_n, 300) + 1)) + _randoms(rng, 10):
                t = hftree.unrank(codec, n)
                assert hftree.deserialize(hftree.serialize(t)) == t, (codec.name, u, n)


LAWS: list[tuple[str, _Law]] = [
    ("base-round-trip", _law_base_round_trip),
    ("maxbits-padding", _law_maxbits_padding),
    ("bitcount-vs-search", _law_bitcount_vs_search),
    ("cantor-pairing", _flat_law(["pair-cantor"], lambda: [
        ([pairing.cantor_pair(i, j) for i in range(4) for j in range(4)],
         [0, 2, 5, 9, 1, 4, 8, 13, 3, 7, 12, 18, 6, 11, 17, 24])])),
    ("pepis-pairing", _flat_law(["pair-pepis"], lambda: [
        ([pairing.pepis_pair(i, j) for i in range(4) for j in range(4)],
         [0, 2, 4, 6, 1, 5, 9, 13, 3, 11, 19, 27, 7, 23, 39, 55]),
        (pairing.pepis_pair(1, 10), 41),
        (pairing.pepis_pair(10, 1), 3071)])),
    ("bitmerge-pairing", _flat_law(["pair-bitmerge"], lambda: [
        (pairing.bitmerge_pair((60, 26)), 2008),
        (pairing.bitmerge_unpair(2008), (60, 26))])),
    ("tuple-round-trip", _flat_law(["tuple"], lambda: [
        (pairing.to_tuple(3, 42), [2, 1, 2])], cap=1000, randoms=5)),
    ("ftuple-round-trip", _flat_law(["ftuple"], lambda: [
        ([pairing.nat2ftuple(n) for n in range(16)],
         [[], [0, 0], [1], [0, 0, 0], [2], [1, 0], [3], [0, 0, 0, 0],
          [4], [0, 1], [5], [1, 0, 0], [6], [1, 1], [7], [0, 0, 0, 0, 0]]),
        (pairing.ftuple2nat([1, 0, 2, 1, 3]), 21295),
        (_refused(pairing.ftuple2nat, [0]), True)])),
    ("set-round-trip", _flat_law(["set"], lambda: [
        (setfun.set2nat([1, 3, 5]), 42),
        (setfun.set2nat([1, 2, 5, 7, 10]), 1190),
        (setfun.nat2set(2008), [3, 4, 6, 7, 8, 9, 10])])),
    ("fun-round-trip", _flat_law(["fun"], lambda: [
        (setfun.fun2set([1, 0, 2, 1, 2]), [1, 2, 5, 7, 10]),
        (setfun.set2fun([1, 2, 5, 7, 10]), [1, 0, 2, 1, 2]),
        (setfun.nat2fun(2008), [3, 0, 1, 0, 0, 0, 0]),
        (setfun.fun2nat([3, 0, 1, 0, 0, 0, 0]), 2008),
        (setfun.nat2fun(0), [])])),
    ("rle-round-trip", _flat_law(["rle"], lambda: [
        (setfun.bits2rle([0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1]), [2, 1, 0, 4]),
        (setfun.rle2nat([0, 0]), 2),
        (setfun.nat2rle(0), [])])),
    ("factoradic-round-trip", _flat_law(["factoradic-r", "factoradic-l"], lambda: [
        (permcodec.fr(42), [0, 0, 0, 3, 1]),
        (permcodec.fl(42), [1, 3, 0, 0, 0])], longs=_LONG_TRIALS)),
    ("perm-round-trip", _flat_law(["perm"], lambda: [
        (permcodec.nth2perm((5, 42)), [1, 4, 0, 2, 3]),
        (permcodec.perm2nth([1, 4, 0, 2, 3]), (5, 42)),
        (permcodec.perm2lehmer([1, 4, 0, 2, 3]), [1, 3, 0, 0, 0]),
        (permcodec.nat2perm(2008), [1, 4, 3, 2, 0, 5, 6]),
        (permcodec.perm2nat([1, 4, 3, 2, 0, 5, 6]), 2008),
        ((permcodec.sf(3), permcodec.sf(8)), (4, 5914)),
        (permcodec.to_sf(2008), (7, 1134)),
        # nth2perm ranks in lexicographic order
        ([tuple(permcodec.nth2perm((k, r))) for k in range(5) for r in range(factorial(k))],
         [p for k in range(5) for p in permutations(range(k))])], longs=_LONG_TRIALS)),
    *((f"{name}-round-trip", _tree_law(name)) for name in table.TREE),
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
