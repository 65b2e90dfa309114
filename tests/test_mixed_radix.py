"""Mixed-radix conversion against the digit-at-a-time loops it replaced.

Factoradics (fr, rf, fl, lf), the permutation ranking built on them (sf,
to_sf, nth2perm, nat2perm, perm2nat) and bases that are not powers of two
split and join naturals along a product tree of their radices, which is a
single digit-at-a-time loop for short ones.  The naive references below
are the loops they replaced, copied unchanged.  Every function is checked
against them on every natural below 3000, on hypothesis-drawn inputs up
to 4096 bits and from 4096 to 65536 bits, on exact edges (k! and sf(k)
plus or minus one) on both sides of the crossover and of the size tables,
and on long digit lists with digits above their bound.  A timed
262144-bit round trip guards the cost.  The one-loop permutation kernels
are checked against the perm2lehmer/_radix_join and
_radix_split/lehmer2perm compositions they fuse, on every permutation of
size at most 7 and around the leaf size, and raise the same errors on
both sides of it.
"""

import math
import random
import time
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hfcodec.natbits import (  # noqa: E402
    _RADIX_LEAF,
    DigitList,
    _list_text,
    _radix_join,
    _radix_split,
    from_base,
    to_base,
)
from hfcodec.permcodec import (  # noqa: E402
    fl,
    fr,
    lehmer2perm,
    lf,
    nat2perm,
    nth2perm,
    perm2lehmer,
    perm2nat,
    perm2nth,
    rf,
    sf,
    to_sf,
)

BASES = (3, 10, 36, 1000)


# --- naive references: the digit-at-a-time loops ------------------------------

def naive_fr(n):
    if n == 0:
        return [0]
    digits, j = [], 1
    while n:
        n, d = divmod(n, j)
        digits.append(d)
        j += 1
    return digits


def naive_rf(ds):
    total, w = 0, 1
    for i, d in enumerate(ds):
        if i:
            w *= i
        total += d * w
    return total


def naive_sf(n):
    total, w = 0, 1
    for i in range(n):
        total += w
        w *= i + 1
    return total


def naive_to_sf(n):
    k, s, w = 0, 0, 1
    while s + w <= n:
        s += w
        w *= k + 1
        k += 1
    return k, n - s


def naive_nth2perm(size, rank):
    ds = naive_fr(rank)[::-1] if rank else []
    return lehmer2perm([0] * (size - len(ds)) + ds)


def naive_nat2perm(n):
    return naive_nth2perm(*naive_to_sf(n)) if n else []


def naive_perm2nat(ps):
    ls = perm2lehmer(ps)
    return naive_sf(len(ls)) + naive_rf(ls[::-1])


def naive_to_base(base, n):
    digits = []
    while True:
        n, d = divmod(n, base)
        digits.append(d)
        if n == 0:
            return digits


def naive_from_base(base, ds):
    n = 0
    for d in reversed(ds):
        n = n * base + d
    return n


# --- one check per function family ----------------------------------------------

def check_factoradics(n):
    ds = naive_fr(n)
    assert fr(n) == ds
    assert fl(n) == ds[::-1]
    assert rf(ds) == n
    assert lf(ds[::-1]) == n


def check_permutations(n):
    k, r = naive_to_sf(n)
    assert to_sf(n) == (k, r)
    ps = naive_nth2perm(k, r)
    assert nth2perm((k, r)) == ps
    assert nat2perm(n) == ps
    assert perm2nat(ps) == naive_perm2nat(ps) == n


def check_bases(n, bases=BASES):
    for base in bases:
        ds = naive_to_base(base, n)
        expanded = to_base(base, n)
        assert expanded == DigitList(base, ds), base
        assert from_base(base, expanded) == n, base
        assert from_base(base, ds) == naive_from_base(base, ds) == n, base


@st.composite
def big_naturals(draw, min_bits=4096, max_bits=65536):
    bits = draw(st.integers(min_bits, max_bits))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


# --- small naturals: one leaf, and the size tables -----------------------------

def test_small_naturals_match_naive():
    for n in range(3000):
        check_factoradics(n)
        check_permutations(n)
        check_bases(n, BASES + (7,))


@settings(max_examples=60)
@given(big_naturals(min_bits=1, max_bits=4096))
def test_naturals_up_to_4096_bits_match_naive(n):
    check_factoradics(n)
    check_permutations(n)
    check_bases(n)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1 << 80), max_size=_RADIX_LEAF))
def test_rf_on_short_lists_with_digits_above_their_bound(ds):
    assert rf(ds) == naive_rf(ds)
    assert lf(ds) == naive_rf(ds[::-1])


# --- hypothesis properties from 4096 to 65536 bits -----------------------------

@settings(max_examples=20)
@given(big_naturals())
def test_factoradics_match_naive(n):
    check_factoradics(n)


@settings(max_examples=15)
@given(big_naturals())
def test_permutation_ranking_matches_naive(n):
    check_permutations(n)


@settings(max_examples=12)
@given(st.integers(_RADIX_LEAF + 1, 6000))
def test_sf_matches_naive(k):
    assert sf(k) == naive_sf(k)
    assert to_sf(naive_sf(k)) == (k, 0)


@settings(max_examples=8)
@given(st.integers(700, 6000).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, math.factorial(k) - 1))))
def test_nth2perm_matches_naive(case):
    size, rank = case
    ps = naive_nth2perm(size, rank)
    assert nth2perm((size, rank)) == ps
    assert lf(perm2lehmer(ps)) == rank


@settings(max_examples=8)
@given(big_naturals())
def test_bases_match_naive(n):
    check_bases(n)


@settings(max_examples=10)
@given(st.sampled_from(BASES).flatmap(lambda b: st.tuples(
    st.just(b), st.lists(st.integers(0, b - 1), min_size=_RADIX_LEAF + 1, max_size=6000))))
def test_from_base_on_long_digit_lists(case):
    base, ds = case
    assert from_base(base, ds) == naive_from_base(base, ds)


@settings(max_examples=15)
@given(st.lists(st.integers(0, 1 << 80), min_size=_RADIX_LEAF + 1, max_size=3000))
def test_rf_on_long_lists_with_digits_above_their_bound(ds):
    assert rf(ds) == naive_rf(ds)
    assert lf(ds) == naive_rf(ds[::-1])


# --- exact edges on both sides of the crossover --------------------------------

EDGE_SIZES = (1, 2, 3, 7, 8, _RADIX_LEAF - 1, _RADIX_LEAF, _RADIX_LEAF + 1, 200, 537, 1000)


def edges(k):
    f, s = math.factorial(k), naive_sf(k)
    return [f - 1, f, f + 1, s - 1, s, s + 1]


@pytest.mark.parametrize("k", EDGE_SIZES)
def test_factorial_and_sf_edges_match_naive(k):
    assert sf(k) == naive_sf(k)
    for n in edges(k):
        check_factoradics(n)
        check_permutations(n)
    f = math.factorial(k)
    assert len(fr(f - 1)) == k and len(fr(f)) == k + 1
    assert nth2perm((k, f - 1)) == list(range(k))[::-1]
    with pytest.raises(OverflowError):
        nth2perm((k, f))


@pytest.mark.parametrize("bits", (954, 1677, 4093, 4202))
def test_to_sf_corrects_an_estimate_that_is_too_large(bits):
    # for n == 2**(bits - 1) the bit-length estimate of k overshoots by one
    check_permutations(1 << (bits - 1))


@pytest.mark.parametrize("base", BASES + (7, 255, 10**20))
def test_base_edges_match_naive(base):
    for e in (1, _RADIX_LEAF - 1, _RADIX_LEAF, _RADIX_LEAF + 1, 500, 1500):
        p = base ** e
        check_bases(p - 1, [base])
        check_bases(p, [base])
        check_bases(p + 1, [base])
    for bits in (_RADIX_LEAF, _RADIX_LEAF + 1):
        check_bases((1 << bits) - 1, [base])
        check_bases(1 << bits, [base])


# --- one big input per function, and the checks the loops made ------------------

BIG = random.Random(65536).getrandbits(65536) | (1 << 65535)


def test_65536_bits_match_naive():
    check_factoradics(BIG)
    check_permutations(BIG)
    check_bases(BIG, (3, 10))


def test_262144_bit_factoradic_and_permutation_round_trips_are_fast():
    # the digit-at-a-time loops take ~2.5 s here; the product tree ~0.3 s
    n = random.Random(262144).getrandbits(262144) | (1 << 262143)
    start = time.monotonic()
    assert rf(fr(n)) == n
    assert perm2nat(nat2perm(n)) == n
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"took {elapsed:.2f}s, budget is 1s"


def test_rf_checks_every_digit_in_order():
    ds = [1] * 1000
    ds[700], ds[900] = -3, -5
    with pytest.raises(ValueError, match="got -3"):
        rf(ds)
    ds[300] = "x"
    with pytest.raises(TypeError):
        rf(ds)


def test_long_digit_lists_are_checked():
    with pytest.raises(ValueError, match="digit 10 out of range for base 10"):
        from_base(10, [1] * 999 + [10])
    with pytest.raises(ValueError, match="digit -1 out of range for base 3"):
        from_base(3, [2] * 999 + [-1])
    with pytest.raises(ValueError, match="digit 10 out of range for base 10"):
        DigitList(10, [1] * 999 + [10])
    with pytest.raises(ValueError, match="carries base 10, expected 3"):
        from_base(3, to_base(10, BIG))
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        to_base(1, BIG)
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        from_base(1, [0] * 1000)
    with pytest.raises(ValueError, match="expected a natural number"):
        to_base(10, -(1 << 1000))


def test_to_base_result_is_a_plain_digit_list():
    for base in (2, 3, 10, 16, 64, 1000):
        for n in (0, 5, BIG):
            ds = to_base(base, n)
            assert type(ds) is DigitList
            assert type(ds.digits) is tuple
            assert ds == DigitList(base, list(ds))
            assert hash(ds) == hash(DigitList(base, list(ds)))


# --- the one-loop permutation kernels against the compositions they fuse -------

def composed_perm2nth(ps):
    ls = perm2lehmer(ps)
    return len(ls), _radix_join(ls[::-1], range(1, len(ls) + 1))


def composed_perm2nat(ps):
    ls = perm2lehmer(ps)
    return _radix_join([d + 1 for d in reversed(ls)], range(1, len(ls) + 1))


def composed_nth2perm(size, rank):
    return lehmer2perm(_radix_split(rank, range(1, size + 1))[::-1])


def composed_nat2perm(n):
    k, rank = to_sf(n)
    return composed_nth2perm(k, rank)


def check_kernels(ps):
    size, rank = composed_perm2nth(ps)
    n = composed_perm2nat(ps)
    assert perm2nth(ps) == (size, rank)
    assert perm2nat(ps) == n
    assert nth2perm((size, rank)) == composed_nth2perm(size, rank) == ps
    assert nat2perm(n) == composed_nat2perm(n) == ps


def test_kernels_match_compositions_on_every_permutation_up_to_size_7():
    for k in range(8):
        for ps in permutations(range(k)):
            check_kernels(list(ps))


@settings(max_examples=25)
@given(st.integers(_RADIX_LEAF - 2, _RADIX_LEAF + 2).flatmap(lambda k: st.permutations(range(k))))
def test_kernels_match_compositions_around_the_leaf_size(ps):
    check_kernels(ps)


def not_a_perm(ps):
    return ValueError, f"not a permutation of 0..{len(ps) - 1}: {_list_text(ps)}"


def natural_error(x):
    if type(x) is int:
        return ValueError, f"expected a natural number, got {x}"
    return TypeError, f"expected a natural number, got {type(x).__name__}"


# each bad entry at the end of a permutation of one size below and one above
# the leaf: bool, float, negative, duplicate and out of range
BAD_ENTRIES = (True, 1.0, -1, 0, "size")
BAD_PERMS = [
    list(range(k - 1)) + [k if bad == "size" else bad]
    for k in (2, 5, _RADIX_LEAF, _RADIX_LEAF + 2)
    for bad in BAD_ENTRIES
] + [[True, 0], [0.0, 1], [1, 0, 1], [0, 1, 2, 2], [2], [-1]]


@pytest.mark.parametrize("ps", BAD_PERMS, ids=lambda ps: _list_text(ps))
def test_bad_permutations_raise_the_same_error_on_both_sides_of_the_leaf(ps):
    exc, message = not_a_perm(ps)
    for encode in (perm2nat, perm2nth, perm2lehmer):
        with pytest.raises(exc) as info:
            encode(ps)
        assert str(info.value) == message


@pytest.mark.parametrize("n", [True, 1.5, -1, -(1 << 1000)])
def test_bad_naturals_raise_the_same_error_in_both_decoders(n):
    exc, message = natural_error(n)
    with pytest.raises(exc) as info:
        nat2perm(n)
    assert str(info.value) == message
    for size in (3, _RADIX_LEAF + 2):
        with pytest.raises(exc) as info:
            nth2perm((size, n))
        assert str(info.value) == message


@pytest.mark.parametrize("size", [0, 3, _RADIX_LEAF, _RADIX_LEAF + 2])
def test_a_rank_past_size_factorial_overflows_on_both_sides_of_the_leaf(size):
    rank = math.factorial(size)
    with pytest.raises(OverflowError) as info:
        nth2perm((size, rank))
    assert str(info.value) == f"rank {rank} does not fit a size-{size} permutation"
    assert nth2perm((size, rank - 1)) == list(range(size))[::-1]
