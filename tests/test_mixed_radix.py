"""Factoradics and permutation ranking against the model of the paper.

Factoradics (fr, rf, fl, lf) and the permutation ranking built on them
(sf, to_sf, nth2perm, nat2perm, perm2nat) split and join naturals along
a product tree of their radices, which is a single digit-at-a-time loop
for short ones, and permutations of up to the leaf size rank and unrank
in one loop each.  Every function is checked against tests/model.py,
whose factoradics divide digit by digit and whose Lehmer digits are
counted: on every natural below 10000 (permutations below 3000), on
hypothesis-drawn inputs up to 4096 bits and from 4096 to 65536 bits, on
exact edges (k! and sf(k) plus or minus one) on both sides of the
crossover and of the size tables, on long digit lists with digits above
their bound, and on every permutation of size at most 7 and around the
leaf size, where the errors must also be the same on both sides.  A
timed 262144-bit round trip guards the cost, and nat2perm from sf(129)
up must match the model with sf and math.factorial made to fail.  The
memo of factorial blocks is checked cold, warm and past its cap, and a
warm memo must serve a code of the same length without a leaf product.
"""

import math
import random
import sys
import time
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import model  # noqa: E402
from conftest import big_naturals, natural_error  # noqa: E402
from hfcodec import natbits, permcodec, selfcheck  # noqa: E402
from hfcodec.natbits import (  # noqa: E402
    _BLOCK_RADICES,
    _RADIX_LEAF,
    DigitList,
    _list_text,
    from_base,
    to_base,
)
from hfcodec.permcodec import (  # noqa: E402
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
    to_sf,
)


# --- one check per function family ----------------------------------------------

def check_factoradics(n):
    ds = model.fr(n)
    assert fr(n) == ds
    assert fl(n) == ds[::-1]
    assert rf(ds) == n
    assert lf(ds[::-1]) == n


def check_permutations(n):
    k, r = model.to_sf(n)
    assert to_sf(n) == (k, r)
    ps = model.nth2perm(k, r)
    assert nth2perm((k, r)) == ps
    assert nat2perm(n) == ps
    assert perm2nat(ps) == n


# --- small naturals: one leaf, and the size tables -----------------------------

def test_small_naturals_match_the_model():
    rng = random.Random(13)
    randoms = [rng.getrandbits(256) for _ in range(100)]
    for n in [*range(10_000), *randoms]:
        check_factoradics(n)
    for n in [*range(5000), *randoms]:
        check_permutations(n)


@settings(max_examples=60)
@given(big_naturals(min_bits=1, max_bits=4096))
def test_naturals_up_to_4096_bits_match_the_model(n):
    check_factoradics(n)
    check_permutations(n)


def test_rf_on_lists_with_digits_above_their_bound():
    def check(ds):
        assert rf(ds) == model.rf(ds)
        assert lf(ds) == model.rf(ds[::-1])

    # short lists stay on one leaf of the radix tree, long ones climb it
    digits = st.integers(0, 1 << 80)
    settings(max_examples=40)(given(st.lists(digits, max_size=_RADIX_LEAF))(check))()
    settings(max_examples=15)(given(st.lists(digits, min_size=_RADIX_LEAF + 1,
                                             max_size=3000))(check))()


# --- hypothesis properties from 4096 to 65536 bits -----------------------------

@settings(max_examples=20)
@given(big_naturals())
def test_factoradics_match_the_model(n):
    check_factoradics(n)


@settings(max_examples=15)
@given(big_naturals())
def test_permutation_ranking_matches_the_model(n):
    check_permutations(n)


@settings(max_examples=12)
@given(st.integers(_RADIX_LEAF + 1, 6000))
def test_sf_matches_the_model(k):
    assert sf(k) == model.sf(k)
    assert to_sf(model.sf(k)) == (k, 0)


@settings(max_examples=8)
@given(st.integers(700, 6000).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, math.factorial(k) - 1))))
def test_nth2perm_matches_the_model(case):
    size, rank = case
    ps = model.nth2perm(size, rank)
    assert nth2perm((size, rank)) == ps
    assert lf(perm2lehmer(ps)) == rank


# --- exact edges on both sides of the crossover --------------------------------

EDGE_SIZES = (1, 2, 3, 7, 8, _RADIX_LEAF - 1, _RADIX_LEAF, _RADIX_LEAF + 1, 200, 537, 1000)


def edges(k):
    f, s = math.factorial(k), model.sf(k)
    return [f - 1, f, f + 1, s - 1, s, s + 1]


@pytest.mark.parametrize("k", EDGE_SIZES)
def test_factorial_and_sf_edges_match_the_model(k):
    assert sf(k) == model.sf(k)
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


# --- one big input per function, and the checks the loops made ------------------

BIG = random.Random(65536).getrandbits(65536) | (1 << 65535)


def test_65536_bits_match_the_model():
    check_factoradics(BIG)
    check_permutations(BIG)


def test_nat2perm_builds_no_sf_or_factorial_from_sf_129_up(monkeypatch):
    # from sf(129) up, nat2perm takes sf(k)'s factoradic ones off n's own
    # digits; sf(130) - 1 is the edge where that borrows past the top digit
    codes = (BIG, sf(129), sf(129) + 1, sf(130) - 1, sf(130))
    want = [model.nat2perm(n) for n in codes]

    def refuse(*args):
        raise AssertionError("nat2perm built sf(k) or k!")

    monkeypatch.setattr(permcodec, "sf", refuse)
    monkeypatch.setattr(permcodec, "factorial", refuse)
    for n, ps in zip(codes, want):
        assert nat2perm(n) == ps


def test_262144_bit_factoradic_and_permutation_round_trips_are_fast():
    # the digit-at-a-time loops take ~2.5 s here; the product tree ~0.3 s
    n = random.Random(262144).getrandbits(262144) | (1 << 262143)
    start = time.monotonic()
    assert rf(fr(n)) == n
    assert perm2nat(nat2perm(n)) == n
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"took {elapsed:.2f}s, budget is 1s"


# --- the memo of factorial blocks ------------------------------------------------

# the bound that natbits._factorial_block's docstring states
MEMO_BOUND = 546_416


def memo_bytes():
    return sum(map(sys.getsizeof, natbits._FACTORIAL_BLOCKS.values()))


def test_a_warm_memo_serves_a_code_of_the_same_length_without_leaf_products(monkeypatch):
    other = random.Random(65537).getrandbits(65536) | (1 << 65535)
    ds, ps = model.fr(other), model.nat2perm(other)
    fr(BIG)

    def refuse(*args):
        raise AssertionError("a leaf's radices were multiplied again")

    monkeypatch.setattr(natbits, "prod", refuse)
    assert fr(other) == ds
    assert rf(ds) == other
    assert nat2perm(other) == ps
    assert perm2nat(ps) == other


# one, two, two and a bit, and five and a bit leaves; and a count whose
# tree has the leaf of radices 32769..32896 as a left node, past the cap
MEMO_COUNTS = (_RADIX_LEAF + 1, 2 * _RADIX_LEAF, 2 * _RADIX_LEAF + 1, 5 * _RADIX_LEAF + 3,
               _BLOCK_RADICES + _RADIX_LEAF + 3)


@pytest.mark.parametrize("k", MEMO_COUNTS)
def test_the_memo_cold_and_warm_matches_the_model(k, monkeypatch):
    monkeypatch.setattr(natbits, "_FACTORIAL_BLOCKS", {})
    rng = random.Random(k)
    # n has exactly k factoradic digits, so they are, reversed, the Lehmer
    # code of the size-k permutation of rank n, whose code is sf(k) + n; dec
    # has exactly k decimal digits
    n = rng.randrange(math.factorial(k - 1), math.factorial(k))
    ds = model.fr(n)
    ps, code = model.unlehmer(ds[::-1]), model.sf(k) + n
    dec = rng.randrange(10 ** (k - 1), 10 ** k)
    decs = model.to_base(10, dec)
    assert len(ds) == len(ps) == len(decs) == k
    for _ in ("cold", "warm"):
        assert fr(n) == ds and fl(n) == ds[::-1]
        assert rf(ds) == n and lf(ds[::-1]) == n
        assert nth2perm((k, n)) == ps
        assert perm2nth(ps) == (k, n)
        assert nat2perm(code) == ps
        assert perm2nat(ps) == code
        assert list(to_base(10, dec)) == decs
        assert from_base(10, decs) == dec
        assert natbits._FACTORIAL_BLOCKS
    assert all(lo + width <= _BLOCK_RADICES for lo, width in natbits._FACTORIAL_BLOCKS)
    assert memo_bytes() <= MEMO_BOUND
    assert f"{MEMO_BOUND:,} bytes" in natbits._factorial_block.__doc__


def test_selfcheck_reaches_the_radix_tree(monkeypatch):
    # its 256-bit codes have about 58 factoradic digits, inside one leaf
    counts = {}
    for name in ("_radix_split", "_radix_join"):
        def spy(*args, name=name, f=getattr(permcodec, name)):
            k = args[1] if name == "_radix_split" else len(args[0])
            counts[name] = max(counts.get(name, 0), k)
            return f(*args)
        monkeypatch.setattr(permcodec, name, spy)
    laws = dict(selfcheck.LAWS)
    for law in ("factoradic-round-trip", "perm-round-trip"):
        counts.clear()
        laws[law](50, random.Random(13))
        assert min(counts.values()) > 2 * _RADIX_LEAF and len(counts) == 2, law


def test_rf_checks_every_digit_in_order():
    ds = [1] * 1000
    ds[700], ds[900] = -3, -5
    with pytest.raises(ValueError, match="got -3"):
        rf(ds)
    ds[300] = "x"
    with pytest.raises(TypeError):
        rf(ds)


@pytest.mark.parametrize("size", [3, _RADIX_LEAF, _RADIX_LEAF + 1])
def test_rf_and_lf_name_the_first_of_two_bad_digits(size):
    # rf's leaf loop starts at the top digit, but the error names the
    # lowest bad digit, and lf's is the lowest of the reversed list
    ds = [0] * (size - 3) + [0, -1, "x"]
    exc, message = natural_error(-1)
    with pytest.raises(exc) as info:
        rf(ds)
    assert str(info.value) == message
    exc, message = natural_error("x")
    with pytest.raises(exc) as info:
        lf(ds)
    assert str(info.value) == message


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


# --- the one-loop permutation kernels around the leaf size ------------------------

def check_kernels(ps):
    size, rank = model.perm2nth(ps)
    n = model.perm2nat(ps)
    assert perm2nth(ps) == (size, rank)
    assert perm2nat(ps) == n
    assert nth2perm((size, rank)) == ps
    assert nat2perm(n) == ps


def test_kernels_match_the_model_on_every_permutation_up_to_size_7():
    for k in range(8):
        for ps in permutations(range(k)):
            check_kernels(list(ps))


@settings(max_examples=25)
@given(st.integers(_RADIX_LEAF - 2, _RADIX_LEAF + 2).flatmap(lambda k: st.permutations(range(k))))
def test_kernels_match_the_model_around_the_leaf_size(ps):
    check_kernels(ps)


def not_a_perm(ps):
    return ValueError, f"not a permutation of 0..{len(ps) - 1}: {_list_text(ps)}"


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
