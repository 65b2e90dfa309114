import random
import tracemalloc
from decimal import Decimal

import pytest

import model
from conftest import natural_error
from hfcodec.natbits import _LOOP_BITS
from hfcodec.setfun import (
    bits2rle,
    fun2nat,
    fun2set,
    nat2rle,
    nat2set,
    rle2bits,
    rle2nat,
    set2fun,
    set2nat,
)


def test_set2nat_powers_of_two():
    for m in range(200):
        assert set2nat([m]) == 2 ** m


def test_fun2set_golden():
    assert fun2set([1, 0, 2, 1, 2]) == [1, 2, 5, 7, 10]
    assert set2fun([1, 2, 5, 7, 10]) == [1, 0, 2, 1, 2]
    assert fun2set([]) == []
    assert set2fun([0]) == [0]
    assert fun2set([0]) == [0]


def test_fun2set_is_shifted_prefix_sum():
    rng = random.Random(13)
    for _ in range(500):
        f = [rng.randint(0, 30) for _ in range(rng.randint(0, 15))]
        got = fun2set(f)
        assert got == model.fun2set(f)
        assert set2fun(got) == f


def test_bits2rle_golden():
    assert bits2rle([0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1]) == [2, 1, 0, 4]
    assert bits2rle([]) == []
    assert bits2rle([1]) == [0]
    assert rle2nat([0, 0]) == 2
    assert nat2rle(2008) == [2, 1, 0, 4]
    assert nat2rle(0) == []


def test_rle2bits_structure():
    # the reconstructed list always ends in a run of ones and alternates
    rng = random.Random(13)
    for _ in range(500):
        rs = [rng.randint(0, 5) for _ in range(rng.randint(1, 12))]
        bs = rle2bits(rs)
        assert bs[-1] == 1
        assert sum(bs_len + 1 for bs_len in rs) == len(bs)
        assert bits2rle(bs) == rs


def test_rle_rejects_negative_counts():
    with pytest.raises(ValueError):
        rle2bits([1, -1])


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        nat2set(-1)
    with pytest.raises(ValueError):
        fun2set([1, -2])


# --- bad input on both sides of _LOOP_BITS ----------------------------------------

BIG = _LOOP_BITS + 8

# (bad set, exception, message) on each side of the loop's cut
BAD_SETS = [
    ([0, True], TypeError, "set elements must be ints, got bool"),
    ([True, BIG], TypeError, "set elements must be ints, got bool"),
    ([0, BIG, True], TypeError, "set elements must be ints, got bool"),
    ([True, 3], TypeError, "set elements must be ints, got bool"),
    ([0, 1.5], TypeError, "set elements must be ints, got float"),
    ([0, 1.5, 3], TypeError, "set elements must be ints, got float"),
    ([1.5, BIG], TypeError, "set elements must be ints, got float"),
    # a negative first element is not a natural; a later one is out of order
    ([-1], ValueError, "set elements must be naturals, got [-1]"),
    ([-1, 0], ValueError, "set elements must be naturals, got [-1, 0]"),
    ([-3, 2], ValueError, "set elements must be naturals, got [-3, 2]"),
    ([-3, BIG], ValueError, f"set elements must be naturals, got [-3, {BIG}]"),
    ([3, -2], ValueError, "set elements must be strictly increasing, got [3, -2]"),
    ([BIG, -2], ValueError, f"set elements must be strictly increasing, got [{BIG}, -2]"),
    ([1, 1], ValueError, "set elements must be strictly increasing, got [1, 1]"),
    ([0, 3, 3], ValueError, "set elements must be strictly increasing, got [0, 3, 3]"),
    ([BIG, BIG], ValueError, f"set elements must be strictly increasing, got [{BIG}, {BIG}]"),
    ([2, 1], ValueError, "set elements must be strictly increasing, got [2, 1]"),
    ([BIG + 1, BIG], ValueError, f"set elements must be strictly increasing, got [{BIG + 1}, {BIG}]"),
    ([BIG, 3], ValueError, f"set elements must be strictly increasing, got [{BIG}, 3]"),
    ([2, 1, "x"], ValueError, "set elements must be strictly increasing, got [2, 1, 'x']"),
]


@pytest.mark.parametrize("s, exc, message", BAD_SETS)
def test_bad_sets_raise_the_same_error_on_both_sides_of_the_loop_bits(s, exc, message):
    for f in (set2nat, set2fun):
        with pytest.raises(exc) as info:
            f(s)
        assert str(info.value) == message


@pytest.mark.parametrize("bad", [True, 2.0, -2, -(1 << 100)])
@pytest.mark.parametrize("head", [[], [1], [BIG], [1] * BIG])
def test_bad_values_raise_the_same_error_on_both_sides_of_the_loop_bits(head, bad):
    exc, message = natural_error(bad)
    for f in (fun2set, fun2nat, rle2nat, rle2bits):
        with pytest.raises(exc) as info:
            f(head + [bad, 1])
        assert str(info.value) == message


def test_an_unsorted_set_is_refused_before_its_bits_are_set():
    # [10**8, 3] ends below the loop's cut, but 1 << 10**8 alone would take 12.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="strictly increasing"):
            set2nat([10 ** 8, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- bad values once the running total is past the loop's bits -------------------

# past bit _LOOP_BITS the values' sum sizes the bit string, but it must decide
# no error: it raises on a str, overflows a float against 1 << 4096, raises
# InvalidOperation on a signalling NaN, and comes out too small when a value
# is negative
BAD_VALUES = [True, 1.5, "x", None, Decimal("sNaN"), -1, -(1 << 4096)]
HEADS_PAST_THE_LOOP_BITS = [[_LOOP_BITS + 1], [1] * _LOOP_BITS, [1000, 5], [1 << 4096]]


@pytest.mark.parametrize("tail", [[], [1, 2]], ids=["last", "inside"])
@pytest.mark.parametrize("bad", BAD_VALUES, ids=["True", "1.5", "x", "None", "sNaN", "-1", "-2**4096"])
@pytest.mark.parametrize("head", HEADS_PAST_THE_LOOP_BITS, ids=["33", "ones", "1000", "2**4096"])
def test_bad_values_past_the_loop_bits_raise_the_natural_error(head, bad, tail):
    exc, message = natural_error(bad)
    for f in (fun2nat, rle2nat):
        with pytest.raises(exc) as info:
            f(head + [bad] + tail)
        assert str(info.value) == message


def test_a_negative_value_that_sinks_the_sum_raises_the_natural_error():
    # the sum of [1000, -2000] is below the first value's bit
    exc, message = natural_error(-2000)
    for f in (fun2nat, rle2nat):
        with pytest.raises(exc) as info:
            f([1000, -2000])
        assert str(info.value) == message


def test_a_bad_value_before_a_big_one_is_refused_before_the_string_is_made():
    # the sum of [40, -1, 1 << 24] asks for a 16 MB string: past 2**20 bits
    # every value is checked first, and the first bad one is refused
    exc, message = natural_error(-1)
    for f in (fun2nat, rle2nat):
        tracemalloc.start()
        try:
            with pytest.raises(exc) as info:
                f([40, -1, 1 << 24])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20
