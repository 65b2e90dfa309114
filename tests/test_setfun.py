import random
import tracemalloc
from itertools import accumulate

import pytest

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


def test_nat2set_matches_binary_string():
    for n in range(5000):
        assert nat2set(n) == [i for i, c in enumerate(bin(n)[2:][::-1]) if c == "1"]


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
        expected = [s - 1 for s in accumulate(v + 1 for v in f)]
        got = fun2set(f)
        assert got == expected
        assert len(got) == len(f)
        assert all(a < b for a, b in zip(got, got[1:]))
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


# --- the one-loop kernels on both sides of _LOOP_BITS ---------------------------

def random_sets(rng):
    # every top element from 0 to _LOOP_BITS + 8, so codes of 1 to
    # _LOOP_BITS + 9 bits, each at a few densities
    for top in range(_LOOP_BITS + 9):
        for density in (0.1, 0.5, 0.9):
            yield [e for e in range(top) if rng.random() < density] + [top]


def test_set2nat_equals_a_naive_sum_on_both_sides_of_the_loop_bits():
    rng = random.Random(17)
    assert set2nat([]) == 0
    for s in random_sets(rng):
        assert set2nat(s) == sum(2 ** e for e in s)
        assert set2nat(tuple(s)) == sum(2 ** e for e in s)


def test_fun2nat_and_rle2nat_equal_naive_sums_on_both_sides_of_the_loop_bits():
    rng = random.Random(19)
    assert fun2nat([]) == rle2nat([]) == 0
    for s in random_sets(rng):
        f = [e - p - 1 for p, e in zip([-1] + s, s)]  # gaps: fun2set(f) == s
        assert fun2nat(f) == sum(2 ** e for e in s)
        # runs alternate and the last is ones: run i is ones iff k - 1 - i is even
        k, bits, at = len(f), 0, 0
        for i, c in enumerate(f):
            if (k - 1 - i) % 2 == 0:
                bits += sum(2 ** j for j in range(at, at + c + 1))
            at += c + 1
        assert rle2nat(f) == bits


def natural_error(x):
    if type(x) is int:
        return ValueError, f"expected a natural number, got {x}"
    return TypeError, f"expected a natural number, got {type(x).__name__}"


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
