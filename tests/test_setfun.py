import random
from itertools import accumulate

import pytest

from hfcodec.setfun import (
    bits2rle,
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


@pytest.mark.parametrize("bad", [[1, 1], [2, 1], [0, 3, 3], [-1, 0]])
def test_set2nat_rejects_non_increasing(bad):
    with pytest.raises(ValueError):
        set2nat(bad)
    with pytest.raises(ValueError):
        set2fun(bad)


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
