import math
import random
import time
from itertools import permutations

import pytest

import model
from hfcodec.permcodec import (
    _factorial_size,
    fl,
    fr,
    lehmer2perm,
    lf,
    nth2perm,
    perm2lehmer,
    perm2nat,
    perm2nth,
    rf,
    to_sf,
)


def test_fr_golden():
    assert fr(42) == [0, 0, 0, 3, 1]
    assert fl(42) == [1, 3, 0, 0, 0]
    assert fr(0) == [0]
    assert fl(0) == [0]
    assert rf([0, 0, 0, 3, 1]) == 42
    assert lf([1, 3, 0, 0, 0]) == 42


def test_rf_accepts_arbitrary_digits():
    # rf is total: weights are factorials even when digits exceed i
    assert rf([5, 5, 5]) == 5 + 5 + 10
    assert rf([]) == 0
    assert rf([1] * 8) == sum(math.factorial(i) for i in range(8))


def test_lehmer_golden():
    assert perm2lehmer([1, 4, 0, 2, 3]) == [1, 3, 0, 0, 0]
    assert lehmer2perm([1, 3, 0, 0, 0]) == [1, 4, 0, 2, 3]
    assert perm2lehmer([2, 1, 0]) == [2, 1, 0]
    assert lehmer2perm([2, 1, 0]) == [2, 1, 0]
    assert perm2lehmer([]) == []
    assert lehmer2perm([]) == []


def test_lehmer_codes_count_later_smaller_entries_as_the_model_does():
    rng = random.Random(13)
    for k in range(7):
        for ps in permutations(range(k)):
            code = perm2lehmer(list(ps))
            assert code == model.lehmer(ps)
            assert all(d <= k - 1 - i for i, d in enumerate(code))
            assert lehmer2perm(code) == list(ps)
    for _ in range(100):
        ps = list(range(rng.randint(8, 60)))
        rng.shuffle(ps)
        assert perm2lehmer(ps) == model.lehmer(ps)


def test_nth2perm_golden():
    assert nth2perm((5, 42)) == [1, 4, 0, 2, 3]
    assert nth2perm((8, 2008)) == [0, 3, 6, 5, 4, 7, 1, 2]
    assert nth2perm((1, 0)) == [0]
    assert nth2perm((0, 0)) == []
    assert nth2perm((3, 0)) == [0, 1, 2]
    assert perm2nth([1, 4, 0, 2, 3]) == (5, 42)
    assert perm2nth([0, 3, 6, 5, 4, 7, 1, 2]) == (8, 2008)
    assert perm2nth([]) == (0, 0)


def test_nth2perm_round_trip_sampled():
    rng = random.Random(13)
    for k in (7, 8):
        for _ in range(200):
            r = rng.randrange(math.factorial(k))
            assert perm2nth(nth2perm((k, r))) == (k, r)


def test_nth2perm_rank_overflow():
    with pytest.raises(OverflowError):
        nth2perm((2, 2))
    with pytest.raises(OverflowError):
        nth2perm((3, 6))
    with pytest.raises(OverflowError):
        nth2perm((0, 1))


def test_nth2perm_refuses_a_huge_rank_before_expanding_it():
    rank = (1 << 262144) - 1
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="does not fit a size-3 permutation"):
        nth2perm((3, rank))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.01, f"took {elapsed * 1000:.1f} ms, budget is 10 ms"


def test_nth2perm_of_a_huge_size_is_linear():
    # the high zero Lehmer digits of a small rank pick 0, 1, ... in order
    start = time.perf_counter()
    assert nth2perm((200_000, 0)) == list(range(200_000))
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"took {elapsed:.2f} s, budget is 1 s"
    tail = nth2perm((200_000, 10**100))[-70:]
    assert tail == [199_930 + v for v in nth2perm((70, 10**100))]


def test_nth2perm_fits_ranks_up_to_k_factorial():
    # 128! is where the size estimate leaves the table for lgamma, which
    # overshoots by one on every k! - 1 from there on
    for k in range(120, 140):
        f = math.factorial(k)
        assert nth2perm((k, f - 1)) == list(range(k))[::-1]
        with pytest.raises(OverflowError):
            nth2perm((k, f))


def test_factorial_size_is_the_least_size_or_one_more():
    # fr strips high zeros and to_sf steps down, so neither shows an overshoot
    def holds(n, least):
        return _factorial_size(n) in (least, least + 1)

    f = math.factorial(128)
    for k in range(129, 2001):
        f *= k
        assert holds(f - 1, k) and holds(f, k + 1) and holds(f + 1, k + 1), k
    rng = random.Random(13)
    for _ in range(100):
        n = rng.getrandbits(rng.randrange(1, 262145))
        s = _factorial_size(n)
        # s! > n, and s - 2 is below the least size, so (s - 2)! <= n
        assert math.factorial(s) > n and (s < 2 or math.factorial(s - 2) <= n), s


def test_to_sf_golden():
    assert to_sf(2008) == (7, 1134)
    assert to_sf(1) == (1, 0)
    assert to_sf(2) == (2, 0)


@pytest.mark.parametrize("bad", [[0, 0], [1, 2], [0, 2, 2], [2], [0, -1]])
def test_invalid_permutations_rejected(bad):
    with pytest.raises(ValueError):
        perm2lehmer(bad)
    with pytest.raises(ValueError):
        perm2nat(bad)


def test_invalid_lehmer_digits_rejected():
    with pytest.raises(ValueError):
        lehmer2perm([2, 0])  # digit 0 may be at most 1 here
    with pytest.raises(ValueError):
        lehmer2perm([0, 0, 3])
