import builtins
import random
import time

import pytest

from hfcodec import cli, natbits
from hfcodec.hftree import Atom, Forest, codec_hfs, rank, unrank
from hfcodec.pairing import to_tuple
from hfcodec.permcodec import _factorial_size, fr, lehmer2perm, nat2perm, nth2perm
from hfcodec.natbits import (
    _DIV_LIMIT,
    DigitList,
    _divmod,
    _radix_split,
    bitcount,
    from_base,
    from_rbits,
    max_bitcount,
    to_base,
    to_maxbits,
    to_rbits,
    to_rbits0,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below skips itself without hypothesis
    given = None


@pytest.mark.parametrize("base,n,digits", [
    (2, 42, [0, 1, 0, 1, 0, 1]),
    (2, 2008, [0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1]),
    (8, 2008, [0, 3, 7, 3]),
    (2, 0, [0]),
    (10, 0, [0]),
    (10, 9, [9]),
    (16, 255, [15, 15]),
])
def test_to_base_golden(base, n, digits):
    ds = to_base(base, n)
    assert list(ds) == digits
    assert ds.base == base
    assert from_base(base, ds) == n


def test_from_base_golden():
    assert from_base(32, [25, 20]) == 665
    assert from_base(2, [0, 1, 0, 1, 0, 1]) == 42


def test_digit_list_validates():
    with pytest.raises(ValueError):
        DigitList(1, (0,))
    with pytest.raises(ValueError):
        DigitList(2, (0, 2))
    with pytest.raises(ValueError):
        DigitList(10, (-1,))


def test_from_base_rejects_mixed_bases():
    ds = to_base(8, 2008)
    with pytest.raises(ValueError, match="carries base 8"):
        from_base(10, ds)


def test_from_base_rejects_bad_digits():
    with pytest.raises(ValueError):
        from_base(2, [0, 1, 2])
    with pytest.raises(ValueError):
        from_base(2, [-1])


@pytest.mark.parametrize("bad", [-1, -42])
def test_negative_inputs_rejected(bad):
    with pytest.raises(ValueError):
        to_base(2, bad)
    with pytest.raises(ValueError):
        to_rbits(bad)
    with pytest.raises(ValueError):
        bitcount(bad)


@pytest.mark.parametrize("call, exc, small, huge", [
    (lambda n: to_base(10, -n), ValueError, "expected a natural number, got -42",
     "expected a natural number, got <negative 65537-bit integer>"),
    (lambda n: unrank(codec_hfs(), -n), ValueError, "expected a natural number, got -42",
     "expected a natural number, got <negative 65537-bit integer>"),
    (lambda n: nth2perm((3, n)), OverflowError, "rank 42 does not fit a size-3 permutation",
     "rank <65537-bit integer> does not fit a size-3 permutation"),
    (lambda n: to_maxbits(3, n), OverflowError, "42 needs 6 bits, limit is 3",
     "<65537-bit integer> needs 65537 bits, limit is 3"),
    (lambda n: DigitList(10, [n]), ValueError, "digit 42 out of range for base 10",
     "digit <65537-bit integer> out of range for base 10"),
    (lambda n: DigitList(n, [n]), ValueError, "digit 42 out of range for base 42",
     "digit <65537-bit integer> out of range for base <65537-bit integer>"),
    (lambda n: DigitList(-n, [1]), ValueError, "base must be >= 2, got -42",
     "base must be >= 2, got <negative 65537-bit integer>"),
    (lambda n: to_base(-n, 5), ValueError, "base must be >= 2, got -42",
     "base must be >= 2, got <negative 65537-bit integer>"),
    (lambda n: from_base(-n, [1]), ValueError, "base must be >= 2, got -42",
     "base must be >= 2, got <negative 65537-bit integer>"),
    (lambda n: to_tuple(-n, 5), ValueError, "arity must be >= 1, got -42",
     "arity must be >= 1, got <negative 65537-bit integer>"),
    (lambda n: lehmer2perm([n]), ValueError,
     "Lehmer digit 42 at position 0 out of range for size 1",
     "Lehmer digit <65537-bit integer> at position 0 out of range for size 1"),
    (lambda n: Atom(-n), ValueError, "atom value must be a natural, got -42",
     "atom value must be a natural, got <negative 65537-bit integer>"),
    (lambda n: rank(codec_hfs(), Forest((Atom(n),))), ValueError,
     "atom 42 out of range for ulimit 0", "atom <65537-bit integer> out of range for ulimit 0"),
], ids=["to_base", "unrank", "nth2perm", "to_maxbits", "DigitList", "DigitList base for digit",
        "DigitList base", "to_base base", "from_base base", "to_tuple arity", "lehmer2perm",
        "Atom", "rank"])
def test_errors_name_unprintable_values_by_bit_length(call, exc, small, huge):
    # 2**65536 has 19729 decimal digits, past the interpreter's int/str limit
    with pytest.raises(exc) as info:
        call(42)
    assert str(info.value) == small
    with pytest.raises(exc) as info:
        call(1 << 65536)
    assert str(info.value) == huge


def test_invalid_base_rejected():
    for base in (-2, 0, 1):
        with pytest.raises(ValueError):
            to_base(base, 5)
        with pytest.raises(ValueError):
            from_base(base, [0])


def test_rbits_golden():
    assert to_rbits(0) == [0]
    assert to_rbits0(0) == []
    assert to_rbits0(6) == to_rbits(6) == [0, 1, 1]


@pytest.mark.parametrize("k,n,padded", [
    (2, 0, [0, 0]),
    (2, 1, [1, 0]),
    (2, 3, [1, 1]),
    (5, 6, [0, 1, 1, 0, 0]),
])
def test_to_maxbits_golden(k, n, padded):
    assert to_maxbits(k, n) == padded


def test_to_maxbits_round_trip():
    for n in range(2000):
        for extra in (0, 1, 7):
            k = bitcount(n) + extra
            bs = to_maxbits(k, n)
            assert len(bs) == k
            assert from_rbits(bs) == n


def test_to_maxbits_overflow():
    with pytest.raises(OverflowError):
        to_maxbits(2, 4)
    with pytest.raises(OverflowError):
        to_maxbits(0, 0)  # even zero needs one position


def test_to_maxbits_refuses_before_building_bits():
    n = 1 << (1 << 22)
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="needs 4194305 bits, limit is 3"):
        to_maxbits(3, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.01, f"took {elapsed * 1000:.1f} ms, budget is 10 ms"


def test_bitcount_edges():
    assert bitcount(0) == 1
    assert bitcount(4) == 3
    for k in range(64):
        assert bitcount(1 << k) == k + 1
    # bitcount length agrees with the canonical expansion
    for n in range(500):
        assert bitcount(n) == len(to_rbits(n))


def test_max_bitcount():
    assert max_bitcount([]) == 0
    assert max_bitcount([0]) == 1
    assert max_bitcount([1, 0, 2, 1, 3]) == 2
    assert max_bitcount([255, 3]) == 8


# --- _divmod: Burnikel-Ziegler division --------------------------------------

def test_divmod_is_divmod_on_drawn_operands():
    if given is None:
        pytest.skip("needs hypothesis")

    # divisors of 1 to 70000 bits and dividends up to three times as long,
    # so that both odd halvings and the shift for a long quotient occur
    @settings(max_examples=80)
    @given(st.integers(1, 70000), st.integers(0, 2**32))
    def prop(b_bits, seed):
        rng = random.Random(seed)
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        for k in range(3):  # a dividend up to k + 1 times as long as b
            a = rng.getrandbits(rng.randrange(k * b_bits, (k + 1) * b_bits + 1))
            assert _divmod(a, b) == divmod(a, b)

    prop()


@pytest.mark.parametrize("b_bits", [1, 2, 3, 4001, 8191, 65537])
def test_divmod_edges(b_bits):
    rng = random.Random(b_bits)
    for b in (1 << (b_bits - 1), (1 << b_bits) - 1, rng.getrandbits(b_bits) | 1 << (b_bits - 1)):
        for a in (0, b - 1, b, (b << b_bits) - 1, b << b_bits, (1 << 3 * b_bits) - 1):
            assert _divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("q_bits", [_DIV_LIMIT - 1, _DIV_LIMIT, _DIV_LIMIT + 1])
@pytest.mark.parametrize("b_bits", [100, _DIV_LIMIT, 20000])
def test_divmod_around_the_limit(q_bits, b_bits):
    rng = random.Random(q_bits * b_bits)
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    for q in (1 << (q_bits - 1), (1 << q_bits) - 1, rng.getrandbits(q_bits) | 1 << (q_bits - 1)):
        for r in (0, b - 1, rng.randrange(b)):
            assert _divmod(q * b + r, b) == (q, r)


@pytest.mark.parametrize("b_bits", [1, 2, 3, 64, 1000, _DIV_LIMIT, _DIV_LIMIT + 1, 8000, 16000])
def test_divmod_is_divmod_on_dividends_up_to_262144_bits(b_bits):
    # a short divisor is shifted up to half the dividend's length, so the
    # recursion sees a long quotient by divisors of every length
    rng = random.Random(b_bits)
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    for a_bits in (b_bits, 2 * b_bits + 1, 65536, 262144):
        a = rng.getrandbits(a_bits) | 1 << (a_bits - 1)
        assert _divmod(a, b) == divmod(a, b)
        assert _divmod(a - 1, b) == divmod(a - 1, b)


def test_no_big_quotient_reaches_the_builtin_divmod(monkeypatch):
    # the tree cuts of fr, nat2perm and to_base and the CLI's decimal
    # chunks divide in _divmod, which hands the built-in only short quotients
    quotient_bits = []

    def spy(a, b):
        q, r = builtins.divmod(a, b)
        quotient_bits.append(q.bit_length())
        return q, r

    monkeypatch.setattr(natbits, "divmod", spy, raising=False)
    monkeypatch.setattr(cli, "divmod", spy, raising=False)
    n = random.Random(262144).getrandbits(262144) | 1 << 262143
    fr(n)
    nat2perm(n)
    to_base(10, n)
    cli._decimal((1 << 262144) - 1)
    assert quotient_bits and max(quotient_bits) <= _DIV_LIMIT


def test_radix_split_equals_the_leaf_loop_at_262144_bits(monkeypatch):
    n = random.Random(5).getrandbits(262144)
    k = _factorial_size(n)
    size = 262144 // 9 - 1  # 1000**size > 2**262144 > n
    split = [_radix_split(n, k), _radix_split(n, size, 1000)]
    monkeypatch.setattr(natbits, "_RADIX_LEAF", 1 << 30)  # one leaf: the loop alone
    assert split == [_radix_split(n, k), _radix_split(n, size, 1000)]
