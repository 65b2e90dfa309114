"""The bit layer against independent bin()-string oracles.

Set, function, run-length, tuple, bitmerge and power-of-two-base codecs
read and write big codes through bit strings; nat2set, set2nat and
from_tuple keep a word-sized loop for small ones.  Every function is
checked against an oracle that works on bin() text character by
character, on both sides of the small-code cutoff (every bit length
0..80), on hypothesis-drawn inputs up to 4096 bits, and once at 65536
bits.  A timed 65536-bit round trip guards the linear cost.
"""

import random
import time
from contextlib import contextmanager
from itertools import groupby

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from hfcodec.hftree import Atom, Forest, codec_hfs, serialize  # noqa: E402
from hfcodec.natbits import (  # noqa: E402
    DigitList,
    from_base,
    from_rbits,
    to_base,
    to_maxbits,
    to_rbits,
    to_rbits0,
)
from hfcodec.pairing import (  # noqa: E402
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    from_tuple,
    ftuple2nat,
    nat2ftuple,
    to_tuple,
)
from hfcodec.permcodec import fr, lehmer2perm, nth2perm, perm2nat  # noqa: E402
from hfcodec.setfun import (  # noqa: E402
    fun2nat,
    nat2fun,
    nat2rle,
    nat2set,
    rle2bits,
    rle2nat,
    set2nat,
)

BASES = (2, 4, 8, 16, 32, 64, 10)
ARITIES = range(1, 8)


# --- oracles: bin() text, one character at a time -----------------------------

def rbits(n):
    """Bits of n as '0'/'1' text, least significant first; '0' for 0."""
    return bin(n)[:1:-1]


def from_chars(chars):
    """Evaluate little-endian '0'/'1' characters."""
    return int("".join(reversed(list(chars))) or "0", 2)


def positions(n):
    return [i for i, c in enumerate(rbits(n)) if c == "1"]


def set_value(s):
    chars = ["0"] * (max(s, default=-1) + 1)
    for e in s:
        chars[e] = "1"
    return from_chars(chars)


def gaps(s):
    out, prev = [], -1
    for e in s:
        out.append(e - prev - 1)
        prev = e
    return out


def runs(n):
    return [len(list(g)) - 1 for _, g in groupby(rbits(n))] if n else []


def runs_value(rs):
    # the last run is ones and runs alternate below it
    n = pos = 0
    for i, c in enumerate(rs):
        if (len(rs) - 1 - i) % 2 == 0:
            n |= ((1 << (c + 1)) - 1) << pos
        pos += c + 1
    return n


def deal(k, n):
    streams = [[] for _ in range(k)]
    for pos, c in enumerate(rbits(n)):
        streams[pos % k].append(c)
    return [from_chars(s) for s in streams]


def merge(ns):
    k = len(ns)
    texts = [rbits(m) if m else "" for m in ns]
    width = max(map(len, texts))
    return from_chars(t[pos] if pos < len(t) else "0"
                      for pos in range(width) for t in texts)


def digits(base, n):
    if base == 10:
        return [int(c) for c in str(n)[::-1]]
    width = base.bit_length() - 1
    text = rbits(n)
    return [from_chars(text[i:i + width]) for i in range(0, len(text), width)]


def digits_value(base, ds):
    if base == 10:
        return int("".join(map(str, reversed(ds))) or "0")
    width = base.bit_length() - 1
    return from_chars("".join(rbits(d).ljust(width, "0") for d in ds))


# --- one check per function family ---------------------------------------------

def check_sets(n):
    s = positions(n)
    assert nat2set(n) == s
    assert set2nat(s) == n
    assert nat2fun(n) == gaps(s)
    assert fun2nat(gaps(s)) == n


def check_runs(n):
    bits = [int(c) for c in rbits(n)]
    assert to_rbits(n) == bits
    assert from_rbits(bits) == n
    assert nat2rle(n) == runs(n)
    assert rle2nat(runs(n)) == n
    assert rle2bits(runs(n)) == (bits if n else [])


def check_tuples(n):
    for k in ARITIES:
        t = deal(k, n)
        assert to_tuple(k, n) == t, k
        assert from_tuple(t) == n, k
    x, y = deal(2, n)
    assert bitmerge_unpair(n) == (x, y)
    assert bitmerge_pair((x, y)) == n
    assert ftuple2nat(nat2ftuple(n)) == n


def check_bases(n):
    for base in BASES:
        ds = digits(base, n)
        expanded = to_base(base, n)
        assert list(expanded) == ds, base
        assert from_base(base, expanded) == n, base
        assert from_base(base, ds) == n, base


def nat_of_bits(rng, bits):
    return rng.getrandbits(bits) | (1 << (bits - 1)) if bits else 0


# --- every bit length across the small-code cutoff -----------------------------

@pytest.mark.parametrize("bits", range(81))
def test_every_bit_length_matches_oracle(bits):
    rng = random.Random(bits)
    samples = {nat_of_bits(rng, bits), (1 << bits) - 1, (1 << bits) >> 1}
    for n in samples:
        check_sets(n)
        check_runs(n)
        check_tuples(n)
        check_bases(n)


# --- hypothesis properties up to 4096 bits -------------------------------------

@st.composite
def naturals(draw, max_bits=4096):
    bits = draw(st.integers(0, max_bits))
    return draw(st.integers(0, (1 << bits) - 1))


@given(naturals())
def test_set_and_fun_codecs_match_oracle(n):
    check_sets(n)


@given(st.sets(st.integers(0, 4095)).map(sorted))
def test_set2nat_on_drawn_sets(s):
    assert set2nat(s) == set_value(s)
    assert nat2set(set2nat(s)) == s


@given(st.lists(st.integers(0, 300)))
def test_fun2nat_on_drawn_functions(f):
    assert fun2nat(f) == set_value([sum(f[:i + 1]) + i for i in range(len(f))])
    assert nat2fun(fun2nat(f)) == f


@given(naturals())
def test_bit_lists_and_runs_match_oracle(n):
    check_runs(n)


@given(st.lists(st.integers(0, 100)))
def test_rle2nat_on_drawn_runs(rs):
    assert rle2nat(rs) == runs_value(rs)
    assert nat2rle(rle2nat(rs)) == rs


@given(st.integers(1, 7), naturals())
def test_to_tuple_matches_oracle(k, n):
    t = deal(k, n)
    assert to_tuple(k, n) == t
    assert from_tuple(t) == n


@given(st.lists(naturals(max_bits=600), min_size=1, max_size=7))
def test_from_tuple_on_drawn_tuples(ns):
    assert from_tuple(ns) == merge(ns)
    assert to_tuple(len(ns), from_tuple(ns)) == ns


@given(naturals())
def test_bitmerge_matches_oracle(n):
    x, y = deal(2, n)
    assert bitmerge_unpair(n) == (x, y)
    assert bitmerge_pair((x, y)) == n


@given(st.sampled_from(BASES), naturals())
def test_to_base_matches_oracle(base, n):
    ds = digits(base, n)
    assert list(to_base(base, n)) == ds
    assert from_base(base, to_base(base, n)) == n
    assert from_base(base, ds) == n


@given(st.sampled_from(BASES).flatmap(
    lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=700))))
def test_from_base_on_drawn_digits(case):
    base, ds = case
    assert from_base(base, ds) == digits_value(base, ds)
    assert from_base(base, DigitList(base, ds)) == digits_value(base, ds)


# --- one 65536-bit input per function ------------------------------------------

BIG = nat_of_bits(random.Random(65536), 65536)


def test_65536_bits_match_oracle():
    check_sets(BIG)
    check_runs(BIG)
    t3 = deal(3, BIG)
    assert to_tuple(3, BIG) == t3
    assert from_tuple(t3) == BIG
    x, y = deal(2, BIG)
    assert bitmerge_unpair(BIG) == (x, y)
    assert bitmerge_pair((x, y)) == BIG
    for base in BASES[:-1]:  # base 10 would need more than 4300 decimal digits
        ds = digits(base, BIG)
        assert list(to_base(base, BIG)) == ds, base
        assert from_base(base, ds) == BIG, base


@contextmanager
def _budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget is {seconds}s"


def test_65536_bit_round_trips_stay_linear():
    # a quadratic loop over these codes takes ~2 s; the linear paths ~0.08 s
    n = BIG
    with _budget(0.5):
        assert set2nat(nat2set(n)) == n
        assert fun2nat(nat2fun(n)) == n
        assert rle2nat(nat2rle(n)) == n
        assert ftuple2nat(nat2ftuple(n)) == n
        assert from_tuple(to_tuple(3, n)) == n
        assert bitmerge_pair(bitmerge_unpair(n)) == n
        assert from_base(2, to_base(2, n)) == n
        assert from_base(16, to_base(16, n)) == n


# --- the checks each function made before the rewrite --------------------------

NEGATIVES = (-1, -(1 << 40), -(1 << 4096))
ENCODERS_OF_NEGATIVE = {
    "nat2set": nat2set,
    "nat2fun": nat2fun,
    "nat2rle": nat2rle,
    "to_rbits": to_rbits,
    "bitmerge_unpair": bitmerge_unpair,
    "nat2ftuple": nat2ftuple,
    "set2nat": lambda m: set2nat([m, 3, 1000]),
    "fun2nat": lambda m: fun2nat([1 << 10, m]),
    "rle2nat": lambda m: rle2nat([70, m]),
    "rle2bits": lambda m: rle2bits([70, m]),
    "from_rbits": lambda m: from_rbits([1] * 70 + [m]),
    "bitmerge_pair": lambda m: bitmerge_pair((1 << 70, m)),
    "ftuple2nat": lambda m: ftuple2nat([1 << 70, m]),
    "from_tuple": lambda m: from_tuple([1 << 70, 5, m]),
}


@pytest.mark.parametrize("name", sorted(ENCODERS_OF_NEGATIVE))
@pytest.mark.parametrize("m", NEGATIVES)
def test_negative_input_raises_value_error(name, m):
    with pytest.raises(ValueError):
        ENCODERS_OF_NEGATIVE[name](m)


# a bool or a non-int is never read as a natural: each call raises
# rather than answer as if it had been given an int
NON_NATURAL_CALLS = {
    "fr(7.5)": (TypeError, lambda: fr(7.5)),
    "cantor_pair(1.5, 2)": (TypeError, lambda: cantor_pair(1.5, 2)),
    "from_base(10, [1.5])": (TypeError, lambda: from_base(10, [1.5])),
    "nat2set(True)": (TypeError, lambda: nat2set(True)),
    "fun2nat([True, 2])": (TypeError, lambda: fun2nat([True, 2])),
    "set2nat([True])": (TypeError, lambda: set2nat([True])),
    "serialize(Forest((Atom(True),)))":
        (TypeError, lambda: serialize(Forest((Atom(True),)))),
    "perm2nat([True, 0])": (ValueError, lambda: perm2nat([True, 0])),
    "lehmer2perm([True, 0])": (ValueError, lambda: lehmer2perm([True, 0])),
    "nat2ftuple(False)": (TypeError, lambda: nat2ftuple(False)),
    "ftuple2nat([False])": (TypeError, lambda: ftuple2nat([False])),
    "to_rbits0(0.0)": (TypeError, lambda: to_rbits0(0.0)),
    # the arguments that are not codes: arity, permutation size, base, ulimit
    "to_tuple(True, 6)": (TypeError, lambda: to_tuple(True, 6)),
    "to_tuple(2.0, 6)": (TypeError, lambda: to_tuple(2.0, 6)),
    "nth2perm((True, 0))": (TypeError, lambda: nth2perm((True, 0))),
    "nth2perm((2.0, 1))": (TypeError, lambda: nth2perm((2.0, 1))),
    # a negative size is refused as such, not by math.factorial or as a rank overflow
    "nth2perm((-1, 0))": (ValueError, lambda: nth2perm((-1, 0))),
    "nth2perm((-5, 0))": (ValueError, lambda: nth2perm((-5, 0))),
    "to_base(10.0, 5)": (TypeError, lambda: to_base(10.0, 5)),
    "to_base(True, 5)": (TypeError, lambda: to_base(True, 5)),
    "from_base(10.0, [1])": (TypeError, lambda: from_base(10.0, [1])),
    "from_base(10.0, to_base(10, 5))": (TypeError, lambda: from_base(10.0, to_base(10, 5))),
    "DigitList(2.0, [1])": (TypeError, lambda: DigitList(2.0, [1])),
    "to_maxbits(True, 1)": (TypeError, lambda: to_maxbits(True, 1)),
    "codec_hfs(True)": (TypeError, lambda: codec_hfs(True)),
    "codec_hfs(2.0)": (TypeError, lambda: codec_hfs(2.0)),
}


@pytest.mark.parametrize("call", sorted(NON_NATURAL_CALLS))
def test_bool_or_non_int_input_raises(call):
    error, run = NON_NATURAL_CALLS[call]
    with pytest.raises(error):
        run()


@pytest.mark.parametrize("size", (-1, -5))
def test_nth2perm_refuses_a_negative_size_by_name(size):
    with pytest.raises(ValueError, match=f"^permutation size must be a natural, got {size}$"):
        nth2perm((size, 0))


@pytest.mark.parametrize("m", NEGATIVES)
def test_negative_input_raises_value_error_per_arity_and_base(m):
    for k in ARITIES:
        with pytest.raises(ValueError):
            to_tuple(k, m)
    for base in BASES:
        with pytest.raises(ValueError):
            to_base(base, m)
        with pytest.raises(ValueError, match="out of range"):
            from_base(base, [1] * 70 + [m])


@pytest.mark.parametrize("n", (0, 5, 1 << 100))
def test_arity_digit_range_and_base_checks_hold(n):
    with pytest.raises(ValueError, match="arity"):
        to_tuple(0, n)
    with pytest.raises(ValueError, match="empty tuple"):
        from_tuple([])
    for base in BASES:
        with pytest.raises(ValueError, match="out of range"):
            from_base(base, list(to_base(base, n)) + [base])
        other = 3 if base == 2 else 2
        with pytest.raises(ValueError, match=f"carries base {base}"):
            from_base(other, to_base(base, n))
