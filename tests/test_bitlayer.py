"""The bit layer and base expansion against the model of the paper (tests/model.py).

Set, function, run-length, tuple, bitmerge and power-of-two-base codecs
read and write big codes through bit strings; for small ones nat2set reads
byte tables and set2nat, fun2nat and from_tuple keep a word-sized loop,
tuples of one component are the component itself, and other bases split
along a radix tree.  Every function is checked against the model on both
sides of the small-code cutoff (every code below 3000 or 5000, and below
2**16 for nat2set, every bit length 0..80 with 2**j - 1, 2**j and
2**j + 1, sets ending at each bit up to past the cutoff, and tuples of
every arity to 11 whose merge crosses it), on the radix tree's edges, on
hypothesis-drawn inputs up to 4096 bits and, for the bases, from 4096 to
65536 bits, and once at 65536 bits.  A timed 65536-bit round trip guards
the linear cost.
"""

import random
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import model  # noqa: E402
from conftest import _budget, big_naturals, natural_error, naturals  # noqa: E402
from hfcodec.hftree import Atom, Forest, codec_hfs, serialize  # noqa: E402
from hfcodec.natbits import (  # noqa: E402
    _LOOP_BITS,
    _RADIX_LEAF,
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

# the bases that cut bit strings, the one the CLI prints in, and the ones
# that split along the radix tree or its leaf loop
BASES = (2, 3, 4, 7, 8, 10, 16, 32, 36, 64, 1000)
ARITIES = range(1, 12)


# --- one check per function family ---------------------------------------------

def check_sets(n):
    s = model.nat2set(n)
    assert nat2set(n) == s
    assert set2nat(s) == set2nat(tuple(s)) == n
    f = model.set2fun(s)
    assert nat2fun(n) == f
    assert fun2nat(f) == n
    # any list of naturals is a list of runs
    assert rle2nat(f) == model.rle2nat(f)


def check_runs(n):
    bits, runs = model.bits(n), model.nat2rle(n)
    assert to_rbits(n) == bits
    assert from_rbits(bits) == n
    assert nat2rle(n) == runs
    assert rle2nat(runs) == n
    assert rle2bits(runs) == model.rle2bits(runs)


def check_merge(ns):
    n = model.from_tuple(ns)
    assert from_tuple(ns) == from_tuple(tuple(ns)) == n
    assert to_tuple(len(ns), n) == ns
    if n or len(ns) > 1:  # [0] has no ftuple code
        assert ftuple2nat(ns) == model.ftuple2nat(ns)
        assert nat2ftuple(model.ftuple2nat(ns)) == ns


def check_tuples(n, arities=ARITIES):
    for k in arities:
        t = model.to_tuple(k, n)
        assert to_tuple(k, n) == t, k
        assert from_tuple(t) == n, k
    xy = tuple(model.to_tuple(2, n))
    assert bitmerge_unpair(n) == xy
    assert bitmerge_pair(xy) == n
    assert nat2ftuple(n) == model.nat2ftuple(n)
    assert ftuple2nat(nat2ftuple(n)) == n


def check_bases(n, bases=BASES):
    for base in bases:
        ds = model.to_base(base, n)
        expanded = to_base(base, n)
        assert list(expanded) == ds, base
        assert from_base(base, expanded) == n, base
        assert from_base(base, ds) == n, base


def nat_of_bits(rng, bits):
    return rng.getrandbits(bits) | (1 << (bits - 1)) if bits else 0


# --- both sides of the small-code cutoff -----------------------------------------

def loop_bit_inputs():
    """The inputs on both sides of _LOOP_BITS, by the bit length of their code."""
    rng = random.Random(17)
    # every bit length to 80, and sets ending at every bit to past the
    # cutoff at a few densities
    codes = set()
    for bits in range(81):
        codes |= {nat_of_bits(rng, bits), (1 << bits) - 1, (1 << bits) >> 1, (1 << bits) + 1}
    for top in range(_LOOP_BITS + 9):
        for density in (0.1, 0.5, 0.9):
            codes.add(model.set2nat([e for e in range(top) if rng.random() < density] + [top]))
    # merges of 0 to about 2 * _LOOP_BITS bits: components up to 2 * _LOOP_BITS // k bits
    merges = [[rng.getrandbits(width) for _ in range(k)]
              for k in ARITIES for width in range(2 * _LOOP_BITS // k + 2) for _ in range(4)]
    lengths = [model.from_tuple(ns).bit_length() for ns in merges]
    return [([n for n in sorted(codes) if n.bit_length() == bits],
             [ns for ns, length in zip(merges, lengths) if length == bits]) for bits in range(81)]


LOOP_BIT_INPUTS = loop_bit_inputs()


@pytest.mark.parametrize("bits", range(81))
def test_codes_on_both_sides_of_the_loop_bits_match_the_model(bits):
    codes, merges = LOOP_BIT_INPUTS[bits]
    small = range((1 << bits) >> 1, min(1 << bits, 5000))  # the codes below 5000 of this length
    for n in sorted(set(codes) | set(small)):
        check_sets(n)
    for n in codes:
        check_runs(n)
        check_tuples(n)
    for n in range(small.start, min(small.stop, 3000)):
        check_runs(n)
        check_tuples(n, (1, 2, 3, 5))
    for ns in merges:
        check_merge(ns)


def test_nat2set_reads_every_code_below_2_16_as_the_model_does():
    # every byte of a one- and a two-byte code, through the tables of both
    codes = range(1 << 16)
    assert list(map(nat2set, codes)) == list(map(model.nat2set, codes))


@pytest.mark.parametrize("base", BASES)
def test_bases_match_the_model_on_every_bit_length_and_below_3000(base):
    rng = random.Random(13)
    ns = set(range(3000)) | {rng.getrandbits(256) for _ in range(50)}
    for bits in range(81):
        ns |= {nat_of_bits(rng, bits), (1 << bits) - 1, (1 << bits) >> 1}
    for n in sorted(ns):
        check_bases(n, [base])


@pytest.mark.parametrize("base", (3, 7, 10, 36, 255, 1000, 10**20))
def test_base_edges_match_the_model(base):
    # powers of the base around the radix tree's leaf, and powers of two
    for e in (1, _RADIX_LEAF - 1, _RADIX_LEAF, _RADIX_LEAF + 1, 500, 1500):
        p = base ** e
        check_bases(p - 1, [base])
        check_bases(p, [base])
        check_bases(p + 1, [base])
    for bits in (_RADIX_LEAF, _RADIX_LEAF + 1):
        check_bases((1 << bits) - 1, [base])
        check_bases(1 << bits, [base])


# --- hypothesis properties up to 4096 bits, and from 4096 to 65536 -------------

@given(naturals())
def test_set_and_fun_codecs_match_the_model(n):
    check_sets(n)


@given(st.sets(st.integers(0, 4095)).map(sorted))
def test_set2nat_on_drawn_sets(s):
    assert set2nat(s) == model.set2nat(s)
    assert nat2set(set2nat(s)) == s


@given(st.lists(st.integers(0, 300)))
def test_fun2nat_on_drawn_functions(f):
    assert fun2nat(f) == model.fun2nat(f)
    assert nat2fun(fun2nat(f)) == f


@given(naturals())
def test_bit_lists_and_runs_match_the_model(n):
    check_runs(n)


@given(st.lists(st.integers(0, 100)))
def test_rle2nat_on_drawn_runs(rs):
    assert rle2nat(rs) == model.rle2nat(rs)
    assert nat2rle(rle2nat(rs)) == rs


@given(st.integers(1, 7), naturals())
def test_to_tuple_and_bitmerge_match_the_model(k, n):
    check_tuples(n, [k])


@given(st.lists(naturals(max_bits=600), min_size=1, max_size=7))
def test_from_tuple_on_drawn_tuples(ns):
    check_merge(ns)


@given(naturals())
def test_bases_match_the_model_up_to_4096_bits(n):
    check_bases(n)


@settings(max_examples=8)
@given(big_naturals())
def test_bases_match_the_model_from_4096_to_65536_bits(n):
    check_bases(n, (3, 10, 36, 1000))


def digit_lists(bases, **size):
    return st.sampled_from(bases).flatmap(
        lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), **size)))


def test_from_base_on_drawn_digits():
    def check(case):
        base, ds = case
        n = model.from_base(base, ds)
        assert from_base(base, ds) == n
        assert from_base(base, DigitList(base, ds)) == n

    # short lists in the bases that cut bit strings, and lists past the
    # radix tree's leaf in the ones that do not
    given(digit_lists((2, 4, 8, 10, 16, 32, 64), max_size=700))(check)()
    settings(max_examples=10)(given(digit_lists(
        (3, 10, 36, 1000), min_size=_RADIX_LEAF + 1, max_size=6000))(check))()


# --- one 65536-bit input per function ------------------------------------------

BIG = nat_of_bits(random.Random(65536), 65536)


def test_65536_bits_match_the_model():
    check_sets(BIG)
    check_runs(BIG)
    for n in (BIG, BIG ^ 1):  # one of them even, which nat2ftuple deals at arity 1
        check_tuples(n, (1, 3))
    check_bases(BIG, (2, 3, 4, 8, 10, 16, 32, 64))


def patterned(k):
    """2**k, 2**k - 1, and 0x55... and 0xAA... cut to k bits."""
    mask = (1 << k) - 1
    return [1 << k, mask, int("5" * (k // 4 + 1), 16) & mask, int("a" * (k // 4 + 1), 16) & mask]


@pytest.mark.parametrize("k", (31, 32, 33, 64, 4096, 65536))
def test_zero_runs_of_patterned_codes_match_the_model(k):
    # past _LOOP_BITS, nat2fun reads the runs of zeros between ones, and the
    # run after the top one is empty; up to it, rle2nat takes five fixed
    # shifts: these codes end in runs of every kind
    for n in patterned(k):
        f, runs = model.nat2fun(n), model.nat2rle(n)
        assert nat2fun(n) == f
        assert fun2nat(f) == n
        assert nat2rle(n) == runs
        assert rle2nat(runs) == n


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


class Natural(int):
    pass


# each kernel with a path of its own for one component or a small code
KERNELS = {
    "nat2set": nat2set,
    "nat2fun": nat2fun,
    "nat2rle": nat2rle,
    "to_tuple(1, m)": lambda m: to_tuple(1, m),
    "to_tuple(2, m)": lambda m: to_tuple(2, m),
    "nat2ftuple": nat2ftuple,
    "from_tuple([m])": lambda m: from_tuple([m]),
    "ftuple2nat([m])": lambda m: ftuple2nat([m]),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("m", (True, -1, 1.0, Natural(5)), ids=repr)
def test_kernels_refuse_a_non_natural_by_its_message(name, m):
    error, message = natural_error(m)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        KERNELS[name](m)


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
