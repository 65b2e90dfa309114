import random
from itertools import product

import pytest

import model
from conftest import natural_error
from hfcodec import pairing
from hfcodec.hftree import codec_hff1, rank, unrank
from hfcodec.natbits import _LOOP_BITS
from hfcodec.pairing import (
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    cantor_unpair,
    from_tuple,
    ftuple2nat,
    nat2ftuple,
    pepis_pair,
    pepis_unpair,
    to_tuple,
)

def test_cantor_unpair_golden():
    assert cantor_unpair(8) == (1, 2)
    assert cantor_unpair(24) == (3, 3)


def test_cantor_pairs_every_pair_below_100_as_the_model_does():
    for x in range(100):
        for y in range(100):
            z = cantor_pair(x, y)
            assert z == model.cantor_pair(x, y)
            assert cantor_unpair(z) == (x, y)


def test_pepis_unpair_inverts_every_pair_below_64():
    # the table and goldens are acceptance criterion 1's
    for x in range(64):
        for y in range(64):
            assert pepis_unpair(pepis_pair(x, y)) == (x, y)


def test_pepis_unpair_matches_the_model():
    for n in range(4096):
        assert pepis_unpair(n) == model.pepis_unpair(n)


def test_bitmerge_golden():
    # bitmerge of 2008 is acceptance criterion 1's
    assert bitmerge_pair((1, 1)) == 3


def test_bitmerge_pairs_every_pair_below_256_as_the_model_does():
    for x in range(256):
        for y in range(256):
            z = bitmerge_pair((x, y))
            assert z == model.from_tuple([x, y])
            assert bitmerge_unpair(z) == (x, y)


def test_tuple_arity_errors():
    with pytest.raises(ValueError):
        to_tuple(0, 5)
    with pytest.raises(ValueError):
        from_tuple([])


def test_ftuple_rejects_singleton_zero():
    with pytest.raises(ValueError, match=r"^\[0\] has no code; it would collide with the empty tuple$"):
        ftuple2nat([0])


def test_one_component_tuples_make_no_long_bit_string(monkeypatch):
    # a tuple of one component is that component: nat2ftuple of an even
    # code, ftuple2nat of a 1-tuple and every level of an hff1 chain deal
    # and merge no bit string.  The chain ends at code 1, the pair (0, 0),
    # which the arity-2 tables deal and merge
    widths = []

    def spy(f, width):
        def recorded(x):
            widths.append(width(x))
            return f(x)
        return recorded

    monkeypatch.setattr(pairing, "_rbitstr", spy(pairing._rbitstr, int.bit_length))
    monkeypatch.setattr(pairing, "_rbitstr2nat", spy(pairing._rbitstr2nat, len))
    monkeypatch.setattr(pairing, "_merge",
                        spy(pairing._merge, lambda ns: len(ns) * max(map(int.bit_length, ns))))
    assert nat2ftuple(1 << 5000) == [1 << 4999]
    assert ftuple2nat([1 << 4999]) == 1 << 5000
    c = codec_hff1()
    assert rank(c, unrank(c, 1 << 2000)) == 1 << 2000
    assert widths == []
    # a code past the tables reaches the spies
    assert to_tuple(2, 1 << _LOOP_BITS) == [1 << _LOOP_BITS // 2, 0]
    assert max(widths) == _LOOP_BITS + 1


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        cantor_pair(-1, 0)
    with pytest.raises(ValueError):
        pepis_unpair(-3)
    with pytest.raises(ValueError):
        to_tuple(2, -1)
    with pytest.raises(ValueError):
        from_tuple([1, -1])


# --- bad entries on both sides of _LOOP_BITS --------------------------------------

@pytest.mark.parametrize("bad", [True, False, 2.0, -1, -(1 << 100)])
@pytest.mark.parametrize("head", [[], [1], [1 << _LOOP_BITS], [3] * _LOOP_BITS])
def test_bad_entries_raise_the_same_error_on_both_sides_of_the_loop_bits(head, bad):
    exc, message = natural_error(bad)
    for ns in (head + [bad], head + [bad, 1 << _LOOP_BITS], head + [bad, 1]):
        for f in (from_tuple, ftuple2nat):
            with pytest.raises(exc) as info:
                f(ns)
            assert str(info.value) == message


@pytest.mark.parametrize("bad", [False, 0.0, 1.5, True, -1, -3, -(1 << 100)])
def test_nat2ftuple_refuses_non_naturals(bad):
    exc, message = natural_error(bad)
    with pytest.raises(exc) as info:
        nat2ftuple(bad)
    assert str(info.value) == message


# --- the arity-2 and arity-3 tables, against the model ----------------------------

# the merge tables take components of at most 16 bits at arity 2 and 10 at
# arity 3; the deal tables take codes of at most 32 bits
EDGES2 = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1]
EDGES3 = [0, 1, (1 << 10) - 1, 1 << 10, (1 << 10) + 1]
EDGES32 = [(1 << 32) - 1, 1 << 32, (1 << 32) + 1]


def test_pairs_up_to_the_16_bit_cut_and_past_it_match_the_model():
    rng = random.Random(24)
    pairs = [(rng.getrandbits(rng.randint(1, 16)), rng.getrandbits(rng.randint(1, 16)))
             for _ in range(2000)]
    for x, y in [*pairs, *product(EDGES2, repeat=2)]:
        z = model.from_tuple([x, y])
        assert bitmerge_pair((x, y)) == z
        assert from_tuple([x, y]) == z
        assert bitmerge_unpair(z) == (x, y)
        assert to_tuple(2, z) == [x, y]


def test_codes_below_2_to_the_16_and_around_2_to_the_32_deal_as_the_model_does():
    for n in [*range(1 << 16), *EDGES32]:
        xy = model.to_tuple(2, n)
        assert to_tuple(2, n) == xy
        assert bitmerge_unpair(n) == tuple(xy)
        assert bitmerge_pair(tuple(xy)) == n


def test_arity_3_around_the_10_bit_cut_and_the_32_bit_cut_matches_the_model():
    rng = random.Random(3)
    triples = [tuple(rng.getrandbits(rng.randint(1, 10)) for _ in range(3)) for _ in range(1000)]
    for t in [*triples, *product(EDGES3, repeat=3)]:
        n = model.from_tuple(list(t))
        assert from_tuple(t) == n
        assert to_tuple(3, n) == list(t)
    for n in [*range(1 << 12), *(rng.getrandbits(32) for _ in range(1000)), *EDGES32]:
        t = model.to_tuple(3, n)
        assert to_tuple(3, n) == t
        assert from_tuple(t) == n


def test_ftuples_of_arity_2_and_3_match_the_model_on_both_sides_of_each_cut():
    for ns in [*product(EDGES2, repeat=2), *product(EDGES3, repeat=3)]:
        n = model.ftuple2nat(list(ns))
        assert ftuple2nat(ns) == n
        assert nat2ftuple(n) == list(ns)
    for k, m in product((2, 3), EDGES32):
        n = model.pepis_pair(k - 1, m)
        ns = model.nat2ftuple(n)
        assert nat2ftuple(n) == ns
        assert ftuple2nat(ns) == n


def test_round_trips_on_the_tables_make_no_bit_string(monkeypatch):
    made = []

    def spy(f):
        def recorded(*args):
            made.append(f.__name__)
            return f(*args)
        return recorded

    for name in ("_rbitstr", "_rbitstr2nat", "_merge"):
        monkeypatch.setattr(pairing, name, spy(getattr(pairing, name)))
    # at arity 3 a code of 31 or 32 bits has an 11-bit component, past the merge table
    for n in [*range(1 << 12), (1 << 30) - 1, (1 << 32) - 1]:
        assert bitmerge_pair(bitmerge_unpair(n)) == n
        if n < 1 << 30:
            assert from_tuple(to_tuple(3, n)) == n
    assert made == []
    assert bitmerge_pair(bitmerge_unpair(1 << 32)) == 1 << 32  # past the tables
    assert made


class Nat(int):
    pass


@pytest.mark.parametrize("bad", [True, -1, 1.0, Nat(1)], ids=["True", "-1", "1.0", "Nat"])
def test_bad_components_raise_the_same_error_on_and_off_the_tables(bad):
    exc, message = natural_error(bad)
    tuples = [(bad, 1), (1, bad), (bad, -5), (1 << 16, bad), (bad, 1, 1), (1, bad, 1),
              (1, 1, bad), (bad, "x", 1), (1 << 10, 1, bad)]
    for ns in tuples:
        for f in (from_tuple, ftuple2nat):
            for seq in (ns, list(ns)):
                with pytest.raises(exc) as info:
                    f(seq)
                assert str(info.value) == message
        if len(ns) == 2:
            with pytest.raises(exc) as info:
                bitmerge_pair(ns)
            assert str(info.value) == message
    for f in (bitmerge_unpair, nat2ftuple, lambda n: to_tuple(2, n), lambda n: to_tuple(3, n)):
        with pytest.raises(exc) as info:
            f(bad)
        assert str(info.value) == message
