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


def test_bitmerge_pairs_every_pair_below_64_as_the_model_does():
    for x in range(64):
        for y in range(64):
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
    # and merge no bit string past the merge loop's cut.  The chain ends
    # at code 1, the pair (0, 0), whose bit string is one bit long
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
    assert widths and max(widths) <= _LOOP_BITS


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
