import pytest

from hfcodec.natbits import from_rbits, to_base, to_maxbits
from hfcodec.pairing import (
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    cantor_unpair,
    from_tuple,
    ftuple2nat,
    pepis_pair,
    pepis_unpair,
    to_tuple,
)

PEPIS_TABLE = [0, 2, 4, 6, 1, 5, 9, 13, 3, 11, 19, 27, 7, 23, 39, 55]


def exponents(n: int) -> list[int]:
    # bit positions read off a binary string, not bit arithmetic
    return [i for i, c in enumerate(bin(n)[2:][::-1]) if c == "1"]


def test_cantor_unpair_golden():
    assert cantor_unpair(8) == (1, 2)
    assert cantor_unpair(24) == (3, 3)


def test_cantor_unpair_against_brute_force():
    # every code below 2000 must come from exactly one pair
    inverse = {}
    for x in range(100):
        for y in range(100):
            z = cantor_pair(x, y)
            assert cantor_unpair(z) == (x, y)
            if z < 2000:
                assert z not in inverse
                inverse[z] = (x, y)
    assert sorted(inverse) == list(range(2000))


def test_pepis_table_and_golden():
    assert [pepis_pair(i, j) for i in range(4) for j in range(4)] == PEPIS_TABLE
    assert pepis_pair(1, 10) == 41
    assert pepis_pair(10, 1) == 3071
    for x in range(64):
        for y in range(64):
            assert pepis_unpair(pepis_pair(x, y)) == (x, y)


def test_pepis_first_component_is_dyadic_valuation():
    def nu2(m: int) -> int:
        # repeated halving, the defining form
        c = 0
        while m % 2 == 0:
            m //= 2
            c += 1
        return c

    for n in range(4096):
        a, b = pepis_unpair(n)
        assert a == nu2(n + 1)
        assert n + 1 == (2 * b + 1) << a


def test_bitmerge_golden():
    assert bitmerge_pair((60, 26)) == 2008
    assert bitmerge_unpair(2008) == (60, 26)
    assert bitmerge_pair((1, 1)) == 3


def test_bitmerge_against_exponent_partition():
    def merge_oracle(x: int, y: int) -> int:
        return sum(2 ** (2 * e) for e in exponents(x)) + \
            sum(2 ** (2 * e + 1) for e in exponents(y))

    for x in range(64):
        for y in range(64):
            z = bitmerge_pair((x, y))
            assert z == merge_oracle(x, y)
            assert bitmerge_unpair(z) == (x, y)


def test_to_tuple_against_transpose():
    def tuple_oracle(k: int, n: int) -> list[int]:
        # the bit-matrix route: base-2^k digits widened to k columns
        rows = [to_maxbits(k, d) for d in to_base(2 ** k, n)]
        return [from_rbits(col) for col in zip(*rows)]

    for k in (1, 2, 3, 5):
        for n in range(2000):
            assert to_tuple(k, n) == tuple_oracle(k, n)


def test_tuple_arity_errors():
    with pytest.raises(ValueError):
        to_tuple(0, 5)
    with pytest.raises(ValueError):
        from_tuple([])


def test_ftuple_rejects_singleton_zero():
    with pytest.raises(ValueError, match="collide"):
        ftuple2nat([0])


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        cantor_pair(-1, 0)
    with pytest.raises(ValueError):
        pepis_unpair(-3)
    with pytest.raises(ValueError):
        to_tuple(2, -1)
    with pytest.raises(ValueError):
        from_tuple([1, -1])
