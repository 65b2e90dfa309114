"""Pairing bijections Nat x Nat <-> Nat and round-robin k-tupling.

Three pairings with different growth profiles:

* cantor  - walks anti-diagonals, polynomial in both arguments
* pepis   - 2^x * (2y+1) - 1, exponential in x and linear in y
* bitmerge - interleaves the two bit strings, balanced in both

``to_tuple``/``from_tuple`` generalize bitmerge to a fixed arity k by
dealing the bits of n round-robin into k streams (bitmerge is their
k == 2 case), and ``ftuple2nat``/``nat2ftuple`` extend that to tuples of
arbitrary length by folding the length into a pepis pair.  The streams
are strided slices of the bit string, linear in the bit length;
``to_tuple`` slices at every size, while ``from_tuple`` merges at most
natbits._LOOP_BITS bits with one loop that checks each component and ORs
in its set bits.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from .natbits import _LOOP_BITS, _check_int, _check_natural, _rbitstr, _rbitstr2nat


def cantor_pair(x: int, y: int) -> int:
    """Anti-diagonal pairing (x+y)(x+y+1)/2 + y."""
    _check_natural(x)
    _check_natural(y)
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> tuple[int, int]:
    """Invert cantor_pair via the exact integer triangular root."""
    _check_natural(z)
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def pepis_pair(x: int, y: int) -> int:
    """2^x * (2y+1) - 1; x lands in the trailing ones of the result plus one."""
    _check_natural(x)
    _check_natural(y)
    return ((2 * y + 1) << x) - 1


def pepis_unpair(n: int) -> tuple[int, int]:
    """Invert pepis_pair: the first component is the dyadic valuation of n+1."""
    _check_natural(n)
    m = n + 1
    a = (m & -m).bit_length() - 1  # exponent of the largest power of 2 dividing m
    return a, ((m >> a) - 1) // 2


def bitmerge_pair(p: tuple[int, int]) -> int:
    """Interleave two bit strings: first on even positions, second on odd."""
    x, y = p
    return from_tuple((x, y))


def bitmerge_unpair(n: int) -> tuple[int, int]:
    """Split a bit string into its even-position and odd-position halves."""
    x, y = to_tuple(2, n)
    return x, y


def to_tuple(k: int, n: int) -> list[int]:
    """Deal the bits of n round-robin into k streams.

    Component i collects bits i, i+k, i+2k, ... of n: the slice [i::k] of
    n's little-endian bit string.  At k == 2 this is bitmerge_unpair.
    """
    _check_int(k, "arity")
    if k < 1:
        raise ValueError(f"arity must be >= 1, got {k}")
    _check_natural(n)
    return _deal(k, n)


def _deal(k: int, n: int) -> list[int]:
    """to_tuple on a checked arity and natural."""
    bs = _rbitstr(n)
    return [_rbitstr2nat(bs[i::k]) for i in range(k)]


def from_tuple(ns: Sequence[int]) -> int:
    """Merge len(ns) bit streams round-robin; inverse of to_tuple at that arity.

    Component i's bit string is written to the slice [i::k] of the
    result's bit string.
    """
    k = len(ns)
    if k < 1:
        raise ValueError("cannot merge an empty tuple")
    # a merge of at most _LOOP_BITS bits loops over the set bits, checking
    # each component as it comes; a component of more than cut bits makes
    # the merge longer, and sends the whole tuple to the bit string
    cut = _LOOP_BITS // k
    out = 0
    for i, m in enumerate(ns):
        if type(m) is not int or m < 0:
            _check_natural(m)
        if m >> cut:
            return _merge(ns)
        while m:
            low = m & -m
            out |= 1 << ((low.bit_length() - 1) * k + i)
            m ^= low
    return out


def _merge(ns: Sequence[int]) -> int:
    """from_tuple through the bit string, for merges past _LOOP_BITS."""
    for m in ns:
        _check_natural(m)
    k = len(ns)
    width = max(map(int.bit_length, ns))
    buf = bytearray(b"0") * (k * width)
    for i, m in enumerate(ns):
        buf[i::k] = _rbitstr(m).ljust(width, b"0")
    return _rbitstr2nat(buf)


def ftuple2nat(ns: Sequence[int]) -> int:
    """Encode a tuple of any length, folding the length in via pepis_pair.

    The empty tuple maps to 0.  [0] is rejected: its code would collide
    with the empty tuple's, and nat2ftuple never produces it.
    """
    k = len(ns)
    if k == 0:
        return 0
    f = from_tuple(ns)  # checks the entries, so a bool is not taken for 0
    if f == 0 and k == 1:
        raise ValueError("[0] has no code; it would collide with the empty tuple")
    return ((2 * f + 1) << (k - 1)) - 1  # pepis_pair(k - 1, f)


def nat2ftuple(n: int) -> list[int]:
    """Decode a tuple together with its length; inverse of ftuple2nat."""
    if type(n) is not int or n < 0:
        _check_natural(n)  # refuses False and 0.0 too
    if n == 0:
        return []
    m = n + 1  # pepis_unpair(n), and to_tuple at its arity
    a = (m & -m).bit_length() - 1
    return _deal(a + 1, ((m >> a) - 1) // 2)
