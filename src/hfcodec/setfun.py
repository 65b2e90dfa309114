"""Finite sets and finite functions as naturals.

A finite set of naturals is encoded by the Ackermann rule n = sum of 2**e
over its elements, so nat2set just reads off bit positions.  A finite
function [v0..vk] (a tuple of naturals) rides on top of that: its values
are turned into the gaps of a strictly increasing sequence by fun2set.
The run-length pair bits2rle/rle2bits gives a second, self-delimiting
function view of the same bits.

Sets of codes above natbits._LOOP_BITS bits are read and written through
their ASCII bit string, so every codec here is linear in the bit length.
nat2fun reads a function's values off that string as the lengths of its
runs of zeros, with one bytes.split, and fun2nat checks each value and
marks its bit in a string as long as the values' sum says, in one loop;
a sum of 2**20 or more is trusted only once two passes in C find every
value a natural.  Below it, nat2set concatenates the bit positions of
each byte of the code from tables built at import, set2nat and fun2nat
check each element and OR in its bit in one loop, and rle2nat undoes
its XOR in five fixed shifts.
"""

from __future__ import annotations

from itertools import compress, count, groupby
from typing import Sequence

from .natbits import _CHAR_VALUES, _LOOP_BITS, _check_natural, _list_text, _rbitstr


def _check_set(s: Sequence[int]) -> None:
    prev = -1
    for e in s:
        if type(e) is not int:
            raise TypeError(f"set elements must be ints, got {type(e).__name__}")
        if e <= prev:
            # only the first element meets prev == -1, and it fails by being negative
            rule = "naturals" if prev < 0 else "strictly increasing"
            raise ValueError(f"set elements must be {rule}, got {_list_text(s)}")
        prev = e


def set2nat(s: Sequence[int]) -> int:
    """Sum of 2**e over a strictly increasing sequence of naturals."""
    if s and (type(s[-1]) is not int or s[-1] >= _LOOP_BITS):
        _check_set(s)
        return _set2nat(s)
    # a valid set ending below _LOOP_BITS has every element there: check
    # each element and OR its bit in the same pass
    n, prev = 0, -1
    for e in s:
        if type(e) is not int or not prev < e < _LOOP_BITS:
            _check_set(s)  # the set is bad: this raises for its first bad element
        n |= 1 << e
        prev = e
    return n


def _set2nat(s: Sequence[int]) -> int:
    # s is strictly increasing and ends at or above _LOOP_BITS, so s[-1]
    # fixes the bit length: mark the elements in a most-significant-first
    # bit string instead of summing powers of 2
    top = s[-1]
    buf = bytearray(b"0") * (top + 1)
    for e in s:
        buf[top - e] = 0x31  # ord("1")
    return int(buf, 2)


def _byte_positions(low: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the positions of the set bits of b << low, for every byte b."""
    table = [()]
    for i in range(low, low + 8):  # the bytes with bit i set follow those without
        table += [t + (i,) for t in table]
    return tuple(table)


# A code of at most _LOOP_BITS bits reads its set as the concatenation of
# one table entry per byte; nat2set unrolls that over the four tables, and
# the unpacking fails at import if _LOOP_BITS is not 32.
_B0, _B1, _B2, _B3 = map(_byte_positions, range(0, _LOOP_BITS, 8))


def nat2set(n: int) -> list[int]:
    """Positions of the set bits of n, in increasing order."""
    if type(n) is not int or n < 0:
        _check_natural(n)
    if n < 0x10000:  # _B1[0] is empty, so this covers codes of one byte too
        return [*_B0[n & 255], *_B1[n >> 8]]
    if int.bit_length(n) > _LOOP_BITS:
        return list(compress(count(), _rbitstr(n).translate(_CHAR_VALUES)))
    return [*_B0[n & 255], *_B1[n >> 8 & 255], *_B2[n >> 16 & 255], *_B3[n >> 24]]


def fun2set(f: Sequence[int]) -> list[int]:
    """Running totals of the values, each bumped by one; strictly increasing."""
    out, acc = [], -1
    for v in f:
        if type(v) is not int or v < 0:
            _check_natural(v)
        acc += v + 1
        out.append(acc)
    return out


def set2fun(s: Sequence[int]) -> list[int]:
    """Gaps between consecutive elements, minus one; inverse of fun2set."""
    _check_set(s)
    return _set2fun(s)


def _set2fun(s: Sequence[int]) -> list[int]:
    out, prev = [], -1
    for e in s:
        out.append(e - prev - 1)
        prev = e
    return out


def fun2nat(f: Sequence[int]) -> int:
    """Encode a tuple of naturals of any length; [] maps to 0."""
    n, acc = 0, -1
    for v in f:
        if type(v) is not int or v < 0:
            _check_natural(v)
        acc += v + 1
        if acc >= _LOOP_BITS:  # past the loop's bits: the bit-string path
            return _fun2nat(f)
        n |= 1 << acc
    return n


def _fun2nat(f: Sequence[int]) -> int:
    # If every value is a natural, the set ends at bit sum(f) + len(f) - 1.
    # A bad value can make the sum raise or come out too small, so the sum
    # decides no error: the loop checks each value before it marks its bit,
    # and where the sum or the string fails, or a mark falls past the
    # string's end, _set2nat(fun2set(f)) raises: fun2set for the first bad
    # value, _set2nat for a string too long to make.  A bad value could
    # also make the sum too big, so a string of 2**20 bytes or more waits
    # for two passes in C to find every value a natural.
    try:
        size = sum(f) + len(f)
        if size >> 20 and (set(map(type, f)) != {int} or min(f) < 0):
            raise ValueError("not a list of naturals")  # fun2set names the value
        buf = bytearray(b"0") * size  # least significant bit first
    except Exception:  # a value's own __add__ may raise anything
        return _set2nat(fun2set(f))
    acc = -1
    try:
        for v in f:
            if type(v) is not int or v < 0:
                _check_natural(v)
            acc += v + 1
            buf[acc] = 0x31  # ord("1")
    except IndexError:  # a later value is negative
        return _set2nat(fun2set(f))
    return int(buf[::-1], 2)


def nat2fun(n: int) -> list[int]:
    """Decode a tuple of naturals; inverse of fun2nat.

    Above _LOOP_BITS bits the values are the lengths of the runs of zeros
    in n's little-endian bit string, which ends in a 1: one bytes.split.
    """
    if type(n) is int and n >> _LOOP_BITS > 0:
        return list(map(len, _rbitstr(n).split(b"1")))[:-1]
    return _set2fun(nat2set(n))


def bits2rle(bs: Sequence[int]) -> list[int]:
    """Length minus one of each run of equal consecutive bits.

    Round-trips with rle2bits only on canonical bit lists, i.e. those
    ending in 1 (or empty), which is what to_rbits0 produces.  Items are
    not checked to be bits: any equal neighbours form a run, so
    bits2rle([5, 5, 7]) == [1, 0].
    """
    return [sum(1 for _ in g) - 1 for _, g in groupby(bs)]


def rle2bits(rs: Sequence[int]) -> list[int]:
    """Rebuild the bit list: the final run is ones and runs alternate."""
    k = len(rs)
    out = []
    for i, c in enumerate(rs):
        _check_natural(c)
        out.extend([1 - ((k - 1 - i) & 1)] * (c + 1))
    return out


def nat2rle(n: int) -> list[int]:
    """Run lengths (minus one) of n's bits; nat2rle(0) == [].

    Bit i of n ^ (n >> 1) is set exactly where a run ends, so the run
    lengths are the gaps that nat2fun reads off that natural.
    """
    _check_natural(n)
    return nat2fun(n ^ (n >> 1))


def rle2nat(rs: Sequence[int]) -> int:
    """Evaluate run lengths back to a natural; total on any list of naturals.

    fun2nat marks the run ends; a suffix XOR (shifts of 1, 2, 4, 8 and 16
    up to 32 bits, doubling on up to the bit length above) turns the marks
    back into the runs.
    """
    n = fun2nat(rs)
    if n < 0x100000000:  # at most _LOOP_BITS bits: five fixed steps
        n ^= n >> 1
        n ^= n >> 2
        n ^= n >> 4
        n ^= n >> 8
        return n ^ n >> 16
    shift = 1
    while n >> shift:
        n ^= n >> shift
        shift <<= 1
    return n
