"""Factoradics, Lehmer codes, and a bijection Nat <-> finite permutations.

A natural splits into factoradic digits with weights 0!, 1!, 2!, ...; a
permutation of size k splits into its Lehmer code, whose digit i counts
the later entries smaller than entry i.  The two meet in nth2perm: the k
factoradic digits of a lexicographic rank below k!, high zeros kept, are
its Lehmer code.  Sizes are chained by sf(k) = 0! + ... + (k-1)!, giving
a single numbering of all finite permutations in order of size; nat2perm
splits the rank that to_sf leaves into its k digits directly.

Factoradics split and join the radices 1, 2, 3, ... along a balanced
binary tree (natbits._radix_split/_radix_join, which keep a
digit-at-a-time loop for short ones).  fr, to_sf and nth2perm size their
answer by bisecting tables of factorials and of their sums below 128!,
and above it from the bit length with math.lgamma, so no loop here runs
once per digit on a big integer.

A permutation of at most natbits._RADIX_LEAF entries builds no digit
list at all.  perm2nat and perm2nth find each entry among the
still-unused values with bisect_left, refuse it there if it is missing,
delete it and fold its index (the Lehmer digit) into the value as
n * r + digit, all in one loop.  nat2perm and nth2perm divide the rank
by (k-1)!, (k-2)!, ... and pop each quotient's value from the pool in
the same loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import factorial, lgamma, log
from operator import mul
from typing import Sequence

from .natbits import (
    _RADIX_LEAF,
    _check_int,
    _check_natural,
    _int_text,
    _list_text,
    _radix_join,
    _radix_split,
)

_LN2 = log(2)
# 0!, 1!, ..., 128! and sf(0), sf(1), ..., sf(129): fr and to_sf size
# naturals below 128! by bisecting these
_FACTORIALS = list(accumulate(range(1, 129), mul, initial=1))
_SUMS = list(accumulate(_FACTORIALS, initial=0))


def _factorial_size(n: int) -> int:
    """A k with k! > n: the least one below 128!, at most one above it from there.

    For n >= 1 the least such k is the number of factoradic digits of n.
    """
    if n < _FACTORIALS[-1]:
        return bisect_right(_FACTORIALS, n)
    # least k with lgamma(k + 1) >= ln(2) * bit_length + 1, so that
    # k! >= e * 2**bit_length > n; the margin of e absorbs lgamma's rounding
    x = n.bit_length() * _LN2 + 1
    hi = 128
    while lgamma(hi + 1) < x:
        hi *= 2
    return bisect_left(range(hi), x, 128, key=lambda k: lgamma(k + 1))


def fr(n: int) -> list[int]:
    """Factoradic digits of n, least significant first; fr(0) == [0].

    Digit i is at most i, so the first digit is always 0.
    """
    _check_natural(n)
    if n == 0:
        return [0]
    digits = _radix_split(n, range(1, _factorial_size(n) + 1))
    while digits[-1] == 0:
        digits.pop()
    return digits


def rf(ds: Sequence[int]) -> int:
    """Evaluate digits against the weights 0!, 1!, 2!, ...; inverse of fr."""
    for d in ds:
        _check_natural(d)
    return _radix_join(ds, range(1, len(ds) + 1))


def fl(n: int) -> list[int]:
    """Factoradic digits of n, most significant first."""
    return fr(n)[::-1]


def lf(ds: Sequence[int]) -> int:
    """Evaluate most-significant-first factoradic digits; inverse of fl."""
    return rf(list(ds)[::-1])


def perm2lehmer(ps: Sequence[int]) -> list[int]:
    """Lehmer code: digit i counts later entries smaller than entry i."""
    pool = list(range(len(ps)))
    out = []
    for v in ps:
        # index of v among the still-unused values == later smaller entries;
        # a non-int (a bool too) is not looked up, and a value not found
        # there is out of range or already used
        i = bisect_left(pool, v) if type(v) is int else len(pool)
        if i == len(pool) or pool[i] != v:
            raise ValueError(f"not a permutation of 0..{len(ps) - 1}: {_list_text(ps)}")
        out.append(i)
        pool.pop(i)
    return out


def lehmer2perm(ls: Sequence[int]) -> list[int]:
    """Rebuild a permutation by picking the ls[i]-th smallest unused value."""
    pool = list(range(len(ls)))
    out = []
    for i, d in enumerate(ls):
        if type(d) is not int or not 0 <= d < len(pool):
            raise ValueError(
                f"Lehmer digit {d} at position {i} out of range for size {len(ls)}"
            )
        out.append(pool.pop(d))
    return out


def nth2perm(size_rank: tuple[int, int]) -> list[int]:
    """Permutation of the given size at the given lexicographic rank.

    Valid whenever rank < size!, including (0, 0) -> [].
    """
    size, rank = size_rank
    _check_int(size, "permutation size")
    if size < 0:
        raise ValueError(f"permutation size must be a natural, got {_int_text(size)}")
    _check_natural(rank)
    # rank needs _factorial_size(rank) Lehmer digits, or one fewer above 128!
    k = _factorial_size(rank)
    if k > size and (k > size + 1 or rank >= factorial(size)):
        raise OverflowError(f"rank {_int_text(rank)} does not fit a size-{size} permutation")
    return _rank2perm(size, min(k, size), rank)


def perm2nth(ps: Sequence[int]) -> tuple[int, int]:
    """Size and lexicographic rank of a permutation; inverse of nth2perm."""
    return len(ps), _perm2rank(ps, 0)


def _rank2perm(size: int, digits: int, rank: int) -> list[int]:
    """The size-`size` permutation whose Lehmer code is size - digits zeros,
    then the `digits` factoradic digits of rank, most significant first.

    The high zero digits pick 0, 1, ... in order, unpopped.  Up to
    _RADIX_LEAF digits, digit i is split off by a divmod by (digits-1-i)!
    and picks from the pool in the same loop.
    """
    head = size - digits
    if digits <= _RADIX_LEAF:
        out = list(range(head))
        pool = list(range(head, size))
        for i in range(digits - 1, -1, -1):
            d, rank = divmod(rank, _FACTORIALS[i])
            out.append(pool.pop(d))
        return out
    ps = lehmer2perm(_radix_split(rank, range(1, digits + 1))[::-1])
    return [*range(head), *(head + v for v in ps)] if head else ps


def _perm2rank(ps: Sequence[int], bump: int) -> int:
    """The Lehmer digits of ps, each plus bump, read as factoradic digits
    most significant first: bump 0 gives perm2nth's rank, and bump 1 adds
    sf(len(ps)) for perm2nat.  Raises ValueError if ps is not a permutation.

    Up to _RADIX_LEAF entries, each digit is looked up, checked and folded
    into the value in one loop; above, perm2lehmer feeds _radix_join.
    """
    k = len(ps)
    if k > _RADIX_LEAF:
        return _radix_join([d + bump for d in reversed(perm2lehmer(ps))], range(1, k + 1))
    pool = list(range(k))
    n, r = 0, k  # r == len(pool)
    for v in ps:
        # as in perm2lehmer: the index of v among the unused values is its digit
        i = bisect_left(pool, v) if type(v) is int else r
        if i == r or pool[i] != v:
            raise ValueError(f"not a permutation of 0..{k - 1}: {_list_text(ps)}")
        del pool[i]
        n = n * r + i + bump
        r -= 1
    return n


def sf(n: int) -> int:
    """Sum of factorials 0! + 1! + ... + (n-1)!; the code of the size-n identity."""
    _check_natural(n)
    return _radix_join([1] * n, range(1, n + 1))


def to_sf(n: int) -> tuple[int, int]:
    """Split n >= 1 into (k, n - sf(k)) for the largest k with sf(k) <= n.

    The remainder is below k!, so it is a valid rank for a size-k
    permutation.
    """
    _check_natural(n)
    if n < _SUMS[-1]:
        k = bisect_right(_SUMS, n) - 1
        return k, n - _SUMS[k]
    # k! > n, and sf(k + 1) > k!, so the answer is at most k: step down
    k = _factorial_size(n)
    s, w = sf(k), factorial(k)  # s == sf(k), w == k!
    while s > n:
        w //= k
        k -= 1
        s -= w
    return k, n - s


def nat2perm(n: int) -> list[int]:
    """The n-th finite permutation, ordered by size then lexicographically."""
    k, rank = to_sf(n)
    return _rank2perm(k, k, rank)


def perm2nat(ps: Sequence[int]) -> int:
    """Position of a permutation in the size-then-lex ordering; inverse of nat2perm.

    sf(size) + lf(lehmer) in one evaluation: digit i of both sums weighs i!.
    """
    return _perm2rank(ps, 1)
