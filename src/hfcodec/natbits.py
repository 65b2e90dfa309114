"""Base expansions and bit lists for arbitrary-precision naturals.

Digit lists are little-endian throughout: index i carries the coefficient
of base**i.  The expansion of 0 is the single digit [0], never the empty
list, so every natural has exactly one canonical form per base.

Bit-level work on big codes goes through the ASCII bit string of
``bin()``: slicing it and parsing it back with ``int(..., 2)`` (or any
power-of-two base) is linear in the bit length and is not subject to the
interpreter's int/str digit limit.  ``_rbitstr`` and ``_rbitstr2nat``
convert between a natural and its little-endian bit string for
``setfun`` and ``pairing`` as well.

Mixed-radix conversion (factoradics, and bases that are not powers of
two) goes through ``_radix_split`` and ``_radix_join``, which divide
top-down and multiply bottom-up along a balanced tree of radix products
(Bernstein, "Fast multiplication and its applications", 2008, §§12-18;
Knuth, TAOCP Vol. 2 §4.4).  The big divisions and multiplications run
inside the interpreter's integer code, so a conversion takes a few big
operations per tree level instead of one Python step per digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, prod
from typing import Iterable, Iterator, Sequence

# Codes of at most this many bits stay on a word-sized loop over their set
# bits in four places: nat2set, set2nat and fun2nat (setfun) and from_tuple
# (pairing); bigger codes go through a bit string.  The three encoders check
# each element inside their loop.  With those checks in, the loops were
# re-timed against the string paths on the calls each workload of the
# benchmark makes (recorded, then best of 15 interleaved timings; CPython
# 3.11.7 on a shared 2-vCPU VM).  nat2set, set2nat and fun2nat get codes of
# at most 20 bits in small-enum and, but for a handful, at most 12 in
# wide-tree; there the encoders' loops take 0.3-0.6 of the string's time,
# and nat2set's loop at most as long as the string.  On random half-full
# sets set2nat's loop still wins at 32 bits (1.52 against 1.58 us) and
# loses from 36.  from_tuple's calls in small-enum stop at 20 bits; in
# big-flat's hff1 trees its loop wins up to 24 bits and loses from 25
# (2.50 against 2.10 us at 25 bits, 5.7 against 4.1 at 32), but those
# 25-32-bit calls add up to about 5 ms of a 15 s run.  So no workload's
# calls say to move the cut, and it stays at 32.  to_tuple has no such
# loop: its divmod per set bit already lost to slicing at 16 bits.
_LOOP_BITS = 32

# digits of int() and format() for the power-of-two bases up to 32; in
# particular '0'/'1' characters <-> bit values 0/1, for bytes.translate
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuv"
_CHAR_VALUES = bytes.maketrans(_DIGIT_CHARS, bytes(range(32)))
_VALUE_CHARS = bytes.maketrans(bytes(range(32)), _DIGIT_CHARS)
_FORMAT_CODES = {2: "b", 8: "o", 16: "x"}

# A mixed-radix conversion of at most this many digits is one
# digit-at-a-time loop; longer ones go through a binary tree whose leaves
# each hold this many radices and run that loop.  Measured on CPython 3.11,
# the tree wins from about 200 factorial or decimal digits up, and leaves
# of 32 to 128 radices time alike at 65536 bits.
_RADIX_LEAF = 128


@dataclass(frozen=True)
class DigitList:
    """Digits of a natural in a fixed base, least significant first.

    The base travels with the digits so that feeding digits of one base
    into a conversion for another fails loudly instead of silently.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_int(self.base, "base")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if type(d) is not int:
                raise TypeError(f"digits must be ints, got {type(d).__name__}")
            if not 0 <= d < self.base:
                raise ValueError(f"digit {_int_text(d)} out of range for base {self.base}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    @classmethod
    def _trusted(cls, base: int, digits: tuple[int, ...]) -> DigitList:
        """A DigitList of digits already known to be in range: no checks."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "base", base)
        object.__setattr__(ds, "digits", digits)
        return ds


def _int_text(n: int) -> str:
    """n in decimal for an error message, or its bit length past the int/str limit."""
    try:
        return str(n)
    except ValueError:
        return f"<{'negative ' if n < 0 else ''}{n.bit_length()}-bit integer>"


def _list_text(s: Sequence[object]) -> str:
    """s as list(s) prints, for an error message: whole up to 40 characters,
    else its first 40 and its length.  Ints past the int/str limit print by
    bit length."""
    # 41 entries print past 40 characters, so s[:41] decides
    text = "[" + ", ".join(_int_text(x) if type(x) is int else repr(x) for x in s[:41]) + "]"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(s)} entries)"


def _check_int(x: int, what: str) -> None:
    """Refuse an argument that must be an int (a base, arity, size, ulimit or atom value)."""
    if type(x) is not int:  # not isinstance: a bool is an int
        raise TypeError(f"{what} must be an int, got {type(x).__name__}")


def _check_natural(n: int) -> None:
    if type(n) is not int:  # not isinstance: a bool is an int
        raise TypeError(f"expected a natural number, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"expected a natural number, got {_int_text(n)}")


def _rbitstr(n: int) -> bytes:
    """Bits of a natural as ASCII b'0'/b'1', least significant first; b'0' for 0."""
    return bin(n)[:1:-1].encode("ascii")


def _rbitstr2nat(bs: bytes | bytearray) -> int:
    """Evaluate a little-endian ASCII bit string; the empty string is 0."""
    return int(bs[::-1], 2) if bs else 0


def _radix_split(n: int, radices: Sequence[int]) -> list[int]:
    """Digits of n in the mixed radix: n == d[0] + r[0] * (d[1] + r[1] * (...)).

    Digit i is below radices[i], one digit per radix, high zeros kept; n
    must be below the product of all the radices.  Above _RADIX_LEAF
    radices, n is cut top-down by products of neighbouring leaves' radices.
    """
    digits: list[int] = []
    if len(radices) <= _RADIX_LEAF:  # one leaf: the digit-at-a-time loop
        for r in radices:
            n, d = divmod(n, r)
            digits.append(d)
        return digits
    # an odd last node moves up alone; the root's product is never needed
    level = [prod(radices[i:i + _RADIX_LEAF]) for i in range(0, len(radices), _RADIX_LEAF)]
    levels = [level]
    while len(level) > 2:
        up = [a * b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            up.append(level[-1])
        levels.append(up)
        level = up
    values = [n]  # one per node of the level above the one being cut
    for level in reversed(levels):
        cut = []
        for v, w in zip(values, level[:-1:2]):  # w: the left node of a pair
            high, low = divmod(v, w)
            cut += low, high
        if len(level) % 2:  # the odd last node came up alone
            cut.append(values[-1])
        values = cut
    for i, v in enumerate(values):
        digits += _radix_split(v, radices[i * _RADIX_LEAF:(i + 1) * _RADIX_LEAF])
    return digits


def _radix_join(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Evaluate d[0] + r[0] * (d[1] + r[1] * (...)); inverse of _radix_split.

    One radix per digit (the last is never used); digits may exceed their
    radix.  Above _RADIX_LEAF radices, neighbouring (value, radix product)
    pairs merge up from the leaves: (v, w), (u, x) -> (v + w * u, w * x).
    """
    if len(radices) <= _RADIX_LEAF:  # one leaf: the digit-at-a-time loop
        n = 0
        for r, d in zip(reversed(radices), reversed(digits)):
            n = n * r + d
        return n
    pairs = []
    for i in range(0, len(radices), _RADIX_LEAF):
        leaf = radices[i:i + _RADIX_LEAF]
        pairs.append((_radix_join(digits[i:i + _RADIX_LEAF], leaf), prod(leaf)))
    while len(pairs) > 2:  # an odd last pair moves up alone
        up = [(v + w * u, w * x) for (v, w), (u, x) in zip(pairs[::2], pairs[1::2])]
        if len(pairs) % 2:
            up.append(pairs[-1])
        pairs = up
    (v, w), (u, _) = pairs  # the root's product would go unused
    return v + w * u


def to_base(base: int, n: int) -> DigitList:
    """Expand n in the given base; the last digit is nonzero except for 0 itself.

    Power-of-two bases cut n's bit string into fixed-width digits (linear);
    other bases divide n top-down by the powers base**(2**j * _RADIX_LEAF).
    """
    _check_int(base, "base")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    _check_natural(n)
    if base & (base - 1) == 0:
        code = _FORMAT_CODES.get(base)
        if code:
            digits = format(n, code)[::-1].encode("ascii").translate(_CHAR_VALUES)
        else:
            width = base.bit_length() - 1
            bs = _rbitstr(n)
            digits = [_rbitstr2nat(bs[i:i + width]) for i in range(0, len(bs), width)]
    else:
        # base**size >= 2**bit_length * base > n, with a digit to spare
        size = int(n.bit_length() / log2(base)) + 2
        digits = _radix_split(n, [base] * size)
        while len(digits) > 1 and digits[-1] == 0:
            digits.pop()
    return DigitList._trusted(base, tuple(digits))


def from_base(base: int, ds: DigitList | Iterable[int]) -> int:
    """Evaluate little-endian digits: sum of ds[i] * base**i.

    Power-of-two bases are parsed as one digit string (linear); other
    bases join the digits pairwise up a tree, level j multiplying by
    base**(2**j * _RADIX_LEAF).
    """
    _check_int(base, "base")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if isinstance(ds, DigitList):
        if ds.base != base:
            raise ValueError(f"digit list carries base {ds.base}, expected {base}")
    else:
        ds = DigitList(base, ds)
    digits = ds.digits
    if base & (base - 1) == 0:
        if not digits:
            return 0
        if base <= 32:
            return int(bytes(digits)[::-1].translate(_VALUE_CHARS), base)
        width = base.bit_length() - 1
        return _rbitstr2nat(b"".join(_rbitstr(d).ljust(width, b"0") for d in digits))
    return _radix_join(digits, [base] * len(digits))


def to_rbits(n: int) -> list[int]:
    """Bits of n, least significant first; to_rbits(0) == [0]."""
    _check_natural(n)
    return list(_rbitstr(n).translate(_CHAR_VALUES))


def from_rbits(bs: Iterable[int]) -> int:
    """Evaluate a little-endian bit list."""
    return from_base(2, bs)


def to_rbits0(n: int) -> list[int]:
    """Like to_rbits, except 0 maps to the empty list."""
    _check_natural(n)
    return [] if n == 0 else to_rbits(n)


def to_maxbits(maxbits: int, n: int) -> list[int]:
    """Bits of n zero-padded on the high side to exactly maxbits positions."""
    _check_int(maxbits, "maxbits")
    size = bitcount(n)
    if size > maxbits:
        raise OverflowError(f"{_int_text(n)} needs {size} bits, limit is {maxbits}")
    return to_rbits(n) + [0] * (maxbits - size)


def bitcount(n: int) -> int:
    """Length of to_rbits(n): the least x >= 1 with 2**x > n."""
    _check_natural(n)
    return max(1, n.bit_length())


def max_bitcount(ns: Iterable[int]) -> int:
    """Largest bitcount over ns; 0 when ns is empty."""
    return max(map(bitcount, ns), default=0)
