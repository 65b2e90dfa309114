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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# Codes of at most this many bits stay on the word-sized big-int loops in
# setfun and pairing: below it a Python loop over a few set bits beats
# building and parsing a bit string (measured crossover, CPython 3.11).
_LOOP_BITS = 32

# '0'/'1' characters <-> bit values 0/1, for bytes.translate
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")

# digits of int() and format() for the power-of-two bases up to 32
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuv"
_CHAR_VALUES = bytes.maketrans(_DIGIT_CHARS, bytes(range(32)))
_VALUE_CHARS = bytes.maketrans(bytes(range(32)), _DIGIT_CHARS)
_FORMAT_CODES = {2: "b", 8: "o", 16: "x"}


@dataclass(frozen=True)
class DigitList:
    """Digits of a natural in a fixed base, least significant first.

    The base travels with the digits so that feeding digits of one base
    into a conversion for another fails loudly instead of silently.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)


def _check_natural(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")


def _rbitstr(n: int) -> bytes:
    """Bits of a natural as ASCII b'0'/b'1', least significant first; b'0' for 0."""
    return bin(n)[:1:-1].encode("ascii")


def _rbitstr2nat(bs: bytes | bytearray) -> int:
    """Evaluate a little-endian ASCII bit string; the empty string is 0."""
    return int(bs[::-1], 2) if bs else 0


def to_base(base: int, n: int) -> DigitList:
    """Expand n in the given base; the last digit is nonzero except for 0 itself.

    Power-of-two bases cut n's bit string into fixed-width digits (linear);
    other bases divide repeatedly (quadratic in the bit length).
    """
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
        return DigitList(base, tuple(digits))
    digits = []
    while True:
        n, d = divmod(n, base)
        digits.append(d)
        if n == 0:
            return DigitList(base, tuple(digits))


def from_base(base: int, ds: DigitList | Iterable[int]) -> int:
    """Evaluate little-endian digits: sum of ds[i] * base**i.

    Power-of-two bases are parsed as one digit string (linear); other
    bases run a Horner loop (quadratic in the bit length).
    """
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
    n = 0
    for d in reversed(digits):
        n = n * base + d
    return n


def to_rbits(n: int) -> list[int]:
    """Bits of n, least significant first; to_rbits(0) == [0]."""
    _check_natural(n)
    return list(_rbitstr(n).translate(_BIT_VALUES))


def from_rbits(bs: Iterable[int]) -> int:
    """Evaluate a little-endian bit list."""
    return from_base(2, bs)


def to_rbits0(n: int) -> list[int]:
    """Like to_rbits, except 0 maps to the empty list."""
    return [] if n == 0 else to_rbits(n)


def to_maxbits(maxbits: int, n: int) -> list[int]:
    """Bits of n zero-padded on the high side to exactly maxbits positions."""
    bs = to_rbits(n)
    if len(bs) > maxbits:
        raise OverflowError(f"{n} needs {len(bs)} bits, limit is {maxbits}")
    return bs + [0] * (maxbits - len(bs))


def bitcount(n: int) -> int:
    """Length of to_rbits(n): the least x >= 1 with 2**x > n."""
    _check_natural(n)
    return max(1, n.bit_length())


def max_bitcount(ns: Iterable[int]) -> int:
    """Largest bitcount over ns; 0 when ns is empty."""
    return max(map(bitcount, ns), default=0)
