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
top-down and multiply bottom-up along a balanced binary tree whose leaves
hold _RADIX_LEAF radices (Bernstein, "Fast multiplication and its
applications", 2008, §§12-18; Knuth, TAOCP Vol. 2 §4.4).  Both use only
the radix product of each pair's left node, and that node covers a whole
aligned block of the radices: 1, 2, 3, ... for factoradics, so the block
is the same for every digit count, or one base repeated, so every block
of a level is the same power.  Factorial blocks are kept between calls
in ``_FACTORIAL_BLOCKS``, filled on first use and bounded at 546,416
bytes (the blocks up to radix 2**15; past it they are made per call); a
base's powers are made once per call by squaring (Brent & Zimmermann,
"Modern Computer Arithmetic", 2010, §1.7).  That memo is a table of
constants like permcodec's factorials: no code or digit is kept.  The
big multiplications run inside the interpreter's integer code, and the
big divisions in ``_divmod``, which reduces each to Karatsuba products,
so a conversion takes a few big operations per tree level instead of one
Python step per digit, and is subquadratic in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, prod
from typing import Iterable, Iterator, Sequence

# Codes of at most this many bits stay off the bit string: nat2set (setfun)
# concatenates one table tuple per byte of the code, to_tuple and
# from_tuple (pairing) at arity 2 and 3 gather and spread the code's bytes
# through tables, set2nat and fun2nat (setfun) and from_tuple at other
# arities loop over the set bits, checking each element inside the loop,
# and rle2nat (setfun) undoes its XOR in five fixed steps; bigger codes go
# through a bit string.  The cut is set by those loops, timed against the
# string paths on the calls each workload of the benchmark makes (recorded,
# then best of 15 interleaved timings; CPython 3.11.7 on a shared 2-vCPU VM).
# set2nat and fun2nat get codes of at most 20 bits in small-enum and, but
# for a handful, at most 12 in wide-tree; there the loops take 0.3-0.6 of
# the string's time.  On random half-full sets set2nat's loop still wins at
# 32 bits (1.52 against 1.58 us) and loses from 36.  from_tuple's calls in
# small-enum stop at 20 bits; in big-flat's hff1 trees its loop wins up to
# 24 bits and loses from 25 (2.50 against 2.10 us at 25 bits, 5.7 against
# 4.1 at 32), but those 25-32-bit calls add up to about 5 ms of a 15 s
# run.  So no workload's calls say to move the cut, and it stays at 32,
# which nat2set's four byte tables cover.  to_tuple at arities above 3
# has no such loop: its divmod per set bit already lost to slicing at 16
# bits.
_LOOP_BITS = 32

# digits of int() and format() for the power-of-two bases up to 32; in
# particular '0'/'1' characters <-> bit values 0/1, for bytes.translate
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuv"
_CHAR_VALUES = bytes.maketrans(_DIGIT_CHARS, bytes(range(32)))
_VALUE_CHARS = bytes.maketrans(bytes(range(32)), _DIGIT_CHARS)
_FORMAT_CODES = {2: "b", 8: "o", 16: "x"}

# A mixed-radix conversion of at most this many digits is one
# digit-at-a-time loop; longer ones go through a binary tree whose leaves
# each hold this many radices and run that loop.  The tree wins from about
# 200 factorial or decimal digits up.  Re-timed with warm factorial blocks
# (CPython 3.11.7, 2-vCPU Xeon VM, best of 25 interleaved), in ms for
# leaves of 64 / 128 / 256 radices at 65536 bits: fr 3.18 / 3.65 / 4.28,
# rf 2.06 / 2.08 / 2.14, to_base(10, n) 4.18 / 4.45 / 5.27, from_base(10,
# ds) 3.03 / 2.98 / 2.97; at 262144 bits fr 24.3 / 25.7 / 28.8.  Leaves
# of 64 split faster, but this is also permcodec's cut between its one-loop
# permutation kernels and the tree, so it stays at 128 until the benchmark's
# workloads, not only these calls, say to move it.
_RADIX_LEAF = 128

# Factorial radix products of whole tree nodes, (lo, width) -> (lo + 1) *
# ... * (lo + width), kept between conversions by _factorial_block; empty
# at import.  Only blocks that end at or below radix 2**15 are kept: they
# cover every factoradic of up to 32768 digits, that is of codes below
# 32768!, which has 444255 bits: past the CLI's 262144-bit decimal budget.
_BLOCK_RADICES = 1 << 15
_FACTORIAL_BLOCKS: dict[tuple[int, int], int] = {}


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
            raise ValueError(f"base must be >= 2, got {_int_text(self.base)}")
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if type(d) is not int:
                raise TypeError(f"digits must be ints, got {type(d).__name__}")
            if not 0 <= d < self.base:
                raise ValueError(f"digit {_int_text(d)} out of range for base {_int_text(self.base)}")

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


# _divmod hands a division to the built-in divmod once its quotient has at
# most this many bits, the value CPython 3.12's Lib/_pylong.py uses.  Re-timed
# with warm factorial blocks on CPython 3.11.7 (best of 25 interleaved, 10
# at 262144 bits; 2-vCPU Xeon VM), in ms for a limit of 2000 / 4000 / 8000
# bits: fr 3.10 / 3.24 / 3.44 at 65536 bits and 23.1 / 23.9 / 25.1 at
# 262144; to_base(10, n) 4.01 / 4.06 / 4.30 and 27.4 / 27.9 / 29.1; the
# CLI's decimal output 1.86 / 1.78 / 2.00 and 16.1 / 16.8 / 17.1.  No value
# measures better on all of them beyond the noise.
_DIV_LIMIT = 4000


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for naturals a and b > 0, in the time of a few products.

    CPython 3.11's divmod is quadratic; this is Burnikel & Ziegler's 2n-by-n
    recursion ("Fast Recursive Division", MPI-I-98-1-022, 1998), so its
    time goes into Karatsuba products.  A quotient longer than b is made
    to fit by shifting both operands left by s, which leaves it unchanged.
    From 3.12 the built-in recurses the same way for big operands; 3.12
    and 3.13 were not timed with this one in front of it.
    """
    n = b.bit_length()
    s = max(0, a.bit_length() - 2 * n + 1)  # then a << s < 2**(n + s) * (b << s)
    q, r = _div2n1n(a << s, b << s, n + s)
    return q, r >> s


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    # 2**(n-1) <= b < 2**n and a < 2**n * b: the quotient fits in n bits
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1  # an even n halves exactly
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    # (a12 << n | a3) divided by b == b1 << n | b2, for a12 < b: one
    # half-size division by b1 guesses a quotient at most 2 too high
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _factorial_block(lo: int, width: int, spill: dict[tuple[int, int], int]) -> int:
    """(lo + 1) * (lo + 2) * ... * (lo + width): the factorial radices under
    one tree node, whose width is _RADIX_LEAF << level and lo a multiple of it.

    A block that ends at or below _BLOCK_RADICES is kept in
    _FACTORIAL_BLOCKS, any other in spill, the calling conversion's own
    dict.  A missing block is the product of its two halves, and at the
    leaf width the product of its radices, so no block is made twice.
    Full, _FACTORIAL_BLOCKS holds the 511 blocks of widths 128 to 32768,
    546,416 bytes by sys.getsizeof (64-bit CPython 3.11 to 3.13).
    """
    memo = _FACTORIAL_BLOCKS if lo + width <= _BLOCK_RADICES else spill
    p = memo.get((lo, width))
    if p is None:
        if width > _RADIX_LEAF:
            half = width >> 1
            p = _factorial_block(lo, half, spill) * _factorial_block(lo + half, half, spill)
        else:
            p = prod(range(lo + 1, lo + width + 1))
        memo[lo, width] = p
    return p


def _left_products(k: int, base: int | None) -> list[list[int]]:
    """Per level of the radix tree over k radices, from the leaves up to the
    level of two nodes: the radix product of the left node of each pair.

    Each such node covers a whole block of w = _RADIX_LEAF << level
    radices.  Factorial blocks (base None) come from _factorial_block; for
    one repeated base every block of a level is base ** w, made once per
    call by squaring the level below.
    """
    levels = []
    width, count = _RADIX_LEAF, -(-k // _RADIX_LEAF)  # count nodes of width radices
    spill: dict[tuple[int, int], int] = {}
    power = base
    while count > 1:
        if base is None:
            levels.append([_factorial_block(2 * i * width, width, spill) for i in range(count // 2)])
        else:
            power = power ** _RADIX_LEAF if width == _RADIX_LEAF else power * power
            levels.append([power] * (count // 2))
        width, count = 2 * width, (count + 1) // 2
    return levels


def _leaf_radices(lo: int, count: int, base: int | None) -> Sequence[int]:
    """The count radices after the first lo: lo + 1, lo + 2, ... or base each."""
    return range(lo + 1, lo + count + 1) if base is None else [base] * count


def _split_leaf(n: int, radices: Sequence[int], digits: list[int]) -> None:
    """Append n's digits in radices to digits: the digit-at-a-time loop."""
    for r in radices:
        n, d = divmod(n, r)
        digits.append(d)


def _join_leaf(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Evaluate digits in radices: the digit-at-a-time loop, from the top."""
    n = 0
    for r, d in zip(reversed(radices), reversed(digits)):
        n = n * r + d
    return n


def _radix_split(n: int, k: int, base: int | None = None) -> list[int]:
    """Digits of n in k radices r, the factorial ones 1, 2, ..., k (base
    None) or base repeated: n == d[0] + r[0] * (d[1] + r[1] * (...)).

    Digit i is below r[i], high zeros kept; n must be below the product of
    all k radices.  Above _RADIX_LEAF radices, n is cut top-down along a
    tree whose leaves hold _RADIX_LEAF radices each, dividing by the radix
    product of each pair's left node.
    """
    digits: list[int] = []
    if k <= _RADIX_LEAF:
        _split_leaf(n, _leaf_radices(0, k, base), digits)
        return digits
    values = [n]  # one per node of the level above the one being cut
    for left in reversed(_left_products(k, base)):
        cut = []
        for v, w in zip(values, left):
            high, low = _divmod(v, w)
            cut += low, high
        if len(values) > len(left):  # the odd last node came up alone
            cut.append(values[-1])
        values = cut
    for lo, v in zip(range(0, k, _RADIX_LEAF), values):
        _split_leaf(v, _leaf_radices(lo, min(_RADIX_LEAF, k - lo), base), digits)
    return digits


def _radix_join(digits: Sequence[int], base: int | None = None) -> int:
    """Evaluate d[0] + r[0] * (d[1] + r[1] * (...)); inverse of _radix_split.

    The radices are 1, 2, 3, ... (base None) or base repeated, one per digit
    (the last is never used); digits may exceed their radix.  Above
    _RADIX_LEAF digits, neighbouring values merge up from the leaves as
    v + w * u, w the radix product of the pair's left node.
    """
    k = len(digits)
    if k <= _RADIX_LEAF:
        return _join_leaf(digits, _leaf_radices(0, k, base))
    values = [_join_leaf(digits[lo:lo + _RADIX_LEAF], _leaf_radices(lo, min(_RADIX_LEAF, k - lo), base))
              for lo in range(0, k, _RADIX_LEAF)]
    for left in _left_products(k, base):
        up = [v + w * u for v, w, u in zip(values[::2], left, values[1::2])]
        if len(values) % 2:  # an odd last value moves up alone
            up.append(values[-1])
        values = up
    return values[0]


def to_base(base: int, n: int) -> DigitList:
    """Expand n in the given base; the last digit is nonzero except for 0 itself.

    Power-of-two bases cut n's bit string into fixed-width digits (linear);
    other bases divide n top-down by the powers base**(2**j * _RADIX_LEAF).
    """
    _check_int(base, "base")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {_int_text(base)}")
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
        digits = _radix_split(n, size, base)
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
        raise ValueError(f"base must be >= 2, got {_int_text(base)}")
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
    return _radix_join(digits, base)


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
