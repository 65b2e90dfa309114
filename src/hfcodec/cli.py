"""hfcodec command line tool.

Subcommands: decode (number -> structure), encode (structure -> number),
enumerate (stream consecutive decodes), show and dot (rendered forms of
tree decodes), and selfcheck (run every codec law).  Exit codes: 0 on
success, 1 when selfcheck finds a broken law, 2 on usage, parse, or
domain errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial
from typing import Callable, Sequence

from . import hftree, permcodec, table
from .natbits import _int_text

_DEFAULT_DEPTH_LIMIT = 1_000_000


class UsageError(ValueError):
    """Bad flag combination or malformed input; maps to exit code 2."""


# ASCII digits only: int() alone also takes signs, underscores and other digits
_HEX = re.compile(r"0[xX][0-9a-fA-F]+")

# Decimals past the interpreter's int/str digit limit (4300 digits by
# default) are cut into chunks of _CHUNK digits, the lowest limit the
# interpreter allows, by the powers 10**(_CHUNK * 2**j) (Brent &
# Zimmermann, "Modern Computer Arithmetic", 2010, 1.7).  On CPython 3.11
# both directions are quadratic, as str() and int() are, so they stop at
# _DECIMAL_BITS; hex has no limit and no budget.  On 3.11.7 output took
# 5 / 75 / 1200 ms at 65536 / 262144 / 1048576 bits, against 7 / 116 /
# 1860 ms for str() with the limit lifted, and input took 2 / 15 / 130 ms,
# against 3.5 / 59 / 830 ms for int().
_DECIMAL_BITS = 1 << 18
_DECIMAL_DIGITS = int(_DECIMAL_BITS * math.log10(2)) + 1  # of 2**_DECIMAL_BITS - 1
_CHUNK = sys.int_info.str_digits_check_threshold
# _POW10[j] == 10 ** (_CHUNK << j), squared up on demand; the budget stops it at j = 7
_POW10 = [10 ** _CHUNK]


def _pow10(j: int) -> int:
    while len(_POW10) <= j:
        _POW10.append(_POW10[-1] ** 2)
    return _POW10[j]


_HEX_HINT = "; write it in 0x hex"


def _over_budget(what: str, hint: str = "") -> UsageError:
    return UsageError(f"{what} is past the {_DECIMAL_BITS}-bit budget for decimals{hint}")


def _decimal(n: int) -> str:
    """str(n) for a natural, also past the digit limit up to _DECIMAL_BITS bits."""
    try:
        return str(n)
    except ValueError:  # past the digit limit
        pass
    if n.bit_length() > _DECIMAL_BITS:
        raise _over_budget(f"a {n.bit_length()}-bit result")
    j = 0
    while _pow10(j) <= n:
        j += 1
    return _chunked_str(n, j - 1)


def _chunked_str(n: int, j: int) -> str:
    # n < 10**(_CHUNK << (j + 1)); the caller pads the text of a low half
    if j < 0:
        return str(n)
    if n < _POW10[j]:
        return _chunked_str(n, j - 1)
    hi, lo = divmod(n, _POW10[j])
    return _chunked_str(hi, j - 1) + _chunked_str(lo, j - 1).zfill(_CHUNK << j)


def _big_int(digits: str) -> int:
    """int(digits) for ASCII digits past the digit limit, up to _DECIMAL_BITS bits."""
    s = digits.lstrip("0") or "0"
    if len(s) > _DECIMAL_DIGITS:  # checked before any conversion
        raise _over_budget(f"a {len(s)}-digit input", _HEX_HINT)
    j = 0
    while _CHUNK << j < len(s):
        j += 1
    n = _chunked_int(s, j - 1)
    if n.bit_length() > _DECIMAL_BITS:
        raise _over_budget(f"a {n.bit_length()}-bit input", _HEX_HINT)
    return n


def _chunked_int(s: str, j: int) -> int:
    # len(s) <= _CHUNK << (j + 1): one Karatsuba product joins the halves
    if j < 0:
        return int(s)
    w = _CHUNK << j
    if len(s) <= w:
        return _chunked_int(s, j - 1)
    return _chunked_int(s[:-w], j - 1) * _pow10(j) + _chunked_int(s[-w:], j - 1)


def _quote(text: str) -> str:
    """text quoted for an error message: whole up to 40 characters, else its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _parse_natural(text: str) -> int:
    # decimal skips the regex: lists parse one short token at a time;
    # bytes.isdigit scans a long token ~10x faster than str.isdigit
    s = text.strip()
    if s.isascii() and s.encode().isdigit():
        try:
            return int(s)
        except ValueError:  # past the digit limit
            return _big_int(s)
    if not _HEX.fullmatch(s):
        raise UsageError(f"not a natural number: {_quote(text)}")
    return int(s, 16)  # base 16 takes the 0x prefix


def _parse_nat_list(text: str) -> list[int]:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise UsageError(f"expected a bracketed list like [1,0,2], got {_quote(text)}")
    inner = s[1:-1].strip()
    if not inner:
        return []
    return [_parse_natural(tok) for tok in inner.split(",")]


def _natural_arg(text: str) -> int:
    """_parse_natural for argparse, which prints an ArgumentTypeError's own message."""
    try:
        return _parse_natural(text)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _depth_limit() -> int:
    raw = os.environ.get("HFCODEC_RECURSION_LIMIT")
    if raw is None:
        return _DEFAULT_DEPTH_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise UsageError(f"HFCODEC_RECURSION_LIMIT must be an integer, got {raw!r}")
    if limit < 1:
        raise UsageError(f"HFCODEC_RECURSION_LIMIT must be >= 1, got {limit}")
    return limit


def _format_list(values: Sequence[int]) -> str:
    try:
        return "[" + ",".join(map(str, values)) + "]"
    except ValueError:  # a value past the digit limit
        return "[" + ",".join(map(_decimal, values)) + "]"


def _check_flags(args: argparse.Namespace) -> None:
    codec = args.codec
    flat = table.FLAT.get(codec)  # None for a tree codec
    if args.ulimit and flat is not None:
        raise UsageError(f"--ulimit applies to tree codecs only, not {codec!r}")
    takes_arity = flat is not None and flat.arities is not None
    if args.arity is not None and not takes_arity:
        raise UsageError("--arity applies to the tuple codec only")
    if args.sized and codec != "perm":
        raise UsageError("--sized applies to the perm codec only")
    if takes_arity and args.arity is None and args.command != "encode":
        raise UsageError("the tuple codec needs --arity")


def _resolve_format(codec: str, fmt: str | None, command: str) -> str:
    if fmt is None:
        fmt = "tree" if codec in table.TREE else "list"
    if fmt in ("show", "tree", "dot") and codec not in table.TREE:
        raise UsageError(f"format {fmt!r} needs a tree codec, not {codec!r}")
    if fmt == "list" and codec in table.TREE:
        raise UsageError(f"format 'list' needs a flat codec, not {codec!r}")
    if fmt == "dot" and command == "enumerate":
        raise UsageError("format 'dot' is multi-line and cannot be streamed")
    return fmt


CODEC_NAMES = (*table.FLAT, *table.TREE)


def _decoder(args: argparse.Namespace, fmt: str) -> Callable[[int], str]:
    """The function from a code to its output line; each command builds it once.

    decimal echoes the code without decoding it, for every codec.
    """
    if fmt == "decimal":
        return _decimal
    row = table.TREE.get(args.codec)
    if row is None:
        decode = table.FLAT[args.codec].decoder(args.arity)
        return lambda n: _format_list(decode(n))
    codec, max_depth = row.make(args.ulimit), _depth_limit()
    text = {"tree": hftree.serialize, "dot": hftree.to_dot,
            "show": partial(hftree.render, row.style, args.ulimit)}[fmt]
    return lambda n: text(hftree.unrank(codec, n, max_depth=max_depth))


def _cmd_decode(args: argparse.Namespace) -> int:
    _check_flags(args)
    fmt = _resolve_format(args.codec, args.format, args.command)
    if args.sized:
        if fmt != "list":
            raise UsageError(f"--sized prints a permutation list, not format {fmt!r}")
        parts = args.value.split()
        if len(parts) != 2:
            raise UsageError(f"--sized expects 'SIZE RANK', got {_quote(args.value)}")
        size, rank_ = map(_parse_natural, parts)
        print(_format_list(permcodec.nth2perm((size, rank_))))
        return 0
    n = _parse_natural(args.value)  # a bad value is reported before a bad depth limit
    print(_decoder(args, fmt)(n))
    return 0


# the exact bit length of a code, read off its list: these encoders build
# a bit string (pair-pepis a power of two) that long, so _cmd_encode refuses
# a code past the budget before making it ('[100000000]' took 0.26 s and
# 128 MB to be refused after, pair-pepis '[100000000,0]' peaked at 26.7 MB).
# A list that is not a pair reads 0 bits, so the pair row's encoder reports it
_CODE_BITS: dict[str, Callable[[Sequence[int]], int]] = {
    "set": lambda s: s[-1] + 1 if s else 0,
    "fun": lambda f: sum(f) + len(f),
    "rle": lambda f: sum(f) + len(f),
    # 2**x * (2y + 1) - 1
    "pair-pepis": lambda p: (p[0] + (2 * p[1] + 1).bit_length() - (p[1] == 0)
                             if len(p) == 2 else 0),
}


def _cmd_encode(args: argparse.Namespace) -> int:
    _check_flags(args)
    row = table.TREE.get(args.codec)
    if row is not None:
        tree = hftree.deserialize(args.structure, max_depth=_depth_limit())
        print(_decimal(hftree.rank(row.make(args.ulimit), tree)))
        return 0
    values = _parse_nat_list(args.structure)
    if args.sized:
        size, rank_ = permcodec.perm2nth(values)
        print(f"{size} {_decimal(rank_)}")
        return 0
    if args.arity is not None and args.arity != len(values):
        raise UsageError(f"--arity {_int_text(args.arity)} does not match {len(values)} values")
    code_bits = _CODE_BITS.get(args.codec)
    # a code past the budget has at least _DECIMAL_DIGITS digits, so under
    # a lower digit limit _decimal is sure to refuse it
    if (code_bits is not None and (bits := code_bits(values)) > _DECIMAL_BITS
            and 0 < sys.get_int_max_str_digits() < _DECIMAL_DIGITS):
        raise _over_budget(f"a {bits}-bit result")
    print(_decimal(table.FLAT[args.codec].encode(values)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_flags(args)
    fmt = _resolve_format(args.codec, args.format, args.command)
    decode = _decoder(args, fmt)
    for n in range(args.start, args.start + args.count):
        print(decode(n))
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from . import selfcheck  # its only user: other commands skip loading it
    return 0 if selfcheck.run_selfcheck(args.max_n, args.seed) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfcodec",
        description="Bijective codecs between naturals and finite "
                    "sets, functions, permutations, and their tree liftings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_codec_flags(p: argparse.ArgumentParser, with_format: bool) -> None:
        p.add_argument("--codec", required=True, choices=CODEC_NAMES,
                       metavar="NAME",
                       help="one of: " + ", ".join(CODEC_NAMES))
        p.add_argument("--ulimit", type=_natural_arg, default=0,
                       help="atom bound for tree codecs (default 0)")
        p.add_argument("--arity", type=_natural_arg, default=None,
                       help="component count for the tuple codec")
        if with_format:
            p.add_argument("--format", default=None,
                           choices=("list", "show", "tree", "dot", "decimal"),
                           help="output form (default: list for flat codecs, "
                                "tree for tree codecs)")

    p = sub.add_parser("decode", help="turn a natural number into a structure")
    add_codec_flags(p, with_format=True)
    p.add_argument("--sized", action="store_true",
                   help="perm only: read 'SIZE RANK' instead of a single code")
    p.add_argument("value", help="natural number (decimal or 0x hex)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode", help="turn a structure into a natural number")
    add_codec_flags(p, with_format=False)
    p.add_argument("--sized", action="store_true",
                   help="perm only: print 'SIZE RANK' instead of a single code")
    p.add_argument("structure",
                   help="bracketed list for flat codecs, tree text for tree codecs")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("enumerate", help="decode a run of consecutive numbers")
    add_codec_flags(p, with_format=True)
    p.add_argument("start", type=_natural_arg, help="first number to decode")
    p.add_argument("count", type=_natural_arg, help="how many lines to print")
    p.set_defaults(func=_cmd_enumerate, sized=False)

    p = sub.add_parser("show", help="decode and render readably (tree codecs)")
    add_codec_flags(p, with_format=False)
    p.add_argument("value", help="natural number (decimal or 0x hex)")
    p.set_defaults(func=_cmd_decode, sized=False, format="show")

    p = sub.add_parser("dot", help="decode to a Graphviz shared-subtree graph")
    add_codec_flags(p, with_format=False)
    p.add_argument("value", help="natural number (decimal or 0x hex)")
    p.set_defaults(func=_cmd_decode, sized=False, format="dot")

    p = sub.add_parser("selfcheck", help="run every codec law; exit 1 on failure")
    p.add_argument("max_n", nargs="?", type=_natural_arg, default=1000,
                   help="exhaustive range bound (default 1000)")
    p.add_argument("seed", nargs="?", type=_natural_arg, default=13,
                   help="seed for the random big-value trials (default 13)")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


# one parser serves every call: parse_args returns a fresh namespace each time
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); leave quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OverflowError, RecursionError) as exc:
        print(f"hfcodec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
