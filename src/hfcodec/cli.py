"""hfcodec command line tool.

Subcommands: decode (number -> structure), encode (structure -> number),
enumerate (stream consecutive decodes), show and dot (rendered forms of
tree decodes), and selfcheck (run every codec law).  Exit codes: 0 on
success, 1 when selfcheck finds a broken law, 2 on usage, parse, or
domain errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from typing import Callable, Sequence

from . import hftree, pairing, permcodec, selfcheck, setfun

_DEFAULT_DEPTH_LIMIT = 1_000_000


class UsageError(ValueError):
    """Bad flag combination or malformed input; maps to exit code 2."""


# ASCII digits only: int() alone also takes signs, underscores and other digits
_HEX = re.compile(r"0[xX][0-9a-fA-F]+")


def _parse_natural(text: str) -> int:
    # decimal skips the regex: lists parse one short token at a time
    s = text.strip()
    if s.isascii() and s.isdigit():
        return int(s)
    if not _HEX.fullmatch(s):
        raise UsageError(f"not a natural number: {text!r}")
    return int(s, 16)  # base 16 takes the 0x prefix


def _parse_nat_list(text: str) -> list[int]:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise UsageError(f"expected a bracketed list like [1,0,2], got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return []
    return [_parse_natural(tok) for tok in inner.split(",")]


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
    return "[" + ",".join(str(v) for v in values) + "]"


def _check_flags(args: argparse.Namespace) -> None:
    codec = args.codec
    if args.ulimit and codec not in hftree.TREE_CODECS:
        raise UsageError(f"--ulimit applies to tree codecs only, not {codec!r}")
    if args.arity is not None and codec != "tuple":
        raise UsageError("--arity applies to the tuple codec only")
    if args.sized and codec != "perm":
        raise UsageError("--sized applies to the perm codec only")
    if codec == "tuple" and args.arity is None and args.command != "encode":
        raise UsageError("the tuple codec needs --arity")


def _resolve_format(codec: str, fmt: str | None, command: str) -> str:
    if fmt is None:
        fmt = "tree" if codec in hftree.TREE_CODECS else "list"
    if fmt in ("show", "tree", "dot") and codec not in hftree.TREE_CODECS:
        raise UsageError(f"format {fmt!r} needs a tree codec, not {codec!r}")
    if fmt == "list" and codec in hftree.TREE_CODECS:
        raise UsageError(f"format 'list' needs a flat codec, not {codec!r}")
    if fmt == "dot" and command == "enumerate":
        raise UsageError("format 'dot' is multi-line and cannot be streamed")
    return fmt


def _pair_encoder(name: str, pair: Callable[[int, int], int]) -> Callable[[list[int]], int]:
    def encode(values: list[int]) -> int:
        if len(values) != 2:
            raise UsageError(f"{name} expects a pair [x,y], got {len(values)} values")
        return pair(*values)
    return encode


# every flat codec by its CLI name: (decode, encode); tuple's decode takes --arity first
_FLAT: dict[str, tuple[Callable[..., Sequence[int]], Callable[[list[int]], int]]] = {
    "set": (setfun.nat2set, setfun.set2nat),
    "fun": (setfun.nat2fun, setfun.fun2nat),
    "ftuple": (pairing.nat2ftuple, pairing.ftuple2nat),
    "rle": (setfun.nat2rle, setfun.rle2nat),
    "perm": (permcodec.nat2perm, permcodec.perm2nat),
    "factoradic-r": (permcodec.fr, permcodec.rf),
    "factoradic-l": (permcodec.fl, permcodec.lf),
    "pair-cantor": (pairing.cantor_unpair,
                    _pair_encoder("pair-cantor", pairing.cantor_pair)),
    "pair-pepis": (pairing.pepis_unpair,
                   _pair_encoder("pair-pepis", pairing.pepis_pair)),
    "pair-bitmerge": (pairing.bitmerge_unpair,
                      _pair_encoder("pair-bitmerge", lambda x, y: pairing.bitmerge_pair((x, y)))),
    "tuple": (pairing.to_tuple, pairing.from_tuple),
}
CODEC_NAMES = (*_FLAT, *hftree.TREE_CODECS)


def _decoder(args: argparse.Namespace, fmt: str) -> Callable[[int], str]:
    """The function from a code to its output line; each command builds it once.

    decimal echoes the code without decoding it, for every codec.
    """
    if fmt == "decimal":
        return str
    make = hftree.TREE_CODECS.get(args.codec)
    if make is None:
        decode = _FLAT[args.codec][0]
        if args.arity is not None:  # _check_flags allows --arity on tuple only
            decode = partial(decode, args.arity)
        return lambda n: _format_list(decode(n))
    codec, max_depth = make(args.ulimit), _depth_limit()
    style = hftree.SET_STYLE if args.codec == "hfs" else hftree.FUN_STYLE
    text = {"tree": hftree.serialize, "dot": hftree.to_dot,
            "show": partial(hftree.render, style, args.ulimit)}[fmt]
    return lambda n: text(hftree.unrank(codec, n, max_depth=max_depth))


def _cmd_decode(args: argparse.Namespace) -> int:
    _check_flags(args)
    fmt = _resolve_format(args.codec, args.format, args.command)
    if args.sized:
        if fmt != "list":
            raise UsageError(f"--sized prints a permutation list, not format {fmt!r}")
        parts = args.value.split()
        if len(parts) != 2:
            raise UsageError(f"--sized expects 'SIZE RANK', got {args.value!r}")
        size, rank_ = map(_parse_natural, parts)
        print(_format_list(permcodec.nth2perm((size, rank_))))
        return 0
    n = _parse_natural(args.value)  # a bad value is reported before a bad depth limit
    print(_decoder(args, fmt)(n))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    _check_flags(args)
    make = hftree.TREE_CODECS.get(args.codec)
    if make is not None:
        tree = hftree.deserialize(args.structure, max_depth=_depth_limit())
        print(hftree.rank(make(args.ulimit), tree))
        return 0
    values = _parse_nat_list(args.structure)
    if args.sized:
        size, rank_ = permcodec.perm2nth(values)
        print(f"{size} {rank_}")
        return 0
    if args.arity is not None and args.arity != len(values):
        raise UsageError(f"--arity {args.arity} does not match {len(values)} values")
    print(_FLAT[args.codec][1](values))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_flags(args)
    fmt = _resolve_format(args.codec, args.format, args.command)
    decode = _decoder(args, fmt)
    for n in range(args.start, args.start + args.count):
        print(decode(n))
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
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
        p.add_argument("--ulimit", type=_parse_natural, default=0,
                       help="atom bound for tree codecs (default 0)")
        p.add_argument("--arity", type=_parse_natural, default=None,
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
    p.add_argument("start", type=_parse_natural, help="first number to decode")
    p.add_argument("count", type=_parse_natural, help="how many lines to print")
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
    p.add_argument("max_n", nargs="?", type=_parse_natural, default=1000,
                   help="exhaustive range bound (default 1000)")
    p.add_argument("seed", nargs="?", type=_parse_natural, default=13,
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
