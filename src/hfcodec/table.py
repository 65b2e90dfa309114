"""The codec table: one row per codec, in the order of the CLI's --codec.

A flat row holds a decoder (natural -> list), the encoder that inverts
it, and draw(rng, bits), a random valid structure whose code is below
2**bits, built without decoding.  A tree row holds an hftree codec maker
and the style render prints it in.  The CLI, selfcheck and the tests all
read these rows.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import hftree, pairing, permcodec, setfun


class FlatRow(NamedTuple):
    """decode and encode invert each other; arities, unless None, says that
    decode takes an arity first, and which arities selfcheck and the tests run."""

    name: str
    decode: Callable[..., Sequence[int]]
    encode: Callable[[Sequence[int]], int]
    draw: Callable[[random.Random, int], Sequence[int]]
    arities: range | None = None

    def decoder(self, arity: int | None = None) -> Callable[[int], Sequence[int]]:
        """decode, with the arity bound first for a codec that takes one."""
        return self.decode if self.arities is None else partial(self.decode, arity)


class TreeRow(NamedTuple):
    """A tree codec: its maker (ulimit -> Codec) and the style render prints it in."""

    name: str
    make: Callable[[int], hftree.Codec]
    style: hftree.RenderStyle


def _pair_row(name: str, unpair: Callable[[int], tuple[int, int]],
              pair: Callable[[int, int], int],
              draw: Callable[[random.Random, int], tuple[int, int]]) -> FlatRow:
    def encode(values: Sequence[int]) -> int:
        if len(values) != 2:
            raise ValueError(f"{name} expects a pair [x,y], got {len(values)} values")
        return pair(*values)
    return FlatRow(name, unpair, encode, draw)


# --- draws: random valid structures with codes below 2**bits ------------

def _draw_set(rng: random.Random, bits: int) -> list[int]:
    return sorted(rng.sample(range(bits), rng.randint(0, bits)))


def _draw_gaps(rng: random.Random, bits: int) -> list[int]:
    # naturals whose (v + 1)s sum to at most bits: a function or a list of
    # runs that many bits long
    s = _draw_set(rng, bits)
    return [b - a - 1 for a, b in zip([-1, *s], s)]


def _draw_tuple(rng: random.Random, bits: int, k: int) -> list[int]:
    # k components of at most bits // k bits each merge to at most bits bits
    return [rng.getrandbits(rng.randint(0, bits // k)) for _ in range(k)]


def _draw_ftuple(rng: random.Random, bits: int) -> list[int]:
    # a length-k tuple of w-bit components codes to at most k * (w + 1) bits
    k = rng.randint(0, min(bits, 8))
    ns = _draw_tuple(rng, bits - k, k) if k else []
    return [] if ns == [0] else ns  # [0] has no code


def _draw_pepis(rng: random.Random, bits: int) -> tuple[int, int]:
    # 2**x * (2y + 1) - 1 has x + 1 + bit_length(y) bits
    x = rng.randint(0, max(bits - 1, 0))
    return x, rng.getrandbits(rng.randint(0, max(bits - 1 - x, 0)))


def _max_size(bits: int) -> int:
    """The largest size k with 2 * k! <= 2**bits (0 if there is none)."""
    k, f = 0, 1  # f == k!
    while 2 * f * (k + 1) <= 1 << bits:
        k += 1
        f *= k
    return k


def _draw_perm(rng: random.Random, bits: int) -> list[int]:
    # a size-k permutation codes below sf(k + 1) <= 2 * k!
    ps = list(range(rng.randint(0, _max_size(bits))))
    rng.shuffle(ps)
    return ps


def _draw_factoradic(rng: random.Random, bits: int) -> list[int]:
    # k digits, digit i at most i, code below k!; no high zero but the lone 0
    ds = [rng.randint(0, i) for i in range(rng.randint(1, max(_max_size(bits), 1)))]
    while len(ds) > 1 and ds[-1] == 0:
        ds.pop()
    return ds


_ARITIES = range(1, 9)

FLAT: dict[str, FlatRow] = {row.name: row for row in (
    FlatRow("set", setfun.nat2set, setfun.set2nat, _draw_set),
    FlatRow("fun", setfun.nat2fun, setfun.fun2nat, _draw_gaps),
    FlatRow("ftuple", pairing.nat2ftuple, pairing.ftuple2nat, _draw_ftuple),
    FlatRow("rle", setfun.nat2rle, setfun.rle2nat, _draw_gaps),
    FlatRow("perm", permcodec.nat2perm, permcodec.perm2nat, _draw_perm),
    FlatRow("factoradic-r", permcodec.fr, permcodec.rf, _draw_factoradic),
    FlatRow("factoradic-l", permcodec.fl, permcodec.lf,
            lambda rng, bits: _draw_factoradic(rng, bits)[::-1]),
    # cantor codes x, y below 2**w below 2**(2w + 1)
    _pair_row("pair-cantor", pairing.cantor_unpair, pairing.cantor_pair,
              lambda rng, bits: tuple(_draw_tuple(rng, max(bits - 1, 0), 2))),
    _pair_row("pair-pepis", pairing.pepis_unpair, pairing.pepis_pair, _draw_pepis),
    _pair_row("pair-bitmerge", pairing.bitmerge_unpair,
              lambda x, y: pairing.bitmerge_pair((x, y)),
              lambda rng, bits: tuple(_draw_tuple(rng, bits, 2))),
    FlatRow("tuple", pairing.to_tuple, pairing.from_tuple,
            lambda rng, bits: _draw_tuple(rng, bits, rng.choice(_ARITIES)), _ARITIES),
)}

TREE: dict[str, TreeRow] = {row.name: row for row in (
    TreeRow("hfs", hftree.codec_hfs, hftree.SET_STYLE),
    TreeRow("hff", hftree.codec_hff, hftree.FUN_STYLE),
    TreeRow("hff1", hftree.codec_hff1, hftree.FUN_STYLE),
    TreeRow("hff2", hftree.codec_hff2, hftree.FUN_STYLE),
    TreeRow("hfp", hftree.codec_hfp, hftree.FUN_STYLE),
)}
