"""Bijections between natural numbers and combinatorial structures.

Every encoder here is exactly invertible: finite sets ride on bit
positions, finite functions on gap-coded bit positions, permutations on
factoradics and Lehmer codes, and each flat codec lifts to trees by
decoding every child recursively.  Atoms below a chosen bound (ulimit)
stay opaque leaf values, which turns the pure set universe into one with
urelements.

The ``hfcodec`` command line tool fronts the same codecs; run
``hfcodec selfcheck`` to verify every law on your installation.
"""

from .natbits import (
    DigitList,
    bitcount,
    from_base,
    from_rbits,
    max_bitcount,
    to_base,
    to_maxbits,
    to_rbits,
    to_rbits0,
)
from .pairing import (
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    cantor_unpair,
    from_tuple,
    ftuple2nat,
    nat2ftuple,
    pepis_pair,
    pepis_unpair,
    to_tuple,
)
from .setfun import (
    bits2rle,
    fun2nat,
    fun2set,
    nat2fun,
    nat2rle,
    nat2set,
    rle2bits,
    rle2nat,
    set2fun,
    set2nat,
)
from .permcodec import (
    fl,
    fr,
    lehmer2perm,
    lf,
    nat2perm,
    nth2perm,
    perm2lehmer,
    perm2nat,
    perm2nth,
    rf,
    sf,
    to_sf,
)
from .hftree import (
    FUN_STYLE,
    SET_STYLE,
    Atom,
    Codec,
    Dag,
    DagNode,
    Forest,
    ParseError,
    RenderStyle,
    Tree,
    codec_hff,
    codec_hff1,
    codec_hff2,
    codec_hfp,
    codec_hfs,
    dag_to_dot,
    deserialize,
    enumerate_trees,
    fun_show,
    fun_show1,
    fun_show2,
    hff2nat,
    hff2nat1,
    hff2nat2,
    hfp2nat,
    hfs2nat,
    nat2hff,
    nat2hff1,
    nat2hff2,
    nat2hfp,
    nat2hfs,
    perm_show,
    rank,
    render,
    serialize,
    set_show,
    to_dag,
    to_dot,
    unrank,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # selfcheck and the codec table load on first use, not at start-up
    if name == "run_selfcheck":
        from .selfcheck import run_selfcheck
        return run_selfcheck
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DigitList", "to_base", "from_base", "to_rbits", "from_rbits", "to_rbits0",
    "to_maxbits", "bitcount", "max_bitcount",
    "cantor_pair", "cantor_unpair", "pepis_pair", "pepis_unpair",
    "bitmerge_pair", "bitmerge_unpair", "to_tuple", "from_tuple",
    "ftuple2nat", "nat2ftuple",
    "set2nat", "nat2set", "fun2set", "set2fun", "fun2nat", "nat2fun",
    "bits2rle", "rle2bits", "nat2rle", "rle2nat",
    "fr", "rf", "fl", "lf", "perm2lehmer", "lehmer2perm",
    "nth2perm", "perm2nth", "sf", "to_sf", "nat2perm", "perm2nat",
    "Atom", "Forest", "Tree", "Codec",
    "codec_hfs", "codec_hff", "codec_hff1", "codec_hff2", "codec_hfp",
    "unrank", "rank", "enumerate_trees",
    "nat2hfs", "hfs2nat", "nat2hff", "hff2nat", "nat2hff1", "hff2nat1",
    "nat2hff2", "hff2nat2", "nat2hfp", "hfp2nat",
    "RenderStyle", "SET_STYLE", "FUN_STYLE", "render",
    "set_show", "fun_show", "fun_show1", "fun_show2", "perm_show",
    "serialize", "deserialize", "ParseError",
    "Dag", "DagNode", "to_dag", "dag_to_dot", "to_dot",
    "run_selfcheck",
]
