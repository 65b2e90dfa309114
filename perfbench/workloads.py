"""The three workloads, as rounds of ops built from a seeded generator.

An op is one decode plus one encode of one input (in small-enum, of one
batch).  Each op is built before its clock starts, so input generation
and reference answers stay outside the timed region; its check runs
after the clock stops.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import dataclasses
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import hfcodec
from hfcodec import cli, hftree

import oracles as O
from oracles import Mismatch
from tracing import Tracer, layer_name

LIBRARY_FUNCTIONS = (
    "nat2set", "set2nat", "nat2fun", "fun2nat", "nat2rle", "rle2nat",
    "nat2ftuple", "ftuple2nat", "to_tuple", "from_tuple",
    "cantor_unpair", "cantor_pair", "pepis_unpair", "pepis_pair",
    "bitmerge_unpair", "bitmerge_pair", "nat2perm", "perm2nat",
    "fr", "rf", "fl", "lf", "to_base", "from_base",
    "unrank", "rank", "serialize", "render", "to_dot", "deserialize",
)
TREE_MAKERS = {
    "hfs": hftree.codec_hfs, "hff": hftree.codec_hff, "hff1": hftree.codec_hff1,
    "hff2": hftree.codec_hff2, "hfp": hftree.codec_hfp,
}


class CliFailure(Exception):
    """cli.main returned a nonzero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code, self.stderr = code, stderr

    @property
    def digit_limit(self) -> bool:
        """The interpreter's int/str digit limit refused a conversion."""
        return self.code == 2 and "integer string conversion" in self.stderr


class Lib:
    """The hfcodec entry points a workload calls.

    Untraced, these are the library's own functions.  Traced, each is
    wrapped in a span named after the module that owns it, and tree
    codecs get expand/collapse wrapped in rolled-up spans.  Attributes
    may be replaced (the benchmark's tests inject a wrong decoder).
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for name in LIBRARY_FUNCTIONS:
            fn = getattr(hfcodec, name)
            setattr(self, name, fn if tracer is None else tracer.span(layer_name(fn), fn))
        self._main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
        self.cli_calls = self.cli_failed = 0

    def codec(self, name: str, ulimit: int) -> hftree.Codec:
        c = TREE_MAKERS[name](ulimit)
        t = self.tracer
        if t is None:
            return c
        return dataclasses.replace(
            c,
            expand=t.rollup("hftree.expand", t.rollup(layer_name(c.expand), c.expand)),
            collapse=t.rollup("hftree.collapse", t.rollup(layer_name(c.collapse), c.collapse)),
        )

    def cli(self, argv: list[str]) -> str:
        """Run hfcodec.cli.main(argv) in-process; return its stdout."""
        out, err = io.StringIO(), io.StringIO()
        self.cli_calls += 1
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self._main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        if code:
            self.cli_failed += 1
            raise CliFailure(code, err.getvalue())
        return out.getvalue()


@dataclass
class Op:
    """One decode and one encode, with the check that judges them.

    decode() and encode(prepare(decoded)) are timed; prepare and check
    are not.  check(decoded, encoded) raises Mismatch on a wrong output
    and returns bytes for the run's output digest.
    """

    label: str
    objects: int
    decode: Callable[[], Any]
    encode: Callable[[Any], Any]
    check: Callable[[Any, Any], bytes]
    prepare: Callable[[Any], Any] = lambda d: d
    facts: dict = field(default_factory=dict)


def _list_digest(values) -> bytes:
    return ",".join(map(hex, values)).encode()


def _expect_n(n: int, encoded: int) -> None:
    if encoded != n:
        raise Mismatch("encode does not give back the input")


def random_bits(rng: random.Random, bits: int) -> int:
    """A natural with exactly `bits` bits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1))


# --- flat codecs ------------------------------------------------------------

@dataclass(frozen=True)
class Flat:
    """A flat codec: library decode/encode, CLI name and flags, and its check."""

    cli_name: str | None
    decode: Callable[[Lib, int], Any]
    encode: Callable[[Lib, Any], int]
    check: Callable[[int, Any], None]      # cheap enough for 65536-bit inputs
    oracle: Callable[[int], list] | None  # full reference decode, small inputs
    flags: tuple[str, ...] = ()


FLAT = {
    "set": Flat("set", lambda L, n: L.nat2set(n), lambda L, v: L.set2nat(v),
                O.equal_to(O.set_of), O.set_of),
    "fun": Flat("fun", lambda L, n: L.nat2fun(n), lambda L, v: L.fun2nat(v),
                O.equal_to(O.fun_of), O.fun_of),
    "rle": Flat("rle", lambda L, n: L.nat2rle(n), lambda L, v: L.rle2nat(v),
                O.equal_to(O.rle_of), O.rle_of),
    "ftuple": Flat("ftuple", lambda L, n: L.nat2ftuple(n), lambda L, v: L.ftuple2nat(v),
                   O.equal_to(O.ftuple_of), O.ftuple_of),
    "tuple": Flat("tuple", lambda L, n: L.to_tuple(3, n), lambda L, v: L.from_tuple(v),
                  O.equal_to(lambda n: O.deal(3, n)), lambda n: O.deal(3, n),
                  ("--arity", "3")),
    "pair-cantor": Flat("pair-cantor", lambda L, n: L.cantor_unpair(n),
                        lambda L, v: L.cantor_pair(*v), O.check_cantor, O.cantor_of),
    "pair-pepis": Flat("pair-pepis", lambda L, n: L.pepis_unpair(n),
                       lambda L, v: L.pepis_pair(*v), O.check_pepis, O.pepis_of),
    "pair-bitmerge": Flat("pair-bitmerge", lambda L, n: L.bitmerge_unpair(n),
                          lambda L, v: L.bitmerge_pair(tuple(v)),
                          O.equal_to(lambda n: O.deal(2, n)), lambda n: O.deal(2, n)),
    "perm": Flat("perm", lambda L, n: L.nat2perm(n), lambda L, v: L.perm2nat(v),
                 O.check_perm, O.perm_of),
    "factoradic-r": Flat("factoradic-r", lambda L, n: L.fr(n), lambda L, v: L.rf(v),
                         O.check_factoradic, O.fact_of),
    "factoradic-l": Flat("factoradic-l", lambda L, n: L.fl(n), lambda L, v: L.lf(v),
                         lambda n, v: O.check_factoradic(n, list(v)[::-1]),
                         lambda n: O.fact_of(n)[::-1]),
    "base2": Flat(None, lambda L, n: L.to_base(2, n), lambda L, v: L.from_base(2, v),
                  O.equal_to(lambda n: O.digits_of(2, n)), None),
    "base16": Flat(None, lambda L, n: L.to_base(16, n), lambda L, v: L.from_base(16, v),
                   O.equal_to(lambda n: O.digits_of(16, n)), None),
}
TREE_ORACLES = {"hfs": O.set_of, "hff": O.fun_of, "hff1": O.ftuple_of,
                "hff2": O.rle_of, "hfp": O.perm_of}


def flat_op(lib: Lib, name: str, n: int, via_cli: bool) -> Op:
    spec = FLAT[name]

    def check(decoded, encoded) -> bytes:
        values = list(decoded)
        spec.check(n, values)
        _expect_n(n, encoded)
        return _list_digest(values)

    if not via_cli:
        return Op(name, 1, lambda: spec.decode(lib, n), lambda v: spec.encode(lib, v), check)
    argv = ["--codec", spec.cli_name, *spec.flags]
    return Op(f"cli:{name}", 1,
              decode=lambda: lib.cli(["decode", *argv, hex(n)]),
              prepare=lambda text: O.list_text(O.parse_list(text)),
              encode=lambda text: lib.cli(["encode", *argv, text]),
              check=lambda out, enc: check(O.parse_list(out), O.dec_to_int(enc)))


def tree_op(lib: Lib, name: str, n: int, via_cli: bool) -> Op:
    """unrank + rank through the engine, or decode + encode through the CLI."""
    oracle = O.TreeOracle(TREE_ORACLES[name], 0)

    def check(tree, encoded) -> bytes:
        shape, digest = oracle.walk(tree, n)
        op.facts["shape"] = shape
        _expect_n(n, encoded)
        return digest

    if via_cli:
        op = Op(f"cli:{name}", 1,
                decode=lambda: lib.cli(["decode", "--codec", name, hex(n)]),
                prepare=str.strip,
                encode=lambda text: lib.cli(["encode", "--codec", name, text]),
                check=lambda out, enc: check(O.parse_tree(out), O.dec_to_int(enc)))
    else:
        codec = lib.codec(name, 0)
        op = Op(name, 1, lambda: lib.unrank(codec, n), lambda t: lib.rank(codec, t), check)
        op.facts["engine"] = True
    return op


# --- workloads ----------------------------------------------------------------

BIG_FLAT_ENTRIES = (
    "set", "fun", "rle", "ftuple", "tuple", "pair-cantor", "pair-pepis",
    "pair-bitmerge", "perm", "factoradic-r", "factoradic-l", "base2", "base16",
    "hff1", "hff2",
)


class BigFlat:
    """Random huge naturals round-robin over every flat codec plus hff1/hff2.

    A round passes over the entries four times; in pass p, entry j goes
    through cli.main when (p + j) % 4 == 3 and the codec has a CLI form
    (the natbits entries do not).  So every round holds the same mix:
    each CLI-capable entry once through the CLI and three times not.
    """

    def __init__(self, lib: Lib, rng: random.Random, flat_bits: int = 65536,
                 tree_bits: int = 16384):
        self.lib, self.rng = lib, rng
        self.flat_bits, self.tree_bits = flat_bits, tree_bits
        self.round_size = 4 * len(BIG_FLAT_ENTRIES)

    def op(self, i: int) -> Op:
        p, j = divmod(i % self.round_size, len(BIG_FLAT_ENTRIES))
        name = BIG_FLAT_ENTRIES[j]
        via_cli = (p + j) % 4 == 3
        if name in TREE_ORACLES:
            return tree_op(self.lib, name, random_bits(self.rng, self.tree_bits), via_cli)
        via_cli = via_cli and FLAT[name].cli_name is not None
        return flat_op(self.lib, name, random_bits(self.rng, self.flat_bits), via_cli)


def _wide_round() -> list[tuple[str, int, str]]:
    """36 (codec, ulimit, text form) triples; see WideTree."""
    forms = ("serialize", "render", "to_dot")
    seen: dict[tuple[str, int], int] = {}
    out = []
    for pair in zip(["hfs", "hfs", "hfp"] * 6, ["hfs", "hfp"] * 9):
        for key in zip(pair, (0, 16)):
            out.append((*key, forms[seen.get(key, 0) % 3]))
            seen[key] = seen.get(key, 0) + 1
    return out


class WideTree:
    """Random naturals through hfs and hfp as wide trees full of repeats.

    Ulimit alternates 0, 16, 0, 16, ...  At ulimit 0, hfs comes twice as
    often as hfp, so hfs/u0 (the widest trees) fills the top third of
    the latencies and the p75 tail falls inside it rather than on the
    edge between two op sizes.  Each codec/ulimit pair rotates through
    the text forms, so a round of 36 ops holds each pairing equally.
    Decode is unrank plus one text form (what the decode/show/dot
    commands do); encode is deserialize plus rank (what encode does).
    """

    ROUND = _wide_round()
    round_size = len(ROUND)

    def __init__(self, lib: Lib, rng: random.Random, bits: int = 4096):
        self.lib, self.rng, self.bits = lib, rng, bits

    def op(self, i: int) -> Op:
        lib = self.lib
        name, u, form = self.ROUND[i % self.round_size]
        n = random_bits(self.rng, self.bits)
        codec = lib.codec(name, u)
        oracle = O.TreeOracle(TREE_ORACLES[name], u)
        serial = oracle.texts(n, O.SERIAL)
        style = hftree.SET_STYLE if name == "hfs" else hftree.FUN_STYLE
        text_of = {
            "serialize": lib.serialize,
            "render": lambda t: lib.render(style, u, t),
            "to_dot": lib.to_dot,
        }[form]

        def decode():
            tree = lib.unrank(codec, n)
            return tree, text_of(tree)

        def check(decoded, encoded) -> bytes:
            tree, text = decoded
            op.facts["shape"], digest = oracle.walk(tree, n)
            if form == "to_dot":
                O.check_dot(text, serial)
            else:
                want = serial if form == "serialize" else oracle.texts(n, O.render_form(name, u))
                if text != want[n]:
                    raise Mismatch(f"{form} text differs from the reference")
            _expect_n(n, encoded)
            op.facts["text_bytes"] = len(text) + len(serial[n])
            return digest + text.encode()

        op = Op(f"{name}/u{u}/{form}", 1, decode,
                lambda _: lib.rank(codec, lib.deserialize(serial[n])), check,
                facts={"engine": True})
        return op


class SmallEnum:
    """Batches of consecutive small naturals through `hfcodec enumerate`.

    Each batch is one op: cli.main(["enumerate", ...]) decodes it, and
    every printed line is re-encoded through the library.  Rounds visit
    every codec with every format that enumerate accepts for it.
    """

    TREE_FORMATS = ("tree", "show", "decimal")
    FLAT_FORMATS = ("list", "decimal")

    def __init__(self, lib: Lib, rng: random.Random, start_bits: int = 20, batch: int = 250):
        self.lib, self.rng = lib, rng
        self.start_bits, self.batch = start_bits, batch
        self.entries = [(c, f) for c in FLAT if FLAT[c].cli_name for f in self.FLAT_FORMATS]
        self.entries += [(c, f) for c in TREE_MAKERS for f in self.TREE_FORMATS]
        self.round_size = len(self.entries)

    def op(self, i: int) -> Op:
        lib = self.lib
        name, fmt = self.entries[i % self.round_size]
        start = self.rng.randrange(1 << self.start_bits)
        ns = range(start, start + self.batch)
        argv = ["enumerate", "--codec", name, "--format", fmt, str(start), str(self.batch)]
        if name in TREE_MAKERS:
            codec = lib.codec(name, 0)
            oracle = O.TreeOracle(TREE_ORACLES[name], 0)
            serial = [oracle.texts(n, O.SERIAL)[n] for n in ns]
            shown = [oracle.texts(n, O.render_form(name, 0))[n] for n in ns]
            want = {"tree": serial, "show": shown, "decimal": list(map(str, ns))}[fmt]
            # show text at ulimit 0 is serialize text with other brackets
            to_serial = str.maketrans("{},", "() ")

            def prepare(out):
                lines = out.splitlines()
                return {"tree": lines, "show": [s.translate(to_serial) for s in lines],
                        "decimal": serial}[fmt]

            def encode(texts):
                return [lib.rank(codec, lib.deserialize(t)) for t in texts]
        else:
            spec = FLAT[name]
            argv[3:3] = spec.flags
            values = [spec.oracle(n) for n in ns]
            want = ([O.list_text(v) for v in values] if fmt == "list"
                    else list(map(str, ns)))

            def prepare(out):
                return ([O.parse_list(s) for s in out.splitlines()] if fmt == "list"
                        else values)

            def encode(batch):
                return [spec.encode(lib, v) for v in batch]

        def check(out, encoded) -> bytes:
            if out.splitlines() != want:
                raise Mismatch("enumerate output differs from the reference")
            if encoded != list(ns):
                raise Mismatch("re-encoding the batch does not give back its numbers")
            return out.encode()

        return Op(f"{name}/{fmt}", self.batch, lambda: lib.cli(argv), encode, check, prepare)


WORKLOADS = {"big-flat": BigFlat, "wide-tree": WideTree, "small-enum": SmallEnum}

# inputs for the benchmark's own tests and the untimed warm-up round
TINY = {
    "big-flat": {"flat_bits": 200, "tree_bits": 64},
    "wide-tree": {"bits": 64},
    "small-enum": {"start_bits": 8, "batch": 5},
}
