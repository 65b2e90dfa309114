"""Rose trees over nested sets, functions, and permutations, with integer codecs.

A Codec bundles an atom bound (ulimit) with an expand/collapse pair that
maps a natural to the list of its children's codes and back.  unrank
grows a number into a tree: values below ulimit stay atoms, everything
else is shifted down by ulimit, expanded, and decoded recursively.  rank
folds a tree back to its number.  With ulimit 0 no atoms occur and the
trees are pure nestings of empty forests.

There is one unfold, _unfold, of one root (unrank) or several; one
post-order fold, _fold, behind rank, Forest hashing, and to_dag and
Forest equality, which share one numbering of distinct subtrees; one
printer, _print; and one parser, _parse.  The fold takes one loop step,
one memo lookup and one append per edge.

Trees share their equal subtrees.  unrank expands each distinct code
once and deserialize interns each distinct subtree once, so an equal
subtree in two places is one object.  Every walk keeps a memo that lives
for one call, or one enumerate chunk, only (code, id, serial number or
text -> result); nothing is cached between calls.  So unrank, rank,
to_dag, hashing and equality cost O(distinct subtrees), not O(nodes), while
printing stays O(text length): it repeats a shared subtree's text
instead of walking it again, and prints a forest that is new but whose
children all have text already with one join of their texts.  Each
joined string is appended to the output as it is made, so the joins
cost no more than the output they write.
deserialize reads every subtree at most _GROUP_HEIGHT levels tall as one
regex token and each distinct one once, so the regex engine does
O(_GROUP_HEIGHT x text) work.  Python works once per distinct shallow
subtree, once per bracket of the taller ones, and once per place where
a shallow subtree sits in a taller one, which costs one dict lookup on
its text; a new group with no bracket inside is cut by one str.split,
not by the regex, and each distinct atom text is converted once.
dag_to_dot takes one Python step per edge of the DAG, to find each
node's last parent, and does its other work per edge in C.

Five stock codecs are provided: hfs (hereditarily finite sets via the
Ackermann encoding), hff (finite functions), hff1 (length-tagged
tuples), hff2 (run lengths), and hfp (finite permutations).

No tree walk here recurses, so trees thousands of levels deep decode,
fold, print, and parse without touching the interpreter's recursion
limit: unrank expands codes level by level and then builds nodes in
ascending code order, the other walks use explicit stacks, and
deserialize recurses only into its group tokens, at most _GROUP_HEIGHT
levels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import count, islice
from operator import add
from typing import Callable, Iterator, Sequence, TypeVar

from . import pairing, permcodec, setfun
from .natbits import _check_int, _check_natural, _int_text


@dataclass(frozen=True, slots=True)
class Atom:
    """Leaf carrying an urelement value below the codec's atom bound."""

    value: int

    def __post_init__(self) -> None:
        _check_int(self.value, "atom value")
        if self.value < 0:
            raise ValueError(f"atom value must be a natural, got {_int_text(self.value)}")


@dataclass(frozen=True, slots=True, eq=False)
class Forest:
    """Interior node holding an ordered sequence of subtrees.

    Equality and hashing are structural folds (_fold), so they cost
    O(distinct subtrees) and never recurse.  a == b numbers the distinct
    subtrees of a and folds b through lookups in the same table: a
    subtree that a lacks ends it with False, else the root numbers decide.
    """

    children: tuple["Tree", ...] = ()

    def __post_init__(self) -> None:
        children = tuple(self.children)
        for child in children:
            if not isinstance(child, (Atom, Forest)):
                raise TypeError(f"forest child must be Atom or Forest, got {type(child).__name__}")
        object.__setattr__(self, "children", children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Forest):
            return NotImplemented
        if self is other:
            return True
        numbers: dict[int | tuple[int, ...], int] = {}
        root = _fold(self, *_numbering(numbers))
        try:
            return root == _fold(other, lambda a: numbers[_code_key(a.value)],
                                 lambda ns: numbers[tuple(ns)])
        except KeyError:  # a subtree of other that self lacks
            return False

    def __hash__(self) -> int:
        return _fold(self, hash, lambda hashes: hash((Forest, tuple(hashes))))


Tree = Atom | Forest
_R = TypeVar("_R")

# unrank and deserialize make each forest from a tuple of children they
# built themselves, so they set the slot straight on a new object: without
# __init__ and __post_init__ a one-child forest took 348 ns instead of 846
# (timeit), and a 4096-bit hfs unrank about 4.6 ms instead of 6.5
_new = object.__new__
_set_children = Forest.children.__set__


@dataclass(frozen=True)
class Codec:
    """Atom bound plus a bijective expand/collapse pair on naturals.

    Termination contract: every value expand(n) produces must be below
    n + ulimit, so decoding strictly descends; collapse must invert
    expand exactly.  ulimit must be a natural: below 0 the contract
    cannot hold, so it is refused here, before anything is expanded.
    """

    name: str
    ulimit: int
    expand: Callable[[int], list[int]]
    collapse: Callable[[Sequence[int]], int]

    def __post_init__(self) -> None:
        _check_int(self.ulimit, "ulimit")
        if self.ulimit < 0:
            raise ValueError(f"ulimit must be a natural, got {_int_text(self.ulimit)}")


def codec_hfs(ulimit: int = 0) -> Codec:
    """Hereditarily finite sets: children are the bit positions of the code."""
    return Codec("hfs", ulimit, setfun.nat2set, setfun.set2nat)


def codec_hff(ulimit: int = 0) -> Codec:
    """Hereditarily finite functions: children are gap-coded tuple values."""
    return Codec("hff", ulimit, setfun.nat2fun, setfun.fun2nat)


def codec_hff1(ulimit: int = 0) -> Codec:
    """Length-tagged tuple variant.

    Random codes give shallow trees (about 40 levels at 65536 bits), but
    1 << k decodes to a chain k + 2 levels deep.
    """
    return Codec("hff1", ulimit, pairing.nat2ftuple, pairing.ftuple2nat)


def codec_hff2(ulimit: int = 0) -> Codec:
    """Run-length variant: children count the code's alternating bit runs."""
    return Codec("hff2", ulimit, setfun.nat2rle, setfun.rle2nat)


def codec_hfp(ulimit: int = 0) -> Codec:
    """Hereditarily finite permutations: children form a permutation."""
    return Codec("hfp", ulimit, permcodec.nat2perm, permcodec.perm2nat)


def __getattr__(name: str) -> dict[str, Callable[[int], Codec]]:
    # TREE_CODECS, every stock tree codec's maker by its CLI name, is read
    # off the codec table on each access: hfcodec.table imports this module
    if name == "TREE_CODECS":
        from .table import TREE
        return {row.name: row.make for row in TREE.values()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# hash(m) is m mod 2**61 - 1, so big naturals with a pattern collide in bulk
# (2**k and 2**(k % 61) hash alike) and would make a dict keyed on them
# quadratic.  So unrank's codes and deserialize's and to_dag's atom values
# are keyed as themselves below _SMALL and as a _BigCode above: bytes hashes
# are seeded per process and have no such pattern.
_SMALL = 1 << 60


class _BigCode(int):
    """A code at or above _SMALL as a dict key: hashed by its bytes.

    It equals its code and sorts like it, and arithmetic on it gives a
    plain int.  The hash is computed once, when the key is made.
    """

    def __new__(cls, m: int) -> _BigCode:
        key = super().__new__(cls, m)
        key._hash = hash(m.to_bytes((m.bit_length() + 7) // 8, "little"))
        return key

    def __hash__(self) -> int:
        return self._hash


def _code_key(m: int) -> int:
    return m if m < _SMALL else _BigCode(m)


def unrank(codec: Codec, n: int, max_depth: int | None = None) -> Tree:
    """Decode n into a tree: Atom(n) below ulimit, else a forest of children.

    Two phases, each working once per distinct code, keyed by _code_key.
    Discovery expands the codes level by level from the root, each new
    code once.  The build then makes each node in ascending code order
    from a memo that lives for this call only (code -> node): the
    termination contract puts every child code below its parent's, so a
    forest's children are always built before it.  Equal codes decode to
    the same object, so the result shares its equal subtrees, and the
    work is O(distinct subtrees), not O(nodes).  A codec whose expand
    breaks the contract raises ValueError.

    max_depth, when given, bounds the nesting depth and raises
    RecursionError beyond it instead of consuming unbounded memory; a
    shared subtree is checked against the depth of every place it
    appears.
    """
    return _unfold(codec, (n,), max_depth)[0]


def _unfold(codec: Codec, ns: Sequence[int], max_depth: int | None) -> list[Tree]:
    """unrank of every code in ns, as one unfold with one memo for them all.

    The first level is all of ns, so a code that several roots hold is
    expanded and built once, and equal subtrees are one object across
    the roots too.  Past max_depth it raises if any root is too deep.
    """
    u, expand = codec.ulimit, codec.expand
    for n in ns:
        _check_natural(n)
    roots = list(map(_code_key, ns))
    # a root forest is never refused, so a limit below 1 acts as 1
    limit = math.inf if max_depth is None else max(max_depth, 1)
    kids: dict[int, list[int]] = {}  # forest code -> its child codes
    memo: dict[int, Tree] = {}  # code -> node; atoms are made as they are found
    level = set(roots)  # this level's new codes
    depth = 0
    while level:
        depth += 1
        # a code first met past the limit sits past it wherever it appears
        if depth > limit and any(m >= u for m in level):
            raise RecursionError(f"tree depth exceeds limit {max_depth}")
        new: set[int] = set()
        for m in level:
            if m < u:
                memo[m] = Atom(int(m))
            else:
                children = expand(m - u)
                # children are below their code, so only a big code has big
                # ones; the max costs less than re-keying small children (64
                # against 113 us for the 2,047 of a 4096-bit hfs root)
                if m >= _SMALL and max(children, default=0) >= _SMALL:
                    children = list(map(_code_key, children))
                kids[m] = children
                new.update(children)
        # set.difference(dict) walks the set only, not the whole dict
        level = new.difference(kids)
        if memo:
            level = level.difference(memo)
    order = sorted(kids)
    get = memo.__getitem__
    try:
        # a tree is no taller than its count of distinct forests, since
        # codes fall along every path: only a tighter limit needs heights
        if len(order) > limit:
            height = dict.fromkeys(memo, 0)
            for m in order:
                h = height[m] = 1 + max(map(height.__getitem__, kids[m]), default=0)
                if h > limit:
                    raise RecursionError(f"tree depth exceeds limit {max_depth}")
        # tuple(list(...)): a tuple filled from map() is resized as it grows.
        # Popping frees each child list once read, so the lists do not pile
        # up in the collector's youngest generation: a 4096-bit hfs decode
        # ran 5.4 collections instead of 7.4
        for m in order:
            children = tuple(list(map(get, kids.pop(m))))
            memo[m] = forest = _new(Forest)
            _set_children(forest, children)
    except KeyError:  # a child not built yet: it is not below its parent
        raise ValueError(f"codec {codec.name!r} breaks its termination contract: a child "
                         f"of code {_int_text(m)} is not below it") from None
    return list(map(get, roots))


def rank(codec: Codec, t: Tree) -> int:
    """Fold a tree back to its code; exact inverse of unrank."""
    u, collapse = codec.ulimit, codec.collapse
    return _fold(t, lambda a: _atom_value(a, u), lambda ranks: u + collapse(ranks))


def _fold(t: Tree, atom: Callable[[Atom], _R], forest: Callable[[list[_R]], _R]) -> _R:
    """The post-order walk behind rank, to_dag, hashing and equality.

    Calls atom(a) at each leaf and forest(results) at each forest, where
    results holds its children's values left to right.  A node that t
    holds in several places is folded once: a memo that lives for this
    call only maps id(node) to its value (every node stays alive in t,
    so ids are not reused), and the work is O(distinct nodes).  Neither
    callback may return None, which the memo reads as "not folded yet".

    Each open forest is its id, an iterator over its children and the
    list of their values so far; the innermost one is held in locals and
    the ones around it on a stack.  An edge costs one loop step, one memo
    lookup and one append: a miss on an atom folds it on the spot, a miss
    on a forest opens that forest, and a forest whose iterator runs out
    is folded and its value handed to the forest around it.
    """
    if isinstance(t, Atom):
        return atom(t)
    done: dict[int, _R] = {}
    known = done.get
    stack: list[tuple[int, Iterator[Tree], list[_R]]] = []
    key, children, results = id(t), iter(t.children), []
    while True:
        for child in children:
            value = known(id(child))
            if value is None:
                if isinstance(child, Atom):
                    value = done[id(child)] = atom(child)
                else:
                    stack.append((key, children, results))
                    key, children, results = id(child), iter(child.children), []
                    break
            results.append(value)
        else:
            value = done[key] = forest(results)
            if not stack:
                return value
            key, children, results = stack.pop()
            results.append(value)


def _atom_value(a: Atom, ulimit: int) -> int:
    if a.value >= ulimit:
        raise ValueError(f"atom {_int_text(a.value)} out of range for ulimit {ulimit}")
    return a.value


def enumerate_trees(codec: Codec, start: int = 0) -> Iterator[Tree]:
    """Yield unrank(codec, n) for n = start, start + 1, ... without end."""
    for n in count(start):
        yield unrank(codec, n)


# --- wrappers pairing each stock codec with its inverse -----------------

def nat2hfs(n: int, ulimit: int = 0) -> Tree:
    return unrank(codec_hfs(ulimit), n)


def hfs2nat(t: Tree, ulimit: int = 0) -> int:
    return rank(codec_hfs(ulimit), t)


def nat2hff(n: int, ulimit: int = 0) -> Tree:
    return unrank(codec_hff(ulimit), n)


def hff2nat(t: Tree, ulimit: int = 0) -> int:
    return rank(codec_hff(ulimit), t)


def nat2hff1(n: int, ulimit: int = 0) -> Tree:
    return unrank(codec_hff1(ulimit), n)


def hff2nat1(t: Tree, ulimit: int = 0) -> int:
    return rank(codec_hff1(ulimit), t)


def nat2hff2(n: int, ulimit: int = 0) -> Tree:
    return unrank(codec_hff2(ulimit), n)


def hff2nat2(t: Tree, ulimit: int = 0) -> int:
    return rank(codec_hff2(ulimit), t)


def nat2hfp(n: int, ulimit: int = 0) -> Tree:
    return unrank(codec_hfp(ulimit), n)


def hfp2nat(t: Tree, ulimit: int = 0) -> int:
    return rank(codec_hfp(ulimit), t)


# --- textual rendering --------------------------------------------------

@dataclass(frozen=True)
class RenderStyle:
    """Bracket pair and separator used when printing a forest."""

    open: str
    separator: str
    close: str


SET_STYLE = RenderStyle("{", ",", "}")
FUN_STYLE = RenderStyle("(", " ", ")")


def render(style: RenderStyle, ulimit: int, t: Tree) -> str:
    """Bracketed text form of a tree.

    Atoms print as decimals.  An empty forest prints as "0" when
    ulimit > 1, deliberately conflating it with Atom(0): with atoms in
    play the fully bracketed form is much harder to scan, and both
    objects fold back to small fixed codes anyway.
    """
    return _render_lines(style, ulimit, (t,))


def _render_lines(style: RenderStyle, ulimit: int, roots: Sequence[Tree],
                  digits: Callable[[int], str] = str) -> str:
    """render of each root, one per line, printed with one memo."""
    empty = "0" if ulimit > 1 else style.open + style.close
    return _print(roots, style, empty, "", ulimit, digits)


def _print(roots: Sequence[Tree], style: RenderStyle, empty: str, atom_prefix: str,
           ulimit: int | None, digits: Callable[[int], str]) -> str:
    """The printer loop behind render and serialize: each root's text, one per line.

    Forests print with style's brackets and separator, and as empty when
    they have no children.  Atoms print as atom_prefix and digits(value),
    checked against ulimit unless it is None; the check runs where each
    atom object first occurs.  The library prints with str, the CLI with
    its decimal budget.  Two memos keyed on id live for this call.
    text holds a node's text as one string: atoms, empty forests, and
    forests whose whole text is known.  pending holds the slice of output
    pieces a walked forest's first print made; on its first repeat the
    slice is joined into one string and moves to text.  A repeat appends
    that string, so a node that the roots hold in several places, on one
    line or on several, is walked at most once.

    A forest met for the first time whose first child has text already
    has every child looked up in text.  If all of them have text, the
    forest is printed as one join of their texts, in C, instead of two
    loop turns per child; otherwise it is walked child by child.  Probing
    the first child alone first keeps trees that share little from
    paying a full probe at each new forest.  The cost stays O(output):
    every joined string is a piece of the output where it is made, and
    repeats append the same object.  A chain never joins, since a child
    is printed only after its parent is met: its forests' texts, each
    holding all those below it, are never built as strings, which would
    take memory quadratic in its depth.
    """
    open_, separator, close = style.open, style.separator, style.close
    join = separator.join
    out: list[str] = []
    text: dict[int, str] = {}  # id(node) -> its text as one string
    known = text.get
    pending: dict[int, tuple[int, int]] = {}  # id(forest) -> its first print's slice of out
    # the newlines between the roots are str items, printed as they are
    stack: list[Tree | str | tuple[int, int]] = ["\n"] * (2 * len(roots) - 1)
    stack[::2] = roots[::-1]
    append, pop = out.append, stack.pop
    while stack:
        item = pop()
        kind = type(item)  # separators, newlines and end marks are exact str and tuple
        if kind is str:
            append(item)
            continue
        if kind is tuple:  # (id, start): the end of a forest's first print
            append(close)
            pending[item[0]] = (item[1], len(out))
            continue
        key = id(item)
        seen = known(key)
        if seen is None:
            if isinstance(item, Atom):
                value = item.value if ulimit is None else _atom_value(item, ulimit)
                seen = text[key] = atom_prefix + digits(value)
            elif not (children := item.children):
                seen = text[key] = empty
            elif key in pending:  # the first repeat of a forest walked below
                start, end = pending.pop(key)
                seen = text[key] = "".join(out[start:end])
            elif id(children[0]) in text and None not in (
                    parts := list(map(known, map(id, children)))):
                seen = text[key] = open_ + join(parts) + close
            else:
                stack.append((key, len(out)))
                append(open_)
                pieces: list[Tree | str] = [separator] * (2 * len(children) - 1)
                pieces[::2] = children[::-1]
                stack.extend(pieces)
                continue
        append(seen)
    return "".join(out)


def set_show(n: int, ulimit: int = 0) -> str:
    """n as a braces-and-commas hereditarily finite set."""
    return render(SET_STYLE, ulimit, nat2hfs(n, ulimit))


def fun_show(n: int, ulimit: int = 0) -> str:
    """n as a parenthesized hereditarily finite function."""
    return render(FUN_STYLE, ulimit, nat2hff(n, ulimit))


def fun_show1(n: int, ulimit: int = 0) -> str:
    """n as a parenthesized tree under the length-tagged tuple codec."""
    return render(FUN_STYLE, ulimit, nat2hff1(n, ulimit))


def fun_show2(n: int, ulimit: int = 0) -> str:
    """n as a parenthesized tree under the run-length codec."""
    return render(FUN_STYLE, ulimit, nat2hff2(n, ulimit))


def perm_show(n: int, ulimit: int = 0) -> str:
    """n as a parenthesized hereditarily finite permutation."""
    return render(FUN_STYLE, ulimit, nat2hfp(n, ulimit))


# --- canonical serialization --------------------------------------------

class ParseError(ValueError):
    """Malformed tree text; position is the index of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def serialize(t: Tree) -> str:
    """Canonical text: atoms as aN, forests as space-separated paren groups.

    Forest[Atom(2), Forest()] serializes to "(a2 ())".
    """
    return _serialize_lines((t,))


def _serialize_lines(roots: Sequence[Tree], digits: Callable[[int], str] = str) -> str:
    """serialize of each root, one per line, printed with one memo."""
    return _print(roots, FUN_STYLE, "()", "a", None, digits)


# one token per match: a bracket, an atom tag with its digits, or any other
# character but a space, which the parser rejects
_TOKEN = re.compile(r"[()]|a[0-9]*|[^ ]")

# deserialize first splits the text with _GROUPED, whose first alternative
# takes a bracketed subtree at most _GROUP_HEIGHT levels tall as one token:
# G1 = \([^()]*+\), Gk+1 = \([^()]*+(?:Gk[^()]*+)*+\).  The repeats are
# possessive, so an attempt on a taller or unclosed group gives up without
# backtracking and each character is scanned by at most _GROUP_HEIGHT + 1
# attempts.  A new group is split again for each level it has, so a taller
# bound is not better: four random 4096-bit hfs codes at ulimit 0 parsed in
# 45.3, 27.6, 33.8 and 40.3 ms at heights 3, 4, 5 and 6, hfp ones in 9.4,
# 7.0, 8.2 and 9.6 ms (81.4 and 17.8 ms one bracket per token; best of 9,
# CPython 3.11.7).  Height 3 was 1-6% faster on 20-bit codes, whose texts
# share little.  Taking runs of non-brackets whole ([^()]*+) rather than one
# character per repeat ((?:[^()]|Gk)*+) saved 7-16% on 4096-bit and
# 16384-bit codes at height 4.
_GROUP_HEIGHT = 4


def _group_pattern(height: int) -> str:
    group = r"\([^()]*+\)"
    for _ in range(height - 1):
        group = rf"\([^()]*+(?:{group}[^()]*+)*+\)"
    return group


_GROUPED = re.compile(f"{_group_pattern(_GROUP_HEIGHT)}|{_TOKEN.pattern}")


class _Reread(Exception):
    """Malformed text met by the grouped pass; the plain pass reports it."""


# the entries of '(' and ')' in _parse's token memo, told apart by identity
_OPEN: tuple[int, int] = (-1, 0)
_CLOSE: tuple[int, int] = (-1, 1)


def deserialize(text: str, max_depth: int | None = None) -> Tree:
    """Parse serialize() output back into a tree, reporting error positions.

    Nodes are interned as they close, for this call only: atoms by
    value, forests by the serial numbers of their children.  So the
    result shares its equal subtrees.  The text is cut into tokens by
    one regex pass in which every subtree at most _GROUP_HEIGHT levels
    tall is a single token, and each distinct such token is read once: a
    repeat costs one dictionary lookup on its text.  So the regex engine
    does O(_GROUP_HEIGHT x text) work, while Python works once per
    distinct shallow subtree, once per bracket of the taller ones, and
    once per token: each place where a shallow subtree sits in a taller
    one is a lookup.  A new group with no bracket inside, which holds
    atoms only, is cut by one str.split rather than by the regex.
    Malformed text is read a second time, one bracket per token, and
    that pass raises the error.
    """
    try:
        return _parse(text, max_depth, _GROUPED)
    except (_Reread, ValueError):  # ValueError: an 'a' without digits, or int()'s digit limit
        pass  # reread outside the handler, so the error raised has no context
    return _parse(text, max_depth, _TOKEN)


def _parse(text: str, max_depth: int | None, pattern: re.Pattern[str]) -> Tree:
    """The parser loop behind deserialize, over the tokens pattern cuts.

    With _TOKEN it raises ParseError at the first malformed token.  With
    _GROUPED it raises _Reread instead (or int()'s ValueError), and a
    token can be a whole group, which _read_group reads.
    """
    grouped = pattern is _GROUPED
    findall = pattern.findall
    nodes: list[Tree] = []  # by serial number
    atoms: dict[int, int] = {}  # _code_key(value) -> serial
    forests: dict[tuple[int, ...], int] = {}  # child serials -> serial
    # a group token -> its serial, and how many levels its brackets nest
    # below its own; an atom token -> its serial and -1; the two brackets ->
    # _OPEN and _CLOSE, so one lookup classifies every token
    groups: dict[str, tuple[int, int]] = {"(": _OPEN, ")": _CLOSE}
    # a forest may open while fewer than limit are open; no text nests as
    # deep as it is long, and an atom's -1 below never reaches a limit of 0
    limit = len(text) if max_depth is None else max(max_depth, 0)

    children: list[int] | None = None  # child serials of the innermost open forest
    stack: list[list[int] | None] = []  # children as each open forest was opened
    result: int | None = None
    for k, token in enumerate(findall(text)):
        hit = groups.get(token)
        if hit is _OPEN:
            if result is not None:
                raise _fail(grouped, "trailing input after complete tree", text, k)
            if len(stack) >= limit:
                raise _fail(grouped, f"nesting exceeds depth limit {max_depth}", text, k)
            stack.append(children)
            children = []
            continue
        if hit is _CLOSE:
            if children is None:
                raise _fail(grouped, "unmatched ')'", text, k)
            serial = _intern(tuple(children), nodes, forests)
            children = stack.pop()
        else:
            if hit is None:
                if token[0] == "(":  # a group, cut by _GROUPED only
                    hit = groups[token] = _read_group(token, findall, nodes, atoms, forests, groups)
                elif token[0] == "a":
                    if result is not None:  # reported before a missing digit
                        raise _fail(grouped, "trailing input after complete tree", text, k)
                    if len(token) == 1:
                        raise _fail(grouped, "atom tag 'a' without digits", text, k)
                    hit = groups[token] = _atom(int(token[1:]), nodes, atoms), -1
                else:
                    raise _fail(grouped, f"unexpected character {token!r}", text, k)
            serial, below = hit
            # a group's deepest '(' opens with len(stack) + below forests open
            if len(stack) + below >= limit:
                raise _Reread
        if children is not None:
            children.append(serial)
        elif result is None:
            result = serial
        else:
            raise _fail(grouped, "trailing input after complete tree", text, k)
    if children is not None or result is None:
        if grouped:
            raise _Reread
        raise ParseError("unclosed '('", len(text)) if stack else ParseError("empty input", 0)
    return nodes[result]


def _fail(grouped: bool, message: str, text: str, k: int) -> Exception:
    """_Reread in the grouped pass, else ParseError at the k-th token of text."""
    return _Reread() if grouped else _parse_error(message, text, k)


def _read_group(token: str, findall: Callable[..., list[str]], nodes: list[Tree],
                atoms: dict[int, int], forests: dict[tuple[int, ...], int],
                groups: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """A new group token's serial, and how many levels nest below its brackets.

    Inside a group are atoms, spaces and shorter groups only, so there is
    no bracket to match.  A group with no bracket inside holds atoms
    only, so one split on spaces cuts it; the empty parts that extra
    spaces make are skipped.  A new part must be an 'a' and ASCII digits,
    since int() alone would take '1_0', '+1' or '١'; if one is not, as in
    'a1a2', which needs no space, or 'a1_0', which is malformed, the
    group is read again by findall.  findall cuts a group with a bracket
    inside too, and its atoms are always an 'a' and ASCII digits.
    Anything else raises _Reread, and int("") the ValueError for an 'a'
    without digits.  groups memoises the parts by their text: a group as
    its serial and height below, an atom as its serial and -1, so a
    repeated part costs one lookup.  The atom's value is still interned
    in atoms, so 'a5' and 'a05' are one object.  The state is passed in
    rather than closed over, so a parse leaves no reference cycle behind.
    """
    # '((' opens a bracket inside, and findall is quicker than split on '()'
    if token[1] not in "()" and token.find("(", 1) < 0:
        children = []
        for part in token[1:-1].split(" "):
            hit = groups.get(part)
            if hit is None:
                if not part:
                    continue
                digits = part[1:]
                if part[0] != "a" or not (digits.isascii() and digits.isdigit()):
                    break  # atoms with no space between them, or no atom: findall reads it
                hit = groups[part] = _atom(int(digits), nodes, atoms), -1
            children.append(hit[0])
        else:
            return _intern(tuple(children), nodes, forests), 0
    children = []
    below = 0
    for part in findall(token, 1, len(token) - 1):
        hit = groups.get(part)
        if hit is None:
            if part[0] == "(":
                hit = groups[part] = _read_group(part, findall, nodes, atoms, forests, groups)
            elif part[0] == "a":
                hit = groups[part] = _atom(int(part[1:]), nodes, atoms), -1
            else:
                raise _Reread
        serial, part_below = hit
        if part_below >= below:
            below = part_below + 1
        children.append(serial)
    return _intern(tuple(children), nodes, forests), below


def _atom(value: int, nodes: list[Tree], atoms: dict[int, int]) -> int:
    """The serial of the atom with this value, made if it is new."""
    key = value if value < _SMALL else _code_key(value)
    serial = atoms.get(key)
    if serial is None:
        serial = atoms[key] = len(nodes)
        nodes.append(Atom(value))
    return serial


def _intern(children: tuple[int, ...], nodes: list[Tree], forests: dict[tuple[int, ...], int]) -> int:
    """The serial of the forest with these child serials, made if it is new."""
    serial = forests.get(children)
    if serial is None:
        serial = forests[children] = len(nodes)
        forest = _new(Forest)
        _set_children(forest, tuple([nodes[c] for c in children]))
        nodes.append(forest)
    return serial


def _parse_error(message: str, text: str, k: int) -> ParseError:
    """ParseError at the k-th token of text, found by scanning it again."""
    return ParseError(message, next(islice(_TOKEN.finditer(text), k, None)).start())


# --- shared-subtree DAG and Graphviz export -----------------------------

@dataclass(frozen=True, slots=True)
class DagNode:
    """One distinct subtree: an atom value or an ordered list of child ids."""

    id: int
    atom: int | None
    children: tuple[int, ...]


# _numbering sets the slots of each new node, as unrank does for a Forest
_set_id = DagNode.id.__set__
_set_atom = DagNode.atom.__set__
_set_dag_children = DagNode.children.__set__


@dataclass(frozen=True)
class Dag:
    """A tree with structurally identical subtrees merged into shared nodes.

    Node ids are assigned bottom-up, so children always precede parents,
    and each node's id is its index in nodes.
    """

    root: int
    nodes: tuple[DagNode, ...]

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """Every (parent id, child ordinal, child id) triple."""
        return [
            (node.id, i, c)
            for node in self.nodes
            for i, c in enumerate(node.children)
        ]


def _numbering(numbers: dict[int | tuple[int, ...], int], nodes: list[DagNode] | None = None
               ) -> tuple[Callable[[Atom], int], Callable[[list[int]], int]]:
    """The atom and forest callbacks of a _fold that numbers distinct subtrees.

    An atom is keyed by _code_key of its value and a forest by the tuple
    of its children's numbers, so the two kinds of key never meet.  A new
    key gets the next number, len(numbers), and its DagNode is appended
    to nodes, if given, made without __init__, as unrank makes forests.
    """
    known = numbers.get

    def number(key: int | tuple[int, ...], atom: int | None = None) -> int:
        n = known(key)
        if n is None:
            n = numbers[key] = len(numbers)
            if nodes is not None:
                node = _new(DagNode)
                _set_id(node, n)
                _set_atom(node, atom)
                _set_dag_children(node, key if atom is None else ())
                nodes.append(node)
        return n

    return lambda a: number(_code_key(a.value), a.value), lambda ns: number(tuple(ns))


def to_dag(t: Tree) -> Dag:
    """Merge identical subtrees of t; sharing is exact, keyed on child ids."""
    nodes: list[DagNode] = []
    return Dag(_fold(t, *_numbering({}, nodes)), tuple(nodes))


def dag_to_dot(dag: Dag, hash_len: int = 8) -> str:
    """Graphviz digraph with nodes labeled by a hash prefix of their text form.

    Edges run from container to element and carry the 0-based child ordinal.
    A node's text is kept only until its last parent has read it: one
    comprehension step per edge finds each node's last parent, and each
    parent drops the texts it was the last to read with a loop over those
    children alone.  A parent's edge lines are one join, in C, of its
    children's names and the line ends of their ordinals, both made once
    per call.
    """
    return _dag_to_dot(dag, hash_len)


def _dag_to_dot(dag: Dag, hash_len: int = 8, digits: Callable[[int], str] = str) -> str:
    """dag_to_dot, with each atom's decimal in the hashed text made by digits."""
    from hashlib import sha256  # here, not at the top: it loads OpenSSL, which import hfcodec need not

    nodes = dag.nodes
    # ids are bottom-up, so the last write is each child's last parent (the
    # comprehension took half as long as dict(zip(...)) over chained children)
    last = {child: node.id for node in nodes for child in node.children}
    drops: dict[int, list[int]] = {}  # parent -> the children it reads last
    for child, parent in last.items():
        drops.setdefault(parent, []).append(child)
    texts: dict[int, str] = {}
    text_of = texts.__getitem__
    labels = []
    for node in nodes:  # ids are bottom-up, so child texts already exist
        if node.atom is not None:
            text = "a" + digits(node.atom)
        else:
            text = "(" + " ".join(map(text_of, node.children)) + ")"
            for child in drops.get(node.id, ()):
                del texts[child]
        labels.append(sha256(text.encode("ascii")).hexdigest()[:hash_len])
        texts[node.id] = text
    # lines come after the loop: made inside it, they took 4-9% longer
    lines = ["digraph tree {"]
    lines += [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)]
    names = list(map(str, range(len(nodes))))
    name_of = names.__getitem__
    widest = max([len(node.children) for node in nodes], default=0)
    ends = [f' [label="{ordinal}"];' for ordinal in range(widest)]
    for node in nodes:
        if node.children:
            head = f"  n{node.id} -> n"
            lines.append(head + ("\n" + head).join(map(add, map(name_of, node.children), ends)))
    lines.append("}")
    return "\n".join(lines)


def to_dot(t: Tree) -> str:
    """Graphviz text for a tree's shared-subtree DAG."""
    return dag_to_dot(to_dag(t))
