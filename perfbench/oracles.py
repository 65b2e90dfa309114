"""Reference answers that never call the code under test.

Flat codecs are read off bin() strings, string slices and closed forms.
Trees are checked node by node against those flat answers.  Big
integers are never turned into decimal text here, so nothing in this
module depends on the interpreter's int/str digit limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from hashlib import sha256
from math import factorial, isqrt
from typing import Callable, Sequence


class Mismatch(Exception):
    """An output differs from the reference answer."""


def rbits(n: int) -> str:
    """Bits of n as '0'/'1' characters, least significant first."""
    return bin(n)[:1:-1]


def set_of(n: int) -> list[int]:
    return [i for i, c in enumerate(rbits(n)) if c == "1"]


def fun_of(n: int) -> list[int]:
    out, prev = [], -1
    for e in set_of(n):
        out.append(e - prev - 1)
        prev = e
    return out


_RUNS = re.compile("0+|1+")


def rle_of(n: int) -> list[int]:
    return [len(run) - 1 for run in _RUNS.findall(rbits(n))] if n else []


def deal(k: int, n: int) -> list[int]:
    """Component i takes bits i, i+k, i+2k, ... of n (a string slice)."""
    s = rbits(n)
    return [int(s[i::k][::-1] or "0", 2) for i in range(k)]


def _valuation(m: int) -> int:
    return (m & -m).bit_length() - 1


def pepis_of(n: int) -> list[int]:
    a = _valuation(n + 1)
    return [a, (n + 1) >> (a + 1)]


def cantor_of(n: int) -> list[int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return [w - y, y]


def ftuple_of(n: int) -> list[int]:
    if n == 0:
        return []
    k, y = pepis_of(n)
    return deal(k + 1, y)


def fact_of(n: int) -> list[int]:
    """Factoradic digits of n, least significant first; digit i weighs i!."""
    out, j = [], 1
    while True:
        n, d = divmod(n, j)
        out.append(d)
        j += 1
        if n == 0:
            return out


def perm_of(n: int) -> list[int]:
    """The n-th permutation, ordered by size and then lexicographically."""
    k, below, f = 0, 0, 1  # below = 0! + ... + (k-1)!, f = k!
    while below + f <= n:
        below += f
        k += 1
        f *= k
    r = n - below
    pool, out = list(range(k)), []
    for i in range(k - 1, -1, -1):
        d, r = divmod(r, factorial(i))
        out.append(pool.pop(d))
    return out


def digits_of(base: int, n: int) -> list[int]:
    """Little-endian digits in base 2 or 16, read off bin()/hex()."""
    text = bin(n) if base == 2 else hex(n)
    return [int(c, 16) for c in text[:1:-1]]


# --- closed-form checks for outputs too big to recompute cheaply ---------

def check_cantor(n: int, v: Sequence[int]) -> None:
    x, y = v
    if x < 0 or y < 0 or (x + y) * (x + y + 1) // 2 + y != n:
        raise Mismatch("cantor pair does not fold back to n")


def check_pepis(n: int, v: Sequence[int]) -> None:
    x, y = v
    if x < 0 or y < 0 or ((2 * y + 1) << x) - 1 != n:
        raise Mismatch("pepis pair does not fold back to n")


def check_perm(n: int, v: Sequence[int]) -> None:
    if sorted(v) != list(range(len(v))):
        raise Mismatch("not a permutation")


def check_factoradic(n: int, ds: Sequence[int]) -> None:
    """Digits are canonical (d_i <= i, no high zero) and sum d_i * i! to n."""
    if any(not 0 <= d <= i for i, d in enumerate(ds)) or (len(ds) > 1 and ds[-1] == 0):
        raise Mismatch("factoradic digit out of range")
    value = 0
    for i in range(len(ds) - 1, 0, -1):
        value = (value + ds[i]) * i
    if value + ds[0] != n:
        raise Mismatch("factoradic digits do not sum to n")


def equal_to(oracle: Callable[[int], list[int]]) -> Callable[[int, Sequence[int]], None]:
    def check(n: int, v: Sequence[int]) -> None:
        if list(v) != oracle(n):
            raise Mismatch("differs from the reference decode")
    return check


# --- trees -----------------------------------------------------------------

@dataclass(frozen=True)
class TextForm:
    """How one tree text form writes atoms, empty forests and brackets."""

    open: str
    sep: str
    close: str
    atom: Callable[[int], str]
    empty: str


SERIAL = TextForm("(", " ", ")", lambda v: f"a{v}", "()")


def render_form(codec: str, ulimit: int) -> TextForm:
    """The form hftree.render uses: braces for hfs, parentheses otherwise."""
    o, s, c = ("{", ",", "}") if codec == "hfs" else ("(", " ", ")")
    return TextForm(o, s, c, str, "0" if ulimit > 1 else o + c)


@dataclass(frozen=True)
class Shape:
    """Tree shape from one walk: every node, distinct subtrees, deepest path."""

    nodes: int
    distinct: int
    depth: int


class TreeOracle:
    """Expected expansion of every tree node, memoised by code.

    A node with code c >= ulimit has children expand(c - ulimit); each
    child code is below c, so sorting codes orders children first.
    """

    def __init__(self, expand: Callable[[int], list[int]], ulimit: int):
        self.expand, self.ulimit = expand, ulimit
        self.kids: dict[int, list[int]] = {}

    def children(self, code: int) -> list[int]:
        ks = self.kids.get(code)
        if ks is None:
            ks = self.kids[code] = self.expand(code - self.ulimit)
        return ks

    def reachable(self, root: int) -> list[int]:
        """Every code in root's tree, ascending (so children come first)."""
        seen, todo = {root}, [root]
        while todo:
            c = todo.pop()
            if c >= self.ulimit:
                for k in self.children(c):
                    if k not in seen:
                        seen.add(k)
                        todo.append(k)
        return sorted(seen)

    def texts(self, root: int, form: TextForm) -> dict[int, str]:
        """Text of every subtree reachable from root, keyed by its code."""
        out: dict[int, str] = {}
        for c in self.reachable(root):
            if c < self.ulimit:
                out[c] = form.atom(c)
            elif not self.children(c):
                out[c] = form.empty
            else:
                out[c] = form.open + form.sep.join(out[k] for k in self.children(c)) + form.close
        return out

    def walk(self, tree, code: int) -> tuple[Shape, bytes]:
        """Check tree against code's expected expansion; return its shape.

        Works on any nodes that carry .value (atoms) or .children
        (forests).  The second result is a digest of the tree's
        distinct-subtree table, a canonical summary of its structure.
        """
        intern: dict[tuple, int] = {}
        u = self.ulimit

        def leaf(node, c: int) -> int:
            if getattr(node, "children", None) is not None or getattr(node, "value", None) != c:
                raise Mismatch(f"expected atom {c}")
            return intern.setdefault(("a", c), len(intern))

        def forest(node, c: int) -> list[int]:
            kids = getattr(node, "children", None)
            codes = self.children(c)
            if kids is None or len(kids) != len(codes):
                raise Mismatch("forest has the wrong number of children")
            return codes

        if code < u:
            leaf(tree, code)
            return Shape(1, 1, 1), sha256(repr(list(intern)).encode()).digest()
        nodes, depth = 0, 1
        stack: list[tuple[object, list[int], list[int]]] = [(tree, forest(tree, code), [])]
        while stack:
            node, codes, ids = stack[-1]
            i = len(ids)
            if i == len(codes):
                stack.pop()
                nodes += 1
                nid = intern.setdefault(tuple(ids), len(intern))
                if stack:
                    stack[-1][2].append(nid)
                continue
            child, c = node.children[i], codes[i]
            if c < u:
                ids.append(leaf(child, c))
                nodes += 1
                depth = max(depth, len(stack) + 1)
            else:
                stack.append((child, forest(child, c), []))
                depth = max(depth, len(stack))
        return Shape(nodes, len(intern), depth), sha256(repr(list(intern)).encode()).digest()


class _Atom:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class _Forest:
    __slots__ = ("children",)

    def __init__(self, children: list):
        self.children = children


_TOKEN = re.compile(r"\(|\)|a(\d+)| |(.)")


def parse_tree(text: str):
    """Parse serialized tree text ('(a2 ())') without the library's parser."""
    stack: list[list] = []
    result = None
    for m in _TOKEN.finditer(text.strip()):
        tok = m.group(0)
        if m.group(2) is not None or (result is not None and tok != " "):
            raise Mismatch(f"unexpected {tok!r} in tree text")
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise Mismatch("unmatched ')' in tree text")
            node = _Forest(stack.pop())
            if stack:
                stack[-1].append(node)
            else:
                result = node
        elif tok != " ":
            node = _Atom(int(m.group(1)))
            if stack:
                stack[-1].append(node)
            else:
                result = node
    if stack or result is None:
        raise Mismatch("incomplete tree text")
    return result


_DOT_NODE = re.compile(r'\s*n(\d+) \[label="([0-9a-f]+)"\];')
_DOT_EDGE = re.compile(r'\s*n(\d+) -> n(\d+) \[label="(\d+)"\];')


def check_dot(dot: str, texts: dict[int, str]) -> None:
    """Check a shared-subtree DOT graph against the expected subtree texts.

    Each node's ordered out-edges spell its serialized text from its
    children's texts (leaves are read off their label).  That text must
    be an expected subtree whose sha256 prefix is the node's label, and
    every distinct subtree must appear exactly once.
    """
    lines = dot.strip().split("\n")
    if lines[0] != "digraph tree {" or lines[-1] != "}":
        raise Mismatch("not a digraph")
    labels: dict[str, str] = {}
    edges: dict[str, list[tuple[int, str]]] = {}
    for line in lines[1:-1]:
        if m := _DOT_NODE.fullmatch(line):
            labels[m.group(1)] = m.group(2)
        elif m := _DOT_EDGE.fullmatch(line):
            edges.setdefault(m.group(1), []).append((int(m.group(3)), m.group(2)))
        else:
            raise Mismatch(f"unexpected DOT line {line!r}")
    width = len(next(iter(labels.values()), ""))

    def label(t: str) -> str:
        return sha256(t.encode()).hexdigest()[:width]

    expected = set(texts.values())
    leaves = {label(t): t for t in expected if not t.startswith("(") or t == "()"}
    text_of: dict[str, str] = {}
    for start in labels:
        stack, open_ = [start], {start}
        while stack:
            nid = stack[-1]
            out = sorted(edges.get(nid, ()))
            pending = [c for _, c in out if c not in text_of]
            if any(c in open_ or c not in labels for c in pending):
                raise Mismatch("DOT edges form a cycle or name an unknown node")
            if pending:
                stack.extend(pending)
                open_.update(pending)
                continue
            stack.pop()
            open_.discard(nid)
            if [o for o, _ in out] != list(range(len(out))):
                raise Mismatch("DOT edge ordinals are not 0..k-1")
            t = ("(" + " ".join(text_of[c] for _, c in out) + ")" if out
                 else leaves.get(labels[nid], ""))
            if t not in expected or label(t) != labels[nid]:
                raise Mismatch("DOT node does not match a subtree of the decode")
            text_of[nid] = t
    if len(text_of) != len(expected) or set(text_of.values()) != expected:
        raise Mismatch("DOT graph does not hold each distinct subtree exactly once")


def dec_to_int(text: str) -> int:
    """Parse decimal or 0x-hex text of any length without the digit limit."""
    s = text.strip()
    if s.startswith("0x"):
        return int(s, 16)
    if not (s.isascii() and s.isdigit()):
        raise Mismatch(f"not a natural number: {s[:40]!r}")
    if len(s) <= 4000:
        return int(s)
    half = len(s) // 2
    return dec_to_int(s[:half]) * 10 ** (len(s) - half) + dec_to_int(s[half:])


def parse_list(text: str) -> list[int]:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise Mismatch(f"not a bracketed list: {s[:40]!r}")
    return [dec_to_int(tok) for tok in s[1:-1].split(",")] if s != "[]" else []


def list_text(values: Sequence[int]) -> str:
    """CLI list text; values past 64 bits are written in hex."""
    return "[" + ",".join(str(v) if v.bit_length() <= 64 else hex(v) for v in values) + "]"
