"""The paper's definitions as plain Python: the model every test checks hfcodec against.

Tarau, "Ranking Catamorphisms and Unranking Anamorphisms on Hereditarily
Finite Datatypes" (2008), defines each codec in a few lines.  Each is
restated here once, in its most direct form: digits by repeated
division, sets as the positions of bin()'s ones, Lehmer digits by
counting, trees by recursion.  Nothing here imports hfcodec
(tests/test_model.py fails on any import outside the standard library),
and everything takes and returns plain data: ints, lists, and trees as
nested tuples, an atom being its int and a forest the tuple of its
children.  So a test compares plain values, never through hfcodec's own
equality.  The definitions are written to be read, not to be fast: they
expect valid input, and the tree ones recurse once per level.
"""

import re
import sys
from hashlib import sha256
from itertools import accumulate, groupby
from math import isqrt


# --- bits, bases and decimals -------------------------------------------------

def bits(n):
    """Bits of n, least significant first, as bin() prints them; [0] for 0."""
    return list(map(int, reversed(bin(n)[2:])))


def from_bits(bs):
    return int("".join(map(str, reversed(bs))) or "0", 2)


def to_base(base, n):
    """Digits of n, least significant first: the remainders of repeated
    division by base, until the quotient is 0; [0] for 0."""
    digits = []
    while True:
        n, d = divmod(n, base)
        digits.append(d)
        if n == 0:
            return digits


def from_base(base, ds):
    """The sum of ds[i] * base**i, by Horner's rule."""
    n = 0
    for d in reversed(ds):
        n = n * base + d
    return n


def decimal(n):
    """n as str() prints it with no int/str digit limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


# --- sets, functions and runs -------------------------------------------------

def nat2set(n):
    """Ackermann's decoding: the positions of n's one bits, in increasing order."""
    return [i for i, c in enumerate(reversed(bin(n))) if c == "1"]


def set2nat(s):
    """The sum of 2**e over the set: the natural whose one bits are its elements."""
    members = set(s)
    return from_bits([int(i in members) for i in range(max(s, default=-1) + 1)])


def fun2set(f):
    """Each value plus one, summed up to it, less one: a strictly increasing set."""
    return [total - 1 for total in accumulate(v + 1 for v in f)]


def set2fun(s):
    return [e - prev - 1 for prev, e in zip([-1, *s], s)]


def nat2fun(n):
    return set2fun(nat2set(n))


def fun2nat(f):
    return set2nat(fun2set(f))


def nat2rle(n):
    """Each run of equal bits of n as its length less one; [] for 0."""
    return [len(list(run)) - 1 for _, run in groupby(bits(n))] if n else []


def rle2bits(rs):
    """c + 1 equal bits per count c, the runs alternating so that the last is ones."""
    return [1 - (len(rs) - 1 - i) % 2 for i, c in enumerate(rs) for _ in range(c + 1)]


def rle2nat(rs):
    return from_bits(rle2bits(rs))


# --- pairings and tuples --------------------------------------------------------

def cantor_pair(x, y):
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z):
    """The pair on z's anti-diagonal w, the largest with w * (w + 1) / 2 <= z."""
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def pepis_pair(x, y):
    return 2 ** x * (2 * y + 1) - 1


def pepis_unpair(z):
    """x is how often 2 divides z + 1, and z + 1 == 2**x * (2y + 1)."""
    x, m = 0, z + 1
    while m % 2 == 0:
        x, m = x + 1, m // 2
    return x, (m - 1) // 2


def to_tuple(k, n):
    """Deal n's bits round-robin: component i gets bits i, i + k, i + 2k, ...
    The bitmerge pairing is k == 2."""
    bs = bits(n)
    return [from_bits(bs[i::k]) for i in range(k)]


def from_tuple(ns):
    """Bit e of component i is bit e * k + i of the merge."""
    k = len(ns)
    return set2nat(sorted(e * k + i for i, m in enumerate(ns) for e in nat2set(m)))


def ftuple2nat(ns):
    """A tuple of any length: its length less one, paired by pepis with its merge."""
    return pepis_pair(len(ns) - 1, from_tuple(ns)) if ns else 0


def nat2ftuple(n):
    if n == 0:
        return []
    k, m = pepis_unpair(n)
    return to_tuple(k + 1, m)


# --- factoradics, Lehmer codes and permutations -------------------------------

def fr(n):
    """Factoradic digits, least significant first: n mod 1, its quotient mod 2,
    that quotient mod 3, ... until the quotient is 0; [0] for 0."""
    digits, j = [], 1
    while n or not digits:
        n, d = divmod(n, j)
        digits.append(d)
        j += 1
    return digits


def rf(ds):
    """The sum of ds[i] * i!, whatever the digits."""
    total, weight = 0, 1  # weight == i!
    for i, d in enumerate(ds):
        total += d * weight
        weight *= i + 1
    return total


def lehmer(ps):
    """Digit i counts the entries after entry i that are smaller than it."""
    return [sum(y < x for y in ps[i + 1:]) for i, x in enumerate(ps)]


def sf(k):
    """0! + 1! + ... + (k-1)!: how many permutations are shorter than k."""
    return rf([1] * k)


def to_sf(n):
    """(k, n - sf(k)) for the largest k with sf(k) <= n."""
    k, s, f = 0, 0, 1  # s == sf(k), f == k!
    while s + f <= n:
        s += f
        k += 1
        f *= k
    return k, n - s


def unlehmer(ls):
    """The permutation whose Lehmer code is ls: digit d picks the d-th
    smallest value not yet taken."""
    pool = list(range(len(ls)))
    return [pool.pop(d) for d in ls]


def nth2perm(size, rank):
    """The permutation at lexicographic rank `rank` among those of `size`:
    its Lehmer code is rank's factoradic digits, most significant first,
    led by zeros."""
    ds = fr(rank)[::-1] if rank else []
    return unlehmer([0] * (size - len(ds)) + ds)


def perm2nth(ps):
    return len(ps), rf(lehmer(ps)[::-1])


def nat2perm(n):
    """Permutations by size, then lexicographically."""
    return nth2perm(*to_sf(n))


def perm2nat(ps):
    return sf(len(ps)) + perm2nth(ps)[1]


# --- trees: the unfold, the fold, and their texts -------------------------------

# each tree codec's expand (a natural's child codes) and collapse (its inverse)
TREE_CODECS = {
    "hfs": (nat2set, set2nat),
    "hff": (nat2fun, fun2nat),
    "hff1": (nat2ftuple, ftuple2nat),
    "hff2": (nat2rle, rle2nat),
    "hfp": (nat2perm, perm2nat),
}


def unrank(codec, ulimit, n):
    """The anamorphism: n itself below ulimit, else the forest of the
    unranked codes that expand gives n - ulimit."""
    if n < ulimit:
        return n
    return tuple([unrank(codec, ulimit, m) for m in TREE_CODECS[codec][0](n - ulimit)])


def rank(codec, ulimit, t):
    """The catamorphism: an atom is its value, a forest ulimit plus the
    collapse of its children's ranks."""
    if isinstance(t, int):
        return t
    return ulimit + TREE_CODECS[codec][1]([rank(codec, ulimit, c) for c in t])


def plain(t):
    """A tree of any library as the model's data, read off .value and .children alone."""
    children = getattr(t, "children", None)
    return t.value if children is None else tuple([plain(c) for c in children])


def serialize(t):
    """tree := "a" decimal | "(" [tree {" " tree}] ")"."""
    if isinstance(t, int):
        return f"a{t}"
    return "(" + " ".join([serialize(c) for c in t]) + ")"


SET_STYLE, FUN_STYLE = "{,}", "( )"  # opening bracket, separator, closing bracket


def render(style, ulimit, t):
    """Atoms as decimals, forests in style; an empty forest is 0 when ulimit > 1."""
    if isinstance(t, int):
        return str(t)
    if not t and ulimit > 1:
        return "0"
    open_, separator, close = style
    return open_ + separator.join([render(style, ulimit, c) for c in t]) + close


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def deserialize(text, max_depth=None):
    """The tree text writes by serialize's grammar, with spaces anywhere and
    digits led by zeros allowed; a ParseError at the first token that breaks
    the grammar or opens a forest max_depth forests deep.  A token is an 'a'
    with the ASCII digits after it, or any other character but a space."""
    end = (len(text), None)
    stream = ((m.start(), m.group()) for m in re.finditer("a[0-9]*|[^ ]", text))

    def tree(at, token, depth):
        if token == "(":
            if max_depth is not None and depth >= max_depth:
                raise ParseError(f"nesting exceeds depth limit {max_depth}", at)
            children = []
            for at, token in stream:
                if token == ")":
                    return tuple(children)
                children.append(tree(at, token, depth + 1))
            raise ParseError("unclosed '('", len(text))
        if token is None:
            raise ParseError("empty input", 0)
        if token == ")":
            raise ParseError("unmatched ')'", at)
        if token == "a":
            raise ParseError("atom tag 'a' without digits", at)
        if token[0] == "a":
            return int(token[1:])
        raise ParseError(f"unexpected character {token!r}", at)

    t = tree(*next(stream, end), 0)
    at, token = next(stream, end)
    if token is None:
        return t
    if token == ")":
        raise ParseError("unmatched ')'", at)
    if token[0] in "(a":
        raise ParseError("trailing input after complete tree", at)
    raise ParseError(f"unexpected character {token!r}", at)


def to_dag(t):
    """The distinct subtrees of t, numbered in post-order of first occurrence:
    the root's number, and by number each one's (atom value or None, child
    numbers)."""
    numbers = {}

    def number(node):
        key = (node, ()) if isinstance(node, int) else (None, tuple([number(c) for c in node]))
        return numbers.setdefault(key, len(numbers))

    return number(t), list(numbers)


def to_dot(t, hash_len=8):
    return dag_to_dot(to_dag(t), hash_len)


def dag_to_dot(dag, hash_len=8):
    """Graphviz text of to_dag's output: a node per distinct subtree, labelled
    by the sha256 prefix of its serialize text, then each forest's edges to
    its children, labelled by child ordinal."""
    texts, nodes = [], dag[1]
    for atom, children in nodes:  # children come before their parents
        texts.append(f"a{atom}" if atom is not None else
                     "(" + " ".join([texts[c] for c in children]) + ")")
    return "\n".join([
        "digraph tree {",
        *(f'  n{i} [label="{sha256(text.encode()).hexdigest()[:hash_len]}"];'
          for i, text in enumerate(texts)),
        *(f'  n{i} -> n{c} [label="{ordinal}"];'
          for i, (_, children) in enumerate(nodes) for ordinal, c in enumerate(children)),
        "}"])
