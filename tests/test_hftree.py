import hashlib
import random
import sys
import time
import tracemalloc
from contextlib import contextmanager
from itertools import islice

import pytest

from hfcodec import hftree, pairing
from hfcodec.hftree import (
    TREE_CODECS,
    Atom,
    Codec,
    Forest,
    FUN_STYLE,
    ParseError,
    SET_STYLE,
    codec_hff,
    codec_hff1,
    codec_hfp,
    codec_hfs,
    dag_to_dot,
    deserialize,
    enumerate_trees,
    fun_show,
    fun_show1,
    fun_show2,
    hff2nat,
    hfs2nat,
    nat2hff,
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

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below skips itself without hypothesis
    given = None


def F(*ts):
    return Forest(ts)


def subtrees(t):
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Forest):
            stack.extend(node.children)


def test_equality_and_hash():
    assert Atom(3) == Atom(3)
    assert Atom(3) != Atom(4)
    assert Atom(0) != F()
    assert F() != Atom(0)
    assert not (F() == Atom(0))
    assert F(Atom(1), F()) == F(Atom(1), F())
    assert F(Atom(1), F()) != F(F(), Atom(1))
    assert hash(F(Atom(1), F())) == hash(F(Atom(1), F()))
    assert len({Atom(2), Atom(2), F(Atom(2)), F(Atom(2))}) == 2


def test_deep_chain_is_safe():
    # a unary chain far past the interpreter recursion limit
    a = b = F()
    for _ in range(5000):
        a, b = F(a), F(b)
    try:
        assert a == b
        assert hash(a) == hash(b)
        assert deserialize(serialize(a)) == a
        assert a != F(Atom(0))
    except RecursionError:
        # drop the recursive traceback: pytest compares the locals of its
        # frames to shorten it, which takes hours on these trees
        raise AssertionError("recursion limit hit on a 5001-level chain") from None


def test_hfs_golden_trees():
    c = codec_hfs()
    assert unrank(c, 0) == F()
    assert unrank(c, 1) == F(F())
    assert unrank(c, 42) == F(F(F()), F(F(), F(F())), F(F(), F(F(F()))))
    assert rank(c, unrank(c, 42)) == 42


def test_hff_golden_trees():
    c = codec_hff()
    assert unrank(c, 0) == F()
    assert unrank(c, 1) == F(F())
    assert unrank(c, 42) == F(F(F()), F(F()), F(F()))
    assert rank(c, F(F(F()), F(F()), F(F()))) == 42


def test_hfp_golden_tree():
    c = codec_hfp(10)
    assert unrank(c, 42) == F(Atom(3), Atom(2), Atom(0), Atom(1))
    assert rank(c, F(Atom(3), Atom(2), Atom(0), Atom(1))) == 42


def test_ulimit_golden_trees():
    assert unrank(codec_hfs(4), 12345) == F(
        Atom(0), Atom(2), F(), F(Atom(0)), F(Atom(3)), F(Atom(0), Atom(3))
    )
    assert unrank(codec_hff(4), 12345) == F(
        Atom(0), Atom(1), Atom(1), Atom(0), F(Atom(1)), Atom(0)
    )


@pytest.mark.parametrize("make", TREE_CODECS.values())
def test_expand_shrinks(make):
    # termination argument: every child code is strictly below its parent's
    for ulimit in (0, 2, 10):
        c = make(ulimit)
        for n in range(1, 3000):
            assert all(e < n for e in c.expand(n))


def test_enumerate_trees():
    got = list(islice(enumerate_trees(codec_hfs()), 5))
    assert got == [F(), F(F()), F(F(F())), F(F(), F(F())), F(F(F(F())))]
    assert next(enumerate_trees(codec_hfs(), start=5)) == unrank(codec_hfs(), 5)


def test_render_goldens():
    assert set_show(42) == "{{{}},{{},{{}}},{{},{{{}}}}}"
    assert set_show(0) == "{}"
    assert fun_show(0) == "()"
    assert fun_show(1234567890) == (
        "((()) ((())) (()) () (()) (() () ()) () (()) ((())) () ((())) ((())))"
    )
    assert fun_show(1234567890, 10) == "(3 2 0 1 7 0 1 2 0 2 2)"
    assert fun_show1(1234567890, 10) == "(((((0 3)) (((2 0 1))) 1)))"
    assert fun_show2(1234567890, 10) == "(2 0 1 1 0 0 6 1 0 0 1 1 1 0 1 0)"
    assert perm_show(42, 10) == "(3 2 0 1)"
    assert perm_show(1234567890, 10) == "(1 6 (0) 2 0 3 0 7 5 (0 1) 9 4 8)"


def test_render_zero_rule():
    # an empty forest prints as 0 only when that digit cannot be an atom's
    assert fun_show(10, 10) == "0"
    assert fun_show(10) == "((()) (()))"
    assert render(FUN_STYLE, 2, F(F(), Atom(1))) == "(0 1)"
    assert render(FUN_STYLE, 1, F(F())) == "(())"
    assert render(SET_STYLE, 0, F(F(), F(F()))) == "{{},{{}}}"


def test_render_rejects_out_of_range_atoms():
    with pytest.raises(ValueError, match="out of range"):
        render(FUN_STYLE, 2, F(Atom(2)))
    with pytest.raises(ValueError, match="out of range"):
        rank(codec_hfs(3), F(Atom(3)))


def test_serialize_goldens():
    assert serialize(Atom(7)) == "a7"
    assert serialize(F()) == "()"
    assert serialize(F(Atom(2), F())) == "(a2 ())"
    assert serialize(F(F(Atom(0)), Atom(10))) == "((a0) a10)"


def test_deserialize_is_lenient_about_spacing():
    assert deserialize("( a1  a2 )") == F(Atom(1), Atom(2))
    assert deserialize(" () ") == F()
    assert deserialize("a7") == Atom(7)


@pytest.mark.parametrize(
    "text,max_depth,message,pos",
    [
        ("", None, "empty input", 0),
        (")", None, "unmatched ')'", 0),
        ("(", None, "unclosed '('", 1),
        ("a", None, "atom tag 'a' without digits", 0),
        ("(a2 x)", None, "unexpected character 'x'", 4),
        ("() ()", None, "trailing input after complete tree", 3),
        ("(a2))", None, "unmatched ')'", 4),
        ("a1 a2", None, "trailing input after complete tree", 3),
        ("() (", None, "trailing input after complete tree", 3),
        ("() a1", None, "trailing input after complete tree", 3),
        ("(a)", None, "atom tag 'a' without digits", 1),
        ("(a2 a)", None, "atom tag 'a' without digits", 4),
        ("(\n)", None, "unexpected character '\\n'", 1),
        ("(((", None, "unclosed '('", 3),
        ("a1 )", None, "unmatched ')'", 3),
        ("((((()))))", 3, "nesting exceeds depth limit 3", 3),
    ],
)
def test_deserialize_errors_carry_positions(text, max_depth, message, pos):
    with pytest.raises(ParseError) as exc:
        deserialize(text, max_depth=max_depth)
    assert exc.value.position == pos
    assert str(exc.value) == f"{message} (at position {pos})"
    assert exc.value.__context__ is None  # the grouped pass leaves no trace


def test_unrank_depth_cap():
    c = codec_hfs()
    with pytest.raises(RecursionError):
        unrank(c, 1 << 65536, max_depth=3)
    # same shape fits under a generous cap
    unrank(c, 1 << 600, max_depth=10_000)


def test_depth_limit_at_the_height_of_a_tree_taller_than_its_levels():
    # 2054 distinct forests, met in 3 levels, 6 levels tall: a limit below
    # the forest count is checked against the heights, which the levels miss
    c = codec_hfs()
    n = random.Random(41).getrandbits(4096) | 1 << 4095
    t = unrank(c, n)
    height = hftree._fold(t, lambda a: 0, lambda heights: 1 + max(heights, default=0))
    assert height < len(to_dag(t).nodes)
    assert unrank(c, n, max_depth=height) == t
    with pytest.raises(RecursionError) as exc:
        unrank(c, n, max_depth=height - 1)
    assert str(exc.value) == f"tree depth exceeds limit {height - 1}"


def test_a_long_hff1_chain_decodes_in_linear_time():
    # 16002 levels of one code each: ~0.7 s; work per level that grows with
    # the codes found so far (a set difference_update against the memo
    # dict walks all of it) takes tens of seconds
    start = time.monotonic()
    t = unrank(codec_hff1(), 1 << 16000)
    elapsed = time.monotonic() - start
    assert elapsed < 3, f"took {elapsed:.2f}s, budget is 3s"
    assert len(to_dag(t).nodes) == 16002


def test_expand_that_does_not_descend_breaks_the_contract():
    # the codes are built in ascending order, so a child at or above its
    # parent's code is not built yet when the parent is; this used to loop
    # for ever.  leaps gives the small code 10 a big child, whose halvings
    # end at 32, whose child leaps back up
    stuck = Codec("stuck", 0, lambda m: [m], sum)
    leaps = Codec("leaps", 0, lambda m: [1 << 100] if m < 50 else [m >> 1], sum)
    for c, n, text in [(stuck, 5, "5"), (stuck, 1 << 70, str(1 << 70)),
                       (stuck, 1 << 20000, "<20001-bit integer>"), (leaps, 10, "10")]:
        with pytest.raises(ValueError) as exc:
            unrank(c, n)
        assert str(exc.value) == (f"codec {c.name!r} breaks its termination contract: "
                                  f"a child of code {text} is not below it")


def test_deserialize_depth_cap():
    with pytest.raises(ParseError):
        deserialize("((((()))))", max_depth=3)
    assert deserialize("((((()))))", max_depth=10) == F(F(F(F(F()))))


def test_deep_hff1_round_trip():
    c = codec_hff1()
    # (code, distinct subtrees): a random code 25 levels deep, and 1 << 5000,
    # a chain 5002 levels deep that a recursive walk could not get through
    cases = [(random.Random(13).getrandbits(2000) | (1 << 1999), 437), (1 << 5000, 5002)]
    for n, dag_nodes in cases:
        try:
            t = unrank(c, n)
            assert rank(c, t) == n
            assert deserialize(serialize(t)) == t
            assert len(to_dag(t).nodes) == dag_nodes
            assert hash(t) == hash(unrank(c, n))
        except RecursionError:
            # drop the recursive traceback: pytest compares the locals of its
            # frames to shorten it, which takes hours on these trees
            raise AssertionError(f"recursion limit hit on a {n.bit_length()}-bit code") from None


def test_to_dag_shares_repeats():
    d = to_dag(Atom(5))
    assert len(d.nodes) == 1
    assert d.edges == []

    d = to_dag(F(F(), F()))
    assert len(d.nodes) == 2
    assert len(d.edges) == 2

    t = nat2hfs(42)
    d = to_dag(t)
    distinct = {serialize(s) for s in subtrees(t)}
    assert len(d.nodes) == len(distinct) == 6
    # children are interned before their parents
    for node in d.nodes:
        for child in node.children:
            assert child < node.id


def test_dag_edges_keep_child_order():
    t = F(Atom(1), F(Atom(1)), Atom(1))
    d = to_dag(t)
    root = d.nodes[d.root]
    assert [ordinal for p, ordinal, c in d.edges if p == root.id] == [0, 1, 2]
    assert sum(1 for n in d.nodes if n.atom == 1) == 1
    a1 = next(n.id for n in d.nodes if n.atom == 1)
    assert sum(1 for p, o, c in d.edges if c == a1) == 3


def test_dot_output():
    dot = to_dot(F(F(), F()))
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    empty_label = hashlib.sha256(b"()").hexdigest()[:8]
    assert empty_label in dot
    assert '[label="0"]' in dot and '[label="1"]' in dot

    dot = dag_to_dot(to_dag(Atom(3)), hash_len=4)
    assert hashlib.sha256(b"a3").hexdigest()[:4] in dot


def test_dot_memory_is_linear_on_a_chain():
    # hff1 of a power of two is a chain: keeping every distinct subtree's
    # text at once peaked at 65 MB here, for under 0.5 MB of DOT text
    t = unrank(codec_hff1(), 1 << 8000)
    tracemalloc.start()
    try:
        to_dot(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MB, budget is 16 MB"


def test_wrapper_functions_accept_ulimit():
    assert nat2hfs(42) == unrank(codec_hfs(), 42)
    assert nat2hff(12345, 4) == unrank(codec_hff(4), 12345)
    assert hfs2nat(nat2hfs(2008)) == 2008
    assert hff2nat(nat2hff(2008, 10), 10) == 2008


def test_negative_input_rejected():
    with pytest.raises(ValueError):
        unrank(codec_hfs(), -1)
    with pytest.raises(ValueError):
        Atom(-1)


@pytest.mark.parametrize("make", TREE_CODECS.values())
def test_bad_ulimit_is_refused_before_decoding(make):
    # below 0 the termination contract fails: code 1 would re-expand forever
    with pytest.raises(ValueError, match="ulimit must be a natural, got -1"):
        make(-1)
    with pytest.raises(TypeError, match="ulimit must be an int, got bool"):
        make(True)
    with pytest.raises(TypeError, match="ulimit must be an int, got float"):
        make(2.0)


# --- sharing: results against a naive unrank that shares nothing -------------

def naive_unrank(codec, n):
    """(tree, forest height), every node built where it occurs: the reference."""
    u = codec.ulimit
    if n < u:
        return Atom(n), 0
    kids = [naive_unrank(codec, m) for m in codec.expand(n - u)]
    return F(*[t for t, _ in kids]), 1 + max([h for _, h in kids], default=0)


@contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def distinct_objects(t):
    seen = set()  # ids stay unique while t keeps every node alive
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Forest):
                stack.extend(node.children)
    return len(seen)


def assert_fully_shared(t):
    # as many node objects as distinct subtrees: equal subtrees are one object
    assert distinct_objects(t) == len(to_dag(t).nodes)


def depth_limit_raises(c, n, max_depth):
    try:
        unrank(c, n, max_depth=max_depth)
    except RecursionError:
        return True
    return False


def check_against_naive(c, n):
    with recursion_limit(10_000):  # 1 << k decodes to a k + 2 level hff1 chain
        ref, height = naive_unrank(c, n)
    t = unrank(c, n)
    assert t == ref
    assert rank(c, t) == n
    assert serialize(t) == serialize(ref)
    assert to_dot(t) == to_dot(ref)
    assert_fully_shared(t)
    assert_fully_shared(deserialize(serialize(ref)))
    # the root forest is never refused, so a limit below 1 acts as 1
    for d in sorted({0, 1, height - 1, height}):
        assert depth_limit_raises(c, n, d) == (height > max(d, 1)), d


if given is not None:
    @st.composite
    def codes(draw, max_bits=4096):
        bits = draw(st.integers(0, max_bits))
        return draw(st.integers(0, (1 << bits) - 1))


@pytest.mark.parametrize("make", TREE_CODECS.values())
@pytest.mark.parametrize("ulimit", [0, 2, 16])
def test_shared_unrank_matches_naive_unrank(make, ulimit):
    if given is None:
        pytest.skip("needs hypothesis")
    c = make(ulimit)

    @settings(max_examples=15)
    @given(codes())
    def prop(n):
        check_against_naive(c, n)

    prop()


@pytest.mark.parametrize("make", TREE_CODECS.values())
def test_shared_unrank_fixed_codes(make):
    rng = random.Random(5)
    for n in [0, 1, 2, 42, 1 << 64, (1 << 64) - 1, 1 << 300, rng.getrandbits(4096)]:
        check_against_naive(make(0), n)


def test_repeat_found_shallow_then_deep_is_depth_checked():
    # hfs children come in ascending order: 3 = {0, 1} is built first as a
    # child of the root, then met again below 256 = {8} and 8 = {3}
    c = codec_hfs()
    n = (1 << 3) | (1 << 256)
    ref, height = naive_unrank(c, n)
    assert height == 6
    with pytest.raises(RecursionError, match="limit 5"):
        unrank(c, n, max_depth=5)
    t = unrank(c, n, max_depth=6)
    assert t == ref
    three = t.children[0]
    assert three == unrank(c, 3)
    assert t.children[1].children[0].children[0] is three


def test_equal_subtrees_are_one_object():
    c = codec_hfs()
    t = unrank(c, 42)
    assert t.children[1].children[0] is t.children[0].children[0] is t.children[2].children[0]
    for make in TREE_CODECS.values():
        for ulimit in (0, 16):
            t = unrank(make(ulimit), random.Random(9).getrandbits(2048))
            assert_fully_shared(t)
            assert_fully_shared(deserialize(serialize(t)))
    # atoms are shared by value, however their digits are written
    t = deserialize("(a7 (a07) a7 (a7))")
    assert t.children[0] is t.children[1].children[0] is t.children[2]
    assert t.children[1] is t.children[3]


def test_65536_bit_hfs_costs_distinct_subtrees():
    # ~1.6 million nodes but ~33 thousand distinct subtrees: a walk per node
    # takes ~11 s, a walk per distinct subtree under 1 s
    c = codec_hfs()
    n = random.Random(17).getrandbits(65536) | (1 << 65535)
    start = time.monotonic()
    t = unrank(c, n)
    assert rank(c, t) == n
    dag = to_dag(t)
    hash(t)
    elapsed = time.monotonic() - start
    assert elapsed < 2, f"took {elapsed:.2f}s, budget is 2s"
    assert 30_000 < len(dag.nodes) < 40_000


def test_65536_bit_hfs_equality_costs_distinct_pairs():
    # ~1.6 million node pairs but ~33 thousand distinct ones: comparing pair
    # by pair takes ~2 s, once per distinct pair ~0.2 s
    c = codec_hfs()
    n = random.Random(17).getrandbits(65536) | (1 << 65535)
    t = unrank(c, n)
    parsed = deserialize(serialize(t))
    again = unrank(c, n)
    start = time.monotonic()
    assert parsed == t
    assert again == t
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"took {elapsed:.2f}s, budget is 1s"
    assert unrank(c, n ^ (1 << 40000)) != t


def test_equality_on_shared_trees_finds_every_difference():
    x, y = F(F(), Atom(1)), F(F(), Atom(2))
    assert F(x, x) != F(y, y)
    assert F(x, x) != F(x, y)
    assert F(x, x) != F(F(F(), Atom(1)), y)  # x meets a second partner
    assert F(x, F(x)) != F(x, F(y))
    assert F(x, F(x, x)) != F(x, F(x, F()))
    assert F(x, F(x, x)) == F(F(F(), Atom(1)), F(x, F(F(), Atom(1))))
    assert F(x, x) != F(x, Atom(1))
    assert F(F(), F()) != F(F(), F(F()))  # an empty forest against a full one
    assert F(F(F())) != F(F())
    rng = random.Random(29)
    for codec in (codec_hfs(), codec_hfp(16), codec_hff(2)):
        for _ in range(10):
            n = rng.getrandbits(1024) | (1 << 1023)
            t = unrank(codec, n)
            assert deserialize(serialize(t)) == t
            for m in (n ^ 1, n ^ (1 << rng.randrange(1024)), n + 1):
                u = unrank(codec, m)
                assert u != t and t != u, (codec.name, n, m)


def test_memo_keys_survive_colliding_int_hashes():
    # hash(m) is m mod 2**61 - 1, so these 20000 codes and atom values all
    # hash alike, as do the 4000 components of the hff1 code; a dict keyed
    # on the ints themselves takes ~10 s to fill
    p = (1 << 61) - 1
    kids = [p * k for k in range(1, 20001)]
    root = p * 30000
    c = Codec("colliding", 0, lambda n: kids if n == root else [], sum)
    text = "(" + " ".join(f"a{m}" for m in kids) + ")"
    hff1 = codec_hff1()
    n = pairing.ftuple2nat([(1 << 80) + i * p for i in range(4000)])
    start = time.monotonic()
    t = unrank(c, root)
    parsed = deserialize(text)
    dag = to_dag(parsed)
    wide = unrank(hff1, n)
    elapsed = time.monotonic() - start
    assert elapsed < 2, f"took {elapsed:.2f}s, budget is 2s"
    assert len(dag.nodes) == 20001
    assert t == F(*[F()] * 20000)
    assert [a.value for a in parsed.children] == kids
    assert rank(hff1, wide) == n
    assert_fully_shared(wide)


# --- deserialize's grouped pass against its plain pass ----------------------

def test_grouped_tokens_are_the_shallow_subtrees():
    h = hftree._GROUP_HEIGHT
    shallow = "(" * h + ")" * h
    tall = "(" + shallow + ")"
    tokens = hftree._GROUPED.findall(f"(a1 (()) {tall} (a2 x")
    assert tokens == ["(", "a1", "(())", "(", shallow, ")", "(", "a2", "x"]


@pytest.mark.parametrize("name", sorted(TREE_CODECS))
@pytest.mark.parametrize("ulimit", [0, 2, 16])
def test_deserialize_round_trips_fully_shared(name, ulimit):
    if given is None:
        pytest.skip("needs hypothesis")
    c = TREE_CODECS[name](ulimit)

    @settings(max_examples=15)
    @given(codes())
    def prop(n):
        t = unrank(c, n)
        parsed = deserialize(serialize(t))
        assert parsed == t
        assert_fully_shared(parsed)

    prop()


def test_repeat_read_shallow_then_deep_is_depth_checked():
    # 3 = {0, 1} is a group token below the root, and is met again inside
    # the group token of 8 = {3} below 256 = {8}: only that second place is
    # as deep as the limit, and the memo hit must still count it
    c = codec_hfs()
    n = (1 << 3) | (1 << 256)
    text = serialize(unrank(c, n))
    with pytest.raises(hftree._Reread):
        hftree._parse(text, 5, hftree._GROUPED)
    with pytest.raises(ParseError) as exc:
        deserialize(text, max_depth=5)
    assert str(exc.value) == str(plain_outcome(text, 5)[1])
    assert deserialize(text, max_depth=6) == unrank(c, n)


def parse_outcome(parse, text, max_depth):
    """The tree a parse returns, or the type, message and position of its error."""
    try:
        return parse(text, max_depth)
    except ValueError as exc:  # ParseError is a ValueError, as is int()'s digit limit
        return type(exc), str(exc), getattr(exc, "position", None)


def plain_outcome(text, max_depth):
    return parse_outcome(lambda s, d: hftree._parse(s, d, hftree._TOKEN), text, max_depth)


def nesting(text):
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def mutations(text, rng):
    """text, and copies with one kind of edit: a bracket dropped or doubled,
    a character or an atom past int()'s digit limit inserted, spaces
    doubled, or atoms written with leading zeros."""
    brackets = [i for i, ch in enumerate(text) if ch in "()"]
    out = [text, text.replace(" ", "  "), text.replace("a", "a0"), " " + text + " "]
    j = rng.randrange(len(text) + 1)
    out.append(text[:j] + " a" + "1" * 5000 + " " + text[j:])
    for _ in range(3):
        if brackets:  # an atom alone has none
            i = rng.choice(brackets)
            out += [text[:i] + text[i + 1:], text[:i] + text[i] + text[i:]]
        j = rng.randrange(len(text) + 1)
        out += [text[:j] + s + text[j:] for s in ("x", "\n", "7", "a", " ")]
    if " " in text:
        j = rng.choice([i for i, ch in enumerate(text) if ch == " "])
        out.append(text[:j] + " " + text[j:])
    return out


@pytest.mark.parametrize("name", sorted(TREE_CODECS))
def test_grouped_pass_agrees_with_plain_pass_on_mutations(name):
    rng = random.Random(31)
    texts = []
    for ulimit in (0, 2, 16):
        c = TREE_CODECS[name](ulimit)
        for n in (0, 1, 42, rng.getrandbits(64), rng.getrandbits(300), 1 << 40):
            texts.append(serialize(unrank(c, n)))
    for text in texts:
        depths = [None, *range(nesting(text) + 2)]
        for mutated in mutations(text, rng):
            for d in depths:
                want = plain_outcome(mutated, d)
                assert parse_outcome(deserialize, mutated, d) == want, (mutated, d)
                try:
                    got = hftree._parse(mutated, d, hftree._GROUPED)
                except (hftree._Reread, ValueError):
                    assert not isinstance(want, Forest | Atom), (mutated, d)
                else:
                    assert got == want, (mutated, d)
                    assert_fully_shared(got)
