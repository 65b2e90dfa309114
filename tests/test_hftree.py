import random
import re
import time
import tracemalloc
from itertools import islice

import pytest

import model
from conftest import F, assert_same, naturals, recursion_limit
from hfcodec import hftree, pairing
from hfcodec.hftree import (
    TREE_CODECS,
    Atom,
    Codec,
    Dag,
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
    from hypothesis import given, settings
except ImportError:  # the property tests below skip themselves without hypothesis
    given = None


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
    # the ulimit-10 goldens of 1234567890 are acceptance criterion 1's
    assert set_show(0) == "{}"
    assert fun_show(0) == "()"
    assert fun_show(1234567890) == (
        "((()) ((())) (()) () (()) (() () ()) () (()) ((())) () ((())) ((())))"
    )
    assert perm_show(42, 10) == "(3 2 0 1)"


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
    for text in ("(a1a2)", "( a1   a2 )"):  # the model's tokens need no spaces between them
        assert model.plain(deserialize(text)) == model.deserialize(text) == (1, 2)
        # the grouped pass reads them too: a split part 'a1a2' goes back to findall
        assert model.plain(hftree._parse(text, None, hftree._GROUPED)) == (1, 2)
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
        # int() takes the digits after each 'a', but the grammar does not
        ("(a1_0)", None, "unexpected character '_'", 3),
        ("(a+1)", None, "atom tag 'a' without digits", 1),
        ("(a\u0661)", None, "atom tag 'a' without digits", 1),
    ],
)
def test_deserialize_errors_carry_positions(text, max_depth, message, pos):
    with pytest.raises(ParseError) as exc:
        deserialize(text, max_depth=max_depth)
    assert exc.value.position == pos
    assert str(exc.value) == f"{message} (at position {pos})"
    assert exc.value.__context__ is None  # the grouped pass leaves no trace
    assert outcome(model.deserialize, text, max_depth) == f"ParseError: {exc.value} @{pos}"


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
    assert len(d.nodes) == len(model.to_dag(model.plain(t))[1]) == 6
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


def traced_peak(f, *args):
    """The peak of memory traced while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dot_memory_is_linear_on_a_chain():
    # hff1 of a power of two is a chain: keeping every distinct subtree's
    # text at once peaked at 65 MB here, for under 0.5 MB of DOT text
    peak = traced_peak(to_dot, unrank(codec_hff1(), 1 << 8000))
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MB, budget is 16 MB"


def test_print_memory_is_linear_on_a_chain():
    # no forest of a chain takes the one-join path, since its child is printed
    # after it is met; one string for every forest's text would be about
    # k * k bytes here, for 16 kB of text (the printer peaked at 1.6 MB)
    peak = traced_peak(serialize, unrank(codec_hff1(), 1 << 8000))
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MB, budget is 8 MB"


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


# --- sharing: results against the model, which shares nothing -----------------

def levels(t):
    """Forest levels of a model tree: 0 for an atom, 1 for an empty forest."""
    return 0 if isinstance(t, int) else 1 + max([levels(c) for c in t], default=0)


def build(t):
    """A model tree as hfcodec nodes, each one built where it occurs: nothing shared."""
    return Atom(t) if isinstance(t, int) else F(*[build(c) for c in t])


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


def check_against_the_model(c, n):
    with recursion_limit(10_000):  # 1 << k decodes to a k + 2 level hff1 chain
        want = model.unrank(c.name, c.ulimit, n)
        text = model.serialize(want)
        t = unrank(c, n)
        assert_same(model.serialize(model.plain(t)), text)
        assert rank(c, t) == n
        assert_same(serialize(t), text)
        for style in (SET_STYLE, FUN_STYLE):
            brackets = style.open + style.separator + style.close
            assert_same(render(style, c.ulimit, t), model.render(brackets, c.ulimit, want))
        assert_same(to_dot(t).split("\n"), model.to_dot(want).split("\n"))
    assert_fully_shared(t)
    assert_fully_shared(deserialize(text))
    # the DOT text pins to_dag to the model's: the heights can be read off it
    dag, heights = to_dag(t), []
    for node in dag.nodes:
        heights.append(0 if node.atom is not None else
                       1 + max([heights[k] for k in node.children], default=0))
    tallest = heights[dag.root]
    # the root forest is never refused, so a limit below 1 acts as 1
    for d in sorted({0, 1, tallest - 1, tallest}):
        assert depth_limit_raises(c, n, d) == (tallest > max(d, 1)), d


@pytest.mark.parametrize("make", TREE_CODECS.values())
@pytest.mark.parametrize("ulimit", [0, 2, 16])
def test_shared_unrank_matches_the_model(make, ulimit):
    if given is None:
        pytest.skip("needs hypothesis")
    c = make(ulimit)

    @settings(max_examples=15)
    @given(naturals())
    def prop(n):
        check_against_the_model(c, n)

    prop()


@pytest.mark.parametrize("make", TREE_CODECS.values())
def test_shared_unrank_fixed_codes(make):
    rng = random.Random(5)
    for n in [0, 1, 2, 42, 1 << 64, (1 << 64) - 1, 1 << 300, rng.getrandbits(4096)]:
        check_against_the_model(make(0), n)


def test_repeat_found_shallow_then_deep_is_depth_checked():
    # hfs children come in ascending order: 3 = {0, 1} is built first as a
    # child of the root, then met again below 256 = {8} and 8 = {3}
    c = codec_hfs()
    n = (1 << 3) | (1 << 256)
    want = model.unrank("hfs", 0, n)
    assert levels(want) == 6
    with pytest.raises(RecursionError, match="limit 5"):
        unrank(c, n, max_depth=5)
    t = unrank(c, n, max_depth=6)
    assert model.plain(t) == want
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


# --- printing: serialize and render against the model's grammar ---------------

def check_printers(roots, ulimit):
    """serialize and render of the first root, and of all roots printed
    with one memo, are the model's."""
    with recursion_limit(10_000):
        trees = [model.plain(t) for t in roots]
        want = [model.serialize(t) for t in trees]
        assert_same(serialize(roots[0]), want[0])
        assert_same(hftree._serialize_lines(roots), "\n".join(want))
        for style in (SET_STYLE, FUN_STYLE):
            brackets = style.open + style.separator + style.close
            want = [model.render(brackets, ulimit, t) for t in trees]
            assert_same(render(style, ulimit, roots[0]), want[0])
            assert_same(hftree._render_lines(style, ulimit, roots), "\n".join(want))


def test_printers_match_the_model_on_shared_and_copied_subtrees():
    e = F()
    a0, a1 = Atom(0), Atom(1)
    joined = F(a0, a1)  # met after its atoms are printed: one join
    walked = F(F(), a0)  # its first child is new: walked
    copy = F(F(), Atom(0))
    # the last child joins texts that the repeats of walked and copy made
    t = F(a0, a1, joined, walked, F(joined, walked, copy), walked, copy, joined, F(walked, copy))
    for ulimit in (2, 16):
        check_printers([t], ulimit)
        check_printers([t, joined, t.children[4], walked, copy, t, a1, e], ulimit)
    # without atoms, for the ulimits that print an empty forest in brackets
    t = F(e, F(e), F(e, F(e)), F(F(e), e), F(e, F(e)), F(F(e), F(e)))
    for ulimit in (0, 1, 2):
        check_printers([t, t.children[2], e, F(t, t)], ulimit)
    # a shared tree beside an equal copy that shares nothing, and roots that
    # share subtrees with each other
    rng = random.Random(4)
    for make in TREE_CODECS.values():
        c = make(2)
        n = rng.getrandbits(512)
        t, copy = unrank(c, n), build(model.unrank(c.name, 2, n))
        check_printers([F(t, copy, t), *hftree._unfold(c, [n, n + 1], None), copy], 2)


def test_printers_refuse_a_repeated_out_of_range_atom():
    # Atom(9) is out of range for ulimit 2 at each place it occurs: alone,
    # repeated, and beside a forest that took the one-join path
    bad, a0, a1 = Atom(9), Atom(0), Atom(1)
    joined = F(a0, a1)
    for roots in ([F(bad, bad)], [F(a0, a1, joined, F(joined, bad), bad)],
                  [F(a0, a1), F(joined, joined, F(joined, bad))], [joined, F(a1, a0, bad)]):
        for style in (SET_STYLE, FUN_STYLE):
            with pytest.raises(ValueError, match="^atom 9 out of range for ulimit 2$"):
                hftree._render_lines(style, 2, roots)
        with pytest.raises(ValueError, match="^atom 9 out of range for ulimit 2$"):
            render(FUN_STYLE, 2, roots[-1])
        check_printers(roots, 16)


# --- deserialize's grouped and plain passes against the model's parser -------

def test_grouped_tokens_are_the_shallow_subtrees():
    h = hftree._GROUP_HEIGHT
    shallow = "(" * h + ")" * h
    tall = "(" + shallow + ")"
    tokens = hftree._GROUPED.findall(f"(a1 (()) {tall} (a2 x")
    assert tokens == ["(", "a1", "(())", "(", shallow, ")", "(", "a2", "x"]


class CountingPattern:
    """A compiled pattern whose findall calls are counted."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def findall(self, *args):
        self.calls += 1
        return self.pattern.findall(*args)


def test_bracket_free_groups_are_split_not_searched(monkeypatch):
    # a 4096-bit hfs code at ulimit 16 is one group token of about 43 KB
    # holding about 2,000 distinct groups of atoms: findall cuts the text
    # and that token, and each group of atoms is cut by one str.split
    c = codec_hfs(16)
    t = unrank(c, random.Random(25).getrandbits(4096) | 1 << 4095)
    text = serialize(t)
    assert len(text) > 40_000
    counting = CountingPattern(hftree._GROUPED)
    monkeypatch.setattr(hftree, "_GROUPED", counting)
    parsed = hftree._parse(text, None, counting)
    assert counting.calls <= 2
    assert parsed == t
    assert_fully_shared(parsed)


@pytest.mark.parametrize("name", sorted(TREE_CODECS))
@pytest.mark.parametrize("ulimit", [0, 2, 16])
def test_deserialize_round_trips_fully_shared(name, ulimit):
    if given is None:
        pytest.skip("needs hypothesis")
    c = TREE_CODECS[name](ulimit)

    @settings(max_examples=15)
    @given(naturals())
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
    assert outcome(deserialize, text, 5) == outcome(model.deserialize, text, 5)
    assert deserialize(text, max_depth=6) == unrank(c, n)


def outcome(parse, text, max_depth):
    """The tree parse returns, as the model's data, or its error as one line:
    type, message and position."""
    try:
        t = parse(text, max_depth)
    except ValueError as exc:  # ParseError is a ValueError, as is int()'s digit limit
        return f"{type(exc).__name__}: {exc} @{getattr(exc, 'position', None)}"
    return t if parse is model.deserialize else model.plain(t)


def plain_pass(text, max_depth):
    return hftree._parse(text, max_depth, hftree._TOKEN)


def nesting(text):
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


# atom texts that the grammar refuses, though int() reads the digits of
# all but 'a1\t0'
NOT_ATOMS = ("a1_0", "a+1", "a-1", "a\u0661", "a1\t0", "a1\t", "a 1")


def mutations(text, rng):
    """text, and copies with one kind of edit: a bracket dropped or doubled,
    a character or an atom past int()'s digit limit inserted, spaces
    doubled, atoms written with leading zeros, or an atom rewritten, or
    one inserted, as a text of NOT_ATOMS."""
    brackets = [i for i, ch in enumerate(text) if ch in "()"]
    atoms = [m.span() for m in re.finditer("a[0-9]+", text)]
    out = [text, text.replace(" ", "  "), text.replace("a", "a0"), " " + text + " "]
    j = rng.randrange(len(text) + 1)
    out.append(text[:j] + " a" + "1" * 5000 + " " + text[j:])
    for s in NOT_ATOMS:
        if atoms:
            i, e = rng.choice(atoms)
            out.append(text[:i] + s + text[e:])
        j = rng.randrange(len(text) + 1)
        out.append(text[:j] + " " + s + " " + text[j:])
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
def test_both_passes_parse_mutations_as_the_model_does(name):
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
                want = outcome(model.deserialize, mutated, d)
                # deserialize returns the grouped pass's tree, or else
                # raises the plain pass's error
                assert outcome(deserialize, mutated, d) == want, (mutated, d)
                try:
                    got = hftree._parse(mutated, d, hftree._GROUPED)
                except (hftree._Reread, ValueError):
                    assert isinstance(want, str), (mutated, d)  # an error
                else:
                    assert model.plain(got) == want, (mutated, d)
                    assert_fully_shared(got)
                    assert outcome(plain_pass, mutated, d) == want, (mutated, d)


# --- the fold: each object once, in post-order ----------------------------------

def fold_calls(fold, t):
    """The root value and the atom()/forest() calls fold makes on t, in
    order; each call returns its own serial number."""
    calls = []

    def atom(a):
        calls.append(("atom", id(a)))
        return len(calls)

    def forest(results):
        calls.append(("forest", tuple(results)))
        return len(calls)

    return fold(t, atom, forest), calls


def fold_trees():
    """Hand-built trees with shared and unshared equal subtrees, repeated
    atom objects and empty forests, then a shared and an unshared decode."""
    e, a1, a2 = F(), Atom(1), Atom(2)
    shared = F(a1, e, F(a2))
    copy = F(Atom(1), F(), F(Atom(2)))  # equal to shared, no object in common
    yield Atom(3)
    yield e
    yield F(e, e, F(e), F())
    yield F(a1, a1, Atom(1), shared, copy, shared, F(shared, copy), e, F(), a2)
    yield F(F(F(F(a1))), F(F(F(a1))), a2, F(F(F(a1))))
    rng = random.Random(12)
    for make in (codec_hfs, codec_hfp):
        n = rng.getrandbits(300)
        yield unrank(make(2), n)
        yield build(model.unrank(make(2).name, 2, n))


def test_fold_folds_each_object_once_into_the_model_tree():
    for t in fold_trees():
        calls = []

        def atom(a):
            calls.append(a)
            return a.value

        def forest(values):
            calls.append(values)
            return tuple(values)

        assert hftree._fold(t, atom, forest) == model.plain(t)
        assert len(calls) == distinct_objects(t)


def test_fold_walks_a_20000_level_chain():
    leaf = Atom(0)
    t = leaf
    for _ in range(20000):
        t = F(t, leaf)
    root, calls = fold_calls(hftree._fold, t)
    # atom(leaf) is call 1 and the innermost forest call 2; each forest
    # above reads the one below it and the memoised leaf
    assert calls == [("atom", id(leaf)), *(("forest", (k, 1)) for k in range(1, 20001))]
    assert root == 20001
    assert hftree._fold(t, lambda a: 0, lambda heights: 1 + max(heights)) == 20000


def test_rank_reports_the_first_bad_atom_in_post_order():
    c = codec_hfs(5)
    bad7, bad9 = Atom(7), Atom(9)
    inner = F(bad7)
    for t, first in [(bad9, 9), (F(F(Atom(1), bad7), bad9), 7), (F(F(F(bad9)), bad7), 9),
                     (F(Atom(2), inner, bad9, inner), 7), (F(F(), F(Atom(4), bad9), inner), 9)]:
        with pytest.raises(ValueError) as exc:
            rank(c, t)
        assert str(exc.value) == f"atom {first} out of range for ulimit 5"


# --- DOT output against the model's definition -----------------------------------

def dot_trees():
    rng = random.Random(44)
    for make in (codec_hfs, codec_hfp):
        for ulimit in (0, 16):
            yield unrank(make(ulimit), rng.getrandbits(4096))
    yield unrank(codec_hff1(), rng.getrandbits(16384))
    yield unrank(codec_hff1(), 1 << 4000)  # a chain 4002 levels deep
    yield from fold_trees()
    yield build(model.unrank("hff", 3, rng.getrandbits(256)))


def test_dot_is_the_models_dot():
    with recursion_limit(20_000):
        for t in dot_trees():
            want = model.to_dag(model.plain(t))
            dag = to_dag(t)
            assert dag.root == want[0]
            assert [node.id for node in dag.nodes] == list(range(len(want[1])))
            assert_same([(node.atom, node.children) for node in dag.nodes], want[1])
            assert_same(to_dot(t).split("\n"), model.dag_to_dot(want).split("\n"))
            for hash_len in (4, 64):
                assert_same(dag_to_dot(dag, hash_len).split("\n"),
                            model.dag_to_dot(want, hash_len).split("\n"))
    assert dag_to_dot(Dag(0, ())) == "digraph tree {\n}"


# --- atoms spelled with leading zeros -------------------------------------------

def test_atom_texts_with_leading_zeros_are_one_atom():
    big = 2 ** 60 + 3
    h = hftree._GROUP_HEIGHT
    deep = "(" * h + "a05" + ")" * h  # a group token h levels tall
    # one level taller than a group, so its own atoms are top-level tokens
    text = f"(a5 {deep} a005 (a5 a05 (a005)) a{big} (a0{big} (a{big})) a00{big})"
    plain = hftree._parse(text, None, hftree._TOKEN)
    for t in (deserialize(text), hftree._parse(text, None, hftree._GROUPED), plain):
        atoms = [node for node in subtrees(t) if isinstance(node, Atom)]
        assert sorted({a.value for a in atoms}) == [5, big]
        assert len({id(a) for a in atoms}) == 2
        assert_fully_shared(t)
        assert model.plain(t) == model.deserialize(text)
    assert serialize(plain) == text.replace("a0", "a").replace("a0", "a")

    rng = random.Random(8)
    for make in (codec_hfs, codec_hfp):
        t = unrank(make(16), rng.getrandbits(4096))
        # each atom written with 0, 1 or 2 leading zeros, chosen per occurrence
        spelled = re.sub(r"a(\d+)", lambda m: "a" + "0" * rng.randrange(3) + m.group(1),
                         serialize(t))
        grouped = hftree._parse(spelled, None, hftree._GROUPED)
        plain = hftree._parse(spelled, None, hftree._TOKEN)
        want = model.deserialize(spelled)
        assert model.plain(grouped) == model.plain(plain) == want == model.plain(t)
        assert_fully_shared(grouped)
        assert_fully_shared(plain)
