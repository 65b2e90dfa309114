"""Decimals past the interpreter's int/str digit limit.

The CLI prints and reads decimals of up to cli._DECIMAL_BITS bits in
chunks that each stay below the limit, and refuses longer ones with exit
2.  Every reference decimal here is the model's (tests/model.py): str()
with the limit lifted for that one call and restored after it.
"""

import random
import sys
import time
import tracemalloc
from functools import partial

import pytest

import model
from conftest import digit_limit, run_cli
from hfcodec import cli, hftree, permcodec, setfun, table

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property tests below skip themselves without hypothesis
    given = None

BUDGET = cli._DECIMAL_BITS
CHUNK = cli._CHUNK


def edge_values():
    yield 0
    yield 1
    # around the default limit, and at every chunk boundary below the budget
    ks = [4299, 4300, 4301]
    ks += [CHUNK << j for j in range(8) if (CHUNK << j) * 3.33 < BUDGET]
    for k in ks:
        p = 10 ** k
        yield from (p - 1, p, p + 1)
    rng = random.Random(11)
    for _ in range(24):
        yield rng.getrandbits(rng.randrange(1, BUDGET + 1))
    yield (1 << BUDGET) - 1


EDGES = list(edge_values())
# converted once: str() of the widest edges is quadratic on CPython 3.11
EDGES_LISTED = model.listed(EDGES)
EDGE_TEXTS = EDGES_LISTED[1:-1].split(",")


def test_the_suite_runs_under_the_default_limit():
    # tests/conftest.py pins it, whatever PYTHONINTMAXSTRDIGITS says
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


@pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits,
                                   sys.int_info.str_digits_check_threshold])
def test_converter_equals_str_with_the_limit_lifted(limit):
    with digit_limit(limit):
        for n, text in zip(EDGES, EDGE_TEXTS):
            assert cli._decimal(n) == text, len(text)
            assert cli._parse_natural(text) == n, len(text)
            assert cli._parse_natural("00" + text) == n, len(text)


def test_exactly_the_budget_prints_and_one_more_bit_exits_2(capsys):
    widest = (1 << BUDGET) - 1
    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             hex(widest))
    assert (code, out, err) == (0, model.decimal(widest) + "\n", "")
    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             out.strip())
    assert (code, out, err) == (0, model.decimal(widest) + "\n", "")

    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             hex(widest + 1))
    assert (code, out) == (2, "")
    assert err == (f"hfcodec: a {BUDGET + 1}-bit result is past the "
                   f"{BUDGET}-bit budget for decimals\n")

    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             model.decimal(widest + 1))
    assert (code, out) == (2, "")
    assert err == (f"hfcodec: a {BUDGET + 1}-bit input is past the "
                   f"{BUDGET}-bit budget for decimals; write it in 0x hex\n")


def test_encode_refuses_a_result_past_the_budget(capsys):
    code, out, err = run_cli(capsys, "encode", "--codec", "set", f"[{BUDGET}]")
    assert (code, out) == (2, "")
    assert f"a {BUDGET + 1}-bit result" in err


@pytest.mark.parametrize("codec,listed,bits", [
    ("set", "[100000000]", 100_000_001),
    ("fun", "[3,100000000]", 100_000_005),
    ("rle", "[100000000,0]", 100_000_002),
    ("pair-pepis", "[100000000,0]", 100_000_000),
])
def test_encode_refuses_a_long_code_before_making_it(capsys, codec, listed, bits):
    # these encoders build a bit string or a power of two as long as the code
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "encode", "--codec", codec, listed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"hfcodec: a {bits}-bit result is past the {BUDGET}-bit budget for decimals\n"
    assert peak < 1 << 20, f"peaked at {peak} bytes before refusing"


@pytest.mark.parametrize("listed", ["[100000000]", "[100000000,0,0]"])
def test_a_long_pepis_list_that_is_not_a_pair_gets_the_pair_error(capsys, listed):
    count = listed.count(",") + 1
    code, out, err = run_cli(capsys, "encode", "--codec", "pair-pepis", listed)
    assert (code, out) == (2, "")
    assert err == f"hfcodec: pair-pepis expects a pair [x,y], got {count} values\n"


def test_code_bits_are_the_encoders_bit_lengths():
    rng = random.Random(31)
    for name, code_bits in cli._CODE_BITS.items():
        row = table.FLAT[name]
        for bits in (0, 1, 2, 7, 64, 300, 5000):
            for _ in range(20):
                values = row.draw(rng, bits)
                assert code_bits(values) == row.encode(values).bit_length(), (name, values)


def test_a_million_digit_argument_is_refused_before_any_conversion(capsys, monkeypatch):
    def converted(s, j):
        raise AssertionError(f"converted {len(s)} digits before refusing")

    monkeypatch.setattr(cli, "_chunked_int", converted)
    code, out, err = run_cli(capsys, "decode", "--codec", "set", "9" * 10 ** 6)
    assert (code, out) == (2, "")
    assert err == (f"hfcodec: a 1000000-digit input is past the {BUDGET}-bit "
                   "budget for decimals; write it in 0x hex\n")


def test_the_budget_holds_with_the_limit_lifted(capsys):
    # with no digit limit, int() and str() alone convert any length, and on
    # CPython 3.11 they are quadratic: encode '[100000000]' ran until killed
    past = 1 << BUDGET
    refused = [
        (["encode", "--codec", "set", "[100000000]"], "a 100000001-bit result", ""),
        (["encode", "--codec", "set", f"[{BUDGET}]"], f"a {BUDGET + 1}-bit result", ""),
        (["decode", "--codec", "set", "--format", "decimal", hex(past)],
         f"a {BUDGET + 1}-bit result", ""),
        (["decode", "--codec", "tuple", "--arity", "1", hex(past)],
         f"a {BUDGET + 1}-bit result", ""),
        (["decode", "--codec", "set", "--format", "decimal", model.decimal(past)],
         f"a {BUDGET + 1}-bit input", "; write it in 0x hex"),
        (["decode", "--codec", "set", "9" * 10 ** 6], "a 1000000-digit input",
         "; write it in 0x hex"),
    ]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for argv, what, hint in refused:
            start = time.monotonic()
            code, out, err = run_cli(capsys, *argv)
            elapsed = time.monotonic() - start
            assert (code, out) == (2, ""), argv[:4]
            assert err == f"hfcodec: {what} is past the {BUDGET}-bit budget for decimals{hint}\n"
            assert elapsed < 1, f"{argv[:4]} took {elapsed:.2f}s to be refused"
        # a 262144-bit decimal still prints, reads back and decodes
        widest = past >> 1
        code, out, err = run_cli(capsys, "encode", "--codec", "set", f"[{BUDGET - 1}]")
        assert (code, out, err) == (0, str(widest) + "\n", "")
        code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                                 out.strip())
        assert (code, out, err) == (0, str(widest) + "\n", "")
        code, out, err = run_cli(capsys, "decode", "--codec", "set", out.strip())
        assert (code, out, err) == (0, f"[{BUDGET - 1}]\n", "")
        code, out, err = run_cli(capsys, "decode", "--codec", "tuple", "--arity", "1",
                                 hex(past - 1))
        assert (code, out, err) == (0, f"[{past - 1}]\n", "")
    finally:
        sys.set_int_max_str_digits(old)


def test_flat_decodes_are_bounded_by_their_code():
    # the CLI tests the decimal budget of a decoded list on its code alone
    rng = random.Random(17)
    for name, row in table.FLAT.items():
        for arity in row.arities or (None,):
            decode = row.decoder(arity)
            for bits in (0, 1, 2, 5, 64, 700):
                n = rng.getrandbits(bits)
                assert max(decode(n), default=0) <= n, (name, arity, n)


def test_sized_rank_and_decimal_format_print_past_the_limit(capsys):
    n = int("f" * 4000, 16)
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", "--format", "decimal",
                             "0x" + "f" * 4000)
    assert (code, out, err) == (0, model.decimal(n) + "\n", "")

    perm = permcodec.nth2perm((3000, n))
    code, out, err = run_cli(capsys, "encode", "--codec", "perm", "--sized",
                             "[" + ",".join(map(str, perm)) + "]")
    assert (code, out, err) == (0, f"3000 {model.decimal(n)}\n", "")


# --- lists with long tokens ---------------------------------------------------

LIST_PIECES = ["0", "7", "42", "007", "4095", "0x1f", "0X2A", " 12", "3 ", " 5 ",
               "+1", "-3", "1_0", "1.0", "١٢", "²", "", "1 0", "\t4",
               "9" * 5000, "1" + "0" * 4300, "0" * 4400 + "8"]


def outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


def list_corpus():
    rng = random.Random(2024)
    yield from ["[]", "[ ]", "[1,,2]", "[1,2,]", "[,1]", "[,]", "1,2", "[1,2",
                " [0,1] ", "[ 3,4 ]", "[1,2]\n"]
    for _ in range(600):
        k = rng.randrange(1, 8)
        clean = rng.random() < 0.5
        tokens = [rng.choice(LIST_PIECES[:5] if clean else LIST_PIECES) for _ in range(k)]
        yield "[" + ",".join(tokens) + "]"


def unlimited_outcome(text):
    with digit_limit(0):
        return outcome(cli._parse_nat_list, text)


@pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits,
                                   sys.int_info.str_digits_check_threshold])
def test_lists_read_alike_under_any_digit_limit(limit):
    with digit_limit(limit):
        for text in list_corpus():
            assert outcome(cli._parse_nat_list, text) == unlimited_outcome(text), text[:60]


def test_list_errors_keep_their_exit_code_and_message(capsys):
    for text in list_corpus():
        expected = unlimited_outcome(text)
        if isinstance(expected, list) and max(expected, default=0) > 4095:
            continue  # fun2nat of a 5000-digit value would not fit in memory
        code, out, err = run_cli(capsys, "encode", "--codec", "fun", text)
        if isinstance(expected, list):
            assert (code, err) == (0, ""), text[:60]
            assert out == cli._decimal(setfun.fun2nat(expected)) + "\n"
        else:
            assert (code, out, err) == (2, "", f"hfcodec: {expected[1]}\n"), text[:60]


# --- list text: the one-pass paths against the per-token ones ------------------

LIMITS = [sys.int_info.default_max_str_digits, sys.int_info.str_digits_check_threshold, 0]


def per_token(text):
    """_parse_nat_list of a bracketed text, one _parse_natural per token: the reference."""
    inner = text.strip()[1:-1].strip()
    return [cli._parse_natural(tok) for tok in inner.split(",")] if inner else []


PLAIN_TOKENS = ["0", "7", "007", " 12", "3 ", "  5  ", "4095", "9" * CHUNK,
                "0" * (CHUNK - 1) + "8"]
# tokens the regex leaves to the per-token reader: each is read or refused there
ODD_TOKENS = ["", " ", "1 2", "0x1f", "0X2A", "\t4", "4\t", "\u00a05", "\u0661",
              "\u0661\u0662", "\u00b2", "+1", "-1", "1_0", "1.0", "9" * (CHUNK + 1),
              "0" * CHUNK + "1", "1" + "0" * 4300]
FIXED_LISTS = ["[]", "[ ]", "[0]", "[ 1 , 2 ]", "[007,0]", "[1,,2]", "[1,]", "[,1]", "[,]",
               "[1 2]", "[ 3,4 ]\n", "[0x10,1]", "[1,\t2]", "[\u0661]", "[+1]", "[1_0]",
               "[-1]", "[1,-1]", f"[{'9' * CHUNK}]", f"[{'9' * (CHUNK + 1)}]",
               f"[1, {'0' * CHUNK}1]", "[" + ",".join(map(str, range(2000))) + "]"]
FIXED_LISTS += ["[" + ",".join(pair) + "]" for pair in zip(PLAIN_TOKENS * 2, ODD_TOKENS)]
FIXED_LISTS += ["[" + ",".join(pair) + "]" for pair in zip(ODD_TOKENS, PLAIN_TOKENS * 2)]


@pytest.mark.parametrize("limit", LIMITS)
def test_list_reads_equal_per_token_reads(limit):
    with digit_limit(limit):
        for text in FIXED_LISTS:
            assert outcome(cli._parse_nat_list, text) == outcome(per_token, text), text[:60]
        if given is None:
            pytest.skip("needs hypothesis")

        # str() of at most CHUNK digits works under every limit; the zeros
        # make some tokens longer than CHUNK digits
        plain = st.builds(lambda left, zeros, n, right: " " * left + "0" * zeros + str(n) + " " * right,
                          st.integers(0, 2), st.integers(0, 3), st.integers(0, 10 ** CHUNK - 1),
                          st.integers(0, 2))
        tokens = st.lists(st.one_of(plain, st.sampled_from(PLAIN_TOKENS + ODD_TOKENS)), max_size=12)

        @given(tokens)
        def prop(tokens):
            text = "[" + ",".join(tokens) + "]"
            assert outcome(cli._parse_nat_list, text) == outcome(per_token, text)

        prop()


def test_plain_lists_skip_the_per_token_reader(monkeypatch):
    def refused(text):
        raise AssertionError(f"read one token at a time: {text[:20]!r}")

    monkeypatch.setattr(cli, "_parse_natural", refused)
    values = setfun.nat2set(random.Random(3).getrandbits(65536))
    assert cli._parse_nat_list("[" + ",".join(map(str, values)) + "]") == values
    assert cli._parse_nat_list(f"[ 1 ,007 , {'9' * CHUNK}]") == [1, 7, int("9" * CHUNK)]


@pytest.mark.parametrize("limit", LIMITS)
def test_one_format_prints_a_list_as_str_does(limit):
    lists = [[], [0], (5,), [1, 0, 2], list(range(3000)), [10 ** 4299, 10 ** 4300, 0], EDGES]
    wants = [*map(model.listed, lists[:-1]), EDGES_LISTED]
    with digit_limit(limit):
        for v, want in zip(lists, wants):
            same = cli._format_list(v) == want  # outside the assert: pytest's diff is slow
            assert same, (len(v), len(want))
        if given is None:
            pytest.skip("needs hypothesis")

        @given(st.lists(st.integers(0, 1 << 64), max_size=40))
        def prop(values):
            assert cli._format_list(values) == model.listed(values)

        prop()


# --- atoms of tree output: printed under the budget, as codes are ---------------

def test_atoms_print_in_full_up_to_the_budget_and_exit_2_past_it(capsys):
    # below ulimit a code is an atom, and hfs decodes it to itself
    ulimit = hex(1 << (BUDGET + 1))
    widest, past = (1 << BUDGET) - 1, 1 << BUDGET
    digits = model.decimal(widest)
    with digit_limit(0):
        dot = hftree.to_dot(hftree.Atom(widest))
    refusal = f"hfcodec: a {BUDGET + 1}-bit atom is past the {BUDGET}-bit budget for decimals\n"
    for limit in (sys.int_info.default_max_str_digits, 0):
        with digit_limit(limit):
            for command, want in (("decode", "a" + digits), ("show", digits), ("dot", dot)):
                argv = [command, "--codec", "hfs", "--ulimit", ulimit]
                code, out, err = run_cli(capsys, *argv, hex(widest))
                same = (code, out, err) == (0, want + "\n", "")
                assert same, (limit, command, code, err[:200])
                start = time.monotonic()
                assert run_cli(capsys, *argv, hex(past)) == (2, "", refusal), (limit, command)
                assert time.monotonic() - start < 1, (limit, command)
            # enumerate prints the lines before the atom past the budget
            code, out, err = run_cli(capsys, "enumerate", "--codec", "hfs", "--ulimit", ulimit,
                                     hex(widest), "2")
            same = (code, out, err) == (2, "a" + digits + "\n", refusal)
            assert same, (limit, code, err[:200])


def test_the_library_prints_atoms_with_str():
    # serialize, render and to_dot have no budget: str() and its digit limit decide
    atom = hftree.Atom(10 ** 4300)
    for show in (hftree.serialize, partial(hftree.render, hftree.SET_STYLE, 10 ** 4301),
                 hftree.to_dot):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            show(atom)
    with digit_limit(0):
        assert hftree.serialize(hftree.Atom(1 << BUDGET)) == "a" + str(1 << BUDGET)
