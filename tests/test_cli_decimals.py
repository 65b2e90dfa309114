"""Decimals past the interpreter's int/str digit limit.

The CLI prints and reads decimals of up to cli._DECIMAL_BITS bits in
chunks that each stay below the limit, and refuses longer ones with exit
2.  Every reference value here is str() or int() with the limit lifted
for that one call and restored after it.
"""

import random
import sys
import tracemalloc
from contextlib import contextmanager

import pytest

from hfcodec import cli, permcodec, setfun, table

BUDGET = cli._DECIMAL_BITS
CHUNK = cli._CHUNK


@contextmanager
def digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def unlimited_str(n):
    with digit_limit(0):
        return str(n)


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse reports its own errors this way
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


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
EDGE_TEXTS = [unlimited_str(n) for n in EDGES]


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
    assert (code, out, err) == (0, unlimited_str(widest) + "\n", "")
    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             out.strip())
    assert (code, out, err) == (0, unlimited_str(widest) + "\n", "")

    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             hex(widest + 1))
    assert (code, out) == (2, "")
    assert err == (f"hfcodec: a {BUDGET + 1}-bit result is past the "
                   f"{BUDGET}-bit budget for decimals\n")

    code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                             unlimited_str(widest + 1))
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


def test_the_budget_applies_only_where_the_limit_refuses(capsys):
    past = 1 << BUDGET
    with digit_limit(0):
        code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                                 hex(past))
        assert (code, out, err) == (0, str(past) + "\n", "")
        code, out, err = run_cli(capsys, "decode", "--codec", "set", "--format", "decimal",
                                 str(past))
        assert (code, out, err) == (0, str(past) + "\n", "")
        code, out, err = run_cli(capsys, "encode", "--codec", "set", f"[{BUDGET}]")
        assert (code, out, err) == (0, str(past) + "\n", "")


FLAT_CLI = [
    ("set", []), ("fun", []), ("ftuple", []), ("rle", []), ("perm", []),
    ("factoradic-r", []), ("factoradic-l", []), ("pair-cantor", []),
    ("pair-pepis", []), ("pair-bitmerge", []), ("tuple", ["--arity", "3"]),
]


@pytest.mark.parametrize("codec,flags", FLAT_CLI, ids=[c for c, _ in FLAT_CLI])
def test_65536_bit_round_trip_through_decimals(capsys, codec, flags):
    n = random.Random(codec).getrandbits(65536) | 1 << 65535
    decimal = unlimited_str(n)
    code, listed, err = run_cli(capsys, "decode", "--codec", codec, *flags, hex(n))
    assert (code, err) == (0, ""), codec
    code, out, err = run_cli(capsys, "encode", "--codec", codec, *flags, listed.strip())
    assert (code, out, err) == (0, decimal + "\n", ""), codec
    code, out, err = run_cli(capsys, "decode", "--codec", codec, *flags, decimal)
    assert (code, out, err) == (0, listed, ""), codec


@pytest.mark.parametrize("codec", ["hff1", "hff2"])
def test_16384_bit_tree_ranks_print_in_decimal(capsys, codec):
    n = random.Random(codec).getrandbits(16384) | 1 << 16383
    code, tree, err = run_cli(capsys, "decode", "--codec", codec, hex(n))
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "encode", "--codec", codec, tree.strip())
    assert (code, out, err) == (0, unlimited_str(n) + "\n", "")


def test_sized_rank_and_decimal_format_print_past_the_limit(capsys):
    n = int("f" * 4000, 16)
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", "--format", "decimal",
                             "0x" + "f" * 4000)
    assert (code, out, err) == (0, unlimited_str(n) + "\n", "")

    perm = permcodec.nth2perm((3000, n))
    code, out, err = run_cli(capsys, "encode", "--codec", "perm", "--sized",
                             "[" + ",".join(map(str, perm)) + "]")
    assert (code, out, err) == (0, f"3000 {unlimited_str(n)}\n", "")


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
