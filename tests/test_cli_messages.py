"""Error messages quote at most 40 characters of the input they refuse,
then give its length; an input of at most 40 characters is quoted whole.
A natural that argparse reads (--ulimit, --arity, enumerate's start and
count, selfcheck's max_n and seed) is refused with the same message,
after argparse's usage."""

import pytest

from conftest import run_cli

ZEROS = "[" + ",".join(["0"] * 20_000) + "]"


@pytest.mark.parametrize("argv, tail", [
    (["encode", "--codec", "set", ZEROS],
     "got [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (20000 entries)"),
    (["encode", "--codec", "perm", ZEROS],
     "0..19999: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ... (20000 entries)"),
    (["encode", "--codec", "fun", ZEROS[:-1]],
     "got '[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0'... (40000 characters)"),
    (["decode", "--codec", "set", "1" * 20_000 + "x"],
     "number: '1111111111111111111111111111111111111111'... (20001 characters)"),
    (["decode", "--codec", "perm", "--sized", " ".join(["1"] * 20_000)],
     "got '1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 '... (39999 characters)"),
])
def test_a_20000_entry_input_gets_a_short_message(capsys, argv, tail):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(tail + "\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("argv, tail", [
    (["decode", "--codec", "set", "x" * 40], "hfcodec: not a natural number: '" + "x" * 40 + "'"),
    (["decode", "--codec", "set", "x" * 41], "'" + "x" * 40 + "'... (41 characters)"),
    (["encode", "--codec", "set", "[0,0,1,2,3,4,5,6,7,8,9,10000]"],
     "hfcodec: set elements must be strictly increasing, got [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10000]"),
    (["encode", "--codec", "set", "[0,0,1,2,3,4,5,6,7,8,9,100000]"],
     "got [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100000... (12 entries)"),
    (["encode", "--codec", "perm", "[0,0]"], "hfcodec: not a permutation of 0..1: [0, 0]"),
    (["encode", "--codec", "fun", "0" * 40],
     "hfcodec: expected a bracketed list like [1,0,2], got '" + "0" * 40 + "'"),
    (["encode", "--codec", "fun", "0" * 41], "got '" + "0" * 40 + "'... (41 characters)"),
    (["decode", "--codec", "perm", "--sized", "1 " * 20],
     "hfcodec: --sized expects 'SIZE RANK', got '" + "1 " * 20 + "'"),
    (["decode", "--codec", "perm", "--sized", "1 " * 20 + "1"],
     "got '" + "1 " * 20 + "'... (41 characters)"),
    (["enumerate", "--codec", "set", "12x", "3"],
     "hfcodec enumerate: error: argument start: not a natural number: '12x'"),
    (["decode", "--codec", "hfs", "--ulimit", "0x", "3"],
     "error: argument --ulimit: not a natural number: '0x'"),
    (["selfcheck", "10", "9" * 100_000], "error: argument seed: a 100000-digit input is "
     "past the 262144-bit budget for decimals; write it in 0x hex"),
    (["enumerate", "--codec", "set", "x" * 100_000, "3"],
     "error: argument start: not a natural number: '" + "x" * 40 + "'... (100000 characters)"),
])
def test_messages_quote_at_most_40_characters(capsys, argv, tail):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(tail + "\n")
    assert len(err.encode()) < 1000


@pytest.mark.parametrize("argv, message", [
    (["factoradic-r", "[0,2]"], "factoradic-r digit 2 at index 1 is above its position 1"),
    (["factoradic-l", "[2,0]"], "factoradic-l digit 2 at index 0 is above its position 1"),
    (["factoradic-l", "[0,1]"], "factoradic-l digit 1 at index 1 is above its position 0"),
    (["factoradic-r", "[0," + "9" * 5000 + "]"],
     "factoradic-r digit <16610-bit integer> at index 1 is above its position 1"),
    (["factoradic-r", "[0,0]"], "factoradic-r digit 0 at index 1 is a high zero"),
    (["factoradic-l", "[0,1,0]"], "factoradic-l digit 0 at index 0 is a high zero"),
    (["factoradic-r", "[]"], "factoradic-r expects at least one digit, got []"),
], ids=["r-above", "l-above", "l-above-0", "r-huge", "r-high-zero", "l-high-zero", "r-empty"])
def test_factoradic_encode_names_the_digit_its_decode_never_prints(capsys, argv, message):
    # rf and lf evaluate any digits, but the CLI encodes only what it decodes
    code, out, err = run_cli(capsys, "encode", "--codec", *argv)
    assert (code, out, err) == (2, "", f"hfcodec: {message}\n")
