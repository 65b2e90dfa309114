import builtins
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from conftest import run_cli
from hfcodec import cli, selfcheck, table


def test_decode_goldens(capsys):
    cases = [
        (["decode", "--codec", "perm", "2008"], "[1,4,3,2,0,5,6]"),
        (["decode", "--codec", "set", "2008"], "[3,4,6,7,8,9,10]"),
        (["decode", "--codec", "set", "0x7d8"], "[3,4,6,7,8,9,10]"),
        (["decode", "--codec", "fun", "2008"], "[3,0,1,0,0,0,0]"),
        (["decode", "--codec", "tuple", "--arity", "3", "42"], "[2,1,2]"),
        (["decode", "--codec", "pair-bitmerge", "2008"], "[60,26]"),
        (["decode", "--codec", "factoradic-r", "42"], "[0,0,0,3,1]"),
        (["decode", "--codec", "hfs", "42"], "((()) (() (())) (() ((()))))"),
        (["decode", "--codec", "hfs", "--format", "show", "42"],
         "{{{}},{{},{{}}},{{},{{{}}}}}"),
        (["decode", "--codec", "hfp", "--ulimit", "10", "--format", "show", "42"],
         "(3 2 0 1)"),
        (["decode", "--codec", "hfp", "--ulimit", "10", "--format", "show",
          "1234567890"], "(1 6 (0) 2 0 3 0 7 5 (0 1) 9 4 8)"),
        (["decode", "--codec", "set", "--format", "decimal", "42"], "42"),
        (["decode", "--codec", "perm", "--sized", "8 2008"], "[0,3,6,5,4,7,1,2]"),
        (["show", "--codec", "hfs", "42"], "{{{}},{{},{{}}},{{},{{{}}}}}"),
        (["show", "--codec", "hff", "--ulimit", "10", "1234567890"],
         "(3 2 0 1 7 0 1 2 0 2 2)"),
        (["decode", "--codec", "rle", "2008"], "[2,1,0,4]"),
        (["decode", "--codec", "factoradic-l", "42"], "[1,3,0,0,0]"),
        (["decode", "--codec", "pair-pepis", "41"], "[1,10]"),
        (["show", "--codec", "hff1", "--ulimit", "10", "1234567890"],
         "(((((0 3)) (((2 0 1))) 1)))"),
        (["show", "--codec", "hff2", "--ulimit", "10", "1234567890"],
         "(2 0 1 1 0 0 6 1 0 0 1 1 1 0 1 0)"),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == expected + "\n", argv


def test_encode_goldens(capsys):
    cases = [
        (["encode", "--codec", "ftuple", "[1,0,2,1,3]"], "21295"),
        (["encode", "--codec", "set", "[]"], "0"),
        (["encode", "--codec", "set", "[1,3,5]"], "42"),
        (["encode", "--codec", "pair-cantor", "[3,3]"], "24"),
        (["encode", "--codec", "hfs", "((()) (() (())) (() ((()))))"], "42"),
        (["encode", "--codec", "hfp", "--ulimit", "10", "(a3 a2 a0 a1)"], "42"),
        (["encode", "--codec", "perm", "--sized", "[0,3,6,5,4,7,1,2]"], "8 2008"),
        (["encode", "--codec", "tuple", "--arity", "3", "[2,1,2]"], "42"),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == expected + "\n", argv


def test_enumerate_goldens(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--codec", "hfs", "0", "5")
    assert code == 0
    assert out.splitlines() == ["()", "(())", "((()))", "(() (()))", "(((())))"]

    code, out, _ = run_cli(capsys, "enumerate", "--codec", "ftuple", "0", "16")
    assert code == 0
    assert out.splitlines() == [
        "[]", "[0,0]", "[1]", "[0,0,0]", "[2]", "[1,0]", "[3]", "[0,0,0,0]",
        "[4]", "[0,1]", "[5]", "[1,0,0]", "[6]", "[1,1]", "[7]", "[0,0,0,0,0]",
    ]

    code, out, _ = run_cli(capsys, "enumerate", "--codec", "perm", "0", "3")
    assert code == 0
    assert out.splitlines() == ["[]", "[0]", "[0,1]"]


# a dense 4096-bit code: an enumerate chunk holds 16 such codes, so a run
# of 17 from it crosses into a second chunk
DENSE = random.Random(15).getrandbits(4096) | 1 << 4095
CROSSING = cli._CHUNK_BITS // 4096 + 1


@pytest.mark.parametrize("flags", [
    *([name, *(["--arity", "3"] if row.arities else []), "--format", fmt]
      for name, row in table.FLAT.items() for fmt in ("list", "decimal")),
    *([name, "--ulimit", ulimit, "--format", fmt]
      for name in table.TREE for fmt in ("tree", "show", "decimal")
      for ulimit in ("0", "2", "16")),
], ids=" ".join)
def test_enumerate_prints_what_each_decode_prints(capsys, flags):
    code, out, err = run_cli(capsys, "enumerate", "--codec", *flags, str(DENSE), str(CROSSING))
    assert (code, err) == (0, "")
    want = ""
    for n in range(DENSE, DENSE + CROSSING):
        c, o, e = run_cli(capsys, "decode", "--codec", *flags, str(n))
        assert (c, e) == (0, ""), n
        want += o
    assert out == want


@pytest.mark.parametrize("codec", ["hfs", "hff1", "hfp"])
def test_enumerate_fails_mid_chunk_after_the_lines_before(capsys, monkeypatch, codec):
    # the codes below 100 make one chunk; the first too deep for the limit
    # ends the run with the lines before it and the error decode gives it
    monkeypatch.setenv("HFCODEC_RECURSION_LIMIT", "4")
    code, out, err = run_cli(capsys, "enumerate", "--codec", codec, "0", "100")
    want = ""
    for n in range(100):
        c, o, e = run_cli(capsys, "decode", "--codec", codec, str(n))
        if c:
            break
        want += o
    assert c == 2 and 0 < n < 99
    assert e.startswith("hfcodec: tree depth exceeds limit 4")
    assert (code, out, err) == (2, want, e)


def test_enumerate_memory_stays_near_one_chunk(monkeypatch):
    # 48 dense 4096-bit hfs codes print about 7 MB; in chunks of 16 the run
    # peaked at 6.3 MB, and unfolded and printed as one chunk at 14.3 MB
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["enumerate", "--codec", "hfs", str(DENSE), "48"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 10 << 20, f"peaked at {peak} bytes"


def test_dot_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dot", "--codec", "hfs", "2")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out
    code, out, _ = run_cli(capsys, "decode", "--codec", "hfs", "--format", "dot", "2")
    assert code == 0
    assert out.startswith("digraph")


@pytest.mark.parametrize(
    "codec",
    ["set", "fun", "ftuple", "rle", "perm", "factoradic-r", "factoradic-l",
     "pair-cantor", "pair-pepis", "pair-bitmerge"],
)
def test_flat_round_trip_through_cli(capsys, codec):
    for n in range(121):
        code, out, err = run_cli(capsys, "decode", "--codec", codec, str(n))
        assert (code, err) == (0, ""), (codec, n)
        code, out, _ = run_cli(capsys, "encode", "--codec", codec, out.strip())
        assert code == 0 and out.strip() == str(n), (codec, n)


def test_tuple_round_trip_through_cli(capsys):
    for n in range(121):
        code, out, _ = run_cli(capsys, "decode", "--codec", "tuple",
                               "--arity", "4", str(n))
        assert code == 0
        code, out, _ = run_cli(capsys, "encode", "--codec", "tuple",
                               "--arity", "4", out.strip())
        assert code == 0 and out.strip() == str(n)


@pytest.mark.parametrize("codec", ["hfs", "hff", "hff1", "hff2", "hfp"])
@pytest.mark.parametrize("ulimit", ["0", "10"])
def test_tree_round_trip_through_cli(capsys, codec, ulimit):
    for n in range(121):
        code, out, _ = run_cli(capsys, "decode", "--codec", codec,
                               "--ulimit", ulimit, str(n))
        assert code == 0, (codec, ulimit, n)
        code, out, _ = run_cli(capsys, "encode", "--codec", codec,
                               "--ulimit", ulimit, out.strip())
        assert code == 0 and out.strip() == str(n), (codec, ulimit, n)


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--codec", "tuple", "42"],
        ["enumerate", "--codec", "tuple", "0", "3"],
        ["decode", "--codec", "set", "--arity", "2", "42"],
        ["decode", "--codec", "set", "--sized", "1 0"],
        ["encode", "--codec", "hfs", "--sized", "(())"],
        ["decode", "--codec", "perm", "--ulimit", "5", "42"],
        ["decode", "--codec", "set", "abc"],
        ["decode", "--codec", "set", "-1"],
        *(["decode", "--codec", "set", text]
          for text in ("0x", "0x1g", "1_0", "+1", "1 0", "", "\u0661\u0662", "\u00b2")),
        ["decode", "--codec", "perm", "--sized", "2008"],
        ["decode", "--codec", "perm", "--sized", "2 5"],
        ["decode", "--codec", "perm", "--sized", "--format", "decimal", "8 2008"],
        ["encode", "--codec", "set", "1,2"],
        ["encode", "--codec", "set", "[2,1]"],
        ["encode", "--codec", "ftuple", "[0]"],
        ["encode", "--codec", "perm", "[0,0]"],
        ["encode", "--codec", "hfs", "(a2)"],
        ["encode", "--codec", "hfs", "(()"],
        ["encode", "--codec", "tuple", "--arity", "2", "[1,2,3]"],
        ["decode", "--codec", "set", "--format", "show", "42"],
        ["decode", "--codec", "hfs", "--format", "list", "42"],
        ["enumerate", "--codec", "hfs", "--format", "dot", "0", "3"],
        ["decode", "--codec", "nosuch", "42"],
    ],
)
def test_usage_and_domain_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, argv
    assert err != "", argv


def test_codec_names_in_order(capsys):
    code, out, err = run_cli(capsys, "decode", "--codec", "nosuch", "42")
    assert code == 2
    # argparse quotes the choices on some Python versions and not on others
    assert ("choose from set, fun, ftuple, rle, perm, factoradic-r, factoradic-l, "
            "pair-cantor, pair-pepis, pair-bitmerge, tuple, hfs, hff, hff1, hff2, hfp)"
            in err.replace("'", ""))


def test_depth_limit_env(capsys, monkeypatch):
    deep = str(1 << 600)
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", deep)
    assert code == 0

    monkeypatch.setenv("HFCODEC_RECURSION_LIMIT", "3")
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", deep)
    assert code == 2
    assert "depth" in err
    # decimal echoes the code without decoding it, so no depth limit applies
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", "--format", "decimal", deep)
    assert (code, out, err) == (0, deep + "\n", "")

    monkeypatch.setenv("HFCODEC_RECURSION_LIMIT", "abc")
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", "42")
    assert code == 2

    monkeypatch.setenv("HFCODEC_RECURSION_LIMIT", "0")
    code, out, err = run_cli(capsys, "decode", "--codec", "hfs", "42")
    assert code == 2


def test_selfcheck_passes(capsys):
    code, out, err = run_cli(capsys, "selfcheck", "50", "13")
    assert code == 0
    assert out.splitlines() == [
        "PASS base-round-trip",
        "PASS maxbits-padding",
        "PASS bitcount-vs-search",
        "PASS cantor-pairing",
        "PASS pepis-pairing",
        "PASS bitmerge-pairing",
        "PASS tuple-round-trip",
        "PASS ftuple-round-trip",
        "PASS set-round-trip",
        "PASS fun-round-trip",
        "PASS rle-round-trip",
        "PASS factoradic-round-trip",
        "PASS perm-round-trip",
        "PASS hfs-round-trip",
        "PASS hff-round-trip",
        "PASS hff1-round-trip",
        "PASS hff2-round-trip",
        "PASS hfp-round-trip",
        "PASS hfs-goldens",
        "PASS render-goldens",
        "PASS serialize-round-trip",
        "21/21 laws hold (max_n=50, seed=13)",
    ]


def test_selfcheck_reports_broken_law(capsys, monkeypatch):
    def broken(max_n, rng):
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(selfcheck, "LAWS", [("ok", lambda m, r: None),
                                            ("bad", broken)])
    code, out, err = run_cli(capsys, "selfcheck", "10", "13")
    assert code == 1
    assert "PASS ok" in out
    assert "FAIL bad: deliberately broken" in out
    assert "1/2 laws hold" in out


@pytest.mark.parametrize("argv", [
    ["decode", "--codec", "set", "42"],
    ["enumerate", "--codec", "hfs", "0", "100"],  # one chunk of 100 lines
])
def test_broken_pipe_is_quiet(monkeypatch, argv):
    read_fd, write_fd = os.pipe()
    writer = os.fdopen(write_fd, "w")
    monkeypatch.setattr(sys, "stdout", writer)

    def raising_print(*args, **kwargs):
        raise BrokenPipeError

    monkeypatch.setattr(builtins, "print", raising_print)
    try:
        assert cli.main(argv) == 0
    finally:
        writer.close()
        os.close(read_fd)


def test_sized_perm_refuses_a_huge_rank_by_its_bit_length(capsys):
    # a 0x rank has no digit limit; the error names a rank this big by its bit length
    code, out, err = run_cli(capsys, "decode", "--codec", "perm", "--sized",
                             "3 0x" + "f" * 16384)
    assert (code, out) == (2, "")
    assert err == "hfcodec: rank <65536-bit integer> does not fit a size-3 permutation\n"


def test_importing_the_cli_leaves_selfcheck_unloaded():
    # only the selfcheck command needs it, so no other command compiles it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, hfcodec.cli; print('hfcodec.selfcheck' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
