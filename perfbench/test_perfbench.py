"""The benchmark's own tests, at tiny input sizes.

    python3 -m pytest perfbench -q      # from the repository root
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hfcodec  # noqa: E402
import loop  # noqa: E402
import oracles as O  # noqa: E402
from workloads import TREE_MAKERS, Lib, flat_op, random_bits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_decoder_output_counts_as_a_failed_op():
    lib = Lib()
    lib.nat2set = lambda n: hfcodec.nat2set(n)[1:]  # drops the smallest element

    def broken(base, n):
        raise ZeroDivisionError

    lib.to_base = broken
    result = loop.run("big-flat", seed=3, seconds=0, trace=False, tiny=True, lib=lib)
    # one round: three library set ops (the fourth goes through the CLI), four natbits ops
    assert result["failures"] == {"mismatch": 3, "raised-ZeroDivisionError": 8}
    assert not result["correct"]
    assert result["attempted"] == 60 and result["failed"] == 11


def test_digit_limit_refusal_is_a_failed_op_but_not_a_wrong_output():
    op = flat_op(Lib(), "set", random_bits(random.Random(1), 16000), via_cli=True)
    record, _ = loop.run_op(op, None)
    assert record.failure == "cli-digit-limit"


def test_bench_refuses_a_directory_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "wide-tree", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout


FLAT_PAIRS = [
    (O.set_of, hfcodec.nat2set), (O.fun_of, hfcodec.nat2fun), (O.rle_of, hfcodec.nat2rle),
    (O.ftuple_of, hfcodec.nat2ftuple), (O.perm_of, hfcodec.nat2perm), (O.fact_of, hfcodec.fr),
    (O.cantor_of, hfcodec.cantor_unpair), (O.pepis_of, hfcodec.pepis_unpair),
    (lambda n: O.deal(2, n), hfcodec.bitmerge_unpair),
    (lambda n: O.deal(3, n), lambda n: hfcodec.to_tuple(3, n)),
    (lambda n: O.digits_of(16, n), lambda n: list(hfcodec.to_base(16, n))),
]


@pytest.mark.parametrize("oracle,decode", FLAT_PAIRS)
def test_reference_decodes_agree_with_the_library(oracle, decode):
    rng = random.Random(5)
    for n in [*range(600), *(rng.getrandbits(300) for _ in range(30))]:
        if oracle is O.perm_of and n > 1 << 40:
            continue
        assert oracle(n) == list(decode(n)), n


def test_closed_form_checks_accept_the_library_and_reject_a_change():
    n = random_bits(random.Random(2), 3000)
    O.check_cantor(n, hfcodec.cantor_unpair(n))
    O.check_pepis(n, hfcodec.pepis_unpair(n))
    O.check_factoradic(n, hfcodec.fr(n))
    O.check_perm(n, hfcodec.nat2perm(n))
    with pytest.raises(O.Mismatch):
        O.check_factoradic(n + 1, hfcodec.fr(n))
    with pytest.raises(O.Mismatch):
        O.check_perm(n, [0, 0])


@pytest.mark.parametrize("name", sorted(TREE_MAKERS))
@pytest.mark.parametrize("ulimit", [0, 16])
def test_tree_oracle_matches_every_text_form(name, ulimit):
    oracle = O.TreeOracle({"hfs": O.set_of, "hff": O.fun_of, "hff1": O.ftuple_of,
                           "hff2": O.rle_of, "hfp": O.perm_of}[name], ulimit)
    style = hfcodec.SET_STYLE if name == "hfs" else hfcodec.FUN_STYLE
    for n in [0, 1, 17, 42, 2008, random_bits(random.Random(7), 200)]:
        tree = hfcodec.unrank(TREE_MAKERS[name](ulimit), n)
        serial = oracle.texts(n, O.SERIAL)
        assert serial[n] == hfcodec.serialize(tree)
        assert oracle.texts(n, O.render_form(name, ulimit))[n] == hfcodec.render(style, ulimit, tree)
        O.check_dot(hfcodec.to_dot(tree), serial)
        shape, _ = oracle.walk(O.parse_tree(serial[n]), n)
        assert shape == oracle.walk(tree, n)[0]
        assert shape.distinct == len(hfcodec.to_dag(tree).nodes)
        with pytest.raises(O.Mismatch):
            oracle.walk(tree, n + 1)


def test_big_decimal_parses_without_the_digit_limit():
    assert O.dec_to_int("1" + "0" * 9000) == 10 ** 9000
    assert O.parse_list("[0x" + "f" * 3000 + ",7]") == [16 ** 3000 - 1, 7]
