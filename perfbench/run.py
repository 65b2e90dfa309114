"""hfcodec benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload big-flat --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports hfcodec from src/.
It times set-up in fresh interpreters, then starts a fresh workload
process (perfbench/loop.py).  With --trace 0 that process runs untraced
and the end-to-end metrics are reported.  With --trace 1 it runs once
untraced and once traced, half the time each; the per-layer metrics come
from the traced half and the tracing overhead from the difference.

Op times are scaled by a host-speed calibration taken around each op
(calib.py), so that other tenants of a shared host do not move the
numbers; unscaled figures are printed and kept beside them.
Human-readable lines go first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Spans and the full
result are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("big-flat", "wide-tree", "small-enum")
SETUP_RUNS = 9
# a fresh interpreter imports hfcodec and decodes one small value
SETUP_CODE = (
    "import sys, hfcodec; "
    "assert hfcodec.__file__.startswith(sys.argv[1]), hfcodec.__file__; "
    "assert hfcodec.set_show(42) == '{{{}},{{},{{}}},{{},{{{}}}}}'"
)
LAYER_UNITS = {"calls": "1/op", "failed": "1/op", "collections": "1/op", "busy_s": "s/op",
               "self_s": "s/op", "text_bytes": "B/op", "nodes": "nodes",
               "distinct_nodes": "nodes", "max_depth": "levels",
               "expand_per_distinct": "ratio", "repeat_share": "ratio"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    # the interpreter's default int/str digit limit stays in force
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def setup_seconds() -> float:
    """Median wall time of SETUP_RUNS fresh interpreters, after one warm-up.

    Not scaled by the host-speed calibration: interpreter start-up moved
    far less with host load than the calibration did.
    """
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], env=child_env(),
                       check=True, timeout=60)
        if i:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def run_loop(args: argparse.Namespace, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=seconds + 120)
    if proc.returncode:
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def environment() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"python {platform.python_version()}, nproc {nproc}, cpu {cpu}"


def finite(x: float) -> float:
    # an all-failed sample has no finite percentile; report it as a huge time
    return x if math.isfinite(x) else 1e12


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (SRC / "hfcodec" / "__init__.py").is_file():
        print(f"perfbench: no hfcodec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(f"perfbench {args.workload} seed {args.seed}: {environment()}")

    if args.trace:
        half = args.seconds / 2
        plain = run_loop(args, half, trace=False)
        res = run_loop(args, half, trace=True)
        metrics = {name: (value, LAYER_UNITS[name.rsplit(".", 1)[-1]])
                   for name, value in res["layers"].items()}
        overhead = 1 - res["objects_per_s"] / plain["objects_per_s"]
        metrics["trace.objects_per_s"] = (res["objects_per_s"], "1/s")
        metrics["trace.untraced_objects_per_s"] = (plain["objects_per_s"], "1/s")
        metrics["trace.overhead"] = (overhead, "ratio")
        runs = [plain, res]
    else:
        setup = setup_seconds()
        res = run_loop(args, args.seconds, trace=False)
        metrics = {
            "setup_s": (setup, "s"),
            "objects_per_s": (res["objects_per_s"], "1/s"),
            "decode_p50_ms": (res["decode_p50_ms"], "ms"),
            "decode_tail_ms": (res["decode_tail"]["ms"], "ms"),
            "encode_p50_ms": (res["encode_p50_ms"], "ms"),
            "encode_tail_ms": (res["encode_tail"]["ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "success_ratio": (1 - res["failed"] / res["attempted"], "ratio"),
        }
        runs = [res]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    for r in runs:
        shape = r["shape"]
        print(f"  {r['ops']} ops in {r['rounds']} rounds, {r['wall_s']:.1f} s; "
              f"failed {r['failed']} {r['failures']}; "
              f"fail_ratio {r['failed'] / r['attempted']:.4f}")
        print(f"  tails: decode p{r['decode_tail']['p']:g} ({r['decode_tail']['beyond']} beyond), "
              f"encode p{r['encode_tail']['p']:g} ({r['encode_tail']['beyond']} beyond)")
        print(f"  tree shape: {shape['trees']} trees, {shape['nodes']} nodes, "
              f"{shape['distinct']} distinct, max depth {shape['max_depth']}, "
              f"repeat share {shape['repeat_share']:.4f}")
        print(f"  output digest {r['digest'][:16]} over the first {r['digest_ops']} ops")
        raw = r["raw"]
        print(f"  unscaled: objects_per_s {raw['objects_per_s']:.6g}, "
              f"decode p50 {raw['decode_p50_ms']:.6g} ms, encode p50 {raw['encode_p50_ms']:.6g} ms"
              f"; median scale {r['median_scale']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(summary, environment=environment(), runs=runs)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
