"""Fast self-check of the benchmark: every workload at a tiny size.

Run from the checkout root::

    python3 perfbench/selfcheck.py

For each workload it runs ``run.py --tiny`` untraced and traced and
checks that the run exits 0, that the last line is one JSON object with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
that every correctness check passed, and that the metric names and
units match ``BENCHMARK.json``.  It also checks
that the benchmark refuses to run, without printing a result, from a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import common
import run

KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selfcheck: FAIL {message}")
    sys.exit(1)


def check_manifest() -> dict:
    manifest = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in manifest["workloads"])
    if workloads != run.WORKLOADS:
        fail(f"BENCHMARK.json workloads {workloads} != run.py {run.WORKLOADS}")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = tuple((m["name"], m["unit"]) for m in manifest[key])
        if listed != tuple(names):
            fail(f"BENCHMARK.json {key} does not match run.py")
    print("selfcheck: ok   BENCHMARK.json matches run.py")
    return manifest


def check_run(workload: str, trace: int, manifest: dict) -> None:
    cmd = [
        sys.executable, str(common.BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        failed = [line for line in proc.stdout.splitlines() if line.startswith("check FAIL")]
        fail(f"{label}: correctness checks failed: {failed}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']!r}")
    if result["failed"] != 0:
        fail(f"{label}: failed={result['failed']!r}")
    expected = manifest["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in expected]
    if list(result["metrics"]) != names:
        fail(f"{label}: metric names differ from BENCHMARK.json")
    for metric in expected:
        got = result["metrics"][metric["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != metric["unit"]:
            fail(f"{label}: {metric['name']} = {got}")
        if not isinstance(got["value"], float) or not math.isfinite(got["value"]):
            fail(f"{label}: {metric['name']} value {got['value']!r}")
        if not trace and got["value"] == 0.0:
            fail(f"{label}: end-to-end {metric['name']} is 0")
    print(f"selfcheck: ok   {label} ({result['attempted']} attempted)")


def check_bare_directory() -> None:
    bare = common.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        common.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("a directory without the program's sources still produced a result")
    print("selfcheck: ok   refuses to run without the program's sources")


def main() -> int:
    manifest = check_manifest()
    check_bare_directory()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, manifest)
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
