"""Quick self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Run from the root of a checkout.  For every workload, traced and untraced,
it checks that the run is correct and emits exactly the metrics that
BENCHMARK.json declares, with their units; that a corrupted output is
counted in ``failed`` and in ``failed_op_ratio``; that a wrong digest is
caught; that the pinned free-family counts match brute force; and that
the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

TINY = {"batch_rows": 300, "cones_per_k": 1,
        "plot_bounds": {"tsv": (-3, 3, 1, 3), "svg": (-3, 3, 1, 3)},
        "free_complexes": 1}
SEED = 7
SECONDS = 0.1


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def corrupt(output):
    """Damage one output: replace the second line of a text, or drop the
    last weight system of a cone."""
    if isinstance(output, str):
        lines = output.splitlines(keepends=True)
        return "".join(lines[:1] + ["corrupted\n"] + lines[2:])
    return output[:-1]


def declared(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    units = [{m["name"]: m["unit"] for m in doc[key]}
             for key in ("end_to_end", "per_layer")]
    return [w["name"] for w in doc["workloads"]], units


def check_sourceless(root):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command must fail without printing a result."""
    bare = os.path.join(run.BENCH_DIR, "_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "runs without the sources")
    expect('"metrics"' not in proc.stdout, "prints a result without sources")


def main():
    root = os.getcwd()
    run.import_library(root)
    workloads, (e2e_units, layer_units) = declared(root)
    expect(sorted(workloads) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in workloads:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            _, res = run.run(workload, SEED, SECONDS, trace, root, TINY)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units, f"{workload} trace={trace}: metrics "
                   f"{sorted(set(got) ^ set(units))} differ from "
                   "BENCHMARK.json (or a unit does)")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   f"{workload} trace={trace}: not correct: {res}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   f"{workload} trace={trace}: non-numeric metric")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{workload}: an end-to-end metric reads 0")
        _, res = run.run(workload, SEED, SECONDS, 1, root, TINY, corrupt)
        ratio = res["metrics"]["failed_op_ratio"]["value"]
        expect(res["failed"] > 0 and not res["correct"] and ratio > 0,
               f"{workload}: corrupted output not counted: {res['failed']}")
        print(f"selftest: {workload} ok (corrupted run: {res['failed']} of "
              f"{res['attempted']} operations failed)")
    pinned = run.check.load_pinned()
    expect(run.check.check_digest("plot_tsv", "x", pinned) == (1, 1),
           "a wrong digest is not caught")
    for name, n, switches, bounds in run.gen.FREE_COMPLEXES:
        for b in bounds:
            expect(pinned["free_counts"][f"{name}@{b}"]
                   == run.gen.system_count(n, switches, b),
                   f"pinned count of {name}@{b} disagrees with brute force")
    check_sourceless(root)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
