#!/usr/bin/env python3
"""Test of the benchmark harness, in its reduced-size smoke mode.

    python3 perfbench/test_harness.py

Run from the root of a checkout. For every workload the harness has
(the ones BENCHMARK.json gates and the ones run by hand) it runs
perfbench/run.py --smoke untraced and traced, each twice at one seed,
and checks that:

  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, and nothing failed;
  - every end-to-end metric (untraced) and every per-layer metric
    (traced) of BENCHMARK.json is printed, with its unit;
  - the deterministic metrics repeat exactly at one seed;

and that in a directory holding only BENCHMARK.json and the
benchmark's files, the benchmark exits non-zero without a result.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402
SEED = 5
SECONDS = 2
# Simulated or structural: identical in every run at one seed.
DETERMINISTIC = {
    0: ["fabric_cycles", "fabric_energy_uj", "ok_frac"],
    1: ["compiler.dfg_nodes", "mapper.cost", "sim.fires",
        "model.speedup_vs_riptide", "model.energy_vs_riptide"],
}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
         str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result_of(workload, trace):
    code, lines, err = run(ROOT, workload, trace)
    if code != 0 or not lines:
        fail(f"{workload} trace={trace} exited {code}:\n{err[-2000:]}")
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        fail(f"{workload} trace={trace}: not correct: {lines[-1]}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail(f"{workload}: attempted {res['attempted']}")
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for name in WORKLOADS:
        for trace in (0, 1):
            a = result_of(name, trace)
            b = result_of(name, trace)
            for spec in wanted[trace]:
                m = a["metrics"].get(spec["name"])
                if m is None:
                    fail(f"{name} trace={trace}: no {spec['name']}")
                if m["unit"] != spec["unit"]:
                    fail(f"{name}: {spec['name']} unit {m['unit']}, "
                         f"BENCHMARK.json says {spec['unit']}")
                if trace == 0 and not m["value"] > 0:
                    fail(f"{name}: {spec['name']} is {m['value']}")
            if sorted(a["metrics"]) != sorted(s["name"]
                                              for s in wanted[trace]):
                fail(f"{name} trace={trace}: metric set differs from "
                     f"BENCHMARK.json")
            for key in DETERMINISTIC[trace]:
                va = a["metrics"][key]["value"]
                vb = b["metrics"][key]["value"]
                if va != vb:
                    fail(f"{name}: {key} differs at one seed: {va} {vb}")
            print(f"ok  {name} trace={trace}")

    # Without the library sources the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    code, lines, _ = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        fail("a bare checkout produced a result")
    print("ok  bare checkout fails without a result")


if __name__ == "__main__":
    main()
