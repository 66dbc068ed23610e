#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of CloudScope). From the repo root:

    python3 perfbench/selftest.py

Checks, on every workload:
  1. the metric names and units printed match BENCHMARK.json, for
     --trace 0 (end_to_end) and --trace 1 (per_layer);
  2. every output check passes, with nothing failed, on seeds 2013 and
     5077 (CS_FAULT / CS_CHAOS removed from the environment);
  3. the deterministic work counts repeat exactly between two runs;
  4. under injected faults (CS_FAULT) fail_share rises above 0, which
     proves the failure count is wired to the program's failures.
Exits 1 on the first failed expectation. Takes a few minutes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["census", "lookups", "capture"]
SEEDS = [2013, 5077]
# Loss makes resolves fail and subdomains go unresolved; corruption and
# truncation make captured frames undecodable.
FAULTS = {
    "census": "loss=0.6",
    "lookups": "loss=0.6",
    "capture": "corrupt=0.02,truncate=0.02",
}


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in ("CS_FAULT", "CS_CHAOS")}
    env.update(extra)
    return env


def run(workload, seed, trace, env):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL {workload}: no output (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


def expect(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    # Per-pass counts and byte totals depend only on the seed and the code.
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count/pass", "B/pass")]
    for workload in WORKLOADS:
        counts = None
        for seed in SEEDS:
            for trace in (0, 1):
                code, result = run(workload, seed, trace, clean_env())
                printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
                expect(printed == wanted[trace],
                       f"{workload} seed {seed} trace {trace}: metrics match BENCHMARK.json")
                expect(code == 0 and result["correct"] and result["failed"] == 0,
                       f"{workload} seed {seed} trace {trace}: output checks pass, nothing failed")
                if trace == 1 and seed == SEEDS[0]:
                    counts = {k: result["metrics"][k]["value"] for k in exact}
        _, again = run(workload, SEEDS[0], 1, clean_env())
        expect(counts == {k: again["metrics"][k]["value"] for k in exact},
               f"{workload}: work counts repeat exactly between runs")
        _, faulty = run(workload, SEEDS[0], 0, clean_env(CS_FAULT=FAULTS[workload]))
        share = faulty["failed"] / faulty["attempted"]
        expect(share > 0,
               f"{workload}: CS_FAULT={FAULTS[workload]} raises fail_share to {share:.4g}")


if __name__ == "__main__":
    main()
