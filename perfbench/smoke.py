#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a tiny run of every workload, untraced
and traced, plus the unit check of the self-time computation.

  python3 perfbench/smoke.py        (from the root of the repository)

Each run must exit 0, print the host fingerprint, print every metric that
BENCHMARK.json names with its unit (as a `metric` line and in the final JSON
line), pass its oracle, and fail no operation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check_run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace),
                              "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    label = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{label}: exit {out.returncode}: {out.stderr[-2000:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: oracle or operations failed: {lines[-1]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    if not any(l.startswith("host nproc=") and " simd=" in l and
               " build=" in l and " connections=" in l for l in lines):
        errors.append(f"{label}: no host fingerprint line")
    specs = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in specs}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    printed = {l.split()[1]: l.split()[-1] for l in lines
               if l.startswith("metric ")}
    for name, unit in want.items():
        if name in got and got[name].get("unit") != unit:
            errors.append(f"{label}: {name} unit {got[name].get('unit')}")
        if not trace and not got.get(name, {}).get("value"):
            errors.append(f"{label}: end-to-end metric {name} is 0")
        if name in printed and printed[name] != unit:
            errors.append(f"{label}: printed {name} with unit {printed[name]}")
        if name not in printed and not (
                trace and got.get(name, {}).get("value") == 0):
            errors.append(f"{label}: {name} not printed as a metric line")
    if not any(l.startswith("check PASS") for l in lines):
        errors.append(f"{label}: no oracle check printed")
    if trace and workload == "knn_serve" and not any(
            l.startswith("tracing overhead:") for l in lines):
        errors.append(f"{label}: no tracing overhead printed")
    return errors


def main():
    os.chdir(os.path.dirname(HERE))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            errors += check_run(bench, workload, trace)
            print(f"{workload} trace={trace}: done", flush=True)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    unit = subprocess.run([os.path.join(build_dir, "perfbench_spans_test")],
                          capture_output=True, text=True)
    print(unit.stdout.strip())
    if unit.returncode != 0:
        errors.append("perfbench_spans_test failed")
    for e in errors:
        print("FAIL", e)
    print("smoke: PASS" if not errors else f"smoke: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
