#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's median and
quartile spread (Q3 - Q1 over the median), the steadiness figure the
benchmark's bounds are judged against.

  python3 perfbench/spread.py --workload knn_serve --seeds 1-10
  python3 perfbench/spread.py --workload range_tight --seeds 1-5 --trace 1

Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", seconds,
                                  "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {out.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        steal = [l.split(": ")[1] for l in out.stdout.splitlines()
                 if l.startswith("host cpu steal")]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()) +
            f" steal={steal[0] if steal else '?'}", flush=True)

    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name:34} {med:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
