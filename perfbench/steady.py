#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly, one seed per run, and
print each metric's median, quartiles and spread (IQR / median).

    python3 perfbench/steady.py --workload infer-emulator --runs 10 --seconds 20

Run from the repository root. The benchmark command is read from
BENCHMARK.json, so this measures exactly what the benchmark contract runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    failed_share = set()
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported correct=false")
        failed_share.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed share {sorted(failed_share)}")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{'' if bound is None else bound:>8}{flag}")


if __name__ == "__main__":
    main()
