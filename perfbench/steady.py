#!/usr/bin/env python3
"""Run-to-run steadiness check for the benchmark.

Runs every workload (or those named with --workload) once per seed and
prints, for each end-to-end metric, the median over seeds and the spread:
the distance between the first and third quartile as a share of the
median (Python's statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1 2 3 4 5 [--workload static-explore]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    metrics = manifest["end_to_end"] if args.trace == "0" else manifest["per_layer"]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            cmd = manifest["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(manifest["run_seconds"]),
                                         "--trace", args.trace]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in values), flush=True)
        print(f"\n{w}: median and quartile spread over {len(args.seeds)} seeds")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {m['name']:<28} median {med:<14.6g} spread {spread:7.4f}  bound {bound}  {flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
