"""Repeat the benchmark over seeds and summarise each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 10 [--workloads jm-d256 oracles] \
        [--traced] [--out summary.json]

Runs ``run.py`` once per (workload, seed) with tracing off, in sequence,
and reports per workload and end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A spread at or above a
third of the metric's bound in BENCHMARK.json is flagged.  --traced adds
one traced run per workload and keeps its per-layer breakdown.  Exits 1
if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": args.seconds, "workloads": {}}
    flagged = []
    for name in args.workloads:
        runs = [run_once(name, seed, args.seconds, 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        entry = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "end_to_end": {}}
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            mark = ""
            if metric != "setup_s" and s["spread"] >= bounds[metric] / 3:
                mark = "  <-- spread >= bound/3"
                flagged.append(f"{name}.{metric}")
            print(f"{name:18s} {metric:12s} median {s['median']:12.5g} {s['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]}){mark}", flush=True)
        if args.traced:
            traced = run_once(name, args.first_seed, args.seconds, 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items() if v["value"]}
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if flagged:
        print("spread at or above a third of the bound: " + ", ".join(flagged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
