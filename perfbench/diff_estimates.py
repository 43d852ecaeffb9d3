"""Largest estimate and truth difference between two runs' estimate files.

Usage: python3 perfbench/diff_estimates.py A.csv B.csv

run.py writes .perfbench_out/estimates-<workload>-seed<n>-trace<t>.csv for
sweep workloads.  Two runs at the same workload and seed give the same
operation seeds, so the files can be compared row by row over the op_ids
both runs reached (fixed-seed agreement across commits).  This prints the
differences for information and always exits 0 when both files parse.
"""

import csv
import sys


def load(path: str) -> dict[tuple[str, str], tuple[float, float]]:
    with open(path, newline="") as f:
        return {(r["workload"], r["op_id"]): (float(r["estimate"]), float(r["truth"]))
                for r in csv.DictReader(f)}


def main() -> int:
    a, b = load(sys.argv[1]), load(sys.argv[2])
    common = sorted(a.keys() & b.keys())
    if not common:
        print("no operations in common")
        return 0
    d_est = max(abs(a[k][0] - b[k][0]) for k in common)
    d_truth = max(abs(a[k][1] - b[k][1]) for k in common)
    print(f"{len(common)} common ops: max |estimate diff| = {d_est:.3e}, "
          f"max |truth diff| = {d_truth:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
