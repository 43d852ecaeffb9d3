"""Smoke self-test of the benchmark itself; takes about half a minute.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload at tiny size, with tracing off and on, checks that
run.py exits 0, that its last stdout line has exactly the keys correct,
attempted, failed and metrics, and that it emits every end-to-end or
per-layer metric named in BENCHMARK.json with that unit and a finite
value.  Also checks that an operation that raises makes run.py report
correct=false and exit 1, that a wrapped function which no longer exists
is counted in trace.absent_layers instead of failing the traced run, and
that run.py exits non-zero without printing a result in a directory that
holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAULT = """
import sys
sys.path.insert(0, {here!r})
import run, workloads
def broken(*args, **kwargs):
    raise FloatingPointError("injected fault")
workloads.run_op = broken
sys.exit(run.main(["--workload", "bhm-n16", "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"]))
"""


ABSENT = """
import sys
sys.path.insert(0, {here!r})
import run, workloads
load = workloads.import_shadowlab
def without_a_layer():
    sl = load()
    del sl.moments.ab_bijection_check
    return sl
workloads.import_shadowlab = without_a_layer
sys.exit(run.main(["--workload", "bhm-n16", "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"]))
"""


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, lines = run(["perfbench/run.py", "--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace), "--smoke"])
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: exit {code}, last line {lines[-1:]}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{label}: metric names or units differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"])]
            if bad:
                errors.append(f"{label}: non-finite values {bad}")
            print(f"ok  {label}: {result['attempted']} ops, {len(got)} metrics", flush=True)

    code, lines = run(["-c", FAULT.format(here=str(HERE))])
    result = json.loads(lines[-1]) if lines else {}
    if code != 1 or result.get("correct") is not False:
        errors.append(f"injected fault: exit {code}, result {result}")
    else:
        print("ok  an operation that raises gives correct=false and exit 1")

    code, lines = run(["-c", ABSENT.format(here=str(HERE))])
    result = json.loads(lines[-1]) if lines else {}
    absent = result.get("metrics", {}).get("trace.absent_layers", {}).get("value")
    if code != 0 or absent != 1:
        errors.append(f"missing layer: exit {code}, trace.absent_layers {absent}")
    else:
        print("ok  a missing layer is reported as absent, not a crash")

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bench["command"][1:] + ["--workload", "bhm-n16", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"], cwd=Path(bare))
        if code == 0 or any(line.startswith("{") for line in lines):
            errors.append(f"without sources: exit {code}, stdout {lines}")
        else:
            print(f"ok  without sources: exit {code}, no result printed")

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
