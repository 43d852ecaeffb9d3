"""shadowlab benchmark: timed closed-loop operations against one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload jm-d256 --seed 1 --seconds 16 --trace 0

--trace 0 prints the bounded end-to-end metrics setup_s, op_ms_tail and
peak_rss_mb; ops_per_s, op_ms_p50 and the failed share go on a "#" line
before the result, unbounded (see README.md for why).  --trace 1 spends half the time
untraced and half with every layer wrapped (see layers.py) and prints the
per-layer metrics, including the tracing overhead.  The last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics; the full record (machine, ops_per_s, op_ms_p50, tail percentile,
failed share, absent layers, per-op latencies) and the per-operation estimates
go to .perfbench_out/.

Exit status: 0 when every check passes, 1 on a correctness failure (an
operation raised or returned a non-finite value, a verification round
failed, or the success share fell below 1 - delta), 2 on a usage error or
when the checkout holds no shadowlab sources.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import workloads

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, this one included
PROBE_TIMEOUT_S = 120
# op_ms_tail: the highest percentile, up to TAIL_MAX_PCT, with at least
# TAIL_BEYOND ops beyond it.  Above p90 the host's own stalls set the value:
# on the 2-core baseline host bhm-n16's p99.9 varied 1.0x (quartile spread
# over 10 runs), p99 0.33x, p95 0.15x and p90 0.095x.
TAIL_BEYOND = 10
TAIL_MAX_PCT = 90
OUT_DIR = workloads.ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for mod, fn, count in layers.LAYERS:
        name = f"{mod}.{fn}"
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.total_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
        if count:
            units[f"{name}.{count}"] = "count/op"
    units.update({
        "estimators.copies_per_op": "count/op",
        "cli.reduce.macs_computed": "MAC/op",
        "cli.reduce.bytes_computed": "B/op",
        "ensembles.accept_ratio": "ratio",
        "trace.op_s": "s/op",
        "trace.residual_s": "s/op",
        "trace.accounted_share": "ratio",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_ratio": "ratio",
        "trace.absent_layers": "count",
    })
    return units


@dataclass
class Phase:
    """Closed-loop timed operations: latencies and what each op returned."""

    elapsed_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    results: list = field(default_factory=list)  # (op_id, op_seed, OpResult | None)
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(r is None or not r.ok for _, _, r in self.results)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.elapsed_s


def timed_phase(sl, w, seeds, seconds: float, smoke: bool, first_id: int) -> Phase:
    """Run ops back to back until `seconds` have passed; stop at the first raise."""
    phase = Phase()
    op_id = first_id
    start = perf_counter()
    while True:
        op_seed = next(seeds)
        t0 = perf_counter()
        try:
            result = workloads.run_op(sl, w, op_seed, smoke)
        except Exception:  # an op that raises fails the gate; keep its traceback
            result = None
            phase.errors.append(f"op {op_id} seed {op_seed}: {traceback.format_exc()}")
        t1 = perf_counter()
        phase.latencies_s.append(t1 - t0)
        phase.results.append((op_id, op_seed, result))
        op_id += 1
        if result is None or t1 - start >= seconds:
            break
    phase.elapsed_s = t1 - start
    return phase


def check(w, phase: Phase) -> list[str]:
    """Correctness gate: no raise or non-finite value, success share >= 1 - delta."""
    problems = [e.strip().splitlines()[-1] for e in phase.errors]
    share = 1 - phase.failed / phase.attempted
    if share < 1 - w.delta:
        problems.append(f"success share {share:.4f} below 1 - delta = {1 - w.delta:.4f}")
    return problems


def tail(latencies_s: list) -> tuple[float, float, int]:
    """(value in s, percentile, ops beyond) for op_ms_tail; the maximum when
    there are too few ops to leave TAIL_BEYOND beyond it."""
    lat = sorted(latencies_s)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(n * (100 - TAIL_MAX_PCT) / 100))
    return lat[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def setup_probes(w, warmup_seed: int, smoke: bool, n: int) -> list[float]:
    """Set-up seconds of n fresh processes, each timed by setup_probe.py."""
    probe = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(n):
        cmd = [sys.executable, str(probe), w.name, str(warmup_seed)] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": workloads.NPROC,
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": workloads.NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_estimates(path: Path, w, phases: list[Phase]):
    with open(path, "w") as f:
        f.write("workload,op_id,op_seed,estimate,truth\n")
        for op_id, op_seed, r in (res for ph in phases for res in ph.results):
            if r is not None:
                f.write(f"{w.name},{op_id},{op_seed},{r.estimate!r},{r.truth!r}\n")


def layer_metrics(tracer: layers.Tracer, phase: Phase, untraced: Phase) -> dict[str, float]:
    n = phase.attempted
    op_s = sum(phase.latencies_s) / n
    out = {}
    self_total = 0.0
    stats = tracer.by_layer()
    for mod, fn, count in layers.LAYERS:
        name = f"{mod}.{fn}"
        st = stats[name]
        out[f"{name}.calls"] = st.calls / n
        out[f"{name}.total_s"] = st.total_s / n
        out[f"{name}.self_s"] = st.self_s / n
        if count:
            out[f"{name}.{count}"] = st.count / n
        self_total += st.self_s / n
    done = [r for _, _, r in phase.results if r is not None]
    reduce = [workloads.reduce_counts(r.plan) for r in done]
    drawn = tracer.site("ensembles.sample_haar_state", "ensembles").count
    returned = stats["ensembles.sample_posterior_states"].count
    residual = op_s - tracer.root_s / n
    out.update({
        "estimators.copies_per_op": sum(r.copies for r in done) / max(len(done), 1),
        "cli.reduce.macs_computed": sum(m for m, _ in reduce) / max(len(done), 1),
        "cli.reduce.bytes_computed": sum(b for _, b in reduce) / max(len(done), 1),
        "ensembles.accept_ratio": returned / drawn if drawn else 0.0,
        "trace.op_s": op_s,
        "trace.residual_s": residual,
        "trace.accounted_share": (self_total + residual) / op_s,
        "trace.ops_per_s_untraced": untraced.ops_per_s,
        "trace.ops_per_s_traced": phase.ops_per_s,
        "trace.overhead_ratio": phase.ops_per_s / untraced.ops_per_s,
        "trace.absent_layers": len(tracer.absent),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny operating points, for selftest.py")
    args = ap.parse_args(argv)
    if not (workloads.SRC / "shadowlab" / "__init__.py").is_file():
        print(f"perfbench: no shadowlab sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    w = workloads.WORKLOADS[args.workload]
    workloads.pin_blas_threads()
    seeds = workloads.op_seeds(args.seed)
    warmup_seed = next(seeds)
    setup = [] if args.trace else setup_probes(w, warmup_seed, args.smoke, SETUP_SAMPLES - 1)

    t0 = perf_counter()
    sl = workloads.import_shadowlab()
    warm = None
    try:
        warm = workloads.run_op(sl, w, warmup_seed, args.smoke)
    except Exception:
        traceback.print_exc()
    setup.append(perf_counter() - t0)
    machine = machine_record()
    print("# machine " + json.dumps(machine), flush=True)

    if args.trace:
        untraced = timed_phase(sl, w, seeds, args.seconds / 2, args.smoke, 0)
        tracer = layers.Tracer()
        tracer.install()
        try:
            phase = timed_phase(sl, w, seeds, args.seconds / 2, args.smoke, untraced.attempted)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, phase, untraced)
        units = per_layer_units()
        problems = check(w, untraced) + check(w, phase)
        if abs(metrics["trace.accounted_share"] - 1) > 1e-6:
            problems.append(f"self times + residual cover {metrics['trace.accounted_share']:.6f} of op time")
        extra = {"absent_layers": tracer.absent}
        phases = [untraced, phase]
        if tracer.absent:
            print("# absent layers: " + ", ".join(tracer.absent))
    else:
        phase = timed_phase(sl, w, seeds, args.seconds, args.smoke, 0)
        value, pct, beyond = tail(phase.latencies_s)
        p50 = 1e3 * statistics.median(phase.latencies_s)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_ms_tail": 1e3 * value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        problems = check(w, phase)
        extra = {"ops_per_s": phase.ops_per_s, "op_ms_p50": p50, "tail_percentile": pct,
                 "tail_ops_beyond": beyond, "setup_samples_s": setup}
        phases = [phase]
        print(f"# {w.name}: {phase.attempted} ops, failed_share={phase.failed / phase.attempted:.6g}, "
              f"ops_per_s={phase.ops_per_s:.6g}, op_ms_p50={p50:.6g}, "
              f"op_ms_tail is p{pct:.2f} ({beyond} of {phase.attempted} ops beyond it)")
    if warm is None:
        problems.append("warm-up operation raised")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if w.kind == "sweep":
        write_estimates(OUT_DIR / f"estimates-{stem}.csv", w, phases)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": w.name, "params": w.sized(args.smoke), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "failed_share": failed / attempted, "problems": problems,
        "errors": [e for ph in phases for e in ph.errors], **extra, **result,
        "latencies_ms": [round(1e3 * x, 4) for ph in phases for x in ph.latencies_s],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"# FAIL {p}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
