"""The benchmark's workloads: fixed operating points of shadowlab's public API.

Each workload is a closed loop of one client: the next operation starts
when the previous one returns.  An operation is one sweep trial (one full
(eps, delta) estimate through ``cli.run_sweep``), one BHM protocol run
(``bhm.gen_instance`` + ``bhm.run_protocol``) or one verification round
(``cli.verify_all``).  Every call looks its function up on the module at
call time, so the tracer's wrappers (see ``layers.py``) see it.

``import_shadowlab`` imports shadowlab from ``<root>/src`` of this
checkout; the setup probe times that import plus one warm-up operation.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread per usable core; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_shadowlab():
    """Import shadowlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "shadowlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shadowlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shadowlab
    import shadowlab.bhm
    import shadowlab.cli
    import shadowlab.ensembles

    if Path(shadowlab.__file__).resolve().parent != (SRC / "shadowlab").resolve():
        raise SystemExit(f"perfbench: imported shadowlab from {shadowlab.__file__}, not {SRC}")
    return shadowlab


@dataclass(frozen=True)
class OpResult:
    """What one operation returned, reduced to what the checks need."""

    ok: bool  # met its target: within eps, right bit, or every check passed
    estimate: float = math.nan  # sweeps only
    truth: float = math.nan  # sweeps only
    copies: int = 0  # state copies consumed (s * k of the plan)
    plan: tuple = ()  # (kind, d, s, k) of a sweep's plan, for computed counts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sweep" | "bhm" | "oracles"
    params: dict
    smoke: dict = field(default_factory=dict)  # overrides for the self-test
    delta: float = 0.0  # allowed failure share; 0 means every op must pass

    def sized(self, smoke: bool) -> dict:
        return {**self.params, **self.smoke} if smoke else dict(self.params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jm-d256",
            "joint measurement at d=256: 21 outcomes per trial, so the dense d x d shadow "
            "and observable path dominates (BLAS-bound)",
            "sweep",
            dict(mode="jm", d=256, B=4.0, eps=0.2, delta=0.05, expect="jm"),
            smoke=dict(d=8),
            delta=0.05,
        ),
        Workload(
            "im-linear-d64",
            "independent measurement, auto resolves to linear (s=534, k=21): outcome "
            "reduction in cli plus sampling, no Shadow objects",
            "sweep",
            dict(mode="im", d=64, B=4.0, eps=0.3, delta=0.05, expect="im-linear"),
            smoke=dict(d=16, B=1.0, eps=0.5),
            delta=0.05,
        ),
        Workload(
            "im-quadratic-d32",
            "independent measurement, auto resolves to quadratic (s=1720, k=21): same "
            "reduction plus a k*d^3 product, larger sampling share",
            "sweep",
            dict(mode="im", d=32, B=4.0, eps=0.2, delta=0.05, expect="im-quadratic"),
            smoke=dict(d=8, eps=0.5),
            delta=0.05,
        ),
        Workload(
            "bhm-n16",
            "Boolean Hidden Matching at n=16, alpha=0.25: ~1 ms runs dominated by Python "
            "per-call overhead, not BLAS",
            "bhm",
            dict(n=16, alpha=0.25, delta=0.05),
            smoke=dict(n=8),
            delta=0.05,
        ),
        Workload(
            "oracles",
            "one verify_all round per op: the only workload that runs moments and linalg "
            "(brute-force permutation sums, exact and Monte Carlo covariances)",
            "oracles",
            {},
        ),
    )
}


def op_seeds(seed: int):
    """Endless stream of per-operation seeds derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def run_op(sl, workload: Workload, op_seed: int, smoke: bool = False) -> OpResult:
    """One operation of the workload through shadowlab's public functions."""
    p = workload.sized(smoke)
    if workload.kind == "sweep":
        config = sl.cli.ExperimentConfig(
            mode=p["mode"], d=p["d"], B=p["B"], eps=p["eps"], delta=p["delta"],
            trials=1, seed=op_seed, estimator="auto",
        )
        (row,) = sl.cli.run_sweep(config)
        if row.mode != p["expect"]:
            raise RuntimeError(f"operating point resolved to {row.mode}, expected {p['expect']}")
        est, truth = float(row.estimate), float(row.truth)
        if not (math.isfinite(est) and math.isfinite(truth)):
            raise FloatingPointError(f"non-finite estimate {est} or truth {truth}")
        if not -1e-9 <= truth <= 1 + 1e-9:  # Tr(O rho) of a projector and a state
            raise ValueError(f"truth {truth} outside [0, 1]")
        return OpResult(
            ok=abs(est - truth) < p["eps"], estimate=est, truth=truth,
            copies=row.s * row.k, plan=(row.mode, row.d, row.s, row.k),
        )
    if workload.kind == "bhm":
        rng = sl.ensembles.RngStream(op_seed, 1)
        b = int(rng.gen.integers(0, 2))
        inst = sl.bhm.gen_instance(p["n"], p["alpha"], b, rng)
        guess, used = sl.bhm.run_protocol(inst, p["delta"], rng)
        return OpResult(ok=guess == b, copies=int(used))
    return OpResult(ok=sl.cli.verify_all(rng_seed=op_seed, quiet=True) == 0)


def reduce_counts(plan: tuple) -> tuple[int, int]:
    """Computed (MACs, bytes) of cli's outcome reduction for one sweep trial.

    k*s*d^2 complex MACs accumulate the per-batch projector sums P, plus
    k*d^3 for the quadratic estimator's S @ S; the outcome array is k*s*d
    complex128 values.  Zero for modes that do not use the reduction.
    """
    if not plan or not plan[0].startswith("im-"):
        return 0, 0
    mode, d, s, k = plan
    macs = k * s * d * d + (k * d**3 if mode == "im-quadratic" else 0)
    return macs, k * s * d * 16
