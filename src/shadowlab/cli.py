"""Command-line driver: sweeps, verification suites, and CSV reporting.

Subcommands:
  jm             joint-measurement sweep over random (state, observable) pairs
  im             independent-measurement sweep (linear or quadratic estimator)
  bhm            end-to-end Boolean-Hidden-Matching protocol runs
  verify-moments closed-form vs. brute-force moment checks
  cov-check      exact vs. Monte Carlo covariance patterns
  compare        linear vs. quadratic estimator variance across batch sizes

Exit codes: 0 success, 1 check failure, 2 usage error.  The seed comes from
--seed, then the seed key of a jm or im --config file, then the
SHADOWLAB_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bhm as bhm_mod
from . import moments
from .ensembles import (
    BLOCK_ROWS,
    RngStream,
    aligned_frame,
    require_outcome_budget,
    sample_aligned_posterior_states,
    sample_haar_state,
)
from .estimators import (
    batch_estimates, choose_estimator, plan_batches, plan_linear_batches, plan_quadratic_batches,
)
from .linalg import Permutation, kappa, perm_operator, sym_projector
from .measurement import measure_joint_batch
from .observables import (
    Observable, random_observable, random_projector_observable, random_signature_observable,
)

DEFAULT_SEED = 0


@dataclass
class ExperimentConfig:
    mode: str  # jm | im
    d: int = 8
    B: float = 4.0
    eps: float = 0.2
    delta: float = 0.05
    trials: int = 500
    seed: int = DEFAULT_SEED
    out: str | None = None
    estimator: str = "auto"  # im only: auto | linear | quadratic

    def __post_init__(self):
        if self.mode not in ("jm", "im"):
            raise ValueError(f"mode must be jm or im, not {self.mode!r}")
        if self.estimator not in ("auto", "linear", "quadratic"):
            raise ValueError(f"estimator must be auto, linear or quadratic: {self.estimator!r}")
        if self.mode == "jm" and self.estimator != "auto":
            raise ValueError("jm always uses the affine joint estimator; estimator must be auto")
        if self.d < 2 or not 1 <= self.B <= self.d:
            raise ValueError("require d >= 2 and 1 <= B <= d")
        if not 0 < self.eps <= 1 or not 0 < self.delta < 1 or self.trials < 0:
            raise ValueError("eps in (0,1], delta in (0,1), trials >= 0")


class ResultRow(NamedTuple):
    mode: str  # jm, im-linear or im-quadratic: the estimator that ran
    d: int
    B: float
    eps: float
    delta: float
    s: int
    k: int
    trial_id: int
    estimate: float
    truth: float
    abs_error: float
    success: bool


RESULT_FIELDS = ResultRow._fields


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_rows(path: str, rows, header=RESULT_FIELDS):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p, z = successes / n, 1.96
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def _im_batch_estimates(phi, O, s, k, rng, kind):
    """Per-batch estimates from k batches of s fresh single-copy outcomes.

    The outcomes are phi-aligned records, drawn a block of whole batches at
    a time into one buffer and read with O's factor rotated into their
    basis once.  The linear estimate reads each outcome only through
    <psi|O.vecs>, so its records are reduced to span{phi, O.vecs} plus the
    rest; quadratic needs every coordinate.  A buffer larger than
    ensembles.MAX_OUTCOME_BYTES is a ValueError before anything is sampled.
    """
    frame = aligned_frame(phi, O.vecs, full=kind == "quadratic")
    d, m = O.vecs.shape[0], frame.shape[0]
    step = min(k, max(1, BLOCK_ROWS // s))
    require_outcome_budget(
        step * s * m * 16,
        f"im-{kind} blocks (s = {s}, {step} batches, {m} of d = {d} coordinates) would",
        "use a larger eps (a smaller s)",
    )
    block = np.empty((step * s, m), dtype=complex)
    vals = np.empty(k)
    for lo in range(0, k, step):
        n = min(step, k - lo)
        records = sample_aligned_posterior_states(1, rng, block[: n * s], d)
        vals[lo:lo + n] = batch_estimates(O, records.reshape(n, s, m), kind, frame=frame)
    return vals


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured pipeline over fresh random (state, observable) pairs.

    A plan whose outcome array would not fit in ensembles.MAX_OUTCOME_BYTES
    is a ValueError before any outcome is sampled: k joint outcomes for jm,
    one block of batches for im (checked in trial 0, once O fixes its width).
    """
    d, B, eps, delta = config.d, config.B, config.eps, config.delta
    if config.mode == "jm":
        kind, label, plan = "affine_joint", "jm", plan_batches(B, eps, delta)
        require_outcome_budget(plan.k * d * 16, f"jm (k = {plan.k}, d = {d}) would", "use a smaller d")
    else:
        kind = config.estimator
        if kind == "auto":
            kind = choose_estimator(B, d, eps)
        label = f"im-{kind}"
        plan = (
            plan_linear_batches(B, eps, delta)
            if kind == "linear"
            else plan_quadratic_batches(B, d, eps, delta)
        )

    rows = []
    for t in range(config.trials):
        rng = RngStream(config.seed, t + 1)
        phi = sample_haar_state(d, rng)
        O = random_observable(d, B, rng)
        truth = float(np.abs(phi @ O.vecs.conj()) ** 2 @ O.evals)
        if kind == "affine_joint":
            outcomes = measure_joint_batch(phi, plan.s, rng, plan.k)
            vals = batch_estimates(O, outcomes, kind, copies=plan.s)
        else:
            vals = _im_batch_estimates(phi, O, plan.s, plan.k, rng, kind)
        est = float(np.sort(vals)[plan.k // 2])
        err = abs(est - truth)
        rows.append(
            ResultRow(label, d, B, eps, delta, plan.s, plan.k, t, est, truth, err, err < eps)
        )
    return rows


def compare_estimators(d: int, B: float, N: int, seed: int, s_grid=(8, 16, 32, 64)):
    """Empirical variance of the linear vs. quadratic estimate at equal s.

    Returns rows (s, var_linear, var_quadratic, ratio, pred_linear,
    pred_quadratic) for a fixed random state/observable pair.  The
    observable is a balanced +1/-1 signature with Tr(O^2) = floor(B), so
    the linear estimator's variance actually scales like B/s (a rank-B
    projector with B near d is close to the identity and would make the
    comparison vacuous).  A variance needs N >= 2 batches, and the
    predictions hold only for 1 <= B <= d.
    """
    if N < 2 or not 1 <= B <= d:
        raise ValueError("compare needs trials >= 2 and 1 <= B <= d")
    rng = RngStream(seed, 0)
    phi = sample_haar_state(d, rng)
    O = random_signature_observable(d, B, rng)
    rows = []
    n = len(s_grid)  # stream ids: 0 above, 1..n linear, n+1..2n quadratic
    for i, s in enumerate(s_grid):
        lin = _im_batch_estimates(phi, O, s, N, RngStream(seed, i + 1), "linear")
        quad = _im_batch_estimates(phi, O, s, N, RngStream(seed, n + 1 + i), "quadratic")
        var_l = float(lin.var(ddof=1))
        var_q = float(quad.var(ddof=1))
        rows.append((s, var_l, var_q, var_q / var_l, B / s, B * d / s**2 + 1 / s))
    return rows


def _moment_grid():
    for s in (1, 2, 3, 4):
        yield s, 2
    for s in (1, 2, 3):
        yield s, 3


def _covariance_instance(d: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The covariance gates' (rho, O): a Haar state, and O with eigenvalues 1
    and -1/2 on a Haar 2-frame.  With both signs and one |lambda| < 1, O^2 is
    neither O nor a projector at any d >= 2, so a formula that misreads
    Tr O^2 or Tr(O^2 rho) as d, 1 or Tr(O rho) fails the gate."""
    phi = sample_haar_state(d, rng)
    frame = random_projector_observable(d, 2, rng).vecs
    return np.outer(phi, phi.conj()), Observable(frame, np.array([1.0, -0.5])).matrix


def verify_all(rng_seed: int = 0, quiet: bool = False) -> int:
    """Run every oracle-equivalence and bound check; 0 iff all pass."""
    reports: list[tuple[str, float, float]] = []  # (name, max|formula - brute|, tol)

    def check(name, formula, brute, tol):
        dev = float(np.abs(np.asarray(formula) - np.asarray(brute)).max())
        reports.append((name, dev, tol))

    rng = RngStream(rng_seed, 777)
    for s, d in _moment_grid():
        phi = sample_haar_state(d, rng)
        rho = np.outer(phi, phi.conj())
        check(
            f"first_moment s={s} d={d}",
            moments.exact_first_moment(rho, s, d),
            moments.brute_first_moment(rho, s, d),
            1e-10,
        )
        check(
            f"second_moment s={s} d={d}",
            moments.exact_second_moment(rho, s, d),
            moments.brute_second_moment(rho, s, d),
            1e-10,
        )

    # s=1 closed form: (II + rho I + I rho)(W_id + W_swap)/((d+1)(d+2))
    for d in (2, 3, 4):
        phi = sample_haar_state(d, rng)
        rho = np.outer(phi, phi.conj())
        I = np.eye(d)
        pre = np.kron(I, I) + np.kron(rho, I) + np.kron(I, rho)
        two_sym = np.eye(d * d) + perm_operator(Permutation.transposition(2, 0, 1), d)
        check(
            f"second_moment_s1_closed_form d={d}",
            moments.exact_second_moment(rho, 1, d),
            pre @ two_sym / ((d + 1) * (d + 2)),
            1e-12,
        )

    for s, d in ((1, 2), (2, 2), (2, 3), (3, 2)):
        check(
            f"sym_projector_trace s={s} d={d}",
            np.trace(sym_projector(s, d)).real,
            kappa(s, d),
            1e-9,
        )

    for n in (2, 3, 4, 5):
        check(f"type_ab_bijection n={n}", float(moments.ab_bijection_check(n)), 1.0, 0.0)

    # covariance patterns: exact assembly vs bound and vs Monte Carlo
    for d in (2, 3):
        rho, O = _covariance_instance(d, rng)
        patterns = ("ij_jk", "ij_kj", "ij_ji", "ij_ij")
        mcs = moments.mc_covariances(patterns, rho, O, d, 20_000, rng)
        for pattern, (mc, stderr) in zip(patterns, mcs):
            exact = moments.exact_covariance(pattern, rho, O, d)
            bound = moments.covariance_bound(pattern, rho, O, d)
            check(f"cov_bound {pattern} d={d}", min(exact, bound), exact, 1e-9)
            check(f"cov_mc {pattern} d={d}", exact, mc, max(6 * stderr, 1e-4))

    failures = 0
    for name, dev, tol in reports:
        ok = dev <= tol
        failures += not ok
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name:40s} max|dev| = {dev:.3e}  (tol {tol:.0e})")
    if not quiet:
        print(f"{len(reports) - failures}/{len(reports)} checks passed")
    return 1 if failures else 0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SHADOWLAB_SEED")
    return int(env) if env else DEFAULT_SEED


def _load_config(path: str) -> dict:
    """Flat key=value config file; blank lines and # comments ignored."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


# Config-file keys of jm and im, each also a flag except estimator (im only).
# No "mode": the subcommand alone picks the sweep.
_SWEEP_KEYS = {
    "d": int, "B": float, "eps": float, "delta": float,
    "trials": int, "seed": int, "out": str, "estimator": str,
}


def _build_config(args, mode: str) -> ExperimentConfig:
    """Flags beat the config file; a seed set by neither comes from _resolve_seed."""
    values = {"mode": mode}
    if args.config:
        for key, raw in _load_config(args.config).items():
            if key not in _SWEEP_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _SWEEP_KEYS[key](raw)
    for key in _SWEEP_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if "seed" not in values:
        values["seed"] = _resolve_seed(args)
    return ExperimentConfig(**values)


def _report_sweep(rows, delta):
    n = len(rows)
    succ = sum(r.success for r in rows)
    lo, hi = wilson_interval(succ, n)
    print(f"trials={n} successes={succ} rate={succ / max(n, 1):.4f} "
          f"wilson95=[{lo:.4f}, {hi:.4f}] target>={1 - delta:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shadowlab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name in ("jm", "im"):
        p = sub.add_parser(name)
        for key, typ in _SWEEP_KEYS.items():
            if key != "estimator":
                p.add_argument(f"--{key}", type=typ)
        p.add_argument("--config", type=str)
        if name == "im":
            p.add_argument("--estimator", choices=["auto", "linear", "quadratic"])

    p = sub.add_parser("bhm")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--runs", type=int, default=400)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)

    p = sub.add_parser("verify-moments")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("cov-check")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--trials", type=int, default=50_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)

    p = sub.add_parser("compare")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--B", type=float, default=16.0)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)

    args = parser.parse_args(argv)

    try:
        if args.cmd in ("jm", "im"):
            config = _build_config(args, args.cmd)
            rows = run_sweep(config)
            if config.out:
                write_rows(config.out, rows)
            _report_sweep(rows, config.delta)
            return 0

        if args.cmd == "bhm":
            if args.runs < 0:
                raise ValueError(f"--runs must be >= 0, got {args.runs}")
            # a run holds k dense n x n shadows: refuse before drawing an instance
            k = bhm_mod.protocol_plan(args.n, args.alpha, args.delta).k
            require_outcome_budget(
                k * args.n**2 * 16, f"bhm ({k} shadows of n = {args.n}) would", "use a smaller n"
            )
            seed = _resolve_seed(args)
            rows = []
            correct = 0
            for run_id in range(args.runs):
                rng = RngStream(seed, run_id + 1)
                b = int(rng.gen.integers(0, 2))
                inst = bhm_mod.gen_instance(args.n, args.alpha, b, rng)
                guess, used = bhm_mod.run_protocol(inst, args.delta, rng)
                correct += guess == b
                rows.append((run_id, b, guess, used))
            if args.out:
                write_rows(args.out, rows, header=("run_id", "b", "guess", "samples_used"))
            lo, hi = wilson_interval(correct, args.runs)
            print(f"runs={args.runs} correct={correct} rate={correct / max(args.runs, 1):.4f} "
                  f"wilson95=[{lo:.4f}, {hi:.4f}] target>={1 - args.delta:.3f}")
            return 0

        if args.cmd == "verify-moments":
            return verify_all(rng_seed=_resolve_seed(args))

        if args.cmd == "cov-check":
            seed = _resolve_seed(args)
            # the Monte Carlo guard draws nothing: refuse before any O(d^3) work
            moments.mc_shadows_per_trial(moments.COV_PATTERNS, args.d, args.trials)
            rng = RngStream(seed, 5)
            rho, O = _covariance_instance(args.d, rng)
            mcs = moments.mc_covariances(moments.COV_PATTERNS, rho, O, args.d, args.trials, rng)
            rows = []  # every pattern first, so an error prints no partial verdicts
            for pattern, (mc, stderr) in zip(moments.COV_PATTERNS, mcs):
                exact = moments.exact_covariance(pattern, rho, O, args.d)
                ok = abs(exact - mc) <= max(6 * stderr, 1e-6)
                rows.append((pattern, exact, mc, stderr, ok))
            if args.out:
                write_rows(args.out, rows, header=("pattern", "exact", "mc", "stderr", "ok"))
            for pattern, exact, mc, stderr, ok in rows:
                print(f"{'PASS' if ok else 'FAIL'}  {pattern:9s} exact={exact:+.6f} "
                      f"mc={mc:+.6f} stderr={stderr:.6f}")
            return 0 if all(ok for *_, ok in rows) else 1

        if args.cmd == "compare":
            seed = _resolve_seed(args)
            rows = compare_estimators(args.d, args.B, args.trials, seed)
            header = ("s", "var_linear", "var_quadratic", "ratio", "pred_linear", "pred_quadratic")
            if args.out:
                write_rows(args.out, rows, header=header)
            print(("{:>6s}" + "{:>16s}" * 5).format(*header))
            for row in rows:
                print(f"{row[0]:6d}" + "".join(f"{v:16.6g}" for v in row[1:]))
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser.error(f"unknown command {args.cmd}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
