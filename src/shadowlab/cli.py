"""Command-line driver: sweeps, verification suites, and CSV reporting.

Subcommands:
  jm             joint-measurement sweep over random (state, observable) pairs
  im             independent-measurement sweep (linear or quadratic estimator)
  bhm            end-to-end Boolean-Hidden-Matching protocol runs
  verify-moments closed-form vs. brute-force moment checks
  cov-check      exact vs. Monte Carlo covariance patterns
  compare        linear vs. quadratic estimator variance across batch sizes

Exit codes: 0 success, 1 check failure, 2 usage error.  The seed comes from
--seed, falling back to the SHADOWLAB_SEED environment variable.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bhm as bhm_mod
from . import moments
from .ensembles import RngStream, sample_haar_state
from .estimators import BatchPlan, batch_estimates, choose_estimator, plan_batches
from .linalg import Permutation, kappa, perm_operator, sym_projector
from .measurement import measure_joint_batch, measure_independent_batch
from .moments import MomentReport
from .observables import random_observable, random_signature_observable

RESULT_FIELDS = (
    "mode", "d", "B", "eps", "delta", "s", "k",
    "trial_id", "estimate", "truth", "abs_error", "success",
)

DEFAULT_SEED = 0


@dataclass
class ExperimentConfig:
    mode: str
    d: int = 8
    B: float = 4.0
    eps: float = 0.2
    delta: float = 0.05
    trials: int = 500
    seed: int = DEFAULT_SEED
    out: str | None = None
    estimator: str = "auto"  # im only: auto | linear | quadratic

    def __post_init__(self):
        if self.d < 2 or not 1 <= self.B <= self.d:
            raise ValueError("require d >= 2 and 1 <= B <= d")
        if not 0 < self.eps <= 1 or not 0 < self.delta < 1 or self.trials < 0:
            raise ValueError("eps in (0,1], delta in (0,1), trials >= 0")


@dataclass
class ResultRow:
    mode: str
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
        for row in rows:
            if hasattr(row, "__dataclass_fields__"):
                row = [getattr(row, name) for name in header]
            w.writerow([_fmt(v) for v in row])


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def plan_linear_batches(B: float, eps: float, delta: float):
    """Batch plan for the per-copy linear estimator: (B + 8)/s <= p eps^2."""
    plan = plan_batches(B, eps, delta)
    s = max(1, math.ceil((B + 8) / (plan.p * eps * eps)))
    return BatchPlan(s=s, k=plan.k, p=plan.p)


def plan_quadratic_batches(B: float, d: int, eps: float, delta: float):
    """Batch plan for the quadratic estimator: 16(Bd/s^2 + 1/s) <= p eps^2."""
    plan = plan_batches(B, eps, delta)
    target = plan.p * eps * eps
    s = max(2, math.ceil((16 + math.sqrt(256 + 64 * B * d * target)) / (2 * target)))
    while s > 2 and 16 * (B * d / (s - 1) ** 2 + 1 / (s - 1)) <= target:
        s -= 1
    return BatchPlan(s=s, k=plan.k, p=plan.p)


def _im_batch_estimates(phi, O, s, k, rng, kind):
    """Per-batch estimates from k batches of s fresh single-copy outcomes."""
    psis = measure_independent_batch(phi, rng, k * s).reshape(k, s, phi.shape[0])
    return batch_estimates(O, psis, kind)


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured pipeline over fresh random (state, observable) pairs."""
    mode = config.mode
    d, B, eps, delta = config.d, config.B, config.eps, config.delta
    if mode == "jm":
        plan = plan_batches(B, eps, delta)
    elif mode in ("im", "im-linear", "im-quadratic"):
        kind = {"im-linear": "linear", "im-quadratic": "quadratic"}.get(mode)
        if kind is None:
            kind = config.estimator
        if kind == "auto":
            kind = choose_estimator(B, d, eps)
        plan = (
            plan_linear_batches(B, eps, delta)
            if kind == "linear"
            else plan_quadratic_batches(B, d, eps, delta)
        )
        mode = f"im-{kind}"
    else:
        raise ValueError(f"run_sweep does not handle mode {mode!r}")

    rows = []
    for t in range(config.trials):
        rng = RngStream(config.seed, t + 1)
        phi = sample_haar_state(d, rng)
        O = random_observable(d, B, rng).matrix
        truth = float(np.vdot(phi, O @ phi).real)
        if mode == "jm":
            outcomes = measure_joint_batch(phi, plan.s, rng, plan.k)
            vals = batch_estimates(O, outcomes, "affine_joint", copies=plan.s)
        else:
            vals = _im_batch_estimates(phi, O, plan.s, plan.k, rng, mode[3:])
        est = float(np.sort(vals)[plan.k // 2])
        err = abs(est - truth)
        rows.append(
            ResultRow(mode, d, B, eps, delta, plan.s, plan.k, t, est, truth, err, err < eps)
        )
    return rows


def compare_estimators(d: int, B: float, eps: float, N: int, seed: int,
                       s_grid=(8, 16, 32, 64)):
    """Empirical variance of the linear vs. quadratic estimate at equal s.

    Returns rows (s, var_linear, var_quadratic, ratio, pred_linear,
    pred_quadratic) for a fixed random state/observable pair.  The
    observable is a balanced +1/-1 signature with Tr(O^2) = floor(B), so
    the linear estimator's variance actually scales like B/s (a rank-B
    projector with B near d is close to the identity and would make the
    comparison vacuous).
    """
    rng = RngStream(seed, 0)
    phi = sample_haar_state(d, rng)
    O = random_signature_observable(d, B, rng).matrix
    rows = []
    for i, s in enumerate(s_grid):
        trial_rng = RngStream(seed, i + 1)
        lin = _im_batch_estimates(phi, O, s, N, trial_rng, "linear")
        trial_rng2 = RngStream(seed, 100 + i)
        quad = _im_batch_estimates(phi, O, s, N, trial_rng2, "quadratic")
        var_l = float(lin.var(ddof=1))
        var_q = float(quad.var(ddof=1))
        rows.append((s, var_l, var_q, var_q / var_l, B / s, B * d / s**2 + 1 / s))
    return rows


def _moment_grid():
    for d in (2, 3):
        for s in (1, 2, 3):
            yield s, d
    for s in (1, 2, 3, 4):
        yield s, 2


def verify_all(perturbation: float = 0.0, rng_seed: int = 0, quiet: bool = False) -> int:
    """Run every oracle-equivalence and bound check; 0 iff all pass.

    perturbation is a fault-injection hook: it offsets the closed-form
    moment values so tests can confirm the gate actually fails.
    """
    reports: list[tuple[MomentReport, float]] = []

    def check(name, formula, brute, tol):
        rep = MomentReport.compare(name, formula, brute, )
        reports.append((rep, tol))

    rng = RngStream(rng_seed, 777)
    for s, d in _moment_grid():
        phi = sample_haar_state(d, rng)
        rho = np.outer(phi, phi.conj())
        check(
            f"first_moment s={s} d={d}",
            moments.exact_first_moment(rho, s, d) + perturbation,
            moments.brute_first_moment(rho, s, d),
            1e-10,
        )
        check(
            f"second_moment s={s} d={d}",
            moments.exact_second_moment(rho, s, d) + perturbation,
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
            moments.exact_second_moment(rho, 1, d) + perturbation,
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
        phi = sample_haar_state(d, rng)
        rho = np.outer(phi, phi.conj())
        O = random_observable(d, d, rng).matrix
        for pattern in ("ij_jk", "ij_kj", "ij_ji", "ij_ij"):
            exact = moments.exact_covariance(pattern, rho, O, d)
            bound = moments.covariance_bound(pattern, rho, O, d)
            check(f"cov_bound {pattern} d={d}", min(exact, bound), exact, 1e-9)
            mc, stderr = moments.mc_covariance(pattern, rho, O, d, 20_000, rng)
            check(f"cov_mc {pattern} d={d}", exact, mc, max(6 * stderr, 1e-4))

    failures = 0
    for rep, tol in reports:
        ok = rep.max_abs_deviation <= tol
        failures += not ok
        if not quiet:
            print(
                f"{'PASS' if ok else 'FAIL'}  {rep.name:40s}"
                f" max|dev| = {rep.max_abs_deviation:.3e}  (tol {tol:.0e})"
            )
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


_CONFIG_TYPES = {
    "mode": str, "d": int, "B": float, "eps": float, "delta": float,
    "trials": int, "seed": int, "out": str, "estimator": str,
}


def _build_config(args, mode: str) -> ExperimentConfig:
    values = {"mode": mode}
    if getattr(args, "config", None):
        for key, raw in _load_config(args.config).items():
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _CONFIG_TYPES[key](raw)
    for name in ("d", "B", "eps", "delta", "trials", "out", "estimator"):
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    values["seed"] = _resolve_seed(args)
    return ExperimentConfig(**values)


def _add_sweep_flags(p):
    p.add_argument("--d", type=int)
    p.add_argument("--B", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)


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
        _add_sweep_flags(p)
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
    p.add_argument("--eps", type=float, default=0.2)
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
            rng = RngStream(seed, 5)
            phi = sample_haar_state(args.d, rng)
            rho = np.outer(phi, phi.conj())
            O = random_observable(args.d, args.d, rng).matrix
            rows = []  # every pattern first, so an error prints no partial verdicts
            for pattern in moments.COV_PATTERNS:
                exact = moments.exact_covariance(pattern, rho, O, args.d)
                mc, stderr = moments.mc_covariance(pattern, rho, O, args.d, args.trials, rng)
                ok = abs(exact - mc) <= max(6 * stderr, 1e-6)
                rows.append((pattern, exact, mc, stderr, ok))
            for pattern, exact, mc, stderr, ok in rows:
                print(f"{'PASS' if ok else 'FAIL'}  {pattern:9s} exact={exact:+.6f} "
                      f"mc={mc:+.6f} stderr={stderr:.6f}")
            if args.out:
                write_rows(args.out, rows, header=("pattern", "exact", "mc", "stderr", "ok"))
            return 0 if all(ok for *_, ok in rows) else 1

        if args.cmd == "compare":
            seed = _resolve_seed(args)
            rows = compare_estimators(args.d, args.B, args.eps, args.trials, seed)
            header = ("s", "var_linear", "var_quadratic", "ratio", "pred_linear", "pred_quadratic")
            print(("{:>6s}" + "{:>16s}" * 5).format(*header))
            for row in rows:
                print(f"{row[0]:6d}" + "".join(f"{v:16.6g}" for v in row[1:]))
            if args.out:
                write_rows(args.out, rows, header=header)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser.error(f"unknown command {args.cmd}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
