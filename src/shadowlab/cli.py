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
SHADOWLAB_SEED environment variable, then 0; one that is not a
non-negative integer is a usage error that names where it came from.
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
    RngStream,
    aligned_frame,
    require_outcome_budget,
    sample_haar_state,
    stream_aligned_posterior_states,
)
from .estimators import (
    BatchReduction, choose_estimator, plan_batches, plan_linear_batches, plan_quadratic_batches,
)
from .linalg import Permutation, kappa, perm_operator, sym_projector
from .observables import (
    Observable, frame_rank, random_observable, random_projector_observable,
    random_signature_observable,
)

DEFAULT_SEED = 0

# Batch sizes s at which compare measures both estimators.
_COMPARE_S_GRID = (8, 16, 32, 64)

# verify-moments' (s, d) pairs for the closed-form vs. brute-force moments.
_MOMENT_GRID = ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3))


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
            raise ValueError("jm uses the linear estimator at copies = s; estimator must be auto")
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


def _batch_estimates(phi, O, n, k, rng, kind, copies=1):
    """Per-batch estimates from k batches of n fresh outcomes, each on
    `copies` copies: jm is (n, copies) = (1, s), im (s, 1).

    The outcomes are phi-aligned records, streamed in groups of one batch,
    and read with O's factor reflected into their basis once.  Each chunk of
    the stream, whole batches or one batch in parts, is reduced on the
    participant that drew it, from that participant's one-part buffer
    (estimators.BatchReduction), so the estimates do not depend on the
    participant count or on timing, and a trial holds one part per
    participant whatever s is.  The linear estimate reads each outcome only
    through <psi|O.vecs>, so its records are reduced to span{phi, O.vecs}
    plus the rest; quadratic needs every coordinate.
    """
    # quadratic reads the overlaps between outcomes; jm (copies > 1) keeps
    # the generator calls of sample_posterior_states, which a reduced
    # record's extra Gamma draw would change, and with them its estimates
    full = kind == "quadratic" or copies > 1
    frame = aligned_frame(phi, O.vecs, full=full)
    reduction = BatchReduction(O, kind, n, k, copies, frame)
    stream_aligned_posterior_states(
        copies, rng, O.vecs.shape[0], frame.shape[0], k, n, reduction.add)
    return reduction.estimates


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Run the configured pipeline over fresh random (state, observable) pairs.

    O's frame, no smaller than the state, is size-checked before any draw;
    it is the sweep's memory check, since a trial's stream holds one part
    per participant and the per-batch statistics, whatever s is.
    """
    d, B, eps, delta = config.d, config.B, config.eps, config.delta
    if config.mode == "jm":  # the linear estimator on one outcome of s copies
        kind, label, plan = "linear", "jm", plan_batches(B, eps, delta)
        n, copies = 1, plan.s
    else:
        kind = choose_estimator(B, d, eps) if config.estimator == "auto" else config.estimator
        label = f"im-{kind}"
        plan = (plan_linear_batches(B, eps, delta) if kind == "linear"
                else plan_quadratic_batches(B, d, eps, delta))
        n, copies = plan.s, 1
    frame_rank(d, B)
    rows = []
    for t in range(config.trials):
        rng = RngStream(config.seed, t + 1)
        phi = sample_haar_state(d, rng)
        O = random_observable(d, B, rng)
        truth = float(np.abs(phi @ O.vecs.conj()) ** 2 @ O.evals)
        vals = _batch_estimates(phi, O, n, plan.k, rng, kind, copies)
        est = float(np.sort(vals)[plan.k // 2])
        err = abs(est - truth)
        rows.append(
            ResultRow(label, d, B, eps, delta, plan.s, plan.k, t, est, truth, err, err < eps)
        )
    return rows


def compare_estimators(d: int, B: float, N: int, seed: int):
    """Empirical variance of the linear vs. quadratic estimate at each s of _COMPARE_S_GRID.

    Returns rows (s, var_linear, var_quadratic, ratio, pred_linear,
    pred_quadratic) for a fixed random state/observable pair.  The
    observable is a balanced +1/-1 signature with Tr(O^2) = floor(B), so
    the linear estimator's variance actually scales like Tr(O^2)/s (a
    rank-B projector with B near d is close to the identity and would make
    the comparison vacuous).  The predictions, Tr(O^2)/s and
    Tr(O^2) d/s^2 + 1/s, read Tr(O^2) off the drawn observable.  A variance
    needs N >= 2 batches, and the predictions hold only for 1 <= B <= d.
    The 2 N estimates and O's frame are size-checked before any draw.
    """
    if N < 2 or not 1 <= B <= d:
        raise ValueError("compare needs trials >= 2 and 1 <= B <= d")
    require_outcome_budget(16 * N, f"compare's 2 x {N} estimates would", "use fewer trials")
    frame_rank(d, B)
    rng = RngStream(seed, 0)
    phi = sample_haar_state(d, rng)
    O = random_signature_observable(d, B, rng)
    t2 = float(np.sum(O.evals**2))
    rows = []
    n = len(_COMPARE_S_GRID)  # stream ids: 0 above, 1..n linear, n+1..2n quadratic
    for i, s in enumerate(_COMPARE_S_GRID):
        lin = _batch_estimates(phi, O, s, N, RngStream(seed, i + 1), "linear")
        quad = _batch_estimates(phi, O, s, N, RngStream(seed, n + 1 + i), "quadratic")
        var_l = float(lin.var(ddof=1))
        var_q = float(quad.var(ddof=1))
        rows.append((s, var_l, var_q, var_q / var_l, t2 / s, t2 * d / s**2 + 1 / s))
    return rows


def _covariance_instance(d: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The covariance gates' (rho, O): O with eigenvalues 1 and -1/2 on a Haar
    2-frame (v1, v2), and phi = (v2 + h)/sqrt(2) for a Haar unit vector h
    orthogonal to v2.  With both signs and one |lambda| < 1, O^2 is neither O
    nor a projector at any d >= 2, and Tr(O^2 rho) - Tr(O rho) = 3/8 at every
    draw, so a formula that misreads Tr O^2 or Tr(O^2 rho) as d, 1 or
    Tr(O rho) fails the gate."""
    frame = random_projector_observable(d, 2, rng).vecs
    v2, h = frame[:, 1], sample_haar_state(d, rng)
    h -= v2 * np.vdot(v2, h)
    phi = (v2 + h / np.linalg.norm(h)) / math.sqrt(2)
    return np.outer(phi, phi.conj()), Observable(frame, np.array([1.0, -0.5])).matrix


COV_MC_FLOOR = 1e-6  # the Monte Carlo covariance gates pass |exact - mc| <= max(6 sigma, this)


def _cov_mc_tolerance(stderr: float) -> float:
    return max(6 * stderr, COV_MC_FLOOR)


def _covariance_rows(patterns, d: int, trials: int, rng: RngStream):
    """(rho, O, rows) of one covariance gate instance, with one row
    (pattern, exact, mc, stderr, ok) per pattern.  The Monte Carlo request is
    checked before the instance is drawn, so an oversized one does no O(d^3)
    work; every row is built before any is reported."""
    moments.mc_shadows_per_trial(patterns, d, trials)
    rho, O = _covariance_instance(d, rng)
    mcs = moments.mc_covariances(patterns, rho, O, d, trials, rng)
    rows = []
    for pattern, (mc, stderr) in zip(patterns, mcs):
        exact = moments.exact_covariance(pattern, rho, O, d)
        rows.append((pattern, exact, mc, stderr, abs(exact - mc) <= _cov_mc_tolerance(stderr)))
    return rho, O, rows


def verify_all(rng_seed: int = 0, quiet: bool = False) -> int:
    """Run every oracle-equivalence and bound check; 0 iff all pass."""
    reports: list[tuple[str, float, float]] = []  # (name, max|formula - brute|, tol)

    def check(name, formula, brute, tol):
        dev = float(np.abs(np.asarray(formula) - np.asarray(brute)).max())
        reports.append((name, dev, tol))

    rng = RngStream(rng_seed, 777)
    for s, d in _MOMENT_GRID:
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
    patterns = ("ij_jk", "ij_kj", "ij_ji", "ij_ij")
    for d in (2, 3):
        rho, O, rows = _covariance_rows(patterns, d, 20_000, rng)
        for pattern, exact, mc, stderr, _ in rows:
            bound = moments.covariance_bound(pattern, rho, O, d)
            check(f"cov_bound {pattern} d={d}", min(exact, bound), exact, 1e-9)
            check(f"cov_mc {pattern} d={d}", exact, mc, _cov_mc_tolerance(stderr))

    failures = 0
    for name, dev, tol in reports:
        ok = dev <= tol
        failures += not ok
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name:40s} max|dev| = {dev:.3e}  (tol {tol:.0e})")
    if not quiet:
        print(f"{len(reports) - failures}/{len(reports)} checks passed")
    return 1 if failures else 0


def _resolve_seed(args, config_seed: str | None = None) -> int:
    """The first seed set of --seed, the config file's and SHADOWLAB_SEED, else
    DEFAULT_SEED; one that is not a non-negative integer is a ValueError naming it."""
    for source, raw in (("--seed", args.seed), ("the config file's seed", config_seed),
                        ("SHADOWLAB_SEED", os.environ.get("SHADOWLAB_SEED", "").strip() or None)):
        if raw is not None:
            if not str(raw).isdecimal():
                raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
            return int(raw)
    return DEFAULT_SEED


def _load_config(path: str) -> dict:
    """Flat key=value config file; blank lines and # comments ignored, others
    need an =, and no key may be set twice."""
    out, lines = {}, {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"config line {number} has no '=': {line!r}")
            key = key.strip()
            if key in lines:
                raise ValueError(f"config key {key!r} is set on lines {lines[key]} and {number}")
            lines[key], out[key] = number, val.strip()
    return out


# Config-file keys of jm and im, each also a flag except estimator (im only).
# No "mode": the subcommand alone picks the sweep.
_SWEEP_KEYS = {
    "d": int, "B": float, "eps": float, "delta": float,
    "trials": int, "seed": int, "out": str, "estimator": str,
}


def _build_config(args, mode: str) -> ExperimentConfig:
    """Flags beat the config file; the seed comes from _resolve_seed."""
    values = {"mode": mode}
    config = _load_config(args.config) if args.config else {}
    config_seed = config.pop("seed", None)
    for key, raw in config.items():
        if key not in _SWEEP_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        typ = _SWEEP_KEYS[key]
        try:
            values[key] = typ(raw)
        except ValueError:
            raise ValueError(f"config key {key!r} must be {typ.__name__}, got {raw!r}") from None
    for key in _SWEEP_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    values["seed"] = _resolve_seed(args, config_seed)
    return ExperimentConfig(**values)


def _rate_line(runs: str, hits: str, n: int, k: int, delta: float) -> str:
    lo, hi = wilson_interval(k, n)
    return (f"{runs}={n} {hits}={k} rate={k / max(n, 1):.4f} "
            f"wilson95=[{lo:.4f}, {hi:.4f}] target>={1 - delta:.3f}")


def _bhm_runs(n: int, alpha: float, delta: float, runs: int, seed: int) -> list[tuple]:
    """(run_id, b, guess, samples_used) per protocol run, each on a fresh instance."""
    if runs < 0:
        raise ValueError(f"--runs must be >= 0, got {runs}")
    bhm_mod.protocol_plan(n, alpha, delta)  # its checks run before the first draw
    rows = []
    for run_id in range(runs):
        rng = RngStream(seed, run_id + 1)
        b = int(rng.gen.integers(0, 2))
        guess, used = bhm_mod.run_protocol(bhm_mod.gen_instance(n, alpha, b, rng), delta, rng)
        rows.append((run_id, b, guess, used))
    return rows


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

    for name, flags in (
        ("bhm", (("n", int, 16), ("alpha", float, 0.25), ("delta", float, 0.05),
                 ("runs", int, 400))),
        ("verify-moments", ()),
        ("cov-check", (("d", int, 3), ("trials", int, 50_000))),
        ("compare", (("d", int, 16), ("B", float, 16.0), ("trials", int, 2000))),
    ):
        p = sub.add_parser(name)
        for key, typ, default in flags:
            p.add_argument(f"--{key}", type=typ, default=default)
        p.add_argument("--seed", type=int)
        if name != "verify-moments":
            p.add_argument("--out", type=str)

    args = parser.parse_args(argv)

    try:
        code, out = 0, getattr(args, "out", None)
        if args.cmd == "verify-moments":
            return verify_all(rng_seed=_resolve_seed(args))
        if args.cmd in ("jm", "im"):
            config = _build_config(args, args.cmd)
            rows, header, out = run_sweep(config), RESULT_FIELDS, config.out
            succ = sum(r.success for r in rows)
            lines = [_rate_line("trials", "successes", len(rows), succ, config.delta)]
        elif args.cmd == "bhm":
            rows = _bhm_runs(args.n, args.alpha, args.delta, args.runs, _resolve_seed(args))
            header = ("run_id", "b", "guess", "samples_used")
            correct = sum(b == guess for _, b, guess, _ in rows)
            lines = [_rate_line("runs", "correct", len(rows), correct, args.delta)]
        elif args.cmd == "cov-check":
            if args.d < 2:
                raise ValueError(f"cov-check needs d >= 2, got --d {args.d}")
            if args.trials < moments.MC_MIN_TRIALS:
                raise ValueError(f"cov-check needs --trials >= {moments.MC_MIN_TRIALS} for a "
                                 f"stable covariance estimate, got --trials {args.trials}")
            rng = RngStream(_resolve_seed(args), 5)
            *_, rows = _covariance_rows(moments.COV_PATTERNS, args.d, args.trials, rng)
            header = ("pattern", "exact", "mc", "stderr", "ok")
            lines = [f"{'PASS' if ok else 'FAIL'}  {pattern:9s} exact={exact:+.6f} "
                     f"mc={mc:+.6f} stderr={stderr:.6f}"
                     for pattern, exact, mc, stderr, ok in rows]
            code = 0 if all(ok for *_, ok in rows) else 1
        else:  # compare
            rows = compare_estimators(args.d, args.B, args.trials, _resolve_seed(args))
            header = ("s", "var_linear", "var_quadratic", "ratio", "pred_linear", "pred_quadratic")
            lines = [("{:>6s}" + "{:>16s}" * 5).format(*header)]
            lines += [f"{row[0]:6d}" + "".join(f"{v:16.6g}" for v in row[1:]) for row in rows]
        if out:
            write_rows(out, rows, header)
        print("\n".join(lines))
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
