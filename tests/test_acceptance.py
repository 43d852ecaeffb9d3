"""Acceptance gate: the eleven release criteria, one printed line each.

Each test computes its criterion verdict, prints a single PASS/FAIL line
(visible with -s or in captured output), then asserts.  Tolerances are fixed
here and must not be loosened to make a failing criterion pass.
"""

import csv
import math

import numpy as np
import pytest

from shadowlab.bhm import gen_instance, expected_value
from shadowlab.cli import ExperimentConfig, main, run_sweep
from shadowlab.ensembles import RngStream, sample_haar_state, sample_posterior_states
from shadowlab.estimators import plan_batches
from shadowlab.linalg import Permutation, density, perm_operator, trace_distance
from shadowlab.moments import (
    brute_first_moment,
    brute_second_moment,
    covariance_bound,
    exact_covariance,
    exact_first_moment,
    exact_joint_variance,
    exact_second_moment,
    mc_covariance,
    shadow_pair_traces,
)
from shadowlab.observables import (
    distinguishing_observable,
    helstrom_success,
    random_projector_observable,
    random_signature_observable,
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def rho_of(d, stream):
    return density(sample_haar_state(d, stream))


def chunked_moments(gen_chunk, n, chunk=20_000):
    """Entrywise mean and standard deviation over n streamed samples."""
    total = None
    totsq = None
    done = 0
    while done < n:
        take = min(chunk, n - done)
        x = gen_chunk(take)
        if total is None:
            total = x.sum(axis=0)
            totsq = (x.real**2 + 1j * x.imag**2).sum(axis=0)
        else:
            total += x.sum(axis=0)
            totsq += (x.real**2 + 1j * x.imag**2).sum(axis=0)
        done += take
    mean = total / n
    var_re = totsq.real / n - mean.real**2
    var_im = totsq.imag / n - mean.imag**2
    std = np.sqrt(np.clip(var_re, 0, None)) + 1j * np.sqrt(np.clip(var_im, 0, None))
    return mean, std


def test_criterion_01_moment_formula_exactness():
    grid = [(s, d) for d in (2, 3) for s in (1, 2, 3)] + [(4, 2)]
    worst = 0.0
    rng = RngStream(811)
    for s, d in grid:
        rho = rho_of(d, rng)
        dev1 = np.abs(exact_first_moment(rho, s, d) - brute_first_moment(rho, s, d)).max()
        dev2 = np.abs(exact_second_moment(rho, s, d) - brute_second_moment(rho, s, d)).max()
        worst = max(worst, dev1, dev2)
    report(1, worst <= 1e-10, f"max formula/brute deviation {worst:.2e} (tol 1e-10)")


def test_criterion_02_s1_special_case():
    worst = 0.0
    rng = RngStream(812)
    for d in (2, 3, 4):
        rho = rho_of(d, rng)
        I = np.eye(d)
        swap = perm_operator(Permutation.transposition(2, 0, 1), d)
        closed = (
            (np.kron(I, I) + np.kron(rho, I) + np.kron(I, rho))
            @ (np.eye(d * d) + swap)
            / ((d + 1) * (d + 2))
        )
        worst = max(worst, np.abs(exact_second_moment(rho, 1, d) - closed).max())
    report(2, worst <= 1e-12, f"s=1 closed-form deviation {worst:.2e} (tol 1e-12)")


def test_criterion_03_unbiasedness():
    n = 100_000
    ok = True
    worst_z = 0.0
    for d in (2, 4, 8):
        stream = RngStream(813, d)
        phi = sample_haar_state(d, stream)
        rho = density(phi)
        I = np.eye(d)

        def joint_chunk(take, s=3):
            psis = sample_posterior_states(phi, s, stream, take)
            proj = np.einsum("ni,nj->nij", psis, psis.conj())
            return ((d + s) * proj - I) / s

        def linear_chunk(take):
            psis = sample_posterior_states(phi, 1, stream, take)
            proj = np.einsum("ni,nj->nij", psis, psis.conj())
            return (d + 1) * proj - I

        def quadratic_chunk(take, s=2):
            psis = sample_posterior_states(phi, 1, stream, take * s).reshape(take, s, d)
            P = np.einsum("tsi,tsj->tij", psis, psis.conj())
            S = (d + 1) * P - s * I
            Q = ((d + 1) ** 2 - 2 * (d + 1)) * P + s * I
            return (np.einsum("tij,tjk->tik", S, S) - Q) / (s * (s - 1))

        for maker in (joint_chunk, linear_chunk, quadratic_chunk):
            mean, std = chunked_moments(maker, n)
            stderr = (std.real + 1j * std.imag) / math.sqrt(n)
            z_re = np.abs(mean.real - rho.real) / np.maximum(stderr.real, 1e-15)
            z_im = np.abs(mean.imag - rho.imag) / np.maximum(stderr.imag, 1e-15)
            # entries with (near-)zero sampling noise are exact; skip them
            z_re[std.real < 1e-12] = 0
            z_im[std.imag < 1e-12] = 0
            z = max(z_re.max(), z_im.max())
            worst_z = max(worst_z, z)
            ok = ok and z <= 5
    report(3, ok, f"max entrywise |mean - rho| z-score {worst_z:.2f} (limit 5)")


def test_criterion_04_joint_variance_bound():
    n_pairs, n_samples = 50, 500
    violations = 0
    worst_margin = -np.inf
    for d in (4, 8, 16):
        for s in (4, 16, 64):
            for B in (1, d // 2, d):
                stream = RngStream(814, d * 1000 + s * 10 + B)
                for _ in range(n_pairs):
                    phi = sample_haar_state(d, stream)
                    O = random_projector_observable(d, max(1, B), stream).matrix
                    psis = sample_posterior_states(phi, s, stream, n_samples)
                    vals = (
                        (d + s) / s * np.einsum("ni,ij,nj->n", psis.conj(), O, psis).real
                        - np.trace(O).real / s
                    )
                    var = vals.var(ddof=1)
                    tr_o2 = np.trace(O @ O).real
                    norm_o2 = np.abs(np.linalg.eigvalsh(O)).max() ** 2
                    bound = (tr_o2 + 8 * s * norm_o2) / s**2 * (1 + 5 / math.sqrt(n_samples))
                    margin = var / bound
                    worst_margin = max(worst_margin, margin)
                    violations += var > bound
    report(
        4,
        violations == 0,
        f"{violations} bound violations over 1350 (rho, O) pairs; "
        f"worst empirical/bound ratio {worst_margin:.3f}",
    )


def test_criterion_05_quadratic_variance_bound():
    # empirical variance of the quadratic estimate against 16 (Bd/s^2 + 1/s)
    n_pairs, n_trials = 20, 300
    emp_bad = 0
    worst = -np.inf
    for d in (4, 8, 16):
        for s in (4, 16, 64):
            for B in (1, d // 2, d):
                stream = RngStream(815, d * 1000 + s * 10 + B)
                I = np.eye(d)
                for _ in range(n_pairs):
                    phi = sample_haar_state(d, stream)
                    O = random_projector_observable(d, max(1, B), stream).matrix
                    psis = sample_posterior_states(phi, 1, stream, n_trials * s)
                    psis = psis.reshape(n_trials, s, d)
                    P = np.einsum("tsi,tsj->tij", psis, psis.conj())
                    S = (d + 1) * P - s * I
                    Q = ((d + 1) ** 2 - 2 * (d + 1)) * P + s * I
                    num = np.einsum("tij,tjk->tik", S, S) - Q
                    vals = np.real(np.einsum("ij,tji->t", O, num)) / (s * (s - 1))
                    var = vals.var(ddof=1)
                    bound = 16 * (B * d / s**2 + 1 / s)
                    worst = max(worst, var / bound)
                    emp_bad += var > bound
    # exact covariance assemblies against their closed-form bounds
    exact_bad = 0
    for idx, pattern in enumerate(("ij_jk", "ij_kj", "ij_ji", "ij_ij")):
        stream = RngStream(816, idx)
        for _ in range(100):
            d = int(stream.gen.choice([2, 4, 8]))
            rho = rho_of(d, stream)
            O = random_projector_observable(d, int(stream.gen.integers(1, d + 1)), stream).matrix
            exact = exact_covariance(pattern, rho, O, d)
            exact_bad += exact > covariance_bound(pattern, rho, O, d) + 1e-9
    report(
        5,
        emp_bad == 0 and exact_bad == 0,
        f"{emp_bad} empirical and {exact_bad} exact bound violations; "
        f"worst empirical/bound ratio {worst:.3f}",
    )


def test_criterion_06_distinct_pattern_independence():
    n = 100_000
    stream = RngStream(817)
    worst_z = 0.0
    for d in (2, 3, 4):
        phi = sample_haar_state(d, stream)
        rho = density(phi)
        O = random_projector_observable(d, max(1, d // 2), stream).matrix
        cov, stderr = mc_covariance("distinct", rho, O, d, n, stream)
        worst_z = max(worst_z, abs(cov) / stderr)
    report(6, worst_z <= 5, f"max |cov|/stderr {worst_z:.2f} for distinct indices (limit 5)")


def test_criterion_07_bhm_identity():
    stream = RngStream(818)
    worst = 0.0
    for i in range(10_000):
        n = int(stream.gen.choice([4, 8, 16, 32, 64]))
        m_max = n // 2
        m = int(stream.gen.integers(1, min(m_max, n // 4) + 1))
        b = int(stream.gen.integers(0, 2))
        inst = gen_instance(n, m / n, b, stream)
        val = expected_value(inst)
        worst = max(worst, abs(val - 2 * inst.alpha * b))
    report(7, worst <= 1e-12, f"max |Tr(O rho) - 2 alpha b| = {worst:.2e} over 1e4 instances")


def test_criterion_08_end_to_end_protocols(tmp_path):
    out = tmp_path / "bhm.csv"
    code = main(["bhm", "--n", "16", "--alpha", "0.25", "--delta", "0.05",
                 "--runs", "400", "--seed", "20260825", "--out", str(out)])
    assert code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    bhm_rate = sum(r["b"] == r["guess"] for r in rows) / len(rows)
    sigma = math.sqrt(0.95 * 0.05 / 400)
    bhm_ok = bhm_rate >= 0.95 - 3 * sigma

    sweep = run_sweep(
        ExperimentConfig(mode="jm", d=8, B=4.0, eps=0.2, delta=0.05,
                         trials=500, seed=20260825)
    )
    jm_rate = sum(r.success for r in sweep) / len(sweep)
    sigma_jm = math.sqrt(0.95 * 0.05 / 500)
    jm_ok = jm_rate >= 0.95 - 3 * sigma_jm
    report(
        8,
        bhm_ok and jm_ok,
        f"bhm success {bhm_rate:.4f} (need >= {0.95 - 3 * sigma:.4f}), "
        f"jm success {jm_rate:.4f} (need >= {0.95 - 3 * sigma_jm:.4f})",
    )


def test_criterion_09_distinguishing_optimality():
    stream = RngStream(819)
    gap_dev = 0.0
    beat_by = 0.0
    for d in (2, 4, 8):
        rho = rho_of(d, stream)
        sigma = rho_of(d, stream)
        obs, gap = distinguishing_observable(rho, sigma)
        gap_dev = max(gap_dev, abs(gap - trace_distance(rho, sigma)))
        diff = rho - sigma
        for _ in range(1000 // 3 + 1):
            z = stream.gen.standard_normal((d, d)) + 1j * stream.gen.standard_normal((d, d))
            q, _ = np.linalg.qr(z)
            evals = stream.gen.uniform(0, 1, size=d)
            cand = (q * evals) @ q.conj().T
            beat_by = max(beat_by, abs(np.trace(cand @ diff).real) - gap)
    zero = density(np.array([1, 0], dtype=complex))
    plus = density(np.array([1, 1], dtype=complex) / math.sqrt(2))
    hel = helstrom_success(zero, plus)
    hel_ok = abs(hel - 0.8535533905932737) <= 1e-5
    report(
        9,
        gap_dev <= 1e-9 and beat_by <= 1e-9 and hel_ok,
        f"gap vs trace distance dev {gap_dev:.2e}, best candidate excess "
        f"{beat_by:.2e}, Helstrom {hel:.7f}",
    )


def test_criterion_10_variance_scaling_signature():
    d, s = 64, 8
    stream = RngStream(820)
    rho = rho_of(d, stream)
    O = random_signature_observable(d, d, stream).matrix
    assert abs(np.trace(O).real) < 1e-9  # traceless with Tr(O^2) = d
    v1 = exact_joint_variance(rho, O, s, d)
    v2 = exact_joint_variance(rho, O, 2 * s, d)
    ratio = v1 / v2
    report(10, 3 <= ratio <= 4, f"Var(s=8)/Var(s=16) = {ratio:.4f} (need [3, 4])")


def test_criterion_11_csv_determinism(tmp_path):
    args = ["jm", "--d", "6", "--B", "3", "--eps", "0.3", "--delta", "0.1",
            "--trials", "25", "--seed", "314159"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    bargs = ["bhm", "--n", "8", "--alpha", "0.25", "--runs", "10", "--seed", "9"]
    c, e = tmp_path / "c.csv", tmp_path / "e.csv"
    assert main(bargs + ["--out", str(c)]) == 0
    assert main(bargs + ["--out", str(e)]) == 0
    same = same and c.read_bytes() == e.read_bytes()
    report(11, same, "byte-identical CSV across repeated runs (jm and bhm)")
