import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.ensembles import RngStream, sample_haar_state
from shadowlab.estimators import (
    BatchPlan,
    Shadow,
    affine_shadow,
    batch_estimates,
    choose_estimator,
    implied_trace_distance_bound,
    linear_mean_shadow,
    median_estimate,
    plan_batches,
    quadratic_shadow,
    single_copy_shadow,
)
from shadowlab.linalg import density, trace_distance
from shadowlab.measurement import JointOutcome, measure_independent_batch, measure_joint_batch


def singles_from(phi, rng, count):
    d = phi.shape[0]
    psis = measure_independent_batch(phi, rng, count)
    return [single_copy_shadow(JointOutcome(psi=p, s=1), d) for p in psis]


# ------------------------------------------------------------------ batch plan


def test_batch_plan_validation():
    with pytest.raises(ValueError):
        BatchPlan(s=10, k=2)  # even k
    with pytest.raises(ValueError):
        BatchPlan(s=0, k=1)
    assert BatchPlan(s=3, k=5).total == 15


def test_plan_batches_frozen_values():
    # B=1, eps=0.5, p=1/4: least s with (1+8s)/s^2 <= 1/64 is 129
    plan = plan_batches(B=1, eps=0.5, delta=0.001)
    assert plan.s == 129
    # delta=0.001: least odd k with (3/4)^(k/2) <= delta is 49
    assert plan.k == 49
    assert plan_batches(B=1, eps=0.5, delta=0.05).k == 21


def test_plan_batches_s_is_minimal():
    for B, eps in ((1, 0.5), (4, 0.2), (16, 0.1), (2.5, 0.33)):
        plan = plan_batches(B, eps, 0.05)
        p = plan.p
        s = plan.s
        assert (B + 8 * s) / s**2 <= p * eps**2
        if s > 1:
            assert (B + 8 * (s - 1)) / (s - 1) ** 2 > p * eps**2


def test_plan_batches_k_is_minimal_odd():
    for delta in (0.001, 0.01, 0.05, 0.2):
        k = plan_batches(1, 0.5, delta).k
        r = math.sqrt(4 * 0.25 * 0.75)  # sqrt(4p(1-p)) at p=1/4
        assert k % 2 == 1
        assert r**k <= delta
        if k > 2:
            assert r ** (k - 2) > delta


def test_plan_batches_sqrt_b_scaling():
    # at large B the s ~ sqrt(B)/eps term dominates, so halving eps
    # roughly doubles s
    s1 = plan_batches(B=1e8, eps=0.5, delta=0.05).s
    s2 = plan_batches(B=1e8, eps=0.25, delta=0.05).s
    assert 1.9 < s2 / s1 < 2.1


def test_plan_batches_range_checks():
    for bad in ((0.5, 0.5, 0.05), (1, 1.5, 0.05), (1, 0.5, 0.0)):
        with pytest.raises(ValueError):
            plan_batches(*bad)


# --------------------------------------------------------------------- shadows


def test_affine_shadow_basis_case():
    # d=2, s=1, psi=|0>: ((d+s) psi psi^dag - I)/s = diag(2, -1)
    out = JointOutcome(psi=np.array([1, 0], dtype=complex), s=1)
    sh = affine_shadow(out, 2)
    assert np.abs(sh.matrix - np.diag([2.0, -1.0])).max() < 1e-12
    assert sh.kind == "affine_joint"


def test_affine_shadow_trace_one():
    rng = RngStream(31)
    for d, s in ((2, 1), (4, 7), (8, 3)):
        phi = sample_haar_state(d, rng)
        psi = measure_joint_batch(phi, s, rng, 1)[0]
        sh = affine_shadow(JointOutcome(psi=psi, s=s), d)
        assert abs(np.trace(sh.matrix).real - 1) < 1e-9


def test_affine_shadow_unbiased():
    d, s, n = 4, 5, 100_000
    rng = RngStream(32)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    psis = measure_joint_batch(phi, s, rng, n)
    P = np.einsum("ni,nj->ij", psis, psis.conj()) / n
    mean_shadow = ((d + s) * P - np.eye(d)) / s
    # per-entry Monte Carlo error of the shadow scales with (d+s)/s
    assert np.abs(mean_shadow - rho).max() < 5 * (d + s) / s / np.sqrt(n)


def test_single_copy_shadow_requires_s1():
    with pytest.raises(ValueError):
        single_copy_shadow(JointOutcome(psi=np.array([1, 0], dtype=complex), s=2), 2)


def test_shadow_trace_validation():
    with pytest.raises(ValueError):
        Shadow(matrix=np.eye(2) * 0.7, kind="linear_single", s_used=1)
    # quadratic kind allows arbitrary trace
    Shadow(matrix=np.eye(2) * 0.7, kind="quadratic", s_used=2)


# ------------------------------------------------------------ median estimate


def test_median_estimate_small_cases():
    mats = [np.diag([v, 1 - v]).astype(complex) for v in (0.1, 0.9, 0.5)]
    shadows = [Shadow(matrix=m, kind="affine_joint", s_used=1) for m in mats]
    O = np.diag([1.0, 0.0]).astype(complex)
    assert median_estimate(O, shadows) == 0.5
    assert median_estimate(O, shadows[:1]) == pytest.approx(0.1)


@given(st.permutations([0.1, 0.3, 0.5, 0.7, 0.9]))
@settings(max_examples=20)
def test_median_estimate_shuffle_invariant(vals):
    shadows = [
        Shadow(matrix=np.diag([v, 1 - v]).astype(complex), kind="affine_joint", s_used=1)
        for v in vals
    ]
    O = np.diag([1.0, 0.0]).astype(complex)
    assert median_estimate(O, shadows) == 0.5


def test_median_estimate_empty():
    with pytest.raises(ValueError):
        median_estimate(np.eye(2), [])


# ------------------------------------------------- linear and quadratic means


def test_linear_mean_trivial_cases():
    sh = single_copy_shadow(
        JointOutcome(psi=np.array([1, 0], dtype=complex), s=1), 2
    )
    assert np.abs(linear_mean_shadow([sh]).matrix - sh.matrix).max() < 1e-12
    assert np.abs(linear_mean_shadow([sh, sh, sh]).matrix - sh.matrix).max() < 1e-12


def test_linear_mean_unbiased():
    d, s, trials = 4, 50, 2000
    rng = RngStream(33)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(trials):
        acc += linear_mean_shadow(singles_from(phi, rng, s)).matrix
    acc /= trials
    assert np.abs(acc - rho).max() < 5 * (d + 1) / np.sqrt(s * trials)


def test_quadratic_shadow_s2_and_hermiticity():
    rng = RngStream(34)
    phi = sample_haar_state(3, rng)
    a, b = singles_from(phi, rng, 2)
    sh = quadratic_shadow([a, b])
    direct = (a.matrix @ b.matrix + b.matrix @ a.matrix) / 2
    assert np.abs(sh.matrix - direct).max() < 1e-10
    assert np.abs(sh.matrix - sh.matrix.conj().T).max() < 1e-10


def test_quadratic_shadow_pair_sum_identity():
    # (S^2 - Q)/(s(s-1)) equals the explicit sum over ordered pairs
    rng = RngStream(35)
    phi = sample_haar_state(2, rng)
    singles = singles_from(phi, rng, 4)
    sh = quadratic_shadow(singles)
    s = len(singles)
    direct = np.zeros((2, 2), dtype=complex)
    for i in range(s):
        for j in range(s):
            if i != j:
                direct += singles[i].matrix @ singles[j].matrix
    direct /= s * (s - 1)
    assert np.abs(sh.matrix - direct).max() < 1e-10


def test_quadratic_shadow_unbiased():
    d, s, trials = 4, 6, 50_000
    rng = RngStream(36)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    psis = measure_independent_batch(phi, rng, trials * s).reshape(trials, s, d)
    P = np.einsum("tsi,tsj->tij", psis, psis.conj())
    I = np.eye(d)
    S = (d + 1) * P - s * I
    Q = ((d + 1) ** 2 - 2 * (d + 1)) * P + s * I
    Y = (np.einsum("tij,tjk->tik", S, S) - Q) / (s * (s - 1))
    mean = Y.mean(axis=0)
    spread = np.abs(Y - mean).max(axis=0).max()
    assert np.abs(mean - rho).max() < 5 * Y.std(axis=0).max() / np.sqrt(trials)
    assert spread > 0


def test_quadratic_trace_fluctuates():
    d, s, trials = 8, 4, 200
    rng = RngStream(37)
    phi = sample_haar_state(d, rng)
    traces = [
        np.trace(quadratic_shadow(singles_from(phi, rng, s)).matrix).real
        for _ in range(trials)
    ]
    assert np.std(traces) > 0
    assert abs(np.mean(traces) - 1) < 5 * np.std(traces) / np.sqrt(trials)


def test_quadratic_shadow_needs_two():
    rng = RngStream(38)
    phi = sample_haar_state(2, rng)
    with pytest.raises(ValueError):
        quadratic_shadow(singles_from(phi, rng, 1))


# ---------------------------------------------------------- estimator kernel


def random_hermitian_unit_norm(d, rng):
    z = rng.gen.standard_normal((d, d)) + 1j * rng.gen.standard_normal((d, d))
    h = (z + z.conj().T) / 2
    return h / np.abs(np.linalg.eigvalsh(h)).max()


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    s=st.integers(2, 7),
    k=st.integers(1, 4),
    copies=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_batch_estimates_match_dense_oracles(seed, d, s, k, copies):
    rng = RngStream(seed)
    O = random_hermitian_unit_norm(d, rng)
    joint = sample_haar_state(d, rng, size=k)
    dense = [np.trace(O @ affine_shadow(JointOutcome(psi=p, s=copies), d).matrix).real
             for p in joint]
    assert np.abs(batch_estimates(O, joint, "affine_joint", copies) - dense).max() < 1e-12

    psis = sample_haar_state(d, rng, size=k * s).reshape(k, s, d)
    batches = [[single_copy_shadow(JointOutcome(psi=p, s=1), d) for p in b] for b in psis]
    for kind, oracle in (("linear", linear_mean_shadow), ("quadratic", quadratic_shadow)):
        dense = [np.trace(O @ oracle(b).matrix).real for b in batches]
        assert np.abs(batch_estimates(O, psis, kind) - dense).max() < 1e-12


def test_batch_estimates_validation():
    O = np.diag([1.0, 0.0]).astype(complex)
    unit = np.array([[1, 0], [0, 1]], dtype=complex)
    assert np.allclose(batch_estimates(O, unit, "affine_joint", 1), [2.0, -1.0])
    with pytest.raises(ValueError):  # one outcome off unit norm is enough
        batch_estimates(O, np.array([[1, 0], [1, 1]], dtype=complex), "affine_joint")
    with pytest.raises(ValueError):
        batch_estimates(O, unit[None] * 1.001, "linear")
    with pytest.raises(ValueError):  # affine wants (k, d), the others (k, s, d)
        batch_estimates(O, unit[None], "affine_joint")
    with pytest.raises(ValueError):
        batch_estimates(O, unit, "linear")
    with pytest.raises(ValueError):
        batch_estimates(O, unit[:, None, :], "quadratic")  # s = 1
    with pytest.raises(ValueError):
        batch_estimates(O, unit, "affine_joint", copies=0)
    with pytest.raises(ValueError):
        batch_estimates(O, unit, "median")


# ------------------------------------------------------------------- selection


def test_choose_estimator_threshold():
    assert choose_estimator(B=4, d=4, eps=1.0) == "quadratic"  # threshold 1
    assert choose_estimator(B=1, d=100, eps=0.5) == "linear"
    assert choose_estimator(B=1, d=4, eps=0.5) == "quadratic"  # tie -> quadratic


def test_implied_trace_distance_bound():
    assert implied_trace_distance_bound(1.0) == 0
    assert implied_trace_distance_bound(0.98) == pytest.approx(0.4)


def test_fidelity_trace_distance_inequality():
    # 1 - Tr(rho sigma) >= ||rho - sigma||_1^2 / 8 on random pure pairs
    rng = RngStream(39)
    for _ in range(50):
        a, b = sample_haar_state(4, rng), sample_haar_state(4, rng)
        lhs = 1 - abs(np.vdot(a, b)) ** 2
        td = trace_distance(density(a), density(b))
        assert lhs >= td**2 / 8 - 1e-12
