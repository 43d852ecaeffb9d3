import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oracles import (
    haar_states, linear_mean_shadow, observable_from_matrix, quadratic_shadow, single_copy_shadow,
)
from shadowlab import estimators
from shadowlab.cli import _batch_estimates
from shadowlab.ensembles import (
    RngStream,
    aligned_frame,
    reflect,
    sample_aligned_posterior_states,
    sample_haar_state,
)
from shadowlab.estimators import (
    BATCH_FAILURE_P,
    MAX_PLAN_S,
    BatchPlan,
    BatchReduction,
    affine_shadow,
    batch_estimates,
    choose_estimator,
    median_estimate,
    plan_batches,
    plan_linear_batches,
    plan_quadratic_batches,
)
from shadowlab.linalg import density, trace_distance
from shadowlab.measurement import measure_independent_batch, measure_joint_batch
from shadowlab.moments import (
    COV_PATTERNS, exact_covariance, exact_joint_variance, shadow_pair_traces,
)
from shadowlab.observables import random_observable, random_signature_observable


def singles_from(phi, rng, count):
    return [single_copy_shadow(p) for p in measure_independent_batch(phi, rng, count)]


# ------------------------------------------------------------------ batch plan


def test_batch_plan_validation():
    with pytest.raises(ValueError):
        BatchPlan(s=10, k=2)  # even k
    with pytest.raises(ValueError):
        BatchPlan(s=0, k=1)
    assert BatchPlan(s=3, k=5).total == 15
    with pytest.raises(TypeError):  # the failure budget is fixed, not a field
        BatchPlan(s=3, k=5, p=0.25)


def test_plan_batches_frozen_values():
    # B=1, eps=0.5, p=1/4: least s with (1+8s)/s^2 <= 1/64 is 129
    plan = plan_batches(B=1, eps=0.5, delta=0.001)
    assert plan.s == 129
    # delta=0.001: least odd k with (3/4)^(k/2) <= delta is 49
    assert plan.k == 49
    assert plan_batches(B=1, eps=0.5, delta=0.05).k == 21


@pytest.mark.parametrize("eps", [1e-160, 1e-170, 5e-324])
def test_planners_refuse_an_eps_too_small_to_plan_for(eps):
    # p eps^2 is subnormal at 1e-160 (s would pass MAX_PLAN_S) and 0 below
    for plan in (
        lambda: plan_batches(4.0, eps, 0.05),
        lambda: plan_linear_batches(4.0, eps, 0.05),
        lambda: plan_quadratic_batches(4.0, 8, eps, 0.05),
    ):
        with pytest.raises(ValueError, match="eps"):
            plan()


def test_planners_reach_the_ceiling():
    # (B+8)/s at B = 8 meets p eps^2 at s = 16 / (p eps^2): just under
    # MAX_PLAN_S is planned, four times it is refused
    eps = 1.001 * math.sqrt(16 / (BATCH_FAILURE_P * MAX_PLAN_S))
    assert MAX_PLAN_S // 2 < plan_linear_batches(8.0, eps, 0.05).s <= MAX_PLAN_S
    with pytest.raises(ValueError):
        plan_linear_batches(8.0, eps / 2, 0.05)


def test_plan_batches_s_is_minimal():
    for B, eps in ((1, 0.5), (4, 0.2), (16, 0.1), (2.5, 0.33)):
        plan = plan_batches(B, eps, 0.05)
        p = BATCH_FAILURE_P
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


def test_planners_k_at_small_and_subnormal_delta():
    # k reads -log(delta): the same k wherever 1/delta is finite, and a plan
    # below about 5.6e-309, where 1/delta overflows to inf
    table = ((0.3, 9), (0.1, 17), (0.05, 21), (1e-2, 33), (1e-3, 49), (1e-6, 97),
             (1e-12, 193), (1e-320, 5123), (5e-324, 5177))
    for delta, k in table:
        assert plan_batches(4.0, 0.2, delta).k == k
        assert plan_linear_batches(4.0, 0.2, delta).k == k
        assert plan_quadratic_batches(4.0, 8, 0.2, delta).k == k


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
    sh = affine_shadow(np.array([1, 0], dtype=complex), 1, 2)
    assert isinstance(sh, np.ndarray)
    assert np.abs(sh - np.diag([2.0, -1.0])).max() < 1e-12


def test_affine_shadow_trace_one():
    rng = RngStream(31)
    for d, s in ((2, 1), (4, 7), (8, 3)):
        phi = sample_haar_state(d, rng)
        psi = measure_joint_batch(phi, s, rng, 1)[0]
        sh = affine_shadow(psi, s, d)
        assert abs(np.trace(sh).real - 1) < 1e-9
        # exactly Hermitian, which numpy's complex outer product alone is not
        assert np.array_equal(sh, sh.conj().T)


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


def test_shadow_constructors_check_their_outcome():
    # the outcome row must be a unit vector, and a joint outcome needs s >= 1
    for psi in (np.array([1, 1], dtype=complex), np.zeros(2), np.array([np.nan, 0])):
        with pytest.raises(ValueError):
            affine_shadow(psi, 1, 2)
        with pytest.raises(ValueError):
            single_copy_shadow(psi)
    with pytest.raises(ValueError):
        affine_shadow(np.array([1, 0], dtype=complex), 0, 2)


# ------------------------------------------------------------ median estimate


def test_median_estimate_small_cases():
    shadows = [np.diag([v, 1 - v]).astype(complex) for v in (0.1, 0.9, 0.5)]
    O = np.diag([1.0, 0.0]).astype(complex)
    assert median_estimate(O, shadows) == 0.5
    assert median_estimate(O, shadows[:1]) == pytest.approx(0.1)
    # an even count takes the upper of the two middle values
    assert median_estimate(O, shadows + [np.diag([0.7, 0.3]).astype(complex)]) == 0.7


@given(st.permutations([0.1, 0.3, 0.5, 0.7, 0.9]))
@settings(max_examples=20)
def test_median_estimate_shuffle_invariant(vals):
    shadows = [np.diag([v, 1 - v]).astype(complex) for v in vals]
    O = np.diag([1.0, 0.0]).astype(complex)
    assert median_estimate(O, shadows) == 0.5


def test_median_estimate_empty():
    with pytest.raises(ValueError):
        median_estimate(np.eye(2), [])


def _trace_product_median(O, shadows):
    """The oracle: the middle order statistic of Re Tr(O sh), one n x n product per shadow."""
    vals = sorted(float(np.trace(O @ sh).real) for sh in shadows)
    return vals[len(vals) // 2]


def _complex_matrices(rng, n, count, hermitian):
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return list((z + z.conj().transpose(0, 2, 1)) / 2 if hermitian else z)


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("count", [1, 4, 5, 21])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_median_estimate_matches_the_trace_of_each_product(n, count, hermitian):
    rng = np.random.default_rng(1000 * n + 10 * count + hermitian)
    O = _complex_matrices(rng, n, 1, hermitian)[0]
    shadows = _complex_matrices(rng, n, count, hermitian)
    want = _trace_product_median(O, shadows)
    # |Tr(O sh)| <= ||O||_F ||sh||_F sets the floor, so a median near 0 asks
    # for no digits that neither summation order holds
    scale = np.linalg.norm(O) * max(np.linalg.norm(sh) for sh in shadows)
    assert median_estimate(O, shadows) == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


class _NoMatmul(np.ndarray):
    """An ndarray that refuses matrix products."""

    def __matmul__(self, other):
        raise AssertionError("median_estimate formed an n x n product")

    __rmatmul__ = __matmul__


def test_median_estimate_forms_no_matrix_product():
    rng = np.random.default_rng(7)
    O = _complex_matrices(rng, 16, 1, False)[0]
    shadows = _complex_matrices(rng, 16, 5, True)
    want = _trace_product_median(O, shadows)
    got = median_estimate(O.view(_NoMatmul), [sh.view(_NoMatmul) for sh in shadows])
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "O_shape, shadow_shapes",
    [((3, 3), [(2, 2)]), ((2, 2), [(2, 2), (2, 3)]), ((2, 3), [(2, 3)]), ((4,), [(4,)])],
)
def test_median_estimate_rejects_mismatched_shapes(O_shape, shadow_shapes):
    with pytest.raises(ValueError):
        median_estimate(np.ones(O_shape), [np.ones(shape) for shape in shadow_shapes])


# ------------------------------------------------- linear and quadratic means


def test_linear_mean_trivial_cases():
    sh = single_copy_shadow(np.array([1, 0], dtype=complex))
    assert np.abs(linear_mean_shadow([sh]) - sh).max() < 1e-12
    assert np.abs(linear_mean_shadow([sh, sh, sh]) - sh).max() < 1e-12


def test_linear_mean_unbiased():
    d, s, trials = 4, 50, 2000
    rng = RngStream(33)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(trials):
        acc += linear_mean_shadow(singles_from(phi, rng, s))
    acc /= trials
    assert np.abs(acc - rho).max() < 5 * (d + 1) / np.sqrt(s * trials)


def test_quadratic_shadow_s2_and_hermiticity():
    rng = RngStream(34)
    phi = sample_haar_state(3, rng)
    a, b = singles_from(phi, rng, 2)
    sh = quadratic_shadow([a, b])
    direct = (a @ b + b @ a) / 2
    assert np.abs(sh - direct).max() < 1e-10
    assert np.abs(sh - sh.conj().T).max() < 1e-10


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
                direct += singles[i] @ singles[j]
    direct /= s * (s - 1)
    assert np.abs(sh - direct).max() < 1e-10


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
        np.trace(quadratic_shadow(singles_from(phi, rng, s))).real
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
    s=st.integers(2, 16),  # linear runs on a Gram for s > 2d, on overlaps below
    k=st.integers(1, 4),
    copies=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_batch_estimates_match_dense_oracles(seed, d, s, k, copies):
    rng = RngStream(seed)
    O = random_hermitian_unit_norm(d, rng)
    obs = observable_from_matrix(O)
    # linear on n outcomes of `copies` copies each is the mean of their
    # affine shadows: n = 1 is the joint estimator, n = s > 1 a mean of them
    for n in (1, s):
        joint = haar_states(d, rng, k * n).reshape(k, n, d)
        dense = [np.mean([np.trace(O @ affine_shadow(p, copies, d)).real for p in b])
                 for b in joint]
        assert np.abs(batch_estimates(obs, joint, "linear", copies) - dense).max() < 1e-12

    psis = haar_states(d, rng, k * s).reshape(k, s, d)
    batches = [[single_copy_shadow(p) for p in b] for b in psis]
    for kind, oracle in (("linear", linear_mean_shadow), ("quadratic", quadratic_shadow)):
        dense = [np.trace(O @ oracle(b)).real for b in batches]
        assert np.abs(batch_estimates(obs, psis, kind) - dense).max() < 1e-12


def test_batch_estimates_validation():
    O = observable_from_matrix(np.diag([1.0, 0.0]))
    unit = np.array([[1, 0], [0, 1]], dtype=complex)
    # one joint outcome of one copy per batch: ((d+1) <psi|O|psi> - Tr O)
    assert np.allclose(batch_estimates(O, unit[:, None], "linear", 1), [2.0, -1.0])
    with pytest.raises(ValueError):  # one outcome off unit norm is enough
        batch_estimates(O, np.array([[[1, 0]], [[1, 1]]], dtype=complex), "linear")
    with pytest.raises(ValueError):
        batch_estimates(O, unit[None] * 1.001, "linear")
    with pytest.raises(ValueError):  # a NaN outcome is not a unit vector either
        batch_estimates(O, np.array([[[1, 0]], [[np.nan, 0]]], dtype=complex), "linear")
    for kind in ("linear", "quadratic"):  # outcomes are (k, n, d): a 2-D array is refused
        with pytest.raises(ValueError):
            batch_estimates(O, unit, kind)
    with pytest.raises(ValueError):
        batch_estimates(O, np.empty((0, 1, 2), dtype=complex), "linear")
    with pytest.raises(ValueError):
        batch_estimates(O, unit[:, None, :], "quadratic")  # s = 1
    with pytest.raises(ValueError):
        batch_estimates(O, unit[:, None], "linear", copies=0)
    with pytest.raises(ValueError):  # quadratic pairs single-copy outcomes: copies is 1
        batch_estimates(O, unit[None], "quadratic", copies=2)
    for kind in ("median", "affine_joint"):
        with pytest.raises(ValueError):
            batch_estimates(O, unit[:, None], kind)
    with pytest.raises(ValueError):  # O is 2 x 2, the outcomes live in d = 3
        batch_estimates(O, np.eye(3, dtype=complex)[:, None], "linear")


def test_batch_reduction_refuses_runs_outside_its_batches():
    O = observable_from_matrix(np.diag([1.0, 0.0]))
    unit = np.array([[1, 0], [0, 1]], dtype=complex)
    for k, n in ((0, 1), (1, 0)):  # no batch, or batches of no outcome
        with pytest.raises(ValueError):
            BatchReduction(O, "linear", n, k)
    reduction = BatchReduction(O, "linear", 1, 2)
    for start, records in (
        (0, unit[0]),  # a run is (rows, m): one outcome is one row of it
        (0, unit[None]),
        (0, unit[:0]),  # an empty run
        (-1, unit[:1]),  # rows before the first batch
        (1, unit),  # row 2 is past the last of k n = 2
    ):
        with pytest.raises(ValueError):
            reduction.add(start, records)
    reduction.add(0, unit)  # the refused runs left nothing behind
    assert np.allclose(reduction.estimates, [2.0, -1.0])


def test_linear_kernel_on_small_batches_stays_below_its_outcome_array():
    # a batch's real Gram holds (2d)^2 floats and its overlaps s r complex;
    # at s = 2 the Gram would be 64 times the outcomes, so the kernel must
    # reduce through the overlaps here
    k, s, d = 2048, 2, 32
    O = random_observable(d, 4, RngStream(1))
    psis = haar_states(d, RngStream(2), k * s).reshape(k, s, d)
    tracemalloc.start()
    try:
        batch_estimates(O, psis, "linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * psis.nbytes


@pytest.mark.parametrize("k, s", [(512, 8), (1024, 4), (2048, 2)])
def test_quadratic_kernel_with_a_wide_factor_stays_near_its_outcome_block(k, s):
    # rank r = 16 > s: S V is reduced over factor chunks at most s wide, so
    # its temporaries stay near the block instead of growing as r / s
    d = 16
    g = RngStream(1).gen.normal(size=(d, d, 2)).view(complex)[..., 0]
    H = g + g.conj().T  # distinct eigenvalues, so every factor chunk weighs differently
    O = observable_from_matrix(H / np.abs(np.linalg.eigvalsh(H)).max())
    assert O.evals.size == d
    block = haar_states(d, RngStream(2), k * s).reshape(k, s, d)
    tracemalloc.start()
    try:
        vals = batch_estimates(O, block, "quadratic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * block.nbytes
    for b in range(3):  # the chunked sum is still the estimator
        dense = quadratic_shadow([single_copy_shadow(psi) for psi in block[b]])
        assert vals[b] == pytest.approx(np.trace(O.matrix @ dense).real, abs=1e-9)


def test_batch_estimates_reduced_record_validation():
    O = observable_from_matrix(np.diag([1.0, 0.0]))
    frame = np.eye(3, 2, dtype=complex)
    records = np.eye(3, dtype=complex)[None]  # (1, 3, 3): three unit records
    # ambient d = 2 enters the formula, not the record width 3
    assert np.allclose(batch_estimates(O, records, "linear", frame=frame), [(3 * 1 - 3) / 3])
    with pytest.raises(ValueError):  # the same unit-norm check as on full vectors
        batch_estimates(O, records * 1.001, "linear", frame=frame)
    with pytest.raises(ValueError):
        batch_estimates(O, np.full((1, 2, 3), np.nan, dtype=complex), "linear", frame=frame)
    with pytest.raises(ValueError):  # quadratic needs the full outcome vectors
        batch_estimates(O, records, "quadratic", frame=frame)
    with pytest.raises(ValueError):  # reduced records from the sampler, m = 4 < d = 8
        obs = random_observable(8, 2, RngStream(1))
        frame = aligned_frame(sample_haar_state(8, RngStream(2)), obs.vecs)
        reduced = sample_aligned_posterior_states(1, RngStream(3), np.empty((6, 4), complex), 8)
        batch_estimates(obs, reduced.reshape(2, 3, -1), "quadratic", frame=frame)
    with pytest.raises(ValueError):  # record width and frame rows disagree
        batch_estimates(O, records, "linear", frame=np.eye(4, 2, dtype=complex))
    with pytest.raises(ValueError):  # frame columns and O's rank disagree
        batch_estimates(O, records, "linear", frame=np.eye(3, dtype=complex))


def _law_case(d, B, rng):
    """(phi, O) for the same-law tests; B = None is full rank, so m = d."""
    phi = sample_haar_state(d, rng)
    if B is None:
        return phi, observable_from_matrix(random_hermitian_unit_norm(d, rng))
    return phi, random_observable(d, B, rng)


@pytest.mark.parametrize("d, B", [(8, 2), (64, 4), (256, 4), (4, None)])
def test_reduced_linear_estimates_match_full_vectors(d, B):
    # per-batch linear estimates from reduced records against those from
    # full outcome vectors: a KS test, and the mean and variance to 5 sigma
    n, s = 2500, 4
    phi, O = _law_case(d, B, RngStream(30, d))
    frame = aligned_frame(phi, O.vecs)
    m = min(d, O.evals.size + 2)
    assert frame.shape == (m, O.evals.size)
    records = sample_aligned_posterior_states(1, RngStream(31, d), np.empty((n * s, m), complex), d)
    new = batch_estimates(O, records.reshape(n, s, m), "linear", frame=frame)
    full = measure_independent_batch(phi, RngStream(32, d), n * s).reshape(n, s, d)
    old = batch_estimates(O, full, "linear")
    assert stats.ks_2samp(new, old).pvalue > 1e-3

    def close(a, b):
        return abs(a.mean() - b.mean()) <= 5 * math.sqrt((a.var() + b.var()) / n)

    truth = float(np.abs(phi @ O.vecs.conj()) ** 2 @ O.evals)
    assert close(new, old) and close(new, np.full(1, truth))
    assert close((new - new.mean()) ** 2, (old - old.mean()) ** 2)


@pytest.mark.parametrize("d, B", [(4, 2), (5, 3), (8, 8)])
def test_aligned_records_give_the_full_vector_quadratic_estimates(d, B):
    # a phi-aligned record x is the outcome H x for the reflection H; with
    # the frame H V the kernel must return what it returns on H x itself.
    # At (5, 3) and (4, 2) the reduced frame is d rows as well, over the one
    # coordinate outside span{phi, V}: a full change of basis too
    phi, O = _law_case(d, B, RngStream(33, d))
    h = reflect(phi, np.eye(d, dtype=complex)).T  # row i of I becomes H e_i
    records = sample_aligned_posterior_states(
        1, RngStream(34, d), np.empty((24, d), dtype=complex), d
    )
    frame = aligned_frame(phi, O.vecs, full=True)
    assert np.abs(frame - h @ O.vecs).max() < 1e-14
    full = batch_estimates(O, (records @ h.T).reshape(4, 6, d), "quadratic")
    aligned = batch_estimates(O, records.reshape(4, 6, d), "quadratic", frame=frame)
    assert np.abs(aligned - full).max() <= 1e-12 * max(1.0, np.abs(full).max())
    frame = aligned_frame(phi, O.vecs)
    if O.evals.size + 2 == d:
        # the basis the reduced records are coordinates in: H applied to e_0
        # and to the complete Q of the QR whose R the frame holds; the
        # frame's last row is 0
        q = np.linalg.qr((h @ O.vecs)[1:], mode="complete")[0]
        q_full = h @ np.block([[np.ones((1, 1)), np.zeros((1, d - 1))],
                               [np.zeros((d - 1, 1)), q]])
        full = batch_estimates(O, (records @ q_full.T).reshape(4, 6, d), "quadratic")
        got = batch_estimates(O, records.reshape(4, 6, d), "quadratic", frame=frame)
        assert np.abs(got - full).max() <= 1e-12 * max(1.0, np.abs(full).max())


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("d, B, n", [(8, 2, 40), (32, 4, 1720), (6, None, 3)])
def test_gram_and_overlap_paths_agree(monkeypatch, d, B, n, kind):
    # the same records read through their real Gram P and through their
    # overlaps C, with the full frame and, reflected to C^d, with no frame;
    # at (32, 4, 1720), the im-quadratic-d32 batch, the rule picks the Gram
    phi, O = _law_case(d, B, RngStream(39, d))
    out = np.empty((3 * n, d), dtype=complex)
    records = sample_aligned_posterior_states(1, RngStream(41, d), out, d)
    outcomes = reflect(phi, records.copy()).reshape(3, n, d)
    records = records.reshape(3, n, d)
    frame = aligned_frame(phi, O.vecs, full=True)
    assert estimators._gram_pays(kind, d, n, O.evals.size) == (2 * d * d < n * O.evals.size)
    got = {}
    for gram in (True, False):
        monkeypatch.setattr(estimators, "_gram_pays", lambda kind, m, n, r, gram=gram: gram)
        got[gram] = [batch_estimates(O, records, kind, frame=frame),
                     batch_estimates(O, outcomes, kind)]
    for a, b in zip(got[True], got[False]):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("kind, B, n, run", [
    ("linear", 2, 9, 20), ("linear", 2, 700, 150),
    ("quadratic", 8, 9, 20), ("quadratic", 2, 700, 150),
], ids=["linear-overlap", "linear-gram", "quadratic-overlap", "quadratic-gram"])
def test_batch_reduction_sums_each_batch_in_row_order(kind, B, n, run):
    # the same records added as runs of `run` rows, in order, reversed and
    # shuffled: each batch is summed from several runs, and its estimate may
    # not depend on the order they arrive in; at n = 9 a run also holds
    # whole batches.  All orders agree with batch_estimates to 1e-12
    d, k = 8, 5
    phi, O = _law_case(d, B, RngStream(90, n))
    frame = aligned_frame(phi, O.vecs, full=kind == "quadratic")
    out = np.empty((k * n, frame.shape[0]), dtype=complex)
    records = sample_aligned_posterior_states(1, RngStream(91, n), out, d)
    assert estimators._gram_pays(kind, frame.shape[0], n, O.evals.size) == (n == 700)
    bounds = [*range(0, k * n, run), k * n]
    runs = list(zip(bounds, bounds[1:]))
    got = []
    shuffled = [runs[i] for i in np.random.default_rng(92).permutation(len(runs))]
    for order in (runs, runs[::-1], shuffled):
        reduction = BatchReduction(O, kind, n, k, 1, frame)
        for a, b in order:
            reduction.add(a, records[a:b])
        got.append(reduction.estimates)
    assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])
    want = batch_estimates(O, records.reshape(k, n, -1), kind, frame=frame)
    assert np.abs(got[0] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_quadratic_reads_the_gram_only_up_to_its_measured_width():
    w = estimators.QUADRATIC_GRAM_MAX_WIDTH
    n = 2 * (w + 1) ** 2  # over 2 m^2 / r at both widths, for r = 4
    assert estimators._gram_pays("quadratic", w, n, 4)
    assert not estimators._gram_pays("quadratic", w + 1, n, 4)
    assert estimators._gram_pays("linear", w + 1, n, 4)
    assert not estimators._gram_pays("quadratic", 32, 512, 4)  # n = 2 m^2 / r, not over


@pytest.mark.parametrize("d, B", [(16, 2), (8, None)])
def test_record_consumers_ignore_each_outcome_s_global_phase(d, B):
    # psi and e^(i theta) psi are one projector, and every consumer reads an
    # outcome only through it: each row times an independent unit phase
    # must leave the results unchanged.  The reduced linear batches take
    # both of the kernel's paths, C (n = 3) and the Gram of the records (n = 64)
    phi, O = _law_case(d, B, RngStream(80, d))
    phases = np.random.default_rng(81)

    def rephased(x):
        return x * np.exp(2j * np.pi * phases.uniform(size=x.shape[:-1]))[..., None]

    def same(a, b):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def draw(s, n, m, seed):
        out = np.empty((n, m), dtype=complex)
        return sample_aligned_posterior_states(s, RngStream(seed, d), out, d)

    frame = aligned_frame(phi, O.vecs)
    for n in (3, 64):
        records = draw(1, 5 * n, frame.shape[0], 82 + n).reshape(5, n, -1)
        same(batch_estimates(O, records, "linear", frame=frame),
             batch_estimates(O, rephased(records), "linear", frame=frame))
    full = reflect(phi, draw(1, 30, d, 83)).reshape(5, 6, d)
    for kind in ("linear", "quadratic"):
        same(batch_estimates(O, full, kind), batch_estimates(O, rephased(full), kind))
    s = 7  # jm: one outcome of s copies per batch
    joint = reflect(phi, draw(s, 5, d, 84))
    same(batch_estimates(O, joint[:, None], "linear", s),
         batch_estimates(O, rephased(joint)[:, None], "linear", s))
    psi_i, psi_j = full[0], full[1]
    same(shadow_pair_traces(O.matrix, psi_i, psi_j),
         shadow_pair_traces(O.matrix, rephased(psi_i), rephased(psi_j)))
    for psi in joint:
        same(affine_shadow(psi, s, d), affine_shadow(rephased(psi[None])[0], s, d))


@pytest.mark.parametrize("d, B", [(8, 2), (32, 4), (64, 4)])
def test_streamed_quadratic_estimates_match_full_vectors(d, B):
    # per-batch quadratic estimates from phi-aligned records, streamed a block
    # of batches at a time, against those from full outcome vectors: a KS
    # test, and the mean and variance to 5 sigma
    n, s = 2500, 4
    phi, O = _law_case(d, B, RngStream(36, d))
    new = _batch_estimates(phi, O, s, n, RngStream(37, d), "quadratic")
    full = measure_independent_batch(phi, RngStream(38, d), n * s).reshape(n, s, d)
    old = batch_estimates(O, full, "quadratic")
    assert stats.ks_2samp(new, old).pvalue > 1e-3

    def close(a, b):
        return abs(a.mean() - b.mean()) <= 5 * math.sqrt((a.var() + b.var()) / n)

    truth = float(np.abs(phi @ O.vecs.conj()) ** 2 @ O.evals)
    assert close(new, old) and close(new, np.full(1, truth))
    assert close((new - new.mean()) ** 2, (old - old.mean()) ** 2)


def _variance_z(vals, exact):
    """z-score of the sample variance of vals against exact; the standard
    error (m4 - var^2)/n comes from the fourth central moment."""
    x = vals - vals.mean()
    var = float(x @ x) / (x.size - 1)
    return (var - exact) / math.sqrt((np.mean(x**4) - var * var) / x.size)


@pytest.mark.parametrize("d, B", [(4, 3), (8, 5)])
@pytest.mark.parametrize("kind, n, copies", [
    ("linear", 1, 7), ("linear", 5, 1), ("quadratic", 4, 1), ("quadratic", 10, 1),
], ids=["jm-7", "linear-5", "quadratic-4", "quadratic-10"])
def test_kernel_variance_matches_the_exact_per_batch_variance(d, B, kind, n, copies):
    # the second moment of the production estimates, sampler and kernel
    # together, against the exact variance from moments' closed forms; jm is
    # the linear estimator on one outcome of s copies per batch
    batches = 20_000
    rng = RngStream(40, 100 * d + n * copies)
    phi = sample_haar_state(d, rng)
    O = random_signature_observable(d, B, rng)  # both signs, O^2 != I
    rho, M = density(phi), O.matrix
    vals = _batch_estimates(phi, O, n, batches, rng, kind, copies)
    if kind == "linear":  # the mean of n independent c-copy shadows
        exact = exact_joint_variance(rho, M, copies, d) / n
    else:
        cov = {p: exact_covariance(p, rho, M, d) for p in COV_PATTERNS}
        pairs = cov["ij_ij"] + cov["ij_ji"] + 2 * (n - 2) * (cov["ij_jk"] + cov["ij_kj"])
        exact = pairs / (n * (n - 1))
    assert abs(_variance_z(vals, exact)) < 5


# ------------------------------------------------------------------- selection


def test_choose_estimator_threshold():
    assert choose_estimator(B=4, d=4, eps=1.0) == "quadratic"  # threshold 1
    assert choose_estimator(B=1, d=100, eps=0.5) == "linear"
    assert choose_estimator(B=1, d=4, eps=0.5) == "quadratic"  # tie -> quadratic


def test_fidelity_trace_distance_inequality():
    # 1 - Tr(rho sigma) >= ||rho - sigma||_1^2 / 8 on random pure pairs
    rng = RngStream(39)
    for _ in range(50):
        a, b = sample_haar_state(4, rng), sample_haar_state(4, rng)
        lhs = 1 - abs(np.vdot(a, b)) ** 2
        td = trace_distance(density(a), density(b))
        assert lhs >= td**2 / 8 - 1e-12
