import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    dense_covariance,
    dense_pair_traces,
    haar_states,
    ordered_pair_covariances,
    partial_trace,
    per_permutation_first_moment,
    per_permutation_second_moment,
    single_shadow_second_moment,
    trace_covariance,
    trace_covariance_bound,
    trace_joint_variance,
    traceless_part,
)
from shadowlab import cli, ensembles, moments
from shadowlab.ensembles import (
    CHUNK_FLOATS, RngStream, require_outcome_budget, sample_haar_state,
)
from shadowlab.linalg import (
    Permutation,
    all_permutations,
    density,
    kappa,
    perm_operator,
    sym_projector,
)
from shadowlab.moments import (
    COV_PATTERNS,
    ab_bijection_check,
    brute_first_moment,
    brute_second_moment,
    covariance_bound,
    exact_covariance,
    exact_first_moment,
    exact_joint_variance,
    exact_second_moment,
    mc_covariance,
    mc_covariances,
    mc_shadows_per_trial,
    shadow_pair_traces,
)
from shadowlab.observables import random_projector_observable, random_signature_observable


def rand_rho(d, seed):
    return density(sample_haar_state(d, RngStream(seed)))


def test_exact_first_moment_values():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = exact_first_moment(rho, 1, 2)
    assert np.abs(out - np.diag([2 / 3, 1 / 3])).max() < 1e-12
    assert np.abs(exact_first_moment(rho, 0, 2) - np.eye(2) / 2).max() < 1e-12


def test_exact_first_moment_trace_one():
    for d, s in ((2, 1), (3, 4), (5, 10)):
        rho = rand_rho(d, d * 100 + s)
        assert abs(np.trace(exact_first_moment(rho, s, d)).real - 1) < 1e-12


def test_first_moment_rejects_mixed():
    with pytest.raises(ValueError):
        exact_first_moment(np.eye(2) / 2, 1, 2)


def test_moments_reject_idempotents_that_are_not_states():
    # 0 and I satisfy rho^2 = rho without unit trace; the oblique projector
    # [[1, 1], [0, 0]] has trace 1 but is not Hermitian
    I = np.eye(2, dtype=complex)
    for rho in (np.zeros((2, 2), dtype=complex), I, np.array([[1, 1], [0, 0]], dtype=complex)):
        with pytest.raises(ValueError):
            exact_first_moment(rho, 1, 2)
        with pytest.raises(ValueError):
            exact_covariance("ij_jk", rho, I, 2)


PURE = np.diag([1.0, 0.0])
SIGN = np.diag([1.0, -1.0])


@pytest.mark.parametrize(
    "rho, O",
    [
        (np.full((2, 2), np.nan), SIGN),
        (np.zeros((2, 2)), SIGN),
        (PURE, np.full((2, 2), np.nan)),
        (PURE, np.array([[0.0, 1.0], [0.0, 0.0]])),
        (PURE, np.eye(3)),
    ],
    ids=["nan", "zero", "nan-O", "non-hermitian-O", "wrong-shape-O"],
)
def test_every_entry_point_rejects_a_non_state(rho, O):
    # a bad rho fails every entry point; a bad O fails every one that takes O
    calls = [
        lambda: exact_joint_variance(rho, O, 1, 2),
        lambda: exact_covariance("ij_jk", rho, O, 2),
        lambda: covariance_bound("ij_jk", rho, O, 2),
        lambda: mc_covariance("ij_jk", rho, O, 2, 1000, RngStream(1)),
    ]
    if O is SIGN:
        calls += [
            lambda: exact_first_moment(rho, 1, 2),
            lambda: brute_first_moment(rho, 1, 2),
            lambda: exact_second_moment(rho, 1, 2),
            lambda: brute_second_moment(rho, 1, 2),
        ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("s,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (4, 2)])
def test_first_moment_formula_vs_brute(s, d):
    rho = rand_rho(d, 50 + 10 * s + d)
    dev = np.abs(exact_first_moment(rho, s, d) - brute_first_moment(rho, s, d)).max()
    assert dev < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_permutation_classes_count_every_permutation(n):
    # the first moment's buckets (keep 0) and the second's (keep 0 and 1,
    # swap pulled out) each cover S_n once
    first, second = moments._class_table(n, (0,)), moments._class_table(n, (0, 1))
    for classes in (first, second):
        assert sum(count for count, *_ in classes) == math.factorial(n)
        assert n < 5 or 4 * len(classes) < math.factorial(n)  # the grouping pays
    assert sum(count for count, swapped, *_ in second if swapped) == math.factorial(n) // 2


def test_class_table_of_s3_by_hand():
    # the identity; (0 1) and (0 2), which put one rho in 0's cycle; (1 2);
    # and the two 3-cycles, which put both there
    assert set(moments._class_table(3, (0,))) == {
        (1, False, (0,), (1, 1)),
        (2, False, (1,), (1,)),
        (1, False, (0,), (2,)),
        (2, False, (2,), ()),
    }


def test_class_table_is_built_once_per_pattern_and_immutable():
    # the pattern is (n, keep): which positions hold I rather than rho
    warm = moments._class_table(6, (0, 1))
    assert moments._class_table(6, (0, 1)) is warm
    warm_moment = brute_second_moment(rand_rho(2, 13), 4, 2)
    hits = moments._class_table.cache_info().hits
    assert np.array_equal(brute_second_moment(rand_rho(2, 13), 4, 2), warm_moment)
    assert moments._class_table.cache_info().hits == hits + 1
    moments._class_table.cache_clear()
    assert moments._class_table(6, (0, 1)) == warm
    assert np.array_equal(brute_second_moment(rand_rho(2, 13), 4, 2), warm_moment)
    assert isinstance(warm, tuple) and all(isinstance(c, tuple) for c in warm)
    assert all(
        type(v) in (int, bool) for count, swapped, kept, traced in warm
        for v in (count, swapped, *kept, *traced)
    )
    with pytest.raises(TypeError):
        warm[0][0] += 1
    with pytest.raises(TypeError):
        warm[0][2][0] = 1


def test_moments_validate_rho_without_an_eigendecomposition(monkeypatch):
    # only mc_covariances uses the state vector, so only it pays for an eigh
    rho, O = rand_rho(3, 21), np.diag([1.0, -1.0, 0.0])

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for s in (1, 3):
        exact_first_moment(rho, s, 3), brute_first_moment(rho, s, 3)
        exact_second_moment(rho, s, 3), brute_second_moment(rho, s, 3)
        exact_joint_variance(rho, O, s, 3)
    for pattern in COV_PATTERNS:
        exact_covariance(pattern, rho, O, 3), covariance_bound(pattern, rho, O, 3)
    with pytest.raises(AssertionError, match="eigh called"):
        mc_covariance("ij_jk", rho, O, 3, 1000, RngStream(1))


@pytest.mark.parametrize("s,d", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (5, 2)])
def test_grouped_brute_moments_equal_the_per_permutation_sums(s, d):
    # verify_all's (s, d) grid and one step past it
    rho = rand_rho(d, 140 + 10 * s + d)
    dev1 = np.abs(brute_first_moment(rho, s, d) - per_permutation_first_moment(rho, s, d)).max()
    dev2 = np.abs(brute_second_moment(rho, s, d) - per_permutation_second_moment(rho, s, d)).max()
    assert dev1 < 1e-12 and dev2 < 1e-12


def test_brute_first_moment_fixing_count():
    # exactly s! permutations of S_{s+1} fix position 0 and contribute the
    # identity factor
    for s in (1, 2, 3):
        count = sum(1 for pi in all_permutations(s + 1) if pi(0) == 0)
        assert count == math.factorial(s)


@pytest.mark.parametrize("s,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (4, 2)])
def test_second_moment_formula_vs_brute(s, d):
    rho = rand_rho(d, 70 + 10 * s + d)
    dev = np.abs(exact_second_moment(rho, s, d) - brute_second_moment(rho, s, d)).max()
    assert dev < 1e-10


def test_second_moment_s1_closed_form():
    for d in (2, 3, 4):
        rho = rand_rho(d, 90 + d)
        I = np.eye(d)
        swap = perm_operator(Permutation.transposition(2, 0, 1), d)
        target = (
            (np.kron(I, I) + np.kron(rho, I) + np.kron(I, rho))
            @ (np.eye(d * d) + swap)
            / ((d + 1) * (d + 2))
        )
        assert np.abs(exact_second_moment(rho, 1, d) - target).max() < 1e-12


def test_second_moment_properties():
    for s, d in ((2, 2), (1, 3), (3, 2)):
        rho = rand_rho(d, 100 + 10 * s + d)
        M2 = exact_second_moment(rho, s, d)
        assert abs(np.trace(M2).real - 1) < 1e-10
        assert np.linalg.eigvalsh(M2).min() > -1e-10  # PSD
        marg = partial_trace(M2, d, 2, keep={0})
        assert np.abs(marg - exact_first_moment(rho, s, d)).max() < 1e-10


def test_type_a_term_counts():
    # over S_{s+2} with mats (I, I, rho x s): among permutations with 0 and 1
    # in distinct cycles, I x I appears s! times, rho x I and I x rho each
    # s * s! times, rho x rho with coefficient s(s-1) ordered pairs plus the
    # half of type-B contributions folded by the bijection
    s = 3
    fix_both = sum(1 for pi in all_permutations(s + 2) if pi(0) == 0 and pi(1) == 1)
    assert fix_both == math.factorial(s)
    fix_first = sum(
        1
        for pi in all_permutations(s + 2)
        if pi(0) == 0 and pi(1) != 1 and not pi.same_cycle(0, 1)
    )
    assert fix_first == s * math.factorial(s)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ab_bijection(n):
    assert ab_bijection_check(n)
    type_a = sum(1 for pi in all_permutations(n) if not pi.same_cycle(0, 1))
    assert type_a * 2 == math.factorial(n)


def test_haar_integral_symmetric_projector():
    # kappa_s * E[psi^(x s) (psi^(x s))^dag] = sym projector, s <= 3, d = 2
    rng = RngStream(51)
    n = 30_000
    for s in (1, 2, 3):
        psis = haar_states(2, rng, n)
        acc = np.zeros((2**s, 2**s), dtype=complex)
        for chunk in np.array_split(psis, 10):
            tens = chunk
            for _ in range(s - 1):
                tens = np.einsum("ni,nj->nij", tens, chunk).reshape(chunk.shape[0], -1)
            acc += np.einsum("ni,nj->ij", tens, tens.conj())
        acc *= kappa(s, 2) / n
        assert np.abs(acc - sym_projector(s, 2)).max() < 5 * kappa(s, 2) / np.sqrt(n)


def test_single_shadow_second_moment_assembly():
    # matches (d+1)^2 E[Psi x Psi] - (d+1)(E[Psi] x I + I x E[Psi]) + I x I
    for d in (2, 3):
        rho = rand_rho(d, 110 + d)
        I = np.eye(d)
        m1 = exact_first_moment(rho, 1, d)
        m2 = exact_second_moment(rho, 1, d)
        direct = (
            (d + 1) ** 2 * m2
            - (d + 1) * (np.kron(m1, I) + np.kron(I, m1))
            + np.kron(I, I)
        )
        assert np.abs(single_shadow_second_moment(rho, d) - direct).max() < 1e-10


def test_single_shadow_second_moment_marginal_is_rho():
    for d in (2, 4):
        rho = rand_rho(d, 120 + d)
        M = single_shadow_second_moment(rho, d)
        marg = partial_trace(M, d, 2, keep={0})
        assert np.abs(marg - rho).max() < 1e-10


def test_single_shadow_second_moment_monte_carlo():
    d, n = 2, 100_000
    rng = RngStream(52)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    from shadowlab.ensembles import sample_posterior_states

    psis = sample_posterior_states(phi, 1, rng, n)
    proj = np.einsum("ni,nj->nij", psis, psis.conj())
    hat = (d + 1) * proj - np.eye(d)
    acc = np.einsum("nij,nkl->ikjl", hat, hat).reshape(d * d, d * d) / n
    assert np.abs(acc - single_shadow_second_moment(rho, d)).max() < 4 * (d + 1) ** 2 / np.sqrt(n)


def test_exact_joint_variance_vs_second_moment():
    # the scalar-trace evaluation equals the direct d^2 x d^2 contraction
    rng = RngStream(53)
    for s, d in ((1, 2), (3, 3), (7, 4)):
        rho = rand_rho(d, 130 + s + d)
        O = random_projector_observable(d, max(1, d // 2), rng).matrix
        M2 = exact_second_moment(rho, s, d)
        OO = np.kron(O, O)
        e2 = np.trace(OO @ M2).real
        e1 = np.trace(O @ exact_first_moment(rho, s, d)).real
        direct = ((d + s) / s) ** 2 * (e2 - e1**2)
        assert exact_joint_variance(rho, O, s, d) == pytest.approx(direct, abs=1e-10)


def test_exact_joint_variance_monte_carlo():
    d, s, n = 3, 4, 100_000
    rng = RngStream(54)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    O = random_projector_observable(d, 2, rng).matrix
    from shadowlab.ensembles import sample_posterior_states

    psis = sample_posterior_states(phi, s, rng, n)
    vals = (d + s) / s * np.einsum("ni,ij,nj->n", psis.conj(), O, psis).real \
        - np.trace(O).real / s
    var = vals.var(ddof=1)
    exact = exact_joint_variance(rho, O, s, d)
    assert abs(var - exact) < 5 * var * math.sqrt(2 / n)


def test_joint_variance_traceless_bound():
    # exact variance respects Tr(O0^2)/s^2 + c * ||O0^2|| / s with c <= 8
    rng = RngStream(55)
    for _ in range(20):
        d = int(rng.gen.integers(2, 6))
        s = int(rng.gen.integers(1, 20))
        rho = density(sample_haar_state(d, rng))
        O = traceless_part(random_projector_observable(d, max(1, d // 2), rng).matrix)
        tr_o2 = np.trace(O @ O).real
        norm_o2 = np.abs(np.linalg.eigvalsh(O)).max() ** 2
        bound = tr_o2 / s**2 + 8 * norm_o2 / s
        assert exact_joint_variance(rho, O, s, d) <= bound + 1e-9


def test_exact_covariance_ij_jk_closed_form():
    # ij_jk covariance = (2 - 6/(d+2)) Tr(O rho)^2
    rng = RngStream(56)
    for d in (2, 3, 4):
        rho = density(sample_haar_state(d, rng))
        O = random_projector_observable(d, max(1, d - 1), rng).matrix
        o_rho = np.trace(O @ rho).real
        expected = (2 - 6 / (d + 2)) * o_rho**2
        assert exact_covariance("ij_jk", rho, O, d) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("pattern", COV_PATTERNS)
def test_exact_covariance_matches_dense_oracle(pattern):
    # d x d traces against the d^3 x d^3 assembly, at Hermitian O that are not projectors
    rng = RngStream(65)
    for d in range(2, 7):
        for _ in range(10):
            rho = density(sample_haar_state(d, rng))
            G = rng.gen.normal(size=(d, d)) + 1j * rng.gen.normal(size=(d, d))
            O = (G + G.conj().T) / 2
            exact = exact_covariance(pattern, rho, O, d)
            assert exact == pytest.approx(dense_covariance(pattern, rho, O, d), abs=1e-10)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 24),
    kind=st.sampled_from(("hermitian", "signature", "projector")),
    sign=st.sampled_from((1.0, -1.0)),
    s=st.integers(1, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_scalar_forms_equal_the_trace_forms(seed, d, kind, sign, s):
    # the closed forms in (d, Tr O, Tr O^2, Tr(O rho), Tr(O^2 rho)) against
    # the d x d trace forms they replaced, at O of either sign
    rng = RngStream(seed)
    rho = density(sample_haar_state(d, rng))
    if kind == "hermitian":
        G = rng.gen.normal(size=(d, d)) + 1j * rng.gen.normal(size=(d, d))
        O = (G + G.conj().T) / 2
        O /= np.abs(np.linalg.eigvalsh(O)).max()
    else:
        r = int(rng.gen.integers(1, d + 1))
        make = random_signature_observable if kind == "signature" else random_projector_observable
        O = make(d, r, rng).matrix
    O = sign * O
    got = exact_joint_variance(rho, O, s, d)
    assert got == pytest.approx(trace_joint_variance(rho, O, s, d), abs=1e-10)
    for pattern in COV_PATTERNS:
        got = exact_covariance(pattern, rho, O, d)
        assert got == pytest.approx(trace_covariance(pattern, rho, O, d), abs=1e-10)
        got = covariance_bound(pattern, rho, O, d)
        assert got == pytest.approx(trace_covariance_bound(pattern, rho, O, d), abs=1e-10)


def test_exact_covariance_zero_observable():
    rho = rand_rho(3, 57)
    Z = np.zeros((3, 3), dtype=complex)
    for pattern in COV_PATTERNS:
        assert exact_covariance(pattern, rho, Z, 3) == pytest.approx(0.0, abs=1e-12)


def test_covariance_bounds_hold():
    rng = RngStream(58)
    for d in (2, 4, 8):
        for r in (1, max(1, d // 2), d):
            for _ in range(10):
                rho = density(sample_haar_state(d, rng))
                O = random_projector_observable(d, r, rng).matrix
                for pattern in COV_PATTERNS:
                    exact = exact_covariance(pattern, rho, O, d)
                    assert exact <= covariance_bound(pattern, rho, O, d) + 1e-9


@pytest.mark.parametrize("call", [
    lambda rho: exact_covariance("ij_xx", rho, np.eye(2), 2),
    lambda rho: covariance_bound("ij_xx", rho, np.eye(2), 2),
    lambda rho: mc_covariance("ij_xx", rho, np.eye(2), 2, 2000, RngStream(59)),
    lambda rho: mc_covariances(("ij_ji", "ij_xx"), rho, np.eye(2), 2, 2000, RngStream(59)),
], ids=["exact_covariance", "covariance_bound", "mc_covariance", "mc_covariances"])
def test_unknown_pattern_rejected(monkeypatch, call):
    # the sampler is a tripwire: the Monte Carlo entry points reject the
    # pattern before they draw anything
    def refuse(*args):
        raise AssertionError("sampled an unknown pattern")

    monkeypatch.setattr(moments, "stream_aligned_posterior_states", refuse)
    with pytest.raises(ValueError, match="unknown pattern 'ij_xx'"):
        call(rand_rho(2, 59))


def test_shadow_pair_traces_match_direct():
    # the factor-form kernel against the dense reference trace by trace, and
    # against per-sample shadow matrices, for a Hermitian O of both signs at
    # rank below d and at rank d
    d, n = 3, 50
    from shadowlab.ensembles import sample_posterior_states

    for r in (2, d):
        rng = RngStream(60, r)
        phi = sample_haar_state(d, rng)
        O = random_signature_observable(d, r, rng)
        a = sample_posterior_states(phi, 1, rng, n)
        b = sample_posterior_states(phi, 1, rng, n)
        pair = np.stack([a, b], axis=1)
        fast, swapped = shadow_pair_traces(O.vecs, O.evals, pair, [(0, 1), (1, 0)])
        assert np.abs(fast - dense_pair_traces(O.matrix, a, b)).max() <= 1e-12
        for i in range(n):
            sa = (d + 1) * np.outer(a[i], a[i].conj()) - np.eye(d)
            sb = (d + 1) * np.outer(b[i], b[i].conj()) - np.eye(d)
            direct = np.trace(O.matrix @ sa @ sb)
            assert abs(fast[i] - direct) < 1e-9
        # O Hermitian: the swapped pair is the conjugate, and not trivially so
        assert np.abs(swapped - fast.conj()).max() < 1e-12
        assert np.abs(fast.imag).max() > 1e-3


PLAIN_PATTERNS = ("ij_ji", "ij_ij", "distinct")  # read off the pair traces


def _plain_rows(results):
    """The plain patterns' (covariance, standard error) of results over COV_PATTERNS."""
    return np.array([results[COV_PATTERNS.index(p)] for p in PLAIN_PATTERNS])


@pytest.mark.parametrize("d", [2, 3, 8])
def test_mc_covariances_match_the_ordered_pair_loop(d):
    # the same draw as the ordered-pair reference, which forms T(j, i) on its
    # own in the standard basis; N splits unevenly over the chunks.  The
    # conditioned rows are checked against the loop in
    # test_conditioned_and_plain_covariances_agree
    N = 8209
    rng = RngStream(73, d)
    rho = density(sample_haar_state(d, rng))
    O = random_signature_observable(d, d, rng).matrix  # both signs, complex entries
    got = mc_covariances(COV_PATTERNS, rho, O, d, N, RngStream(74, d))
    ref = ordered_pair_covariances(COV_PATTERNS, rho, O, d, N, RngStream(74, d))
    assert np.abs(_plain_rows(got) - _plain_rows(ref)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_conditioned_and_plain_covariances_agree(d):
    # at d = 2 and 3, where the plain pair products resolve ij_jk and ij_kj,
    # the conditioned estimates agree with the ordered-pair loop's within 4
    # joint sigma, on independent draws, at under a quarter of their error
    N = 20_000
    rho, O = cli._covariance_instance(d, RngStream(84, d))
    patterns = ("ij_jk", "ij_kj")
    conditioned = mc_covariances(patterns, rho, O, d, N, RngStream(85, d))
    plain = ordered_pair_covariances(patterns, rho, O, d, N, RngStream(86, d))
    for pattern, (c, c_err), (p, p_err) in zip(patterns, conditioned, plain):
        assert abs(c - p) <= 4 * math.hypot(c_err, p_err), (pattern, c, p)
        assert c_err < p_err / 4, (pattern, c_err, p_err)


@pytest.mark.parametrize("patterns, outcomes, unordered", [
    (COV_PATTERNS, 4, 2),  # {0,1}, {2,3}
    (("ij_jk", "ij_kj", "ij_ji", "ij_ij"), 2, 1),  # the gate's: {0,1}
    (("ij_ji",), 2, 1),
    (("ij_jk", "ij_kj"), 1, 0),  # conditioned only
], ids=["all", "gate", "ij_ji", "conditioned"])
def test_mc_covariances_trace_each_unordered_pair_once_per_trial(
        monkeypatch, patterns, outcomes, unordered):
    # the conditioned patterns read every outcome and trace no pair; a trial
    # draws only the outcomes the plain patterns index
    drawn, rows = [], []
    stream, pair_traces = moments.stream_aligned_posterior_states, moments._pair_traces

    def counting_stream(s, rng, d, m, groups, group_rows, reduce):
        drawn.append(groups * group_rows)
        return stream(s, rng, d, m, groups, group_rows, reduce)

    def counting_traces(ct, lam, records, pairs):
        rows.append(len(records) * len(pairs))
        return pair_traces(ct, lam, records, pairs)

    monkeypatch.setattr(moments, "stream_aligned_posterior_states", counting_stream)
    monkeypatch.setattr(moments, "_pair_traces", counting_traces)
    N = 8209
    rho = rand_rho(3, 75)
    mc_covariances(patterns, rho, np.diag([1.0, -0.5, 0.0]), 3, N, RngStream(75))
    assert mc_shadows_per_trial(patterns, 3, N) == outcomes
    assert sum(drawn) == outcomes * N
    assert sum(rows) == unordered * N


@pytest.mark.parametrize("d, N", [(8, 1001), (64, 1001)])
def test_mc_covariances_do_not_depend_on_the_participant_count(monkeypatch, d, N):
    # each chunk of whole trials is traced on the participant that drew it
    # (2 chunks at d = 8, 16 at d = 64; 1 and 4 for the conditioned-only
    # request, which draws 1 outcome a trial): bit-identical at 1 and 2
    # participants, and at 8 on a pool of 7 threads that switch every
    # microsecond, where a trace written by the wrong participant or at the
    # wrong trials would differ
    rng = RngStream(80, d)
    rho = density(sample_haar_state(d, rng))
    O = random_signature_observable(d, 4, rng).matrix
    # the conditioned rows too, whose chunks' Gram matrices are summed in
    # stream order
    for patterns in (COV_PATTERNS, ("ij_jk", "ij_kj")):
        results = []
        for cores in (1, 2):
            monkeypatch.setattr(ensembles, "_cores", lambda cores=cores: cores)
            results.append(mc_covariances(patterns, rho, O, d, N, RngStream(81, d)))
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(7) as pool, monkeypatch.context() as m:
            m.setattr(ensembles, "_cores", lambda: 8)
            m.setattr(ensembles, "_pool", lambda: pool)
            sys.setswitchinterval(1e-6)
            try:
                results.append(mc_covariances(patterns, rho, O, d, N, RngStream(81, d)))
            finally:
                sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2], patterns


def test_mc_covariances_gather_a_trial_wider_than_a_chunk(monkeypatch):
    # at CHUNK_FLOATS = 64, a trial of 4 outcomes in d = 16 is a chunk of 2
    # parts: its rows are gathered before they are traced.  The covariances
    # match the ordered-pair loop on the same draw, and are bit-identical at
    # 1, 2 and 8 participants
    monkeypatch.setattr(ensembles, "CHUNK_FLOATS", 64)
    d, N = 16, 1001
    assert list(ensembles._chunks(RngStream(0), N, 4, d)[2])[0][2] == [
        (0, 2, (0, 0, 0, 0)), (2, 4, (0, 0, 0, 1))]
    rng = RngStream(82, d)
    rho = density(sample_haar_state(d, rng))
    O = random_signature_observable(d, 4, rng).matrix
    ref = ordered_pair_covariances(COV_PATTERNS, rho, O, d, N, RngStream(83, d))
    results = []
    for cores in (1, 2, 8):
        with ThreadPoolExecutor(cores - 1 or 1) as pool:
            monkeypatch.setattr(ensembles, "_cores", lambda cores=cores: cores)
            monkeypatch.setattr(ensembles, "_pool", lambda pool=pool: pool)
            results.append(mc_covariances(COV_PATTERNS, rho, O, d, N, RngStream(83, d)))
    assert results[0] == results[1] == results[2]
    assert np.abs(_plain_rows(results[0]) - _plain_rows(ref)).max() < 1e-12


def test_mc_guard_counts_the_dense_matrices_not_a_block():
    # the guard counts eight dense d x d arrays, a few MiB of traces and a
    # few chunks: d = 2048 at 50000 trials is 512 MiB of dense arrays,
    # admitted; d = 4096's are 2 GiB, and d = 8192's 8 GiB, refused
    assert mc_shadows_per_trial(COV_PATTERNS, 2048, 50_000) == 4
    for d in (4096, 8192):
        with pytest.raises(ValueError, match="MiB"):
            mc_shadows_per_trial(COV_PATTERNS, d, 1000)


def test_covariance_gate_peaks_within_the_guard_figure(monkeypatch):
    # the whole gate, its instance drawn while traced: rho, O, rho @ rho,
    # the eigh of rho and of O and O @ rho peak near five dense d x d
    # arrays (20.1 MiB at d = 512), over the two that the guard once
    # counted (10.1 MiB)
    figures = []

    def guard(nbytes, *args):
        figures.append(nbytes)
        return require_outcome_budget(nbytes, *args)

    monkeypatch.setattr(moments, "require_outcome_budget", guard)
    tracemalloc.start()
    try:
        cli._covariance_rows(COV_PATTERNS, 512, 1000, RngStream(78))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= figures[-1], (peak, figures[-1])


@pytest.mark.parametrize("pattern", COV_PATTERNS)
def test_mc_covariance_matches_exact(pattern):
    d, n = 3, 100_000
    rng = RngStream(61)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    O = random_projector_observable(d, 2, rng).matrix
    mc, stderr = mc_covariance(pattern, rho, O, d, n, rng)
    exact = exact_covariance(pattern, rho, O, d)
    assert abs(mc - exact) <= 5 * stderr


def test_mc_covariance_is_the_one_pattern_mc_covariances():
    rng = RngStream(67)
    phi = sample_haar_state(3, rng)
    rho = density(phi)
    O = random_projector_observable(3, 2, rng).matrix
    for i, pattern in enumerate(COV_PATTERNS):
        one = mc_covariance(pattern, rho, O, 3, 2000, RngStream(68, i))
        assert one == mc_covariances((pattern,), rho, O, 3, 2000, RngStream(68, i))[0]


def test_mc_covariances_match_exact_from_one_draw():
    d, n = 3, 100_000
    rng = RngStream(69)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    O = random_projector_observable(d, 2, rng).matrix
    results = mc_covariances(COV_PATTERNS, rho, O, d, n, rng)
    assert len(results) == len(COV_PATTERNS)
    for pattern, (mc, stderr) in zip(COV_PATTERNS, results):
        assert abs(mc - exact_covariance(pattern, rho, O, d)) <= 5 * stderr


def test_mc_covariance_stderr_scaling():
    d = 2
    rng = RngStream(62)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    O = random_projector_observable(d, 1, rng).matrix
    _, se1 = mc_covariance("ij_ji", rho, O, d, 20_000, rng)
    _, se2 = mc_covariance("ij_ji", rho, O, d, 80_000, rng)
    assert 0.3 < se2 / se1 < 0.8  # roughly halves at 4x the samples


def test_mc_covariance_sample_floor():
    rho = rand_rho(2, 63)
    with pytest.raises(ValueError):
        mc_covariance("ij_ji", rho, np.eye(2), 2, 10, RngStream(63))


def test_mc_covariance_outcome_memory_guard(monkeypatch):
    # 10^8 trials of distinct's 2 pair traces and its products are 4.8 GB:
    # refused before sampling, and a sampler that raises otherwise keeps a
    # broken guard from allocating
    def refuse(*args):
        raise AssertionError("sampled past the memory guard")

    monkeypatch.setattr(moments, "stream_aligned_posterior_states", refuse)
    rho = rand_rho(2, 65)
    with pytest.raises(ValueError, match="MiB"):
        mc_covariance("distinct", rho, np.eye(2), 2, 10**8, RngStream(65))


def test_mc_covariances_guard_the_shared_draw(monkeypatch):
    # ij_ji and distinct share one draw of 4 outcomes per trial; at 10^8
    # trials its 2 pair traces and the products are 4.8 GB: refused before
    # sampling, with the shared draw's 4 outcomes in the message
    def refuse(*args):
        raise AssertionError("sampled past the memory guard")

    monkeypatch.setattr(moments, "stream_aligned_posterior_states", refuse)
    rho = rand_rho(2, 70)
    with pytest.raises(ValueError, match="4 outcomes"):
        mc_covariances(("ij_ji", "distinct"), rho, np.eye(2), 2, 10**8, RngStream(70))


def test_mc_covariances_peak_near_the_shared_array():
    # one draw of 4 outcomes per trial serves all five patterns, streamed one
    # chunk per participant; the chunks, the pair traces' chunk-sized
    # temporaries and the 2 unordered pair traces (the conditioned patterns
    # hold a 5 x 5 Gram matrix per chunk) stay under 1.5 times the (N, 4, d)
    # draw that is never held whole
    d, N = 64, 20_000
    rng = RngStream(71)
    rho = density(sample_haar_state(d, rng))
    O = random_projector_observable(d, 4, rng).matrix
    tracemalloc.start()
    try:
        mc_covariances(COV_PATTERNS, rho, O, d, N, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * N * 4 * d * 16


@pytest.mark.parametrize("pattern", ["ij_ji", "distinct"])
def test_mc_covariance_peaks_near_its_outcome_array(pattern):
    # the outcomes are streamed one chunk per participant; the chunks, the
    # pair traces' chunk-sized temporaries and the pair traces stay under
    # 1.5 times the (N, n_shadows, d) draw that is never held whole
    d, N = 64, 20_000
    n_shadows = 2 if pattern == "ij_ji" else 4
    rng = RngStream(66)
    rho = density(sample_haar_state(d, rng))
    O = random_projector_observable(d, 4, rng).matrix
    tracemalloc.start()
    try:
        mc_covariance(pattern, rho, O, d, N, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * N * n_shadows * d * 16


def test_mc_covariances_hold_no_block(monkeypatch):
    # the records are streamed and traced one chunk per participant, so the
    # peak is the 2 unordered pair traces and the product buffer, (2 + 1) N
    # complex, plus at most 4 chunks' floats per participant (measured at 2
    # participants: 2.53 MB, 0.96 MB over the arrays, against a 4.19 MB
    # bound that still counts the 3 pair traces the draw once held).  The
    # trials' records are 134 MB, and 4096 trials of them 16.8 MB, over the
    # bound
    monkeypatch.setattr(ensembles, "_cores", lambda: 2)
    d, N = 64, 32768
    rng = RngStream(76)
    rho = density(sample_haar_state(d, rng))
    O = random_projector_observable(d, 4, rng).matrix
    tracemalloc.start()
    try:
        mc_covariances(COV_PATTERNS, rho, O, d, N, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (3 + 1) * N * 16 + 2 * 4 * CHUNK_FLOATS * 8, peak


def test_mc_covariances_peak_within_the_guard_figure(monkeypatch):
    # the figure mc_shadows_per_trial checks is what mc_covariances holds:
    # the traces, one pattern's products, the dense rho and O, and four
    # chunks per participant; tracemalloc's peak stays within it
    figures = []

    def guard(nbytes, *args):
        figures.append(nbytes)
        return require_outcome_budget(nbytes, *args)

    monkeypatch.setattr(moments, "require_outcome_budget", guard)
    d = 64
    rng = RngStream(77)
    rho = density(sample_haar_state(d, rng))
    O = random_projector_observable(d, 4, rng).matrix
    for N in (8192, 32768):
        tracemalloc.start()
        try:
            mc_covariances(COV_PATTERNS, rho, O, d, N, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= figures[-1], (N, peak, figures[-1])


def test_enumeration_budget_guard():
    rho = rand_rho(2, 64)
    with pytest.raises(ValueError):
        brute_first_moment(rho, 9, 2)  # 10! > budget
    with pytest.raises(ValueError):
        brute_second_moment(rho, 8, 2)
