import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _perm_trace_keep, partial_trace
from shadowlab.linalg import (
    DIM_BUDGET,
    Permutation,
    all_permutations,
    density,
    kappa,
    perm_operator,
    sym_projector,
    trace_distance,
)

RNG = np.random.default_rng(1234)


def random_complex(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


def random_pure(d):
    v = RNG.standard_normal(d) + 1j * RNG.standard_normal(d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- permutations


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_compose_inverse():
    pi = Permutation((2, 0, 1, 3))
    assert pi.compose(pi.inverse()).images == (0, 1, 2, 3)
    assert pi.inverse().compose(pi).images == (0, 1, 2, 3)


def test_permutation_cycles():
    pi = Permutation((1, 0, 3, 4, 2))
    assert pi.cycles() == [(0, 1), (2, 3, 4)]
    assert pi.same_cycle(2, 4)
    assert not pi.same_cycle(0, 2)


@given(st.integers(2, 5), st.integers(0, 100))
def test_permutation_composition_is_associative(n, salt):
    rng = np.random.default_rng(salt)
    a, b, c = (Permutation(tuple(rng.permutation(n))) for _ in range(3))
    assert a.compose(b).compose(c).images == a.compose(b.compose(c)).images


def test_perm_operator_identity():
    W = perm_operator(Permutation(tuple(range(3))), 2)
    assert np.array_equal(W, np.eye(8))


def test_perm_operator_swap_on_basis():
    # |01> (index 1) must map to |10> (index 2)
    W = perm_operator(Permutation.transposition(2, 0, 1), 2)
    e01 = np.zeros(4)
    e01[1] = 1
    out = W @ e01
    assert out[2] == 1 and np.count_nonzero(out) == 1


def test_perm_operator_is_homomorphism():
    # W_sigma W_tau = W_{sigma tau} for a handful of random pairs
    rng = np.random.default_rng(7)
    for _ in range(10):
        sigma = Permutation(tuple(rng.permutation(3)))
        tau = Permutation(tuple(rng.permutation(3)))
        lhs = perm_operator(sigma, 2) @ perm_operator(tau, 2)
        rhs = perm_operator(sigma.compose(tau), 2)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_perm_operator_budget():
    with pytest.raises(ValueError, match="exceeds budget"):
        perm_operator(Permutation(tuple(range(8))), 5)  # 5^8 > DIM_BUDGET
    assert DIM_BUDGET == 10_000


@pytest.mark.parametrize("s,d", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_trace_of_perm_operator_counts_cycles(s, d):
    for pi in all_permutations(s):
        expected = d ** len(pi.cycles())
        assert abs(np.trace(perm_operator(pi, d)).real - expected) < 1e-10


# ------------------------------------------------------- symmetric projectors


def test_sym_projector_s1_is_identity():
    assert np.abs(sym_projector(1, 4) - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize(
    "s,d,expected", [(2, 2, 3), (3, 3, 10), (2, 3, 6), (3, 2, 4)]
)
def test_sym_projector_trace_is_kappa(s, d, expected):
    assert kappa(s, d) == expected == math.comb(s + d - 1, d - 1)
    P = sym_projector(s, d)
    assert abs(np.trace(P).real - expected) < 1e-9
    assert np.abs(P @ P - P).max() < 1e-10


def test_sym_projector_commutes_with_perm_operators():
    for s, d in ((2, 2), (3, 2), (2, 3)):
        P = sym_projector(s, d)
        for pi in all_permutations(s):
            W = perm_operator(pi, d)
            assert np.abs(P @ W - W @ P).max() < 1e-10


# --------------------------------------------------------------- partial trace


def test_partial_trace_of_product_state():
    rho = density(random_pure(3))
    sigma = random_complex(3)
    out = partial_trace(np.kron(rho, sigma), 3, 2, keep={0})
    assert np.abs(out - rho * np.trace(sigma)).max() < 1e-12


def test_partial_trace_keep_all_and_none():
    M = random_complex(4)  # d=2, s=2
    assert np.abs(partial_trace(M, 2, 2, keep={0, 1}) - M).max() == 0
    assert abs(partial_trace(M, 2, 2, keep=set()) - np.trace(M)) < 1e-12


def test_partial_trace_preserves_trace():
    M = random_complex(8)
    for keep in ({0}, {1}, {2}, {0, 2}):
        red = partial_trace(M, 2, 3, keep)
        assert abs(np.trace(red) - np.trace(M)) < 1e-10


def test_partial_trace_index_range():
    with pytest.raises(IndexError):
        partial_trace(random_complex(4), 2, 2, keep={2})


def test_swap_product_partial_trace_identity():
    # Tracing out the first factor of (A x B) W_swap leaves B A on the
    # second; tracing out the second factor of W_swap (A x B) does the same
    # on the first.
    A, B = random_complex(2), random_complex(2)
    W = perm_operator(Permutation.transposition(2, 0, 1), 2)
    assert np.abs(partial_trace(np.kron(A, B) @ W, 2, 2, {1}) - B @ A).max() < 1e-12
    assert np.abs(partial_trace(W @ np.kron(A, B), 2, 2, {0}) - B @ A).max() < 1e-12
    # and the other pairings give A B
    assert np.abs(partial_trace(np.kron(A, B) @ W, 2, 2, {0}) - A @ B).max() < 1e-12
    assert np.abs(partial_trace(W @ np.kron(A, B), 2, 2, {1}) - A @ B).max() < 1e-12


# ----------------------------------------------------------------- cycle trace
# oracles._perm_trace_keep, the cycle-by-cycle evaluation the per-permutation
# moment references run on, against the dense W_pi (A_0 x ... x A_{n-1}).


def test_cycle_trace_identity_matrices():
    pi = Permutation((1, 2, 0))
    kept, scalar = _perm_trace_keep(pi, [np.eye(2, dtype=complex)] * 3, ())
    assert kept == [] and abs(scalar - 2) < 1e-12  # one cycle -> Tr I = d
    (m0,), scalar = _perm_trace_keep(pi, [np.eye(2, dtype=complex)] * 3, (1,))
    assert np.abs(m0 - np.eye(2)).max() < 1e-12 and scalar == 1


def test_cycle_trace_diagonal_example():
    # three copies of diag(1,2) along a 3-cycle: full trace is Tr(A^3) = 9
    A = np.diag([1.0, 2.0]).astype(complex)
    _, scalar = _perm_trace_keep(Permutation((1, 2, 0)), [A, A, A], ())
    assert abs(scalar - 9) < 1e-12


def test_cycle_trace_matches_dense_partial_trace():
    # every pi in S_3: a kept position inside a 2- or 3-cycle or a fixed
    # point, and the fully traced scalar
    rng = np.random.default_rng(11)
    for _ in range(3):
        mats = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        ]
        for pi in all_permutations(3):
            M = perm_operator(pi, 2) @ reduce(np.kron, mats)
            _, scalar = _perm_trace_keep(pi, mats, ())
            assert abs(scalar - partial_trace(M, 2, 3, ())) < 1e-10
            for p in range(3):
                (m,), scalar = _perm_trace_keep(pi, mats, (p,))
                assert np.abs(scalar * m - partial_trace(M, 2, 3, {p})).max() < 1e-10


def test_cycle_trace_two_factor_case():
    A, B = random_complex(3), random_complex(3)
    pi = Permutation((1, 0))
    dense = partial_trace(perm_operator(pi, 3) @ np.kron(A, B), 3, 2, {0})
    (m0,), scalar = _perm_trace_keep(pi, [A, B], (0,))
    assert scalar == 1
    assert np.abs(m0 - dense).max() < 1e-10
    assert np.abs(m0 - B @ A).max() < 1e-10


def test_perm_trace_keep_rejects_shared_cycle():
    # two kept positions on one cycle do not factor into per-position matrices
    with pytest.raises(ValueError):
        _perm_trace_keep(Permutation((1, 0)), [np.eye(2)] * 2, (0, 1))


# ------------------------------------------------------------------- distances


def test_trace_distance_basics():
    rho = density(np.array([1, 0], dtype=complex))
    sigma = density(np.array([0, 1], dtype=complex))
    assert trace_distance(rho, rho) == 0
    assert abs(trace_distance(rho, sigma) - 1) < 1e-12


def test_trace_distance_pure_state_fidelity_relation():
    # half trace norm equals sqrt(1 - overlap) for pure states;
    # |0> vs |+> gives sqrt(1/2)
    zero = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    td = trace_distance(density(zero), density(plus))
    assert abs(td - math.sqrt(0.5)) < 1e-12
    for _ in range(20):
        a, b = random_pure(4), random_pure(4)
        td = trace_distance(density(a), density(b))
        assert abs(td - math.sqrt(1 - abs(np.vdot(a, b)) ** 2)) < 1e-9


def test_trace_distance_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_distance(random_complex(2), np.eye(2))


@given(st.integers(0, 1000))
@settings(max_examples=40)
def test_trace_distance_metric_properties(salt):
    rng = np.random.default_rng(salt)

    def rand_density():
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        return density(v / np.linalg.norm(v))

    a, b, c = rand_density(), rand_density(), rand_density()
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-9
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9

