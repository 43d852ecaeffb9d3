"""Exact moment and covariance formulas with brute-force cross-checks.

Closed forms for the first and second moments of the joint-measurement
outcome, and the four covariance patterns of the quadratic estimator's
variance as traces of d x d products.  Each is paired with an independent
evaluation: a permutation-sum enumeration (cost (s+2)! * poly(d), driven by
cycle decomposition rather than d^s storage) or a Monte Carlo sampler.  A
non-pure rho, or an O that is not finite, Hermitian and d x d, is a ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import (
    BLOCK_ROWS,
    RngStream,
    phi_basis,
    pure_state_vector,
    require_outcome_budget,
    sample_aligned_posterior_states,
)
from .linalg import (
    Permutation,
    all_permutations,
    hermitize,
    is_hermitian,
    kappa,
    perm_operator,
    sym_projector,
)

# Brute-force enumeration cap; these oracles are test-only.
ENUM_BUDGET = 1_000_000

COV_PATTERNS = ("ij_jk", "ij_kj", "ij_ji", "ij_ij", "distinct")


def _check_observable(O: np.ndarray, d: int) -> None:
    """Raise ValueError unless O is a finite Hermitian d x d matrix; NaN fails too."""
    O = np.asarray(O)
    if not (O.shape == (d, d) and np.isfinite(O).all() and is_hermitian(O)):
        raise ValueError(f"observable must be a finite Hermitian {d} x {d} matrix")


def exact_first_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """E[Psi] = (I + s rho)/(d + s) for the joint measurement on s copies."""
    pure_state_vector(rho)
    return (np.eye(d) + s * rho) / (d + s)


def _cycle_product(mats, cycle) -> np.ndarray:
    """Product of mats along one cycle, in reverse traversal order."""
    d = mats[0].shape[0]
    prod = np.eye(d, dtype=complex)
    for p in cycle:
        prod = mats[p] @ prod
    return prod


def _perm_trace_keep(pi: Permutation, mats, keep: tuple[int, ...]):
    """Tr over all factors except keep of W_pi (A_0 x ... x A_{n-1}).

    Requires every kept position to lie in its own cycle of pi.  Returns
    (list of per-kept-position matrices in keep order, scalar from the fully
    traced cycles).
    """
    kept_mats = {}
    scalar = 1.0 + 0j
    for cycle in pi.cycles():
        hits = [p for p in keep if p in cycle]
        if len(hits) > 1:
            raise ValueError("kept positions share a cycle; factorization invalid")
        # traverse from the kept position if there is one
        if hits:
            start = hits[0]
            order = [start]
            j = pi(start)
            while j != start:
                order.append(j)
                j = pi(j)
            kept_mats[start] = _cycle_product(mats, order)
        else:
            scalar *= np.trace(_cycle_product(mats, cycle))
    return [kept_mats[p] for p in keep], scalar


def brute_first_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """Permutation-sum evaluation of E[Psi] over all of S_{s+1}."""
    pure_state_vector(rho)
    if math.factorial(s + 1) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    mats = [np.eye(d, dtype=complex)] + [rho.astype(complex)] * s
    total = np.zeros((d, d), dtype=complex)
    for pi in all_permutations(s + 1):
        (m0,), scalar = _perm_trace_keep(pi, mats, (0,))
        total += scalar * m0
    total *= kappa(s, d) / kappa(s + 1, d) / math.factorial(s + 1)
    return hermitize(total)


def exact_second_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """E[Psi x Psi] on C^(d^2) for the joint measurement on s copies."""
    pure_state_vector(rho)
    I = np.eye(d)
    a = I + s * rho
    M = np.kron(a, a) - (s * (s + 1) / 2) * np.kron(rho, rho)
    out = (2 / ((d + s) * (d + s + 1))) * (M @ sym_projector(2, d))
    return hermitize(out)


def brute_second_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """Permutation-sum evaluation of E[Psi x Psi] over all of S_{s+2}.

    Permutations with positions 0 and 1 in distinct cycles factorize
    directly; the others are handled by pulling a swap of the two kept
    factors out of the partial trace.
    """
    pure_state_vector(rho)
    if math.factorial(s + 2) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    mats = [np.eye(d, dtype=complex)] * 2 + [rho.astype(complex)] * s
    swap = perm_operator(Permutation.transposition(2, 0, 1), d)
    tau = Permutation.transposition(s + 2, 0, 1)
    total = np.zeros((d * d, d * d), dtype=complex)
    for pi in all_permutations(s + 2):
        if pi.same_cycle(0, 1):
            # W_pi = W_(01) W_pi' with pi' = (01) pi having 0, 1 in
            # distinct cycles; the swap acts only on the kept factors.
            pi2 = tau.compose(pi)
            (m0, m1), scalar = _perm_trace_keep(pi2, mats, (0, 1))
            total += scalar * (swap @ np.kron(m0, m1))
        else:
            (m0, m1), scalar = _perm_trace_keep(pi, mats, (0, 1))
            total += scalar * np.kron(m0, m1)
    total *= kappa(s, d) / kappa(s + 2, d) / math.factorial(s + 2)
    return hermitize(total)


def ab_bijection_check(n: int) -> bool:
    """Whether left-multiplying by the transposition (0 1) swaps the classes
    {0,1 in distinct cycles} and {0,1 in the same cycle} bijectively on S_n."""
    if math.factorial(n) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    tau = Permutation.transposition(n, 0, 1)
    type_a = 0
    for pi in all_permutations(n):
        a = not pi.same_cycle(0, 1)
        if a:
            type_a += 1
        if a == (not tau.compose(pi).same_cycle(0, 1)):
            return False
    return type_a * 2 == math.factorial(n)


def exact_joint_variance(rho: np.ndarray, O: np.ndarray, s: int, d: int) -> float:
    """Exact Var(Tr(O rhohat)) for the affine joint shadow, in dimension d.

    Contracting the second-moment closed form against O x O reduces to
    traces of d x d products, so this stays cheap even when d^2 matrices
    would not.
    """
    pure_state_vector(rho)
    _check_observable(O, d)
    a = O @ (np.eye(d) + s * rho)
    o_rho = np.trace(O @ rho).real
    cross = np.trace(O @ rho @ O @ rho).real  # = Tr(O rho)^2 for pure rho
    term_plain = np.trace(a).real ** 2 - (s * (s + 1) / 2) * o_rho**2
    term_swap = np.trace(a @ a).real - (s * (s + 1) / 2) * cross
    e2 = (term_plain + term_swap) / ((d + s) * (d + s + 1))
    e1 = (np.trace(O).real + s * o_rho) / (d + s)
    return float(((d + s) / s) ** 2 * (e2 - e1**2))


def _pattern_indices(pattern: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Shadow indices (first trace, second trace) for each covariance pattern."""
    table = {
        "ij_jk": ((0, 1), (1, 2)),
        "ij_kj": ((0, 1), (2, 1)),
        "ij_ji": ((0, 1), (1, 0)),
        "ij_ij": ((0, 1), (0, 1)),
        "distinct": ((0, 1), (2, 3)),
    }
    if pattern not in table:
        raise ValueError(f"unknown pattern {pattern!r}; one of {COV_PATTERNS}")
    return table[pattern]


def exact_covariance(pattern: str, rho: np.ndarray, O: np.ndarray, d: int) -> float:
    """Exact Cov(Tr(O rhohat_i rhohat_j), Tr(O rhohat_k rhohat_l)) per pattern.

    A single-copy shadow has E[rhohat x rhohat] = (I x I + I x rho + rho x I)
    (c SWAP - e I), c = (d+1)/(d+2), e = 1/(d+2); each pattern contracts it in
    d x d products through M(A) = E[Tr(A rhohat) rhohat], S(Q) = E[rhohat Q rhohat].
    """
    pure_state_vector(rho)
    _check_observable(O, d)
    _pattern_indices(pattern)
    if pattern == "distinct":
        return 0.0
    tr, I = np.trace, np.eye(d)
    c, e = (d + 1) / (d + 2), 1 / (d + 2)

    def M(A):
        return c * (A + rho @ A + A @ rho) - e * (tr(A) * (I + rho) + tr(A @ rho) * I)

    def S(Q):
        return c * (tr(Q) * (I + rho) + tr(Q @ rho) * I) - e * (Q + Q @ rho + rho @ Q)

    o_rho, rho_o, m = O @ rho, rho @ O, M(O)
    if pattern == "ij_jk":
        val = tr(o_rho @ M(o_rho))
    elif pattern == "ij_kj":
        val = tr(rho_o @ M(o_rho))
    elif pattern == "ij_ji":
        val = c * (tr(O @ S(O + rho_o)) + tr(rho_o @ S(O))) - e * tr((O + 2 * rho_o) @ m)
    else:  # ij_ij
        val = c * (tr((I + rho) @ S(O @ O)) + tr(S(O @ rho_o))) - e * tr((O + o_rho + rho_o) @ m)
    return float(val.real - tr(o_rho).real ** 2)


def covariance_bound(pattern: str, rho: np.ndarray, O: np.ndarray, d: int) -> float:
    """Closed-form upper bound on the covariance for each pattern."""
    pure_state_vector(rho)
    _check_observable(O, d)
    _pattern_indices(pattern)
    o_norm2 = float(np.abs(np.linalg.eigvalsh(O)).max() ** 2)
    tr_o2 = float(np.trace(O @ O).real)
    if pattern == "ij_jk":
        return 2 * float(np.trace(O @ rho).real ** 2)
    if pattern == "ij_kj":
        return 2 * float(np.trace(O @ O @ rho).real)
    if pattern == "ij_ji":
        return d * tr_o2 + 6 * math.sqrt(d * tr_o2) + o_norm2
    if pattern == "ij_ij":
        return (d + 2) * tr_o2 + (3 * d - 2) * o_norm2
    return 0.0  # distinct


def shadow_pair_traces(O: np.ndarray, psi_i: np.ndarray, psi_j: np.ndarray) -> np.ndarray:
    """Vectorized Tr(O rhohat_i rhohat_j) from single-copy outcome vectors.

    psi_i, psi_j have shape (n, d); expanding the shadows (d+1)|psi><psi| - I
    reduces each trace to inner products, avoiding per-sample matrices.
    """
    d = O.shape[0]
    # rows <psi|O> as BLAS products, then row-wise dots
    o_ii = np.einsum("ni,ni->n", psi_i.conj() @ O, psi_i)
    bra_oj = psi_j.conj() @ O
    o_jj = np.einsum("ni,ni->n", bra_oj, psi_j)
    o_ji = np.einsum("ni,ni->n", bra_oj, psi_i)
    ov_ij = np.einsum("ni,ni->n", psi_i.conj(), psi_j)
    tr_o = np.trace(O)
    return (d + 1) ** 2 * o_ji * ov_ij - (d + 1) * (o_ii + o_jj) + tr_o


def mc_covariance(
    pattern: str, rho: np.ndarray, O: np.ndarray, d: int, N: int, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo covariance for a pattern, with its standard error.

    Independent cross-check of exact_covariance: draws fresh single-copy
    outcomes and forms the two trace variables directly.  The outcomes are
    phi-aligned records, so O is rotated into their basis once; the traces
    are basis-invariant.  The N x n_shadows x d outcome array is held whole,
    so one larger than ensembles.MAX_OUTCOME_BYTES is a ValueError before
    anything is sampled; the traces run over BLOCK_ROWS trials at a time.
    """
    if N < 1000:
        raise ValueError("need N >= 1000 for a stable covariance estimate")
    phi = pure_state_vector(rho)
    _check_observable(O, d)
    (a, b), (c, e) = _pattern_indices(pattern)
    n_shadows = max(a, b, c, e) + 1
    require_outcome_budget(
        N * n_shadows * d * 16, f"{pattern}: {N} trials x {n_shadows} outcomes x d = {d}",
        "use fewer trials",
    )
    psis = np.empty((N * n_shadows, d), dtype=complex)
    psis = sample_aligned_posterior_states(1, rng, psis, d).reshape(N, n_shadows, d)
    q = phi_basis(phi)
    o_q = q.conj().T @ O @ q
    x, y = np.empty(N, dtype=complex), np.empty(N, dtype=complex)
    for lo in range(0, N, BLOCK_ROWS):
        blk = psis[lo:lo + BLOCK_ROWS]
        x[lo:lo + BLOCK_ROWS] = shadow_pair_traces(o_q, blk[:, a], blk[:, b])
        y[lo:lo + BLOCK_ROWS] = shadow_pair_traces(o_q, blk[:, c], blk[:, e])
    prods = (x - x.mean()) * (y - y.mean()).conj()
    cov = prods.mean().real
    stderr = float(prods.real.std(ddof=1) / math.sqrt(N))
    return float(cov), stderr
