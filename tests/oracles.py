"""Reference implementations that the tests compare the library against.

The outcome sampler below is the two-Gamma, complement-resampling sampler
that shadowlab.ensembles.sample_posterior_states replaced.  It draws the
same law through a different construction, so two-sample tests between the
two check the one-draw sampler without sharing its code.

The dense shadows are the d x d matrix forms of the single-copy estimators
that shadowlab.estimators.BatchReduction evaluates from outcome rows alone,
and partial_trace is the dense reduction the moment oracles avoid.

single_shadow_second_moment and dense_covariance assemble the covariance
patterns from d^2 x d^2 and d^3 x d^3 operators.  trace_joint_variance,
trace_covariance and trace_covariance_bound are the same quantities as
traces of d x d products, the form shadowlab.moments used before it reduced
each to closed forms in d and four scalars of (rho, O).

observable_from_matrix factors a dense Hermitian matrix into the spectral
form shadowlab.observables.Observable stores; the library itself never
builds an observable from a dense matrix.

per_permutation_first_moment and per_permutation_second_moment are the
permutation sums that shadowlab.moments.brute_first_moment and
brute_second_moment evaluate once per class of permutations: here every
permutation is evaluated on its own, by walking its cycles with
_perm_trace_keep, which multiplies the matrices it reads, rather than
through the library's class tables and powers of rho.

haar_states is the batched Haar draw that sample_haar_state makes one row of.

ordered_pair_covariances is the Monte Carlo covariance loop that
shadowlab.moments.mc_covariances replaced: on the same draw it forms every
ordered trace variable T(i, j) = Tr(O rhohat_i rhohat_j) on its own, from
the library's stream of outcomes, one trial a group, reflected back to the
standard basis, where the library forms one per
unordered pair in the phi-aligned basis, chunk by chunk through O's factor,
and reads T(j, i) as conj T(i, j).  dense_pair_traces is the library's
former pair-trace kernel, on the dense O.

aligned_records collects the library's stream of phi-aligned records, at
any width, into one array, as sample_posterior_states does at full width
before it reflects them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import math

import numpy as np

from shadowlab.ensembles import (
    RngStream,
    pure_state_vector,
    reflect,
    stream_aligned_posterior_states,
)
from shadowlab.estimators import UNIT_NORM_TOL
from shadowlab.linalg import (
    Permutation,
    all_permutations,
    hermitize,
    is_hermitian,
    kappa,
    perm_operator,
    sym_projector,
)
from shadowlab.moments import COV_PATTERNS
from shadowlab.observables import Observable


def haar_states(d: int, rng: RngStream, n: int) -> np.ndarray:
    """n Haar-random unit vectors in C^d, shape (n, d): the draw
    shadowlab.ensembles.sample_haar_state makes at n = 1, row-normalised the
    same way, so a seed gives the same vectors."""
    z = rng.gen.standard_normal((n, d)) + 1j * rng.gen.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def _sample_overlaps(s: int, d: int, rng: RngStream, n: int):
    """Vectorized (t, theta) arrays for the outcome overlap law."""
    # t = G1/(G1+G2) with G1 ~ Gamma(s+1), G2 ~ Gamma(d-1) is an exact
    # (non-rejection) Beta(s+1, d-1) sampler for any s, d.
    g1 = rng.gen.gamma(s + 1, size=n)
    g2 = rng.gen.gamma(d - 1, size=n)
    t = g1 / (g1 + g2)
    theta = rng.gen.uniform(0.0, 2 * np.pi, size=n)
    return t, theta


def _orthogonal_complement_states(phi: np.ndarray, rng: RngStream, n: int) -> np.ndarray:
    """Haar-random unit vectors orthogonal to phi; shape (n, d)."""
    d = phi.shape[0]
    if d < 2:
        raise ValueError("orthogonal complement is empty for d < 2")
    out = np.empty((n, d), dtype=complex)
    todo = np.arange(n)
    while todo.size:
        raw = haar_states(d, rng, todo.size)
        raw -= np.outer(raw @ phi.conj(), phi)
        norms = np.linalg.norm(raw, axis=1)
        ok = norms > 1e-12
        out[todo[ok]] = raw[ok] / norms[ok, None]
        todo = todo[~ok]  # measure-zero event; resample
    return out


def sample_posterior_states(phi: np.ndarray, s: int, rng: RngStream, size: int) -> np.ndarray:
    """size outcomes of the joint measurement on phi^(x s); shape (size, d)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    d = phi.shape[0]
    t, theta = _sample_overlaps(s, d, rng, size)
    chi = _orthogonal_complement_states(phi, rng, size)
    amp = np.exp(1j * theta) * np.sqrt(t)
    return amp[:, None] * phi[None, :] + np.sqrt(1 - t)[:, None] * chi


def observable_from_matrix(matrix: np.ndarray) -> Observable:
    """Factor a dense Hermitian matrix with one eigh, keeping every eigenpair."""
    if not is_hermitian(matrix):
        raise ValueError("observable must be Hermitian")
    evals, vecs = np.linalg.eigh(matrix)
    return Observable(vecs=vecs, evals=evals)


def single_copy_shadow(psi: np.ndarray) -> np.ndarray:
    """Unbiased shadow (d+1) |psi><psi| - I from one single-copy outcome row."""
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("outcome state must be unit norm")
    d = psi.shape[0]
    return (d + 1) * np.outer(psi, np.conj(psi)) - np.eye(d)


def linear_mean_shadow(singles: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of single-copy shadow matrices (the plain linear estimator)."""
    if not len(singles):
        raise ValueError("need at least one single-copy shadow")
    return sum(singles) / len(singles)


def quadratic_shadow(singles: Sequence[np.ndarray]) -> np.ndarray:
    """Average of rho_i rho_j over ordered pairs i != j of single-copy shadow matrices.

    Computed as (S^2 - Q)/(s(s-1)) with S = sum_i rho_i and Q = sum_i rho_i^2,
    which is algebraically identical to the pair sum; unbiased for pure rho.
    """
    s = len(singles)
    if s < 2:
        raise ValueError("quadratic estimator needs at least 2 single-copy shadows")
    S = sum(singles)
    Q = sum(m @ m for m in singles)
    return (S @ S - Q) / (s * (s - 1))


def partial_trace(M: np.ndarray, d: int, s: int, keep: Iterable[int]):
    """Trace out all tensor factors of M on (C^d)^s except those in keep.

    keep is a set of 0-based positions.  An empty keep returns the scalar
    trace; otherwise the result is a matrix on the kept factors, in
    ascending position order.
    """
    keep = sorted(set(keep))
    if any(p < 0 or p >= s for p in keep):
        raise IndexError(f"keep positions {keep} out of range for s={s}")
    dim = d**s
    if M.shape != (dim, dim):
        raise ValueError(f"expected {dim}x{dim} matrix, got {M.shape}")
    if not keep:
        return complex(np.trace(M))
    T = M.reshape((d,) * (2 * s))
    # Row index of factor p is axis p, column index is axis s + p.
    row_sub = list(range(s))
    col_sub = [s + p if p in keep else p for p in range(s)]
    out_sub = [p for p in keep] + [s + p for p in keep]
    res = np.einsum(T, row_sub + col_sub, out_sub)
    k = len(keep)
    return res.reshape(d**k, d**k)


def traceless_part(O: np.ndarray) -> np.ndarray:
    """O - Tr(O) I/d; satisfies Tr(result^2) = Tr(O^2) - Tr(O)^2/d."""
    d = O.shape[0]
    return O - (np.trace(O).real / d) * np.eye(d)


def single_shadow_second_moment(rho: np.ndarray, d: int) -> np.ndarray:
    """E[rhohat x rhohat] for one single-copy shadow rhohat = (d+1) Psi - I."""
    pure_state_vector(rho)
    I = np.eye(d)
    pre = np.kron(I, I) + np.kron(I, rho) + np.kron(rho, I)
    swap = perm_operator(Permutation.transposition(2, 0, 1), d)
    post = swap - (2 / (d + 2)) * sym_projector(2, d)
    return hermitize(pre @ post)  # Hermitian in exact arithmetic


def dense_covariance(pattern: str, rho: np.ndarray, O: np.ndarray, d: int) -> float:
    """Exact Cov(Tr(O rhohat_i rhohat_j), Tr(O rhohat_k rhohat_l)) per pattern.

    Assembled from the single-shadow second moment and first moments; the
    fully-repeated pattern uses a three-factor swap identity to decouple the
    two second moments.
    """
    pure_state_vector(rho)
    if pattern == "distinct":
        return 0.0
    if pattern not in COV_PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    I = np.eye(d)
    OO = np.kron(O, O)
    m2 = single_shadow_second_moment(rho, d)
    o_rho2 = np.trace(O @ rho).real ** 2
    if pattern == "ij_jk":
        val = np.trace(OO @ np.kron(rho, rho) @ m2)
    elif pattern == "ij_kj":
        val = np.trace(OO @ np.kron(rho, I) @ m2 @ np.kron(I, rho))
    elif pattern == "ij_ji":
        val = np.trace(OO @ m2 @ m2)
    else:  # ij_ij
        w13 = perm_operator(Permutation((2, 1, 0)), d)
        big = np.kron(np.kron(O, O), I) @ np.kron(I, m2) @ np.kron(m2, I) @ w13
        val = np.trace(big)
    assert abs(val.imag) < 1e-8 * max(abs(val), 1.0)
    return float(val.real - o_rho2)


def trace_joint_variance(rho: np.ndarray, O: np.ndarray, s: int, d: int) -> float:
    """Var(Tr(O rhohat)) for the affine joint shadow, as traces of d x d products."""
    a = O @ (np.eye(d) + s * rho)
    o_rho = np.trace(O @ rho).real
    cross = np.trace(O @ rho @ O @ rho).real
    term_plain = np.trace(a).real ** 2 - (s * (s + 1) / 2) * o_rho**2
    term_swap = np.trace(a @ a).real - (s * (s + 1) / 2) * cross
    e2 = (term_plain + term_swap) / ((d + s) * (d + s + 1))
    e1 = (np.trace(O).real + s * o_rho) / (d + s)
    return float(((d + s) / s) ** 2 * (e2 - e1**2))


def trace_covariance(pattern: str, rho: np.ndarray, O: np.ndarray, d: int) -> float:
    """dense_covariance's patterns, contracted through M(A) = E[Tr(A rhohat) rhohat]
    and S(Q) = E[rhohat Q rhohat] in d x d products."""
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


def trace_covariance_bound(pattern: str, rho: np.ndarray, O: np.ndarray, d: int) -> float:
    """The covariance bounds, with Tr(O rho), Tr(O^2 rho) and Tr(O^2) as traces."""
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


def _cycle_product(mats, cycle) -> np.ndarray:
    """Product of mats along one cycle, in reverse traversal order."""
    prod = mats[cycle[0]]
    for p in cycle[1:]:
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
        if hits:  # traverse from the kept position
            i = cycle.index(hits[0])
            kept_mats[hits[0]] = _cycle_product(mats, cycle[i:] + cycle[:i])
        else:
            scalar *= np.trace(_cycle_product(mats, cycle))
    return [kept_mats[p] for p in keep], scalar


def per_permutation_first_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """E[Psi] as a sum over every permutation of S_{s+1}, one term each."""
    pure_state_vector(rho)
    mats = [np.eye(d, dtype=complex)] + [rho.astype(complex)] * s
    total = np.zeros((d, d), dtype=complex)
    for pi in all_permutations(s + 1):
        (m0,), scalar = _perm_trace_keep(pi, mats, (0,))
        total += scalar * m0
    total *= kappa(s, d) / kappa(s + 1, d) / math.factorial(s + 1)
    return hermitize(total)


def per_permutation_second_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """E[Psi x Psi] as a sum over every permutation of S_{s+2}, one term each.

    A permutation with 0 and 1 in one cycle is written (0 1) pi' with 0, 1
    in distinct cycles of pi', and the swap is applied to the kept factors.
    """
    pure_state_vector(rho)
    mats = [np.eye(d, dtype=complex)] * 2 + [rho.astype(complex)] * s
    swap = perm_operator(Permutation.transposition(2, 0, 1), d)
    tau = Permutation.transposition(s + 2, 0, 1)
    total = np.zeros((d * d, d * d), dtype=complex)
    for pi in all_permutations(s + 2):
        if pi.same_cycle(0, 1):
            (m0, m1), scalar = _perm_trace_keep(tau.compose(pi), mats, (0, 1))
            total += scalar * (swap @ np.kron(m0, m1))
        else:
            (m0, m1), scalar = _perm_trace_keep(pi, mats, (0, 1))
            total += scalar * np.kron(m0, m1)
    total *= kappa(s, d) / kappa(s + 2, d) / math.factorial(s + 2)
    return hermitize(total)


# shadow indices (first trace, second trace) of each covariance pattern
PATTERN_PAIRS = {
    "ij_jk": ((0, 1), (1, 2)),
    "ij_kj": ((0, 1), (2, 1)),
    "ij_ji": ((0, 1), (1, 0)),
    "ij_ij": ((0, 1), (0, 1)),
    "distinct": ((0, 1), (2, 3)),
}


def dense_pair_traces(O: np.ndarray, psi_i: np.ndarray, psi_j: np.ndarray) -> np.ndarray:
    """Tr(O rhohat_i rhohat_j) of each row of the (n, d) outcome vectors,
    through the dense d x d O: the reference for the factor form of
    shadowlab.moments.shadow_pair_traces.

    Expanding the shadows (d+1)|psi><psi| - I reduces each trace to inner
    products.  The one (n, d) temporary is a buffer that holds O|psi_i>,
    then its conjugate, then conj psi_i and last O|psi_j>.
    """
    d = O.shape[0]
    psi_i, psi_j = np.asarray(psi_i, dtype=complex), np.asarray(psi_j, dtype=complex)
    buf = np.matmul(psi_i, O.T)  # O|psi_i>; <psi|O|psi> on float views
    diag = np.einsum("ni,ni->n", psi_i.view(float), buf.view(float))
    out = np.einsum("ni,ni->n", np.conjugate(buf, out=buf), psi_j)  # <psi_i|O|psi_j>
    np.conjugate(out, out=out)
    out *= (d + 1) ** 2 * np.einsum("ni,ni->n", np.conjugate(psi_i, out=buf), psi_j)
    diag += np.einsum("ni,ni->n", psi_j.view(float), np.matmul(psi_j, O.T, out=buf).view(float))
    out -= (d + 1) * diag - np.trace(O)
    return out


def _ordered_pair_traces(O: np.ndarray, psi_i: np.ndarray, psi_j: np.ndarray) -> np.ndarray:
    """Tr(O rhohat_i rhohat_j) row by row, as (d+1)^2 <psi_j|O|psi_i><psi_i|psi_j>
    - (d+1)(<psi_i|O|psi_i> + <psi_j|O|psi_j>) + Tr O."""
    d = O.shape[0]
    o_ii = np.einsum("ni,ni->n", psi_i.conj() @ O, psi_i)
    bra_oj = psi_j.conj() @ O
    o_jj = np.einsum("ni,ni->n", bra_oj, psi_j)
    o_ji = np.einsum("ni,ni->n", bra_oj, psi_i)
    ov_ij = np.einsum("ni,ni->n", psi_i.conj(), psi_j)
    return (d + 1) ** 2 * o_ji * ov_ij - (d + 1) * (o_ii + o_jj) + np.trace(O)


def ordered_pair_covariances(patterns, rho: np.ndarray, O: np.ndarray, d: int, N: int,
                             rng: RngStream) -> list[tuple[float, float]]:
    """(covariance, standard error) per pattern from the draw mc_covariances
    makes with the same stream, in groups of one trial, with one trace
    variable per ordered pair."""
    pairs = [PATTERN_PAIRS[p] for p in patterns]
    n_shadows = max(max(ab + ce) for ab, ce in pairs) + 1
    phi = pure_state_vector(rho)
    traces = {ij: np.empty(N, dtype=complex) for pair in pairs for ij in pair}

    def reduce(g0, g1, parts):
        psis = reflect(phi, np.concatenate([part.copy() for part in parts]))
        psis = psis.reshape(g1 - g0, n_shadows, d)
        for (i, j), t in traces.items():
            t[g0:g1] = _ordered_pair_traces(O, psis[:, i], psis[:, j])

    stream_aligned_posterior_states(1, rng, d, d, N, n_shadows, reduce)
    for t in traces.values():
        t -= t.mean()
    out = []
    for ab, ce in pairs:
        prods = traces[ab] * traces[ce].conj()
        out.append((float(prods.mean().real), float(prods.real.std(ddof=1) / math.sqrt(N))))
    return out


def aligned_records(s: int, rng: RngStream, d: int, m: int, n: int) -> np.ndarray:
    """n m-wide records of the library's stream, one row a group, each chunk
    copied into its rows of one (n, m) array."""
    out = np.empty((n, m), dtype=complex)

    def copy(g0, g1, parts):
        out[g0:g1] = next(parts)

    stream_aligned_posterior_states(s, rng, d, m, n, 1, copy)
    return out
