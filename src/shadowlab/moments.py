"""Exact moment and covariance formulas with brute-force cross-checks.

Closed forms for the first and second moments of the joint-measurement
outcome, and exact variances (the affine joint estimate's and the four
covariance patterns of the quadratic estimator's) in d and four scalars of
(rho, O).  Each is paired with an independent evaluation.  The moments have
a permutation-sum enumeration driven by cycle decomposition rather than d^s
storage: permutations of S_{s+1} or S_{s+2} that read the same words of
matrices are one class, weighted by its count.  The class table holds each
class's words as labels of positions, depends only on n and on which
positions hold the same matrix, and so is enumerated once per process; a
call multiplies its own matrices along the words, at poly(d) per class.
The covariances have a Monte Carlo sampler that draws one outcome array for
all the patterns it is asked for.  A non-pure rho, or an O that is not
finite, Hermitian and d x d, is a ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ensembles import (
    BLOCK_ROWS,
    RngStream,
    phi_basis,
    pure_state_vector,
    require_outcome_budget,
    require_pure_state,
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
    require_pure_state(rho)
    return (np.eye(d) + s * rho) / (d + s)


def _perm_classes(n: int, mats, keep: tuple[int, ...], pull_swap: bool = False):
    """Every permutation of S_n, bucketed by the words of mats it reads: the
    _class_table of mats' label pattern, each object's first-occurrence index,
    so a label also indexes mats."""
    first: dict = {}
    pattern = tuple(first.setdefault(id(m), i) for i, m in enumerate(mats))
    return _class_table(n, pattern, keep, pull_swap)


@functools.lru_cache
def _class_table(n: int, pattern: tuple[int, ...], keep: tuple[int, ...], pull_swap: bool):
    """The classes of S_n over pattern, as a tuple of (count, swapped, words).

    With pull_swap, a permutation with 0 and 1 in one cycle is first replaced
    by (0 1) pi and flagged as swapped.  A class is the flag plus its words:
    for each cycle, the labels read from its kept position or its first
    element.  words is (kept words in keep order, traced words); the traced
    words are sorted, since their traces only multiply.  Each kept position
    must lie in a cycle of its own.
    """
    tau = Permutation.transposition(n, 0, 1)
    classes: dict = {}
    for pi in all_permutations(n):
        swapped = pull_swap and pi.same_cycle(0, 1)
        if swapped:
            pi = tau.compose(pi)
        kept, traced = {}, []
        for cycle in pi.cycles():
            hits = [p for p in keep if p in cycle]
            i = cycle.index(hits[0]) if hits else 0
            word = tuple(pattern[p] for p in cycle[i:] + cycle[:i])
            if hits:
                kept[hits[0]] = word
            else:
                traced.append(word)
        words = (tuple(kept[p] for p in keep), tuple(sorted(traced)))
        classes.setdefault((swapped, words), [0, swapped, words])[0] += 1
    return tuple(map(tuple, classes.values()))


def _word_product(mats, word) -> np.ndarray:
    """mats along one cycle's word, multiplied in reverse reading order as W_pi contracts them."""
    prod = mats[word[0]]
    for label in word[1:]:
        prod = mats[label] @ prod
    return prod


def _trace_words(mats, words) -> complex:
    """The product of the traces of the words' products."""
    return math.prod(np.trace(_word_product(mats, w)) for w in words)


def brute_first_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """Permutation-sum evaluation of E[Psi] over all of S_{s+1}, one term per class."""
    require_pure_state(rho)
    if math.factorial(s + 1) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    mats = [np.eye(d, dtype=complex)] + [rho.astype(complex)] * s
    total = np.zeros((d, d), dtype=complex)
    for count, _, ((w0,), traced) in _perm_classes(s + 1, mats, (0,)):
        total += count * _trace_words(mats, traced) * _word_product(mats, w0)
    total *= kappa(s, d) / kappa(s + 1, d) / math.factorial(s + 1)
    return hermitize(total)


def exact_second_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """E[Psi x Psi] on C^(d^2) for the joint measurement on s copies."""
    require_pure_state(rho)
    I = np.eye(d)
    a = I + s * rho
    M = np.kron(a, a) - (s * (s + 1) / 2) * np.kron(rho, rho)
    out = (2 / ((d + s) * (d + s + 1))) * (M @ sym_projector(2, d))
    return hermitize(out)


def brute_second_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """Permutation-sum evaluation of E[Psi x Psi] over all of S_{s+2}, one term per class.

    Permutations with positions 0 and 1 in distinct cycles factorize
    directly; for the others a swap of the two kept factors is pulled out of
    the partial trace and applied once, to the sum of their terms.
    """
    require_pure_state(rho)
    if math.factorial(s + 2) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    mats = [np.eye(d, dtype=complex)] * 2 + [rho.astype(complex)] * s
    # [plain, swapped] sums of count * scalar * m0[i, j] m1[k, l]; kron order is (i k, j l)
    sums = np.zeros((2, d, d, d, d), dtype=complex)
    for count, swapped, ((w0, w1), traced) in _perm_classes(s + 2, mats, (0, 1), pull_swap=True):
        m0, m1 = _word_product(mats, w0), _word_product(mats, w1)
        sums[int(swapped)] += count * _trace_words(mats, traced) * np.multiply.outer(m0, m1)
    plain, pulled = sums.transpose(0, 1, 3, 2, 4).reshape(2, d * d, d * d)
    # a swapped pi is (01) pi' with 0, 1 in distinct cycles of pi'; the swap
    # acts only on the kept factors
    total = plain + perm_operator(Permutation.transposition(2, 0, 1), d) @ pulled
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


def _scalars(rho: np.ndarray, O: np.ndarray, d: int) -> tuple[float, float, float, float]:
    """(Tr O, Tr O^2, Tr(O rho), Tr(O^2 rho)), all the exact variances read of
    (rho, O), after the checks on rho and O.  Tr(O^2 rho) = ||O rho||_F^2 for
    a pure rho, so O rho is the one d x d product."""
    rho = require_pure_state(rho)
    _check_observable(O, d)
    o_rho = np.asarray(O) @ rho
    traces = (np.trace(O), np.vdot(O, O), np.trace(o_rho), np.vdot(o_rho, o_rho))
    return tuple(float(t.real) for t in traces)


def exact_joint_variance(rho: np.ndarray, O: np.ndarray, s: int, d: int) -> float:
    """Exact Var(Tr(O rhohat)) for the affine joint shadow, in dimension d.

    The second moment contracted against O x O: with u = Tr O + s Tr(O rho),
    E[Tr(O Psi)] = u/(d+s) and E[Tr(O Psi)^2] = (u^2 + Tr O^2
    + 2s Tr(O^2 rho) - s Tr(O rho)^2)/((d+s)(d+s+1)).
    """
    t1, t2, a, b = _scalars(rho, O, d)
    u = t1 + s * a
    e1 = u / (d + s)
    e2 = (u * u + t2 + 2 * s * b - s * a * a) / ((d + s) * (d + s + 1))
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
    (c SWAP - e I), c = (d+1)/(d+2), e = 1/(d+2).  Contracted for each
    pattern, with rho^2 = rho, every trace reduces to d and the scalars
    t1 = Tr O, t2 = Tr O^2, a = Tr(O rho) and b = Tr(O^2 rho).
    """
    t1, t2, a, b = _scalars(rho, O, d)
    _pattern_indices(pattern)
    if pattern == "distinct":
        return 0.0
    c, e, aa = (d + 1) / (d + 2), 1 / (d + 2), a * a
    w = t2 + 6 * b + 2 * aa
    m = c * w - e * (t1 * t1 + 6 * a * t1 + 2 * aa)
    if pattern == "ij_jk":
        val = 3 * (c - e) * aa
    elif pattern == "ij_kj":
        val = c * (2 * b + aa) - 3 * e * aa
    elif pattern == "ij_ji":
        val = c * (c * ((t1 + a) ** 2 + 4 * a * t1 + aa) - e * w) - e * m
    else:  # ij_ij
        val = c * (c * ((d + 3) * t2 + 2 * (d + 1) * b + d * aa) - e * w) - e * m
    return float(val - aa)


def covariance_bound(pattern: str, rho: np.ndarray, O: np.ndarray, d: int) -> float:
    """Closed-form upper bound on the covariance for each pattern."""
    _, t2, a, b = _scalars(rho, O, d)
    _pattern_indices(pattern)
    if pattern == "ij_jk":
        return 2 * a * a
    if pattern == "ij_kj":
        return 2 * b
    if pattern == "distinct":
        return 0.0
    o_norm2 = float(np.abs(np.linalg.eigvalsh(O)).max() ** 2)
    if pattern == "ij_ji":
        return d * t2 + 6 * math.sqrt(d * t2) + o_norm2
    return (d + 2) * t2 + (3 * d - 2) * o_norm2  # ij_ij


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


def mc_shadows_per_trial(patterns, d: int, N: int) -> int:
    """Outcomes per trial in mc_covariances' draw, after its checks on N and on
    the draw's size; it draws nothing, so a caller can run it before its instance."""
    if N < 1000:
        raise ValueError("need N >= 1000 for a stable covariance estimate")
    n_shadows = max(max(ab + ce) for ab, ce in map(_pattern_indices, patterns)) + 1
    require_outcome_budget(
        N * n_shadows * d * 16,
        f"{', '.join(patterns)}: {N} trials x {n_shadows} outcomes x d = {d}",
        "use fewer trials",
    )
    return n_shadows


def mc_covariance(
    pattern: str, rho: np.ndarray, O: np.ndarray, d: int, N: int, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo covariance for a pattern, with its standard error: mc_covariances for one."""
    return mc_covariances((pattern,), rho, O, d, N, rng)[0]


def mc_covariances(
    patterns, rho: np.ndarray, O: np.ndarray, d: int, N: int, rng: RngStream
) -> list[tuple[float, float]]:
    """Monte Carlo covariance and its standard error for each pattern, from one draw.

    Independent cross-check of exact_covariance: draws N trials of fresh
    single-copy outcomes, as many per trial as the patterns index, and forms
    each distinct trace variable T(i, j) = Tr(O rhohat_i rhohat_j) once.  The
    outcomes are phi-aligned records, so O is rotated into their basis once;
    the traces are basis-invariant.  The N x n_shadows x d outcome array is
    held whole, so one larger than ensembles.MAX_OUTCOME_BYTES is a
    ValueError before anything is sampled; the traces run over BLOCK_ROWS
    trials at a time.
    """
    n_shadows = mc_shadows_per_trial(patterns, d, N)
    phi = pure_state_vector(rho)
    _check_observable(O, d)
    pairs = [_pattern_indices(p) for p in patterns]
    psis = np.empty((N * n_shadows, d), dtype=complex)
    psis = sample_aligned_posterior_states(1, rng, psis, d).reshape(N, n_shadows, d)
    q = phi_basis(phi)
    o_q = q.conj().T @ O @ q
    traces = {ij: np.empty(N, dtype=complex) for pair in pairs for ij in pair}
    for lo in range(0, N, BLOCK_ROWS):
        blk = psis[lo:lo + BLOCK_ROWS]
        for (i, j), t in traces.items():
            t[lo:lo + BLOCK_ROWS] = shadow_pair_traces(o_q, blk[:, i], blk[:, j])
    del psis, blk  # the outcomes are spent; only the traces are read below
    for t in traces.values():
        t -= t.mean()
    out = []
    for ab, ce in pairs:
        prods = traces[ab] * traces[ce].conj()
        out.append((float(prods.mean().real), float(prods.real.std(ddof=1) / math.sqrt(N))))
    return out
