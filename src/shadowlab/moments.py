"""Exact moment and covariance formulas with brute-force cross-checks.

Closed forms for the first and second moments of the joint-measurement
outcome, and exact variances (the affine joint estimate's and the four
covariance patterns of the quadratic estimator's) in d and four scalars of
(rho, O).  Each is paired with an independent evaluation.  The moments have
a permutation-sum enumeration driven by cycle decomposition rather than d^s
storage.  The kept positions hold I and the rest rho, and I commutes with
rho, so every cycle reads a power of rho: permutations of S_{s+1} or
S_{s+2} with the same cycle counts of rho positions are one class, weighted
by its count.  The class table depends only on n and the kept positions, so
it is enumerated once per process; a call forms I, rho, ..., rho^s once and
reads each class's powers and traces from them, at poly(d) per class.
The covariances have a Monte Carlo sampler that serves all the patterns it
is asked for from one draw, made BLOCK_ROWS trials at a time into one reused
block, and reads them off one complex array of pair traces; only those and
one reused product buffer grow with the trial count.  A non-pure rho, or an O
that is not finite, Hermitian and d x d, is a ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ensembles import (
    BLOCK_ROWS,
    RngStream,
    pure_state_vector,
    reflect,
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

# Shadow indices ((i, j), (k, l)) of Cov(Tr(O rhohat_i rhohat_j), Tr(O rhohat_k rhohat_l)).
_PATTERNS = {
    "ij_jk": ((0, 1), (1, 2)),
    "ij_kj": ((0, 1), (2, 1)),
    "ij_ji": ((0, 1), (1, 0)),
    "ij_ij": ((0, 1), (0, 1)),
    "distinct": ((0, 1), (2, 3)),
}
COV_PATTERNS = tuple(_PATTERNS)

# Fewest Monte Carlo trials mc_covariances takes for a stable covariance estimate.
MC_MIN_TRIALS = 1000


def _check_observable(O: np.ndarray, d: int) -> None:
    """Raise ValueError unless O is a finite Hermitian d x d matrix; NaN fails too."""
    O = np.asarray(O)
    if not (O.shape == (d, d) and np.isfinite(O).all() and is_hermitian(O)):
        raise ValueError(f"observable must be a finite Hermitian {d} x {d} matrix")


def exact_first_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """E[Psi] = (I + s rho)/(d + s) for the joint measurement on s copies."""
    require_pure_state(rho)
    return (np.eye(d) + s * rho) / (d + s)


@functools.lru_cache
def _class_table(n: int, keep: tuple[int, ...]):
    """The classes of S_n with I at the keep positions and rho at the rest, as
    a tuple of (count, swapped, kept, traced).

    I commutes with rho, so a cycle reads rho^j, j its number of rho
    positions.  With two kept positions, a permutation with 0 and 1 in one
    cycle is first replaced by (0 1) pi and flagged as swapped, so each kept
    position lies in a cycle of its own.  kept is the j of each kept
    position's cycle, in keep order; traced is the sorted j of every other
    cycle, its length, since their traces only multiply.
    """
    tau = Permutation.transposition(n, 0, 1)
    classes: dict = {}
    for pi in all_permutations(n):
        swapped = len(keep) == 2 and pi.same_cycle(0, 1)
        if swapped:
            pi = tau.compose(pi)
        kept, traced = {}, []
        for cycle in pi.cycles():
            hits = [p for p in keep if p in cycle]
            if hits:
                kept[hits[0]] = len(cycle) - 1
            else:
                traced.append(len(cycle))
        key = (swapped, tuple(kept[p] for p in keep), tuple(sorted(traced)))
        classes.setdefault(key, [0, *key])[0] += 1
    return tuple(map(tuple, classes.values()))


def _rho_powers(rho: np.ndarray, s: int, d: int) -> tuple[list, list]:
    """[I, rho, ..., rho^s] and their traces; each power is the previous one
    times rho on the left, as W_pi contracts a cycle."""
    powers = [np.eye(d, dtype=complex)]
    for _ in range(s):
        powers.append(rho @ powers[-1])
    return powers, [np.trace(p) for p in powers]


def brute_first_moment(rho: np.ndarray, s: int, d: int) -> np.ndarray:
    """Permutation-sum evaluation of E[Psi] over all of S_{s+1}, one term per class."""
    rho = require_pure_state(rho)
    if math.factorial(s + 1) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    powers, traces = _rho_powers(rho, s, d)
    total = np.zeros((d, d), dtype=complex)
    for count, _, (j0,), traced in _class_table(s + 1, (0,)):
        total += count * math.prod(traces[j] for j in traced) * powers[j0]
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
    rho = require_pure_state(rho)
    if math.factorial(s + 2) > ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded")
    powers, traces = _rho_powers(rho, s, d)
    # [plain, swapped] sums of count * scalar * m0[i, j] m1[k, l]; kron order is (i k, j l)
    sums = np.zeros((2, d, d, d, d), dtype=complex)
    for count, swapped, (j0, j1), traced in _class_table(s + 2, (0, 1)):
        scalar = count * math.prod(traces[j] for j in traced)
        sums[int(swapped)] += scalar * np.multiply.outer(powers[j0], powers[j1])
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
    """The pattern's _PATTERNS entry; an unknown pattern is a ValueError."""
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; one of {COV_PATTERNS}")
    return _PATTERNS[pattern]


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

    psi_i, psi_j have shape (n, d) and O is Hermitian; expanding the shadows
    (d+1)|psi><psi| - I reduces each trace to inner products, avoiding
    per-sample matrices.  The swapped pair is the conjugate, Tr(O rhohat_j
    rhohat_i) = conj Tr(O rhohat_i rhohat_j), so one call per unordered pair.
    The one (n, d) temporary is a buffer that holds O|psi_i>, then its
    conjugate, then conj psi_i and last O|psi_j>.
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


def mc_shadows_per_trial(patterns, d: int, N: int) -> int:
    """Outcomes per trial in mc_covariances' draw, after its checks on N and on
    the memory it holds; it draws nothing, so a caller can run it first."""
    return _mc_workspace(patterns, d, N)[2]


def _mc_workspace(patterns, d: int, N: int):
    """mc_covariances' (pairs, keys, n_shadows): each pattern's index pairs, the
    unordered pairs traced and outcomes per trial.  A ValueError on a small N,
    or if what mc_covariances holds at once exceeds MAX_OUTCOME_BYTES: the
    block, three block-sized temporaries for a shadow_pair_traces call (an
    upper bound: it holds one), the traces, the N-long complex product
    buffer and a standard deviation's N-long float temporary, counted as a
    second complex one."""
    if N < MC_MIN_TRIALS:
        raise ValueError(f"need N >= {MC_MIN_TRIALS} for a stable covariance estimate")
    pairs = [_pattern_indices(p) for p in patterns]
    n_shadows = max(max(ab + ce) for ab, ce in pairs) + 1
    keys = list(dict.fromkeys(tuple(sorted(ij)) for pair in pairs for ij in pair))
    require_outcome_budget(
        16 * (min(N, BLOCK_ROWS) * (n_shadows + 3) * d + (len(keys) + 2) * N),
        f"{', '.join(patterns)}: {N} trials x {n_shadows} outcomes x d = {d}, "
        f"drawn {BLOCK_ROWS} trials a block, and {len(keys)} pair traces would",
        "use fewer trials or a smaller d",
    )
    return pairs, keys, n_shadows


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
    T(i, j) = Tr(O rhohat_i rhohat_j) once per unordered pair: O is Hermitian,
    so T(j, i) = conj T(i, j).  The outcomes are phi-aligned records, so O is
    reflected into their basis once, as H O H with ensembles.reflect; the
    traces are basis-invariant.  They are drawn BLOCK_ROWS trials at a time
    into one reused block; only the complex (pairs, N) trace array outlives
    it.  A pattern's covariance is the mean of Re(x conj y) over the centred
    traces, Re(x y) if one of its pairs is reversed.  A request that
    mc_shadows_per_trial refuses is a ValueError before anything is sampled.
    """
    pairs, keys, n_shadows = _mc_workspace(patterns, d, N)
    phi = pure_state_vector(rho)
    _check_observable(O, d)
    o_h = reflect(phi, np.array(O, dtype=complex, order="F").T).T  # O's columns: H O
    o_h = reflect(phi, np.conjugate(o_h, order="C")).T  # columns of (H O)^H = O H: H O H
    block = np.empty((min(N, BLOCK_ROWS) * n_shadows, d), dtype=complex)
    traces = np.empty((len(keys), N), dtype=complex)
    for lo in range(0, N, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, N - lo)
        blk = sample_aligned_posterior_states(1, rng, block[:rows * n_shadows], d)
        for t, (i, j) in zip(traces, keys):  # outcome i of every trial: rows i::n_shadows
            t[lo:lo + rows] = shadow_pair_traces(o_h, blk[i::n_shadows], blk[j::n_shadows])
    traces -= traces.mean(axis=1, keepdims=True)
    out, prod = [], np.empty(N, dtype=complex)  # one product buffer for every pattern
    for ab, ce in pairs:
        x, y = (traces[keys.index(tuple(sorted(ij)))] for ij in (ab, ce))
        if (ab[0] > ab[1]) != (ce[0] > ce[1]):
            np.multiply(x, y, out=prod)
        else:
            np.multiply(x, np.conjugate(y, out=prod), out=prod)
        p = prod.real
        out.append((float(p.mean()), float(p.std(ddof=1)) / math.sqrt(N)))
    return out
