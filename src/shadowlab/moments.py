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
is asked for from one stream of draws.  It conditions ij_jk and ij_kj on
their shared outcome, which reads only the single-copy shadow's
unbiasedness, not the second moment that exact_covariance contracts, and
leaves an error that does not grow with d; the other patterns it reads off
pair traces.  Each chunk of the stream, whole trials, is reduced on the
participant that drew it, through O's spectral factor, at O(d r) per
outcome; only the pair traces and one product buffer grow with the trial
count.  A non-pure rho,
or an O that is not finite, Hermitian and d x d, is a ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ensembles import (
    CHUNK_FLOATS,
    RngStream,
    _cores,
    aligned_frame,
    pure_state_vector,
    require_outcome_budget,
    require_pure_state,
    stream_aligned_posterior_states,
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
from .observables import EIGENVALUE_CUTOFF

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

# The patterns that mc_covariances conditions on their shared outcome.
_CONDITIONED = ("ij_jk", "ij_kj")

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


def _weights(frame: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The (2r, d) rows whose product with the records' transpose is C^T over
    (d+1)^2 lam C^T, C = records @ conj(F)."""
    d = frame.shape[0]
    return np.concatenate([frame, frame * ((d + 1) ** 2 * lam)], axis=1).T.conj()


def shadow_pair_traces(frame: np.ndarray, lam: np.ndarray, records: np.ndarray,
                       pairs) -> np.ndarray:
    """T(i, j) = Tr(O rhohat_i rhohat_j) of each (i, j) of pairs for each of
    the n trials of the (n, k, d) single-copy outcome vectors records, as a
    (len(pairs), n) array, through O = F diag(lam) F^H, F the (d, r) frame in
    the records' basis.  With C = records @ conj(F), expanding the shadows
    (d+1)|psi><psi| - I gives T(i, j) = (d+1)^2 <psi_j|O|psi_i><psi_i|psi_j>
    - (d+1)(|C_i|^2 lam + |C_j|^2 lam) + Tr O, <psi_j|O|psi_i> = sum_q lam_q
    conj(C_jq) C_iq, at O(n k d r) and no d x d matrix; T(j, i) = conj T(i, j).
    One product gives C and (d+1)^2 lam C (_weights), so the later steps run
    along the outcomes as einsums and ufuncs: a BLAS product with lam would
    wake OpenBLAS's worker thread on a draw-pool core.
    """
    n, k, d = records.shape
    return _pair_traces(_weights(frame, lam) @ records.reshape(n * k, d).T, lam, records, pairs)


def _pair_traces(ct, lam, records, pairs):
    """shadow_pair_traces from the records' product ct with _weights;
    conjugates its C^T rows in place."""
    n, k, d = records.shape
    c, lc = ct[:lam.size], ct[lam.size:]
    # u = (d+1) <psi|O|psi> - Tr O / 2 of every outcome, so T(i, j) = (d+1)^2 ... - u_i - u_j
    u = np.einsum("qm,qm->m", c.real, lc.real)
    u += np.einsum("qm,qm->m", c.imag, lc.imag)
    u /= d + 1
    u -= lam.sum() / 2
    u = u.reshape(n, k)
    np.conjugate(c, out=c)
    bra = np.conjugate(records)
    out = np.empty((len(pairs), n), dtype=complex)
    for t, (i, j) in zip(out, pairs):
        np.einsum("qm,qm->m", c[:, j::k], lc[:, i::k], out=t)  # (d+1)^2 <psi_j|O|psi_i>
        t *= np.einsum("mi,mi->m", bra[:, i], records[:, j])  # <psi_i|psi_j>
        t -= u[:, i] + u[:, j]
    return out


def mc_shadows_per_trial(patterns, d: int, N: int) -> int:
    """Outcomes per trial in mc_covariances' draw, after its checks on N and on
    the memory it holds; it draws nothing, so a caller can run it first."""
    return _mc_workspace(patterns, d, N)[2]


def _mc_workspace(patterns, d: int, N: int):
    """mc_covariances' (pairs, keys, n_shadows, conditioned): each pattern's
    index pairs, the unordered pairs of the plain patterns, outcomes per
    trial and whether a pattern is conditioned.  A ValueError on a small N,
    or if what mc_covariances holds exceeds MAX_OUTCOME_BYTES: the traces,
    the N-long complex product buffer and a standard deviation's N-long
    float temporary, counted as a second complex one; eight dense d x d
    arrays, measured at a covariance gate's peak (rho, O, rho @ rho, the
    eigh of rho and of O, O @ rho and LAPACK's workspace); and per
    participant four chunks, or trials if a trial is wider: its buffer, the
    trial's parts copied out of it and gathered, and the pair traces'
    conjugate of the records.  The conditioned patterns hold only a 5 x 5
    Gram matrix per chunk, which it does not count."""
    if N < MC_MIN_TRIALS:
        raise ValueError(f"need N >= {MC_MIN_TRIALS} for a stable covariance estimate")
    pairs = [_pattern_indices(p) for p in patterns]
    plain = [pair for p, pair in zip(patterns, pairs) if p not in _CONDITIONED]
    conditioned = len(plain) < len(pairs)
    n_shadows = max((max(ab + ce) + 1 for ab, ce in plain), default=1)
    keys = list(dict.fromkeys(tuple(sorted(ij)) for pair in plain for ij in pair))
    held = 4 * max(CHUNK_FLOATS // 2, n_shadows * d) * _cores()
    require_outcome_budget(
        16 * ((len(keys) + 2) * N + 8 * d * d + held),
        f"{', '.join(patterns)}: {N} trials x {n_shadows} outcomes x d = {d}, "
        f"{len(keys)} pair traces and eight dense d x d arrays would",
        "use fewer trials or a smaller d",
    )
    return pairs, keys, n_shadows, conditioned


def _conditioned_rows(gram: np.ndarray, k: int, N: int) -> dict:
    """ij_jk's and ij_kj's (covariance, standard error) from the Gram matrix,
    over the N trials, of z = (1, s, t, x, y): a trial's sums over its k
    outcomes of Re A, Im A, (Re A)^2 and (Im A)^2.  With A_c = A minus its
    sample mean, a trial's values are its means of Re A_c^2 = (Re A_c)^2 -
    (Im A_c)^2 and of |A_c|^2, their sum: each is w . z for one w, so its
    sum over the trials is w . gram[:, 0] and its sum of squares w gram w."""
    scale = np.array([1.0] + [1 / k] * 4)
    gram = gram * np.outer(scale, scale)  # of the trials' means
    a, b = gram[0, 1] / N, gram[0, 2] / N  # the sample means of Re A and Im A
    out = {}
    for pattern, sign in (("ij_jk", -1), ("ij_kj", 1)):
        w = np.array([a * a + sign * b * b, -2 * a, -2 * sign * b, 1, sign])
        mean = float(w @ gram[:, 0]) / N
        var = (float(w @ gram @ w) - N * mean * mean) / (N - 1)
        out[pattern] = (mean, math.sqrt(var / N))
    return out


def mc_covariance(
    pattern: str, rho: np.ndarray, O: np.ndarray, d: int, N: int, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo covariance for a pattern, with its standard error:
    mc_covariances for one, so ij_jk and ij_kj draw one outcome per trial and
    read it through A, and the others draw the outcomes their pairs index."""
    return mc_covariances((pattern,), rho, O, d, N, rng)[0]


def mc_covariances(
    patterns, rho: np.ndarray, O: np.ndarray, d: int, N: int, rng: RngStream
) -> list[tuple[float, float]]:
    """Monte Carlo covariance and its standard error for each pattern, from one draw.

    Independent cross-check of exact_covariance: draws N trials of fresh
    single-copy outcomes, as many per trial as the plain patterns index (one
    if there are none).  ij_jk and ij_kj are conditioned on their shared
    outcome (a Rao-Blackwell step that reads only E[rhohat] = rho): their
    covariances are those of A(psi) = (d+1) <psi|O phi><phi|psi>, read from
    every outcome drawn.  With A_c = A minus its sample mean, ij_jk is the
    mean of Re A_c^2 and ij_kj of |A_c|^2, at an error that does not grow
    with d.  The plain patterns read T(i, j) = Tr(O rhohat_i rhohat_j),
    formed once per unordered pair (O is Hermitian, so T(j, i) =
    conj T(i, j)): a covariance is the mean of Re(x conj y) over the centred
    traces, Re(x y) if one of its pairs is reversed.  A trial's value is the
    mean over its outcomes, and the standard error is that of the N values.

    O is factored with one eigh, keeping the eigenpairs with |lam| >
    EIGENVALUE_CUTOFF ||O||, and its frame F reflected into the phi-aligned
    records' basis (aligned_frame).  There phi is the first basis vector up
    to a phase that A cancels, so A = (d+1) psi_0 conj(sum_q lam_q F[0, q]
    <f_q|psi>), and the traces are basis-invariant.  The records are
    streamed in groups of one trial (stream_aligned_posterior_states).  Each
    chunk is reduced on the participant that drew it, from one product with
    the frame (_weights), to its trials' pair traces and to the Gram matrix
    of their sums of Re A, Im A and their squares (_conditioned_rows).  A
    trial wider than a chunk comes in parts, whose rows are gathered first.
    A request that mc_shadows_per_trial refuses is a ValueError before
    anything is sampled.
    """
    pairs, keys, n_shadows, conditioned = _mc_workspace(patterns, d, N)
    phi = pure_state_vector(rho)
    _check_observable(O, d)
    lam, vecs = np.linalg.eigh(O)
    keep = np.abs(lam) > EIGENVALUE_CUTOFF * np.abs(lam).max()
    lam, frame = lam[keep], aligned_frame(phi, vecs[:, keep], full=True)
    weights = _weights(frame, lam)
    f0 = frame[0] / (d + 1)  # A = psi_0 conj(f0 . (d+1)^2 lam C)
    traces = np.empty((len(keys), N), dtype=complex)
    grams = {}  # the conditioned patterns' Gram matrix of each chunk, by its first trial

    def reduce(g0, g1, parts):  # whole trials, or one trial in parts
        records = next(parts)
        if len(records) < (g1 - g0) * n_shadows:
            records = np.concatenate([records.copy(), *(part.copy() for part in parts)])
        records = records.reshape(g1 - g0, n_shadows, d)
        ct = weights @ records.reshape(-1, d).T
        if conditioned:  # an einsum: a BLAS product would wake OpenBLAS's worker thread
            lc = ct[lam.size:].reshape(-1, g1 - g0, n_shadows)
            a = np.einsum("q,qtj->jt", f0, lc, order="C")
            np.conjugate(a, out=a)
            a *= records[:, :, 0].T
            re_im = a.view(float).reshape(n_shadows, g1 - g0, 2)  # Re A, Im A by outcome
            z = np.empty((5, g1 - g0))
            z[0] = 1
            z[1:3] = re_im.sum(axis=0).T  # the trials' sums over their outcomes
            z[3:] = np.square(re_im, out=re_im).sum(axis=0).T
            grams[g0] = np.einsum("it,jt->ij", z, z)
        if keys:
            traces[:, g0:g1] = _pair_traces(ct, lam, records, keys)

    stream_aligned_posterior_states(1, rng, d, d, N, n_shadows, reduce)
    done = {}
    if conditioned:  # the chunks' Gram matrices summed in stream order
        done = _conditioned_rows(sum(grams[g] for g in sorted(grams)), n_shadows, N)
    traces -= traces.mean(axis=1, keepdims=True)
    out, prod = [], np.empty(N, dtype=complex) if keys else None  # one for every plain pattern
    for pattern, (ab, ce) in zip(patterns, pairs):
        if pattern in done:
            out.append(done[pattern])
            continue
        x, y = (traces[keys.index(tuple(sorted(ij)))] for ij in (ab, ce))
        if (ab[0] > ab[1]) != (ce[0] > ce[1]):
            np.multiply(x, y, out=prod)
        else:
            np.multiply(x, np.conjugate(y, out=prod), out=prod)
        p = prod.real
        out.append((float(p.mean()), float(p.std(ddof=1)) / math.sqrt(N)))
    return out
