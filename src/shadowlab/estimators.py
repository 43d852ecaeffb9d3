"""Observable estimation from measurement outcomes, and batch planning.

Two unbiased estimators of a pure state rho from measurement outcomes:

* linear     mean of the shadows ((d+c) Psi_i - I)/c of outcomes on c copies
  each: the joint estimator takes one outcome of s copies, HKP's s of one copy,
* quadratic  average of single-copy rho_i rho_j over pairs i != j,
  unbiased only for pure states (rho^2 = rho) and of unconstrained trace.

batch_estimates is the estimator kernel: it maps the outcome vectors and the
spectral factor of O straight to the per-batch estimates Tr(O rhohat),
never forming a d x d shadow or O itself.  affine_shadow and
median_estimate are the dense matrix form of the joint estimator, which
the Boolean Hidden Matching protocol still runs on.

Batch planning converts each estimator's per-batch Chebyshev bound into a
sample count and an odd batch count for the median-of-means step, through
one search shared by the three planners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .ensembles import UNIT_NORM_TOL
from .linalg import hermitize
from .observables import Observable

EstimateKind = Literal["linear", "quadratic"]

# Per-batch failure budget used throughout; k is forced odd so the median is
# always one of the batch estimates.
BATCH_FAILURE_P = 0.25

# Largest batch size a plan may ask for: beyond 2^53 an integer s is no
# longer exact as a float.  It bounds the planner's search, so an eps too
# small to plan for is a ValueError rather than an endless doubling.
MAX_PLAN_S = 2**53

# Widest records a quadratic batch reads through their real Gram.  In one-
# trial im sweeps timed end to end (2-core x86_64, ranks 1 to 16, median op
# time; BENCH_draw_threads.json), the Gram was 22-30% faster than the
# overlap path at widths 12 to 48, 2-11% slower at 64, and 11-14% slower at
# 96 and 100.
QUADRATIC_GRAM_MAX_WIDTH = 48


@dataclass(frozen=True)
class BatchPlan:
    """Samples per batch s and odd batch count k."""

    s: int
    k: int

    def __post_init__(self):
        if self.k % 2 != 1 or self.s < 1:
            raise ValueError("k must be odd and s >= 1")

    @property
    def total(self) -> int:
        return self.s * self.k


def _plan(bound, s_min: int, B: float, eps: float, delta: float) -> BatchPlan:
    """Least s >= s_min with bound(s) <= p eps^2, and the least odd k with
    sqrt(4p(1-p))^k <= delta, at p = BATCH_FAILURE_P.

    bound(s) is a per-batch Chebyshev variance bound, non-increasing in s, so
    each batch estimate misses by >= eps with probability at most p; doubling
    brackets the least s and bisection finds it.  No plan has s > MAX_PLAN_S.
    """
    if B < 1 or not 0 < eps <= 1 or not 0 < delta < 1:
        raise ValueError("require B >= 1, eps in (0,1], delta in (0,1)")
    p = BATCH_FAILURE_P
    target = p * eps * eps
    if not target > 0:
        raise ValueError(f"eps = {eps!r} is too small to plan for: p eps^2 underflows to 0")
    lo, hi = s_min - 1, s_min  # hi meets the target once the doubling stops; lo never does
    while bound(hi) > target:
        lo, hi = hi, 2 * hi
        if hi > MAX_PLAN_S:
            raise ValueError(f"eps = {eps!r} needs more than {MAX_PLAN_S} samples per batch")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= target else (mid, hi)
    x = -math.log(delta) / math.log(1 / math.sqrt(4 * p * (1 - p)))  # 1/delta may overflow
    return BatchPlan(s=hi, k=2 * math.ceil((x - 1) / 2) + 1)


def plan_batches(B: float, eps: float, delta: float) -> BatchPlan:
    """Plan for the linear estimator on one outcome of s copies: (B + 8s)/s^2 <= p eps^2."""
    return _plan(lambda s: (B + 8 * s) / (s * s), 1, B, eps, delta)


def plan_linear_batches(B: float, eps: float, delta: float) -> BatchPlan:
    """Plan for the per-copy linear estimator: (B + 8)/s <= p eps^2."""
    return _plan(lambda s: (B + 8) / s, 1, B, eps, delta)


def plan_quadratic_batches(B: float, d: int, eps: float, delta: float) -> BatchPlan:
    """Plan for the quadratic estimator: 16(Bd/s^2 + 1/s) <= p eps^2, s >= 2."""
    return _plan(lambda s: 16 * (B * d / s**2 + 1 / s), 2, B, eps, delta)


def batch_estimates(
    O: Observable,
    outcomes: np.ndarray,
    kind: EstimateKind,
    copies: int = 1,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Per-batch estimates Tr(O rhohat) computed from the outcome vectors alone.

    outcomes is (k, n, d): n outcomes psi_i per batch, each of one joint
    measurement on c = copies copies.  With P = sum_i |psi_i><psi_i|, linear
    is the mean of the n shadows ((d+c) Psi_i - I)/c, ((d+c) Tr(OP) - n Tr O)/(c n):
    the joint estimator is (n, c) = (1, s), whose estimates equal
    Tr(O affine_shadow(psi, s, d)), and the single-copy mean is (s, 1).
    Quadratic needs c = 1: with S = (d+1) P - n I and
    Q = ((d+1)^2 - 2(d+1)) P + n I, it is Tr(O (S^2 - Q))/(n(n-1)).

    Everything runs on the factor O = V diag(lam) V^H: with C_ij = <psi_i|v_j>,
    <psi_i|O|psi_i> = |C_i|^2 @ lam and Tr(O S^2) = sum_j lam_j ||S v_j||^2,
    where S V = (d+1) Psi^T C - n V.  The cost is O(k n d r) for rank r.

    With a frame (m, r), the outcomes are (..., m) records in another basis,
    such as those of ensembles.sample_aligned_posterior_states with their
    ensembles.aligned_frame, and C = <record|frame>, at O(k n m r) cost; d
    is still O's dimension.  Quadratic also needs the overlaps between
    outcomes, so it takes a frame only when the records carry every
    coordinate (m = d); S V is then computed in that basis, with the same
    norms.  A batch with n > 2 m^2 / r reads Tr(O P) from P instead of C,
    assembled from the real Gram of its records: (2m)^2 floats per batch,
    fewer than the n r complex entries of C.  Quadratic does so only up to
    m = QUADRATIC_GRAM_MAX_WIDTH, where it was measured faster than the
    overlap path (see ensembles on OpenBLAS's thread), and then takes
    S V = (d+1) P V - n V from the same P.
    """
    if kind not in ("linear", "quadratic"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    outcomes = np.ascontiguousarray(outcomes, dtype=complex)
    if outcomes.ndim != 3 or outcomes.size == 0:
        raise ValueError(f"{kind} needs a non-empty (k, n, d) outcome array")
    if copies < 1 or (kind == "quadratic" and copies != 1):
        raise ValueError(f"copies must be >= 1, and 1 for quadratic: got {copies}")
    if kind == "quadratic" and outcomes.shape[1] < 2:
        raise ValueError("quadratic estimator needs at least 2 outcomes per batch")
    V, lam = O.vecs, O.evals
    d = V.shape[0]
    if frame is not None:
        V = np.asarray(frame)
        if kind == "quadratic" and V.shape[0] != d:
            raise ValueError("quadratic estimator needs full outcome vectors, not reduced records")
        if V.shape[1:] != lam.shape:
            raise ValueError(f"frame must have shape (m, {lam.size}), got {V.shape}")
    if outcomes.shape[-1] != V.shape[0]:
        raise ValueError(f"outcome width {outcomes.shape[-1]} does not match {V.shape[0]}")
    # |psi|^2 from the real and imaginary parts, without a complex temporary
    flat = outcomes.view(float)
    sq_norms = np.einsum("...i,...i->...", flat, flat)
    if not np.abs(np.sqrt(sq_norms) - 1.0).max() <= UNIT_NORM_TOL:  # NaN fails too
        raise ValueError("outcome states must be unit norm")
    tr_o = lam.sum()
    n = outcomes.shape[1]
    P = None
    if _gram_pays(kind, V.shape[0], n, lam.size):
        # P[c, a] = sum_i psi_i[c] conj(psi_i[a]) from the real Gram R
        R = flat.transpose(0, 2, 1) @ flat
        P = R[:, ::2, ::2] + R[:, 1::2, 1::2] + 1j * (R[:, 1::2, ::2] - R[:, ::2, 1::2])
        tr_op = np.einsum("bca,ac->b", P, (V * lam) @ V.conj().T).real
    else:
        C = np.conj(outcomes @ V.conj())
        tr_op = ((C.real**2 + C.imag**2) @ lam).sum(axis=1)  # Tr(O P)
    if kind == "linear":
        return ((d + copies) * tr_op - n * tr_o) / (copies * n)
    # S V over column chunks of the factor at most n wide, so no temporary
    # outgrows the outcome block; r <= n is one chunk, as is every Gram batch
    tr_os2 = np.zeros(outcomes.shape[0])
    for lo in range(0, lam.size, n):
        SV = outcomes.transpose(0, 2, 1) @ C[:, :, lo:lo + n] if P is None else P @ V[:, lo:lo + n]
        SV *= d + 1
        SV -= n * V[:, lo:lo + n]
        tr_os2 += (SV.real**2 + SV.imag**2).sum(axis=1) @ lam[lo:lo + n]
    tr_oq = ((d + 1) ** 2 - 2 * (d + 1)) * tr_op + n * tr_o
    return (tr_os2 - tr_oq) / (n * (n - 1))


def _gram_pays(kind: EstimateKind, m: int, n: int, r: int) -> bool:
    """Whether batch_estimates reads a batch of n width-m records, against a
    rank-r factor, through their (2m)^2-float real Gram: n > 2 m^2 / r, and
    for quadratic m <= QUADRATIC_GRAM_MAX_WIDTH."""
    return 2 * m * m < n * r and (kind == "linear" or m <= QUADRATIC_GRAM_MAX_WIDTH)


def _outcome_projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for one outcome row, which must be a unit vector."""
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("outcome state must be unit norm")
    return np.outer(psi, np.conj(psi))


def affine_shadow(psi: np.ndarray, s: int, d: int) -> np.ndarray:
    """Unbiased trace-1 shadow ((d+s) |psi><psi| - I)/s from a joint outcome on s copies.

    The hermitize is not a no-op: numpy's complex products leave |psi><psi|
    off Hermitian in the last bit.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return hermitize(((d + s) * _outcome_projector(psi) - np.eye(d)) / s)


def median_estimate(O: np.ndarray, shadows: Sequence[np.ndarray]) -> float:
    """Middle order statistic of Re Tr(O shadow_i) over the batch shadow matrices.

    An even count returns the upper of the two middle values.  O is any
    square matrix, Hermitian or not, and each shadow must have its shape.
    Tr(O sh) = vdot(O^H, sh) with O^H formed once, so each shadow costs
    O(n^2), not an n x n product.
    """
    if not shadows:
        raise ValueError("need at least one shadow")
    O = np.asarray(O)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise ValueError(f"O must be a square matrix, got shape {O.shape}")
    if any(np.shape(sh) != O.shape for sh in shadows):
        raise ValueError(f"every shadow must have O's shape {O.shape}")
    O_h = np.ascontiguousarray(O.conj().T)
    vals = sorted(float(np.vdot(O_h, sh).real) for sh in shadows)
    return vals[len(vals) // 2]


def choose_estimator(B: float, d: int, eps: float) -> Literal["linear", "quadratic"]:
    """The paper's asymptotic rule: quadratic iff eps <= sqrt(B/d), ties to quadratic.

    It does not compare this module's plans: those give linear fewer copies
    whenever B < 8, e.g. s = 1632 quadratic against 1200 linear per batch
    at (d, B, eps) = (8, 4, 0.2), where the rule picks quadratic.
    """
    return "quadratic" if eps <= math.sqrt(B / d) else "linear"
