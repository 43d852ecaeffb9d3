"""Observable estimation from measurement outcomes, and batch planning.

Two unbiased estimators of a pure state rho from measurement outcomes:

* linear     mean of the shadows ((d+c) Psi_i - I)/c of outcomes on c copies
  each: the joint estimator takes one outcome of s copies, HKP's s of one copy,
* quadratic  average of single-copy rho_i rho_j over pairs i != j,
  unbiased only for pure states (rho^2 = rho) and of unconstrained trace.

BatchReduction is the estimator kernel: it maps the outcome vectors and the
spectral factor of O straight to the per-batch estimates Tr(O rhohat),
never forming a d x d shadow or O itself, from whole batches or one
batch's consecutive parts, as the chunks of a stream arrive; batch_estimates
is its reduce-then-finish form for a whole (k, n, m) outcome array.  affine_shadow and
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


class BatchReduction:
    """Per-batch estimates Tr(O rhohat) of k batches of n outcomes, computed
    from the outcome vectors alone, as they arrive a chunk at a time, in any
    order and from any thread: whole batches, or one batch in parts.

    Each outcome psi_i is of one joint measurement on c = copies copies.
    With P = sum_i |psi_i><psi_i| over a batch, linear is the mean of the n
    shadows ((d+c) Psi_i - I)/c, ((d+c) Tr(OP) - n Tr O)/(c n): the joint
    estimator is (n, c) = (1, s), whose estimates equal
    Tr(O affine_shadow(psi, s, d)), and the single-copy mean is (s, 1).
    Quadratic needs c = 1: with S = (d+1) P - n I and
    Q = ((d+1)^2 - 2(d+1)) P + n I, it is Tr(O (S^2 - Q))/(n(n-1)).

    Everything runs on the factor O = V diag(lam) V^H: with C_ij = <psi_i|v_j>,
    <psi_i|O|psi_i> = |C_i|^2 @ lam and Tr(O S^2) = sum_j lam_j ||S v_j||^2,
    where S V = (d+1) Psi^T C - n V.  The cost is O(k n d r) for rank r.
    With a frame (m, r), the outcomes are width-m records in another basis,
    such as the stream ensembles.stream_aligned_posterior_states hands out,
    with ensembles.aligned_frame, and C = <record|frame>, at O(k n m r) cost; d
    is still O's dimension.  Quadratic also needs the overlaps between
    outcomes, so it takes a frame only when the records carry every
    coordinate (m = d); S V is then computed in that basis, with the same
    norms.

    reduce turns a batch's rows, or a part of them, into additive
    statistics: Tr(O P) and, for quadratic, Psi^T C.  A batch with
    n > 2 m^2 / r is reduced instead to the real Gram R of its records,
    (2m)^2 floats, fewer than the n r complex entries of C; finish reads it
    as P, for Tr(O P) against O's matrix W = V diag(lam) V^H in the
    records' basis and quadratic's S V = (d+1) P V - n V.  Quadratic does
    so only up to m = QUADRATIC_GRAM_MAX_WIDTH, where it was measured
    faster than the overlap path (see ensembles on OpenBLAS's thread).
    finish turns a batch's summed statistics into its estimate.

    add checks each part's norms once.  It reduces the whole batches of one
    part in one vectorised call and finishes them at once, or sums one
    batch's parts in the order they come and finishes it after the last;
    estimates is complete once every batch has been added.  Psi^T C is
    r / n times a batch's records, so a factor wider than n reduces and
    finishes whole batches in groups of about rows / r, which keeps that
    statistic near the part's size.
    """

    def __init__(self, O: Observable, kind: EstimateKind, n: int, k: int, copies: int = 1,
                 frame: np.ndarray | None = None):
        if kind not in ("linear", "quadratic"):
            raise ValueError(f"unknown estimator kind {kind!r}")
        if copies < 1 or (kind == "quadratic" and copies != 1):
            raise ValueError(f"copies must be >= 1, and 1 for quadratic: got {copies}")
        if n < 1 or k < 1:
            raise ValueError(f"{kind} needs at least one batch of at least one outcome: "
                             f"got k = {k}, n = {n}")
        if kind == "quadratic" and n < 2:
            raise ValueError("quadratic estimator needs at least 2 outcomes per batch")
        V, lam = O.vecs, O.evals
        self.d = V.shape[0]
        if frame is not None:
            V = np.asarray(frame)
            if kind == "quadratic" and V.shape[0] != self.d:
                raise ValueError(
                    "quadratic estimator needs full outcome vectors, not reduced records")
            if V.shape[1:] != lam.shape:
                raise ValueError(f"frame must have shape (m, {lam.size}), got {V.shape}")
        self.kind, self.n, self.copies, self.V, self.lam = kind, n, copies, V, lam
        self._tr_o = lam.sum()  # Tr O
        self.gram = _gram_pays(kind, V.shape[0], n, lam.size)
        self._wide = kind == "quadratic" and not self.gram and lam.size > n  # Psi^T C > records
        if self.gram:  # O in the records' basis: Tr(O P) = sum(P * W.T)
            self._W = (V * lam) @ V.conj().T
        self.estimates = np.empty(k)

    def add(self, g0: int, g1: int, parts) -> None:
        """Reduce and finish batches g0 to g1 from parts, an iterable of
        C-contiguous (rows, m) record arrays, after checking that each record
        is a unit vector to UNIT_NORM_TOL: either one array of the batches'
        (g1 - g0) n rows, or one batch's rows in consecutive parts, whose
        statistics are summed in order."""
        k, n = len(self.estimates), self.n
        if not 0 <= g0 < g1 <= k:
            raise ValueError(f"batches {g0} to {g1} are not among the {k}")
        want, rows, total = (g1 - g0) * n, 0, None
        for records in parts:
            if records.ndim != 2 or not len(records):
                raise ValueError(f"a part must be a non-empty (rows, m) array: {records.shape}")
            if records.shape[1] != self.V.shape[0]:
                raise ValueError(f"outcome width {records.shape[1]} is not {self.V.shape[0]}")
            rows += len(records)
            if rows > want or g1 - g0 > 1 and rows < want:
                raise ValueError(f"batches {g0} to {g1} are {want} rows, in one part or, for one "
                                 f"batch, in several: not {rows}")
            # |psi|^2 from the real and imaginary parts, without a complex temporary
            flat = records.view(float)
            sq_norms = np.einsum("ij,ij->i", flat, flat)
            tol = UNIT_NORM_TOL  # squared bounds of | |psi| - 1 | <= tol; NaN fails them too
            if not (1 - tol) ** 2 <= sq_norms.min() <= sq_norms.max() <= (1 + tol) ** 2:
                raise ValueError("outcome states must be unit norm")
            if len(records) == want:  # whole batches in one part
                whole = records.reshape(g1 - g0, n, -1)
                step = max(1, len(records) // self.lam.size) if self._wide else g1 - g0
                for b in range(0, g1 - g0, step):
                    group = whole[b:b + step]
                    self.estimates[g0 + b:g0 + b + len(group)] = self.finish(self.reduce(group))
                continue
            stats = self.reduce(records[None])
            if total is None:
                total = stats
            else:
                for x, y in zip(total, stats):
                    x += y
        if rows < want:
            raise ValueError(f"batches {g0} to {g1} are {want} rows, not {rows}")
        if total is not None:
            self.estimates[g0] = self.finish(total)[0]

    def reduce(self, records: np.ndarray) -> tuple:
        """The statistics of each batch, or part, of the (batches, rows, m) records."""
        if self.gram:
            flat = records.view(float)
            return (flat.transpose(0, 2, 1) @ flat,)
        C = np.conj(records @ self.V.conj())
        tr_op = ((C.real**2 + C.imag**2) @ self.lam).sum(axis=1)  # Tr(O P)
        return (tr_op,) if self.kind == "linear" else (tr_op, records.transpose(0, 2, 1) @ C)

    def finish(self, stats: tuple) -> np.ndarray:
        """The estimate of each batch from its whole statistics; a Psi^T C
        among them is overwritten."""
        d, n, c, V, lam = self.d, self.n, self.copies, self.V, self.lam
        if self.gram:  # P[c, a] = sum_i psi_i[c] conj(psi_i[a]) from the real Gram R
            R = stats[0]
            P = R[:, ::2, ::2] + R[:, 1::2, 1::2] + 1j * (R[:, 1::2, ::2] - R[:, ::2, 1::2])
            tr_op = np.einsum("bca,ac->b", P, self._W).real
        else:
            tr_op = stats[0]
        if self.kind == "linear":
            return ((d + c) * tr_op - n * self._tr_o) / (c * n)
        SV = P @ V if self.gram else stats[1]
        SV *= d + 1
        SV -= n * V
        tr_os2 = (SV.real**2 + SV.imag**2).sum(axis=1) @ lam
        tr_oq = ((d + 1) ** 2 - 2 * (d + 1)) * tr_op + n * self._tr_o
        return (tr_os2 - tr_oq) / (n * (n - 1))


def batch_estimates(
    O: Observable,
    outcomes: np.ndarray,
    kind: EstimateKind,
    copies: int = 1,
    frame: np.ndarray | None = None,
) -> np.ndarray:
    """Per-batch estimates Tr(O rhohat) of the (k, n, m) outcomes, k batches
    of n: a BatchReduction(O, kind, n, k, copies, frame) that is given them as
    one part, which reduces and finishes every batch at once."""
    outcomes = np.ascontiguousarray(outcomes, dtype=complex)
    if outcomes.ndim != 3:
        raise ValueError(f"{kind} needs a (k, n, m) outcome array, got shape {outcomes.shape}")
    k, n, m = outcomes.shape
    reduction = BatchReduction(O, kind, n, k, copies, frame)
    reduction.add(0, k, [outcomes.reshape(k * n, m)])
    return reduction.estimates


def _gram_pays(kind: EstimateKind, m: int, n: int, r: int) -> bool:
    """Whether BatchReduction reads a batch of n width-m records, against a
    rank-r factor, through their (2m)^2-float real Gram: n > 2 m^2 / r, and
    for quadratic m <= QUADRATIC_GRAM_MAX_WIDTH."""
    return 2 * m * m < n * r and (kind == "linear" or m <= QUADRATIC_GRAM_MAX_WIDTH)


def affine_shadow(psi: np.ndarray, s: int, d: int) -> np.ndarray:
    """Unbiased trace-1 shadow ((d+s) |psi><psi| - I)/s from a joint outcome on s copies.

    The hermitize is not a no-op: numpy's complex products leave |psi><psi|
    off Hermitian in the last bit.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("outcome state must be unit norm")
    return hermitize(((d + s) * np.outer(psi, np.conj(psi)) - np.eye(d)) / s)


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
