"""Shadow construction and observable estimation.

Three unbiased estimators of a pure state rho from measurement outcomes:

* affine joint shadow  ((d+s) Psi - I)/s  from one joint outcome on s copies,
* linear mean          average of single-copy shadows (d+1) Psi_i - I,
* quadratic            average of rho_i rho_j over ordered pairs i != j,
  unbiased only for pure states (rho^2 = rho) and of unconstrained trace.

batch_estimates is the estimator kernel: it maps the outcome vectors and O
straight to the per-batch estimates Tr(O rhohat), never forming a d x d
shadow per outcome.  The Shadow constructors below are the dense reference
forms of the same estimators.

Batch planning converts a per-batch Chebyshev bound into a sample count and
an odd batch count for the median-of-means step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .linalg import hermitize
from .measurement import UNIT_NORM_TOL, JointOutcome

ShadowKind = Literal["affine_joint", "linear_single", "quadratic"]
EstimateKind = Literal["affine_joint", "linear", "quadratic"]

# Per-batch failure budget used throughout; k is forced odd so the median is
# always one of the batch estimates.
BATCH_FAILURE_P = 0.25


@dataclass(frozen=True)
class Shadow:
    """One batch estimate of rho; trace 1 except for the quadratic kind."""

    matrix: np.ndarray
    kind: ShadowKind
    s_used: int

    def __post_init__(self):
        scale = max(np.abs(self.matrix).max(), 1.0)
        if np.abs(self.matrix - self.matrix.conj().T).max() > 1e-9 * scale:
            raise ValueError("shadow matrix must be Hermitian")
        if self.kind in ("affine_joint", "linear_single"):
            if abs(np.trace(self.matrix).real - 1.0) > 1e-9:
                raise ValueError(f"{self.kind} shadow must have trace 1")


@dataclass(frozen=True)
class BatchPlan:
    """Samples per batch s, odd batch count k, per-batch failure budget p."""

    s: int
    k: int
    p: float = BATCH_FAILURE_P

    def __post_init__(self):
        if self.k % 2 != 1 or self.s < 1:
            raise ValueError("k must be odd and s >= 1")
        if not 0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 1/2)")

    @property
    def total(self) -> int:
        return self.s * self.k


def plan_batches(B: float, eps: float, delta: float, p: float = BATCH_FAILURE_P) -> BatchPlan:
    """Smallest (s, k) meeting the per-batch and median failure targets.

    s is the least integer with (B + 8s)/s^2 <= p * eps^2, so each batch
    estimate misses by >= eps with probability at most p; k is the least odd
    integer with sqrt(4p(1-p))^k <= delta.
    """
    if B < 1 or not 0 < eps <= 1 or not 0 < delta < 1:
        raise ValueError("require B >= 1, eps in (0,1], delta in (0,1)")
    target = p * eps * eps
    # (B + 8s) <= target * s^2; quadratic formula gives the crossover, then
    # walk to the exact least integer.
    s = max(1, math.floor((8 + math.sqrt(64 + 4 * target * B)) / (2 * target)) - 2)
    while (B + 8 * s) / (s * s) > target:
        s += 1
    k = math.ceil(math.log(1 / delta) / math.log(1 / math.sqrt(4 * p * (1 - p))))
    if k % 2 == 0:
        k += 1
    k = max(k, 1)
    return BatchPlan(s=s, k=k, p=p)


def batch_estimates(
    O: np.ndarray, outcomes: np.ndarray, kind: EstimateKind, copies: int = 1
) -> np.ndarray:
    """Per-batch estimates Tr(O rhohat) computed from the outcome vectors alone.

    affine_joint: outcomes (k, d), one joint outcome psi per batch from
    `copies` copies; the estimate is ((d+s) <psi|O|psi> - Tr O)/s with s = copies.
    linear, quadratic: outcomes (k, s, d), s single-copy outcomes per batch.
    With P = sum_i |psi_i><psi_i|, the shadow sums are S = (d+1) P - s I and
    Q = ((d+1)^2 - 2(d+1)) P + s I; linear is Tr(O S)/s and quadratic is
    Tr(O (S^2 - Q))/(s(s-1)).  Equals Tr(O shadow) of affine_shadow,
    linear_mean_shadow and quadratic_shadow.
    """
    if kind not in ("affine_joint", "linear", "quadratic"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    outcomes = np.ascontiguousarray(outcomes, dtype=complex)
    want_ndim = 2 if kind == "affine_joint" else 3
    if outcomes.ndim != want_ndim or outcomes.shape[0] < 1:
        raise ValueError(f"{kind} needs a non-empty outcome array with {want_ndim} axes")
    if kind == "affine_joint" and copies < 1:
        raise ValueError("copies must be >= 1")
    if kind == "quadratic" and outcomes.shape[1] < 2:
        raise ValueError("quadratic estimator needs at least 2 outcomes per batch")
    # |psi|^2 from the real and imaginary parts, without a complex temporary
    flat = outcomes.view(float)
    sq_norms = np.einsum("...i,...i->...", flat, flat)
    if np.abs(np.sqrt(sq_norms) - 1.0).max() > UNIT_NORM_TOL:
        raise ValueError("outcome states must be unit norm")
    d = outcomes.shape[-1]
    tr_o = np.trace(O).real
    if kind == "affine_joint":
        o_psi = ((outcomes.conj() @ O) * outcomes).real.sum(axis=1)
        return ((d + copies) * o_psi - tr_o) / copies
    s = outcomes.shape[1]
    P = outcomes.transpose(0, 2, 1) @ outcomes.conj()
    I = np.eye(d)
    S = (d + 1) * P - s * I
    if kind == "linear":
        return np.einsum("ij,kji->k", O, S).real / s
    Q = ((d + 1) ** 2 - 2 * (d + 1)) * P + s * I
    return np.einsum("ij,kji->k", O, S @ S - Q).real / (s * (s - 1))


def affine_shadow(outcome: JointOutcome, d: int) -> Shadow:
    """Unbiased trace-1 shadow ((d+s) |psi><psi| - I)/s from a joint outcome."""
    s = outcome.s
    proj = np.outer(outcome.psi, outcome.psi.conj())
    mat = ((d + s) * proj - np.eye(d)) / s
    return Shadow(matrix=hermitize(mat), kind="affine_joint", s_used=s)


def single_copy_shadow(outcome: JointOutcome, d: int) -> Shadow:
    """Unbiased shadow (d+1) |psi><psi| - I from one single-copy outcome."""
    if outcome.s != 1:
        raise ValueError("single-copy shadow needs an s=1 outcome")
    proj = np.outer(outcome.psi, outcome.psi.conj())
    return Shadow(matrix=hermitize((d + 1) * proj - np.eye(d)), kind="linear_single", s_used=1)


def median_estimate(O: np.ndarray, shadows: Sequence[Shadow]) -> float:
    """Middle order statistic of Tr(O shadow_i) over the batch shadows."""
    if not shadows:
        raise ValueError("need at least one shadow")
    vals = sorted(float(np.trace(O @ sh.matrix).real) for sh in shadows)
    return vals[len(vals) // 2]


def linear_mean_shadow(singles: Sequence[Shadow]) -> Shadow:
    """Arithmetic mean of single-copy shadows (the plain linear estimator)."""
    if not singles:
        raise ValueError("need at least one single-copy shadow")
    if any(sh.kind != "linear_single" for sh in singles):
        raise ValueError("inputs must be single-copy shadows")
    mean = sum(sh.matrix for sh in singles) / len(singles)
    return Shadow(matrix=hermitize(mean), kind="linear_single", s_used=len(singles))


def quadratic_shadow(singles: Sequence[Shadow]) -> Shadow:
    """Average of rho_i rho_j over ordered pairs i != j; unbiased for pure rho.

    Computed as (S^2 - Q)/(s(s-1)) with S = sum_i rho_i and Q = sum_i rho_i^2,
    which is algebraically identical to the pair sum at linear cost in s.
    The i,j and j,i terms are mutual adjoints, so the result is Hermitian.
    """
    s = len(singles)
    if s < 2:
        raise ValueError("quadratic estimator needs at least 2 single-copy shadows")
    if any(sh.kind != "linear_single" for sh in singles):
        raise ValueError("inputs must be single-copy shadows")
    S = sum(sh.matrix for sh in singles)
    Q = sum(sh.matrix @ sh.matrix for sh in singles)
    mat = (S @ S - Q) / (s * (s - 1))
    return Shadow(matrix=hermitize(mat), kind="quadratic", s_used=s)


def choose_estimator(B: float, d: int, eps: float) -> Literal["linear", "quadratic"]:
    """Quadratic wins iff eps <= sqrt(B/d); ties go to quadratic."""
    return "quadratic" if eps <= math.sqrt(B / d) else "linear"


def implied_trace_distance_bound(e_rho: float) -> float:
    """Trace-distance bound sqrt(8 |1 - E|) implied by an estimate E of Tr(rho rhohat).

    If the protocol's estimate at observable O = rho is within eps of 1, the
    learned state is within sqrt(8 eps) of rho in trace distance (via the
    pure-state fidelity identity and the Fuchs-van de Graaf inequality).
    """
    return math.sqrt(8 * abs(1 - e_rho))
