"""Boolean Hidden Matching instances and the one-way shadows protocol.

An instance pairs vertex bits x (Alice) with a matching plus edge bits
(Bob), under the promise that every edge parity x_i + x_j + w_k equals one
fixed bit b.  Encoding x as a sign state and the matching as a projector
makes the projector's expectation equal 2 * alpha * b exactly, so an
estimate accurate to alpha decides b.  The protocol below is strictly
one-way: Bob's side sees only the shadows, never x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import RngStream, require_outcome_budget
from .estimators import BatchPlan, affine_shadow, median_estimate, plan_batches
from .measurement import measure_joint_batch
from .observables import Observable


@dataclass(frozen=True)
class BHMInstance:
    n: int
    alpha: float
    x: tuple[int, ...]
    matching: tuple[tuple[int, int], ...]
    w: tuple[int, ...]
    b: int

    def __post_init__(self):
        m = len(self.matching)
        if abs(self.alpha * self.n - m) > 1e-9:
            raise ValueError("alpha * n must equal the number of edges")
        flat = [v for edge in self.matching for v in edge]
        if len(set(flat)) != 2 * m or any(not 0 <= v < self.n for v in flat):
            raise ValueError("matching edges must be disjoint vertex pairs")
        if len(self.w) != m or len(self.x) != self.n:
            raise ValueError("bit vector lengths inconsistent with n, alpha")
        for (i, j), wk in zip(self.matching, self.w):
            if self.x[i] ^ self.x[j] ^ wk != self.b:
                raise ValueError("promise violated: edge parity disagrees with b")


def _edge_count(n: int, alpha: float) -> int:
    """The matching's edge count alpha * n, checked to be a whole number that n vertices hold."""
    if not math.isfinite(alpha * n):
        raise ValueError(f"alpha * n = {alpha * n} must be finite (alpha = {alpha}, n = {n})")
    m = round(alpha * n)
    if abs(alpha * n - m) > 1e-9 or m < 1:
        raise ValueError(f"alpha * n = {alpha * n} is not a positive integer")
    if 2 * m > n:
        raise ValueError(f"matching needs 2 * alpha * n = {2 * m} <= n = {n} vertices")
    return m


def protocol_plan(n: int, alpha: float, delta: float) -> BatchPlan:
    """The batches a protocol run takes on n vertices: the projector has B = m = alpha n,
    and an estimate within eps = m / n of its expectation 2 alpha b decides b.

    Alice holds k dense n x n shadows, so a plan whose shadows would pass
    ensembles.MAX_OUTCOME_BYTES is a ValueError before anything is drawn."""
    m = _edge_count(n, alpha)
    plan = plan_batches(B=float(m), eps=m / n, delta=delta)
    require_outcome_budget(
        plan.k * n * n * 16, f"bhm ({plan.k} shadows of n = {n}) would", "use a smaller n"
    )
    return plan


def gen_instance(n: int, alpha: float, b: int, rng: RngStream) -> BHMInstance:
    """Uniformly random promise-satisfying instance with answer bit b."""
    m = _edge_count(n, alpha)
    x = tuple(int(v) for v in rng.gen.integers(0, 2, size=n))
    verts = rng.gen.permutation(n)
    matching = tuple((int(verts[2 * k]), int(verts[2 * k + 1])) for k in range(m))
    w = tuple(b ^ x[i] ^ x[j] for i, j in matching)
    return BHMInstance(n=n, alpha=m / n, x=x, matching=matching, w=w, b=b)


def sign_state(x: Sequence[int]) -> np.ndarray:
    """Unit vector with amplitudes (-1)^{x_i} / sqrt(n)."""
    n = len(x)
    if n < 2:
        raise ValueError("need n >= 2")
    signs = np.array([(-1.0) ** xi for xi in x])
    return (signs / math.sqrt(n)).astype(complex)


def matching_observable(
    matching: Sequence[tuple[int, int]], w: Sequence[int], n: int
) -> Observable:
    """Rank-(alpha n) projector built from the matched vertex pairs.

    Each edge contributes the projector onto (|i> - (-1)^{w_k} |j>)/sqrt(2);
    disjoint edges make these vectors orthonormal, so they are the factor of
    a projector with Tr(O^2) = alpha n and operator norm 1.
    """
    flat = [v for edge in matching for v in edge]
    if len(set(flat)) != len(flat):
        raise ValueError("matching edges overlap")
    m = len(matching)
    vecs = np.zeros((n, m))
    for k, ((i, j), wk) in enumerate(zip(matching, w)):
        vecs[i, k] = 1 / math.sqrt(2)
        vecs[j, k] = -((-1.0) ** wk) / math.sqrt(2)
    return Observable(vecs=vecs, evals=np.ones(m))


def expected_value(inst: BHMInstance) -> float:
    """Exact projector expectation 2 * alpha * b, computed two independent ways."""
    psi = sign_state(inst.x)
    O = matching_observable(inst.matching, inst.w, inst.n).matrix
    trace_val = float(np.real(psi.conj() @ (O @ psi)))
    parity_val = sum(
        1 - (-1.0) ** (inst.x[i] ^ inst.x[j] ^ wk)
        for (i, j), wk in zip(inst.matching, inst.w)
    ) / inst.n
    if abs(trace_val - parity_val) > 1e-12:
        raise AssertionError("trace and parity evaluations disagree")
    return trace_val


def alice_shadows(x: Sequence[int], plan: BatchPlan, rng: RngStream) -> list[np.ndarray]:
    """Alice's side: measure batches of the sign state, keep only the n x n shadows."""
    n = len(x)
    outcomes = measure_joint_batch(sign_state(x), plan.s, rng, plan.k)
    return [affine_shadow(psi, plan.s, n) for psi in outcomes]


def bob_guess(
    shadows: Sequence[np.ndarray],
    matching: Sequence[tuple[int, int]],
    w: Sequence[int],
    n: int,
) -> int:
    """Bob's side: median estimate of the projector expectation, rounded to a bit.

    Values of E/(2 alpha) below 1/2 map to 0, above to 1; the exact tie is
    measure-zero under the protocol and maps to 1 for determinism.  The cost
    is the O(n^2 alpha n) build of the projector plus O(n^2) per shadow.
    """
    alpha = len(matching) / n
    est = median_estimate(matching_observable(matching, w, n).matrix, shadows)
    return 0 if est / (2 * alpha) < 0.5 else 1


def run_protocol(inst: BHMInstance, delta: float, rng: RngStream) -> tuple[int, int]:
    """One-way protocol run; returns (guessed bit, samples consumed)."""
    plan = protocol_plan(inst.n, inst.alpha, delta)
    shadows = alice_shadows(inst.x, plan, rng)
    guess = bob_guess(shadows, inst.matching, inst.w, inst.n)
    return guess, plan.total
