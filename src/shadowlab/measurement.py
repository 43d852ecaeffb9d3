"""The two measurement primitives on copies of an unknown pure state.

measure_joint simulates the symmetric joint POVM on s copies at once;
measure_independent is the single-copy special case.  Outcomes are sampled
directly from the known outcome law (see ensembles), never by constructing
the d^s-dimensional POVM.  For pure inputs the POVM's "fail" element has
probability zero and never occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import RngStream, sample_posterior_state, sample_posterior_states
from .linalg import hermitize, is_hermitian

PURITY_TOL = 1e-8
UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class JointOutcome:
    """Measurement record: the outcome state psi and copies consumed."""

    psi: np.ndarray
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if abs(np.linalg.norm(self.psi) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("outcome state must be unit norm")


def as_state_vector(state: np.ndarray) -> np.ndarray:
    """Accept a state vector or a pure density matrix; reject mixed states.

    Non-finite entries, a zero vector and a matrix without unit trace (the
    zero matrix included) raise ValueError: normalizing them would yield NaN
    or a vector that is not the input state.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        norm = np.linalg.norm(state)
        if not 0 < norm < np.inf:  # zero, NaN, or an entry too large to square
            raise ValueError(f"state vector norm {norm} cannot be normalized")
        return state / norm
    if state.ndim != 2 or state.shape[0] != state.shape[1]:
        raise ValueError(f"expected vector or square matrix, got shape {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(state):
        raise ValueError("density matrix must be Hermitian")
    rho = hermitize(state)
    if abs(np.trace(rho).real - 1.0) > PURITY_TOL:
        raise ValueError("density matrix must have trace 1")
    if np.abs(rho @ rho - rho).max() > PURITY_TOL:
        raise ValueError("mixed states are not supported; input must be pure")
    evals, evecs = np.linalg.eigh(rho)
    return evecs[:, -1]


def measure_joint(phi: np.ndarray, s: int, rng: RngStream) -> JointOutcome:
    """Measure phi^(x s) with the symmetric joint POVM on s copies."""
    if s < 1:
        raise ValueError("s must be >= 1")
    vec = as_state_vector(phi)
    return JointOutcome(psi=sample_posterior_state(vec, s, rng), s=s)


def measure_joint_batch(phi: np.ndarray, s: int, rng: RngStream, n: int) -> np.ndarray:
    """n independent joint-measurement outcomes, as an (n, d) array."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return sample_posterior_states(as_state_vector(phi), s, rng, n)


def measure_independent(phi: np.ndarray, rng: RngStream) -> JointOutcome:
    """Measure a single copy of phi with the s=1 POVM."""
    return measure_joint(phi, 1, rng)


def measure_independent_batch(phi: np.ndarray, rng: RngStream, n: int) -> np.ndarray:
    """n independent single-copy outcomes, as an (n, d) array."""
    return measure_joint_batch(phi, 1, rng, n)
