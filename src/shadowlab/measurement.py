"""The two measurement primitives on copies of an unknown pure state.

measure_joint_batch simulates the symmetric joint POVM on s copies, n times;
measure_independent_batch is the single-copy special case.  The record is an
(n, d) array of outcome states, sampled directly from the known outcome law
(see ensembles), never by constructing the d^s-dimensional POVM.  For pure
inputs the POVM's "fail" element has probability zero and never occurs.
"""

from __future__ import annotations

import numpy as np

from .ensembles import RngStream, sample_posterior_states
from .linalg import is_hermitian

PURITY_TOL = 1e-8


def pure_state_vector(rho: np.ndarray) -> np.ndarray:
    """The unit vector of a pure density matrix; anything else is a ValueError.

    rho must be square, finite, Hermitian, of unit trace and idempotent, each
    to PURITY_TOL; the negated comparisons reject NaN.  The zero matrix fails
    the trace test.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho, PURITY_TOL):
        raise ValueError("density matrix must be Hermitian")
    if not abs(np.trace(rho) - 1.0) <= PURITY_TOL:
        raise ValueError("density matrix must have trace 1")
    if not np.abs(rho @ rho - rho).max() <= PURITY_TOL:
        raise ValueError("mixed states are not supported; input must be pure")
    return np.linalg.eigh(rho)[1][:, -1]


def as_state_vector(state: np.ndarray) -> np.ndarray:
    """Accept a state vector or a pure density matrix; reject mixed states.

    A state vector is normalized; a zero or non-finite one raises ValueError,
    since normalizing it would yield NaN.  A matrix goes to pure_state_vector.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        return pure_state_vector(state)
    norm = np.linalg.norm(state)
    if not 0 < norm < np.inf:  # zero, NaN, or an entry too large to square
        raise ValueError(f"state vector norm {norm} cannot be normalized")
    return state / norm


def measure_joint_batch(phi: np.ndarray, s: int, rng: RngStream, n: int) -> np.ndarray:
    """n independent joint-measurement outcomes, as an (n, d) array."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return sample_posterior_states(as_state_vector(phi), s, rng, n)


def measure_independent_batch(phi: np.ndarray, rng: RngStream, n: int) -> np.ndarray:
    """n independent single-copy outcomes, as an (n, d) array."""
    return measure_joint_batch(phi, 1, rng, n)
