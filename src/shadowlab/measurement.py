"""The two measurement primitives on copies of an unknown pure state.

measure_joint_batch simulates the symmetric joint POVM on s copies, n times;
measure_independent_batch is the single-copy special case.  The record is an
(n, d) array of outcome states, sampled directly from the known outcome law
(see ensembles), never by constructing the d^s-dimensional POVM.  For pure
inputs the POVM's "fail" element has probability zero and never occurs.
"""

from __future__ import annotations

import numpy as np

from .ensembles import RngStream, as_state_vector, sample_posterior_states


def measure_joint_batch(phi: np.ndarray, s: int, rng: RngStream, n: int) -> np.ndarray:
    """n independent joint-measurement outcomes, as an (n, d) array."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return sample_posterior_states(as_state_vector(phi), s, rng, n)


def measure_independent_batch(phi: np.ndarray, rng: RngStream, n: int) -> np.ndarray:
    """n independent single-copy outcomes, as an (n, d) array."""
    return measure_joint_batch(phi, 1, rng, n)
